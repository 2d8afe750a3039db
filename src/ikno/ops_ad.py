"""Differentiable wrappers for the axis kernel factors and the
Kronecker-structured kernel operators, each with a hand-written
vector-Jacobian product.

Each learnable axis kernel factor c * (exp(-(beta d)^2) + exp(-|gamma| |d|))
is one op over its (log c, beta, gamma) parameters, whose gradient is three
reductions against the upstream gradient.

The resolvent forward passes reuse the numeric routines from
:mod:`ikno.resolvent`. Both infinite-order resolvents are R = U diag(D) U^T
in the axis eigenbasis, so one op with one eigenbasis adjoint serves them,
and one prebuilt operator per branch serves every forward and backward
application.

Grid-cloud cross kernels are Khatri-Rao (column-wise Kronecker) products of
per-axis factors, so their gradient contracts the upstream gradient with the
other axes' factors and never differentiates through an M x n array of
exponentials. A stacked batch meets its cross kernels through per-sample
block products, so the resolvents see the whole batch as extra channels.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, custom_op
from .resolvent import Resolvent, apply_resolvent, build_tp, build_vanilla
from .tensor_linalg import mode_apply

__all__ = [
    "build_tp",  # build the operators that the resolvent ops take
    "build_vanilla",
    "axis_kernel_ad",
    "block_matmul_ad",
    "khatri_rao_ad",
    "mode_apply_ad",
    "resolvent_ad",
    "truncated_ad",
]


def _unfold(t: np.ndarray, axis: int) -> np.ndarray:
    """Move tensor axis to the front and flatten the rest (channels last)."""
    return np.moveaxis(t, axis, 0).reshape(t.shape[axis], -1)


def _spread(a: np.ndarray, axis: int, ndim: int, transpose: bool) -> np.ndarray:
    """View an (N_j, n) factor as a broadcastable slice of the (N_1, ..., N_d, n)
    product, or of its (n, N_1, ..., N_d) transpose."""
    shape = [1] * ndim
    shape[axis] = a.shape[0]
    if transpose:
        return np.ascontiguousarray(a.T).reshape(a.shape[1], *shape)
    return a.reshape(*shape, a.shape[1])


def axis_kernel_ad(theta: Tensor, dx: np.ndarray) -> Tensor:
    """The base kernel c * (exp(-(beta d)^2) + exp(-|gamma| |d|)) over an
    array of coordinate differences ``dx``, with theta = (log c, beta, gamma).

    With gauss and lap the two exponentials and g the upstream gradient,
    log c receives sum(g K), beta -2 beta c sum(g gauss d^2) and gamma
    -sign(gamma) c sum(g lap |d|), so gamma = 0 receives 0. The arithmetic
    repeats :func:`ikno.kernels.axis_kernel_matrix` instead of calling it,
    so that function stays an independent oracle for the cross kernels.
    """
    logc, beta, gamma = theta.data
    absd = np.abs(dx)
    gauss = np.exp(-((beta * dx) ** 2))
    lap = np.exp(-(abs(gamma) * absd))
    c = np.exp(logc)
    out = c * (gauss + lap)

    def backward(g):
        return [np.array([
            np.vdot(g, out),
            -2.0 * beta * c * np.vdot(g, gauss * (dx * dx)),
            -np.sign(gamma) * c * np.vdot(g, lap * absd),
        ])]

    return custom_op([theta], out, backward)


def khatri_rao_ad(factors: list[Tensor], transpose: bool = False) -> Tensor:
    """Column-wise Kronecker (Khatri-Rao) product of per-axis factors.

    Factor j is (N_j, n). The result K is (M, n) with M = N_1 ... N_d and
    rows in the product grid's order (axis 1 slowest), so
    K[(i_1, ..., i_d), p] = F_1[i_1, p] * ... * F_d[i_d, p], multiplied in
    axis order; ``transpose`` returns the C-contiguous (n, M) transpose.
    The backward pass reshapes the upstream gradient to the grid, multiplies
    it by the other axes' factors and sums over their axes, giving N_j x n.
    """
    mats = [f.data for f in factors]
    d = len(mats)
    sizes = tuple(a.shape[0] for a in mats)
    n = mats[0].shape[1]
    m = int(np.prod(sizes))
    spread = [_spread(a, j, d, transpose) for j, a in enumerate(mats)]
    out = spread[0]
    for f in spread[1:]:
        out = out * f
    # explicit shapes: reshape(-1, n) is ambiguous for an empty cloud
    out = np.ascontiguousarray(out.reshape((n, m) if transpose else (m, n)))
    grid_axes = [1 + j if transpose else j for j in range(d)]

    def backward(g):
        gt = g.reshape((n, *sizes) if transpose else (*sizes, n))
        grads = []
        for j in range(d):
            t = gt
            for l in range(d):
                if l != j:
                    t = t * spread[l]
            gj = t.sum(axis=tuple(a for l, a in enumerate(grid_axes) if l != j))
            grads.append(gj.T if transpose else gj)
        return grads

    return custom_op(list(factors), out, backward)


def _blocks(x: np.ndarray, batch: int, axis: int) -> np.ndarray:
    """(B, r, c) view of a 2-D array that stacks B blocks along ``axis``."""
    r, c = x.shape
    if axis == 0:
        return x.reshape(batch, r // batch, c)
    return x.reshape(r, batch, c // batch).swapaxes(0, 1)


def _unblocks(x: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of :func:`_blocks`: stack the B blocks of x along ``axis``."""
    b, r, c = x.shape
    if axis == 0:
        return x.reshape(b * r, c)
    return x.swapaxes(0, 1).reshape(r, b * c)


def block_matmul_ad(a: Tensor, b: Tensor, batch: int, axes: tuple[int, int, int]) -> Tensor:
    """Per-sample products of two stacked operands.

    ``a`` and ``b`` are 2-D and stack ``batch`` blocks along axes[0] and
    axes[1]; block i of the result, stacked along axes[2], is a_i @ b_i.
    The encoder's (M, B*n) cross kernel times (B*n, h) tokens gives the
    (M, B*h) latent features with axes (1, 0, 1); the decoder's (B*n_q, M)
    cross kernel times (M, B*h) features gives (B*n_q, h) with (0, 1, 0).
    """
    ax_a, ax_b, ax_out = axes
    a3, b3 = _blocks(a.data, batch, ax_a), _blocks(b.data, batch, ax_b)
    out = _unblocks(a3 @ b3, ax_out)

    def backward(g):
        g3 = _blocks(g, batch, ax_out)
        return [
            _unblocks(g3 @ b3.swapaxes(1, 2), ax_a),
            _unblocks(a3.swapaxes(1, 2) @ g3, ax_b),
        ]

    return custom_op([a, b], out, backward)


def mode_apply_ad(x: Tensor, a: Tensor, axis: int) -> Tensor:
    out = mode_apply(x.data, axis, a.data)

    def backward(g):
        gx = mode_apply(g, axis, a.data.T) if x.requires_grad else None
        ga = _unfold(g, axis) @ _unfold(x.data, axis).T if a.requires_grad else None
        return [gx, ga]

    return custom_op([x, a], out, backward)


def resolvent_ad(r: Resolvent, x: Tensor, grams: list[Tensor], alpha: Tensor) -> Tensor:
    """R = U diag(D) U^T applied to x through ``r``, the vanilla or tp
    operator built from the values of ``grams`` and ``alpha``.

    With g-hat = U^T g, w-hat = D * g-hat and y-hat = U^T y, x receives
    U w-hat (R is symmetric). The divided difference of D along axis j is
    alpha * c_j * D_a * D_b, so with H_j = unfold_j(w-hat) unfold_j(c_j * y-hat)^T,
    K_j receives alpha * U_j H_j U_j^T and alpha receives
    euler * sum_j sum_a lambda_j[a] H_j[a, a]. The backward takes 3d mode
    products, or 2d when neither the Grams nor alpha need a gradient (a
    fixed kernel), since only their gradients read y-hat.
    """
    y = apply_resolvent(r, x.data)

    def backward(g):
        w_hat = r.to_eigenbasis(g)
        w_hat *= r.diag_weights[..., None]
        k_bars, g_alpha = [None] * len(grams), 0.0
        if alpha.requires_grad or any(k.requires_grad for k in grams):
            y_hat = r.to_eigenbasis(y)  # recomputed: the op keeps no eigenbasis copy
            for j, (e, c) in enumerate(zip(r.axis_eigs, r.cofactors)):
                h = _unfold(w_hat, j) @ _unfold(c[..., None] * y_hat, j).T
                if grams[j].requires_grad:
                    k_bars[j] = r.alpha * (e.eigenvectors @ h @ e.eigenvectors.T)
                g_alpha += e.eigenvalues @ np.diagonal(h)
            del y_hat  # x_bar last, so that y_hat and x_bar are never alive together
        x_bar = r.from_eigenbasis(w_hat) if x.requires_grad else None
        a_bar = np.array(r.euler * g_alpha) if alpha.requires_grad else None
        return [x_bar, *k_bars, a_bar]

    return custom_op([x, *grams, alpha], y, backward)


def truncated_ad(x: Tensor, grams: list[Tensor], alpha: Tensor, order: int) -> Tensor:
    """Horner recursion s <- x + alpha * K s with K = kron(grams)."""
    s = x
    for _ in range(order):
        ks = s
        for j, k in enumerate(grams):
            ks = mode_apply_ad(ks, k, j)
        s = x + alpha * ks
    return s
