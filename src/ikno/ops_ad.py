"""Differentiable wrappers for the axis kernel factors and the
Kronecker-structured kernel operators, each with a hand-written
vector-Jacobian product.

Each learnable axis kernel factor c * (exp(-(beta d)^2) + exp(-|gamma| |d|))
is one op over its (log c, beta, gamma) parameters, whose gradient is three
reductions against the upstream gradient.

Grid-cloud cross kernels are Khatri-Rao (column-wise Kronecker) products of
per-axis factors, so their gradient contracts the upstream gradient with the
other axes' factors and never differentiates through an M x n array of
exponentials. A stacked batch meets its cross kernels through per-sample
block products, so the operators see the whole batch as extra channels.

Every operator variant (vanilla, tp and the truncated partial sum) is
R = U diag(D) U^T in the axis eigenbasis of a prebuilt
:class:`ikno.resolvent.Resolvent`, and U^T KR(A_1, ..., A_d)
= KR(U_1^T A_1, ..., U_d^T A_d) (the mixed-product rule). So the encoder's
R K_GP V and the decoder's K_QG R v are one op each. The rotation on the
cross-kernel side runs on the N_j x n factors, and the latent grid is
rotated once per direction: d mode products in the forward pass and d in
the backward pass, whatever the variant or truncation order. One prebuilt
operator per branch serves both ops; only D and the divided-difference
pairs of its Gram gradient differ between variants.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, custom_op
from .resolvent import Resolvent, build_tp, build_truncated, build_vanilla

__all__ = [
    "build_tp",  # build the operators that the resolvent ops take
    "build_truncated",
    "build_vanilla",
    "axis_kernel_ad",
    "resolvent_decode_ad",
    "resolvent_encode_ad",
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


def _khatri_rao(mats: list[np.ndarray], transpose: bool) -> tuple[np.ndarray, list[np.ndarray]]:
    """The Khatri-Rao product of (N_j, n) factors, (M, n) or its
    C-contiguous (n, M) transpose, with the broadcastable factor views that
    :func:`_khatri_rao_vjp` reads."""
    d = len(mats)
    n = mats[0].shape[1]
    m = int(np.prod([a.shape[0] for a in mats]))
    spread = [_spread(a, j, d, transpose) for j, a in enumerate(mats)]
    out = spread[0]
    for f in spread[1:]:
        out = out * f
    # explicit shapes: reshape(-1, n) is ambiguous for an empty cloud
    return np.ascontiguousarray(out.reshape((n, m) if transpose else (m, n))), spread


def _khatri_rao_vjp(g: np.ndarray, spread: list[np.ndarray], transpose: bool) -> list[np.ndarray]:
    """The (N_j, n) factor gradients of a Khatri-Rao product whose upstream
    gradient is ``g``: reshape it to the grid, multiply by the other axes'
    factors and sum over their axes."""
    d = len(spread)
    sizes = tuple(f.shape[1 + j if transpose else j] for j, f in enumerate(spread))
    n = spread[0].shape[0 if transpose else -1]
    gt = g.reshape((n, *sizes) if transpose else (*sizes, n))
    grid_axes = [1 + j if transpose else j for j in range(d)]
    grads = []
    for j in range(d):
        t = gt
        for l in range(d):
            if l != j:
                t = t * spread[l]
        gj = t.sum(axis=tuple(a for l, a in enumerate(grid_axes) if l != j))
        grads.append(gj.T if transpose else gj)
    return grads


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


def _eigen_factors(r: Resolvent, factors: list[Tensor]) -> list[np.ndarray]:
    """U_j^T A_j for each (N_j, n) axis factor A_j: by the mixed-product rule
    U^T KR(A_1, ..., A_d) = KR(U_1^T A_1, ..., U_d^T A_d), so a cross kernel
    enters the eigenbasis through its small factors, not the grid."""
    return [e.eigenvectors.T @ f.data for e, f in zip(r.axis_eigs, factors)]


def _factor_grads(r: Resolvent, g_hat: np.ndarray, spread, transpose: bool) -> list[np.ndarray]:
    """A_j's gradient U_j * (the Khatri-Rao VJP of g-hat), from the gradient
    g-hat of the rotated cross kernel U^T K."""
    grads = _khatri_rao_vjp(g_hat, spread, transpose)
    return [e.eigenvectors @ gj for e, gj in zip(r.axis_eigs, grads)]


def _weighted(r: Resolvent, t_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """D * t-hat for an eigenbasis tensor t-hat, written C-contiguous so that
    its (M, channels) view and the per-sample blocks of that view need no
    copy, and the side of r's divided-difference pairs that t-hat feeds
    :func:`_spectral_grads`: t-hat itself, or D * t-hat for the single pair
    (D, D) of vanilla and tp, so that their t-hat need not stay alive, or
    None where there are no pairs (truncated order 0)."""
    w = np.multiply(t_hat, r.diag_weights[..., None], order="C")
    return w, (w if r.pairs is None else t_hat if r.pairs else None)


def _spectral_grads(
    r: Resolvent, g_side: np.ndarray, x_side: np.ndarray, grams: list[Tensor], alpha: Tensor
):
    """The Gram and alpha gradients of y = R x, from g-hat = U^T g and
    x-hat = U^T x, both (N_1, ..., N_d, channels). For the single pair
    (D, D) of vanilla and tp, ``g_side`` and ``x_side`` are D * g-hat and
    D * x-hat, which the ops hold anyway; otherwise they are g-hat and x-hat,
    and neither is read where there are no pairs.

    The divided difference of D along axis j is
    alpha * c_j * sum_i F_i[a] G_i[b] over r's pairs, so with
    H_j = sum_i unfold_j(F_i * g-hat) unfold_j(c_j * G_i * x-hat)^T (one
    GEMM per axis and pair), K_j receives alpha * U_j H_j U_j^T and alpha
    receives euler * sum_j sum_a lambda_j[a] H_j[a, a]. The grid-shaped
    weights c_j * G_i are formed before they meet x-hat.
    """
    if r.pairs is None:
        terms = [(g_side, r.cofactors)]
    else:
        terms = ((f[..., None] * g_side, [c * s for c in r.cofactors]) for f, s in r.pairs)
    hs = [np.zeros((n, n)) for n in r.axis_sizes]
    for left, weights in terms:
        for j, w in enumerate(weights):
            hs[j] += _unfold(left, j) @ _unfold(w[..., None] * x_side, j).T
    k_bars, g_alpha = [None] * len(grams), 0.0
    for j, (e, h) in enumerate(zip(r.axis_eigs, hs)):
        if grams[j].requires_grad:
            k_bars[j] = r.alpha * (e.eigenvectors @ h @ e.eigenvectors.T)
        g_alpha += e.eigenvalues @ np.diagonal(h)
    a_bar = np.array(r.euler * g_alpha) if alpha.requires_grad else None
    return k_bars, a_bar


def resolvent_encode_ad(
    r: Resolvent, factors: list[Tensor], v: Tensor, grams: list[Tensor], alpha: Tensor, batch: int
) -> Tensor:
    """y = R blocks(K_GP) V: the (N_1, ..., N_d, B*h) latent features of a
    stacked batch of B clouds.

    ``r`` is the operator U diag(D) U^T built from the values of ``grams``
    and ``alpha``; ``factors`` are the (N_j, B*n) axis factors of the
    encoder's cross kernel K_GP = KR(A_1, ..., A_d), and ``v`` the (B*n, h)
    point tokens. With A-hat_j = U_j^T A_j and K-hat = KR(A-hat), the
    forward pass is x-hat = K-hat V per sample and y-hat = D * x-hat, then
    y = U y-hat: d mode products. The backward pass takes d more, for
    g-hat = U^T g and w-hat = D * g-hat: V receives K-hat^T w-hat, A_j the
    rotated Khatri-Rao VJP of w-hat V^T, and the Grams and alpha
    :func:`_spectral_grads` of g-hat and x-hat. U is never differentiated:
    R acts on K_GP V, which does not depend on the Grams, so the rotation
    only re-associates the product.
    """
    sizes = r.axis_sizes
    k_hat, spread = _khatri_rao(_eigen_factors(r, factors), False)
    k3, v3 = _blocks(k_hat, batch, 1), _blocks(v.data, batch, 0)  # (B, M, n), (B, n, h)

    def eigen_features(weighted: bool) -> np.ndarray:  # y-hat, or x-hat
        t = _unblocks(k3 @ v3, 1).reshape(*sizes, -1)
        if weighted:
            t *= r.diag_weights[..., None]
        return t

    y = r.from_eigenbasis(eigen_features(True))

    def backward(g):
        w_hat, g_side = _weighted(r, r.to_eigenbasis(g))
        w3 = _blocks(w_hat.reshape(k_hat.shape[0], -1), batch, 1)  # (B, M, h)
        a_bars = [None] * len(factors)
        if any(f.requires_grad for f in factors):
            a_bars = _factor_grads(r, _unblocks(w3 @ v3.swapaxes(1, 2), 1), spread, False)
        k_bars, a_bar = [None] * len(grams), None
        # a fixed kernel's Grams and alpha need no gradient; x-hat is
        # recomputed, as the op keeps no copy of it, unless r has no pairs
        if alpha.requires_grad or any(k.requires_grad for k in grams):
            x_side = None if r.pairs == () else eigen_features(r.pairs is None)
            k_bars, a_bar = _spectral_grads(r, g_side, x_side, grams, alpha)
        v_bar = _unblocks(k3.swapaxes(1, 2) @ w3, 0) if v.requires_grad else None
        return [*a_bars, v_bar, *k_bars, a_bar]

    return custom_op([*factors, v, *grams, alpha], y, backward)


def resolvent_decode_ad(
    r: Resolvent, factors: list[Tensor], v: Tensor, grams: list[Tensor], alpha: Tensor, batch: int
) -> Tensor:
    """out = blocks(K_QG) R v: the (B*n_q, h) query features of a stacked
    batch of B query sets.

    ``r`` is as for :func:`resolvent_encode_ad`; ``factors`` are the
    (N_j, B*n_q) axis factors of the decoder's cross kernel
    K_QG = KR(A_1, ..., A_d)^T, and ``v`` holds the latent features in the
    (N_1, ..., N_d, B*h) memory order, as (M*B, h) or grid-shaped. The
    forward pass takes d mode products for x-hat = U^T v and
    y-hat = D * x-hat, then out = K-hat^T y-hat per sample with
    K-hat = KR(U_j^T A_j). The backward pass takes d more: with
    g-hat = K-hat g per sample and w-hat = D * g-hat, v receives U w-hat,
    A_j the rotated Khatri-Rao VJP of g y-hat^T, and the Grams and alpha
    :func:`_spectral_grads` of g-hat and x-hat.
    """
    sizes = r.axis_sizes
    k_hat, spread = _khatri_rao(_eigen_factors(r, factors), True)
    y_hat, x_side = _weighted(r, r.to_eigenbasis(v.data.reshape(*sizes, -1)))
    k3 = _blocks(k_hat, batch, 0)  # (B, n_q, M)
    y3 = _blocks(y_hat.reshape(k_hat.shape[1], -1), batch, 1)  # (B, M, h)
    out = _unblocks(k3 @ y3, 0)

    def backward(g):
        g3 = _blocks(g, batch, 0)  # (B, n_q, h)
        a_bars = [None] * len(factors)
        if any(f.requires_grad for f in factors):
            a_bars = _factor_grads(r, _unblocks(g3 @ y3.swapaxes(1, 2), 0), spread, True)
        w_hat, g_side = _weighted(r, _unblocks(k3.swapaxes(1, 2) @ g3, 1).reshape(y_hat.shape))
        k_bars, a_bar = [None] * len(grams), None
        if alpha.requires_grad or any(k.requires_grad for k in grams):
            k_bars, a_bar = _spectral_grads(r, g_side, x_side, grams, alpha)
        v_bar = r.from_eigenbasis(w_hat) if v.requires_grad else None
        return [*a_bars, v_bar, *k_bars, a_bar]

    return custom_op([*factors, v, *grams, alpha], out, backward)
