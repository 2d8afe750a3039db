"""Differentiable wrappers for the axis kernel factors and the
Kronecker-structured kernel operators, each with a hand-written
vector-Jacobian product.

Each learnable axis kernel factor c * (exp(-(beta d)^2) + exp(-|gamma| |d|))
is one op over its (log c, beta, gamma) parameters, whose gradient is three
reductions against the upstream gradient.

Grid-cloud cross kernels are Khatri-Rao (column-wise Kronecker) products of
per-axis factors, and no M x n cross kernel is ever formed, forward or
backward. :class:`KhatriRaoCross` holds one as its first axis factor A_1
and the transposed Khatri-Rao product P of the others, N_1 times smaller
than the kernel, and contracts it one mode at a time: one GEMM against A_1
per sample, with a wide right-hand side, and one broadcast product with P.
Its factor gradients come from the same two forms, and P's gradient reaches
the other factors through a Khatri-Rao VJP over d - 1 factors. A stacked
batch meets its cross kernels sample by sample, so the operators see the
whole batch as extra channels.

The encoder's R K_GP V and the decoder's K_QG R v are one op each over a
prebuilt :class:`ikno.resolvent.Resolvent`, which serves both ops, and the
operator's structure picks one of two paths. Vanilla and the truncated
partial sum are R = U diag(D) U^T in the axis eigenbasis, and
U^T KR(A_1, ..., A_d) = KR(U_1^T A_1, ..., U_d^T A_d) (the mixed-product
rule): the rotation on the cross-kernel side runs on the N_j x n factors,
and the latent grid is rotated once per direction, d mode products in the
forward pass and d in the backward pass, whatever the truncation order.
Only D and the divided-difference pairs of the Gram gradient differ
between them. Tp is the Kronecker product R_1 (x) ... (x) R_d of per-axis
resolvents R_j = (I - alpha K_j)^-1, so R KR(A_1, ..., A_d)
= KR(R_1 A_1, ..., R_d A_d): its ops apply R_j to the factors and take no
mode products at all, and its Gram and alpha gradients are N_j x N_j
products per axis.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, custom_op
from .resolvent import Resolvent, build_tp, build_truncated, build_vanilla

__all__ = [
    "build_tp",  # build the operators that the resolvent ops take
    "build_truncated",
    "build_vanilla",
    "KhatriRaoCross",
    "axis_kernel_ad",
    "resolvent_decode_ad",
    "resolvent_encode_ad",
]


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


class KhatriRaoCross:
    """A stacked batch's cross kernel K = KR(A_1, ..., A_d), (M, B*n), held
    factor by factor and never formed; in the ops the factors are the
    rotated U_j^T A_j, so this is K-hat = U^T K (the mixed-product rule).

    In C order over the grid, K[(a, b), p] = A_1[a, p] P[p, b] with
    P = KR(A_2, ..., A_d)^T, (B*n, M/N_1) and N_1 times smaller than K (a
    column of ones at d = 1). So per sample, with a grid tensor read as
    Y (N_1, (M/N_1)*h) and the points' values X (n, h), K X = A_1 (P . X)
    is one GEMM against the N_1 x n factor with a wide right-hand side, and
    K^T Y = sum_b P . (A_1^T Y) is one GEMM and a reduction over b: the
    Khatri-Rao product contracted one mode at a time (Kolda & Bader,
    *Tensor Decompositions and Applications*, SIAM Review 51(3), 2009).
    """

    def __init__(self, factors: list[np.ndarray], batch: int):
        self.factors = factors
        self.sizes = tuple(a.shape[0] for a in factors)
        n1, cols = factors[0].shape
        n = cols // batch
        self.a1 = factors[0].reshape(n1, batch, n).swapaxes(0, 1)  # (B, N_1, n)
        p = np.ones((cols, 1))
        for a in factors[1:]:
            rest = p.shape[1] * a.shape[0]
            p = np.multiply(p[:, :, None], a.T[:, None, :], order="C").reshape(cols, rest)
        self.p = p.reshape(batch, n, p.shape[1])  # (B, n, M/N_1)

    def products(self, x: np.ndarray) -> np.ndarray:
        """T = P . X, (B, n, (M/N_1)*h), from the points' values X, (B*n, h)."""
        b, n, rest = self.p.shape
        h = x.shape[-1]
        t = np.einsum("bnr,bnh->bnrh", self.p, x.reshape(b, n, h), order="C")
        return t.reshape(b, n, rest * h)

    def to_grid(self, t: np.ndarray) -> np.ndarray:
        """A_1 T per sample, in the (N_1, ..., N_d, B*h) layout."""
        out = self.a1 @ t
        b, n1, _ = out.shape
        out = out.reshape(b, n1, self.p.shape[2], -1).transpose(1, 2, 0, 3)
        return np.ascontiguousarray(out).reshape(*self.sizes, -1)

    def sample_major(self, y: np.ndarray) -> np.ndarray:
        """Y, the (B, N_1, (M/N_1)*h) copy of a grid tensor in the
        (N_1, ..., N_d, B*h) memory order (a view when B = 1)."""
        b, n1 = self.p.shape[0], self.sizes[0]
        return y.reshape(n1, self.p.shape[2], b, -1).transpose(2, 0, 1, 3).reshape(b, n1, -1)

    def from_grid(self, ys: np.ndarray) -> np.ndarray:
        """S = A_1^T Y per sample, (B, n, M/N_1, h)."""
        b, n, rest = self.p.shape
        return (self.a1.swapaxes(1, 2) @ ys).reshape(b, n, rest, ys.shape[2] // rest)

    def rest_sum(self, s: np.ndarray) -> np.ndarray:
        """sum_b P . S, stacked as (B*n, h)."""
        b, n, _, h = s.shape
        return (self.p[:, :, None, :] @ s).reshape(b * n, h)

    def rest_grad(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum_h S . X, (B, n, M/N_1), with X the points' (B*n, h) values."""
        b, n, _, h = s.shape
        return (s @ x.reshape(b, n, h, 1))[..., 0]

    def grid_sum(self, x: np.ndarray) -> np.ndarray:
        """K X per sample, (N_1, ..., N_d, B*h), from stacked (B*n, h) X."""
        return self.to_grid(self.products(x))

    def point_sum(self, y: np.ndarray) -> np.ndarray:
        """K^T Y per sample, (B*n, h), from Y in the (N_1, ..., N_d, B*h)
        memory order."""
        return self.rest_sum(self.from_grid(self.sample_major(y)))

    def factor_grads(self, a1_bar: np.ndarray, p_bar: np.ndarray | None) -> list[np.ndarray]:
        """The (N_j, B*n) factor gradients, from A_1's per-sample (B, N_1, n)
        gradient and P's (B, n, M/N_1) gradient (None at d = 1). P's reaches
        A_2, ..., A_d through the Khatri-Rao VJP over those d - 1 factors:
        for each axis, multiply by the other axes' factors and sum over
        their axes."""
        b, n1, n = a1_bar.shape
        grads = [a1_bar.swapaxes(0, 1).reshape(n1, b * n)]
        rest = self.sizes[1:]
        if rest:
            t = p_bar.reshape(b * n, *rest)
            spread = [
                a.T.reshape(b * n, *(s if k == l else 1 for k, s in enumerate(rest)))
                for l, a in enumerate(self.factors[1:])
            ]
            for j in range(len(rest)):
                x = t
                for l, f in enumerate(spread):
                    if l != j:
                        x = x * f
                grads.append(x.sum(axis=tuple(1 + l for l in range(len(rest)) if l != j)).T)
        return grads


def _eigen_cross(r: Resolvent, factors: list[Tensor], batch: int) -> KhatriRaoCross:
    """K-hat = U^T KR(A_1, ..., A_d) = KR(U_1^T A_1, ..., U_d^T A_d): the
    cross kernel enters the eigenbasis through its small factors."""
    return KhatriRaoCross([e.eigenvectors.T @ f.data for e, f in zip(r.axis_eigs, factors)], batch)


def _rotate_back(r: Resolvent, a_hat_bars: list[np.ndarray]) -> list[np.ndarray]:
    """A_j's gradient U_j A-hat_j-bar, from the rotated factors' gradients."""
    return [e.eigenvectors @ g for e, g in zip(r.axis_eigs, a_hat_bars)]


def _weighted(r: Resolvent, t_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """D * t-hat for an eigenbasis tensor t-hat, written C-contiguous so that
    its reshapes need no copy, and the side of r's divided-difference pairs that t-hat feeds
    :func:`_spectral_grads`: t-hat itself, or D * t-hat for the single pair
    (D, D) of vanilla and tp, so that their t-hat need not stay alive, or
    None where there are no pairs (truncated order 0)."""
    w = np.multiply(t_hat, r.diag_weights[..., None], order="C")
    return w, (w if r.pairs is None else t_hat if r.pairs else None)


def _slab_products(r: Resolvent, left: np.ndarray, right: np.ndarray) -> list[np.ndarray]:
    """sum_p c_j[p] L_p R_p^T for each axis j, from two
    (N_1, ..., N_d, channels) eigen-grid tensors, with L_p and R_p their
    N_j x channels slabs at the point p of the other axes and c_j r's
    cofactor. Per axis this is one batched GEMM over the slabs, read
    through axis-moving views without a copy, and one product with c_j
    after it, as c_j does not vary along axis j."""
    return [
        (c.reshape(-1) @ (np.moveaxis(left, j, -2) @ np.moveaxis(right, j, -1)).reshape(-1, n * n))
        .reshape(n, n)
        for j, (n, c) in enumerate(zip(r.axis_sizes, r.cofactors))
    ]


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
    H_j = sum_i :func:`_slab_products` of F_i * g-hat and G_i * x-hat,
    K_j receives alpha * U_j H_j U_j^T and alpha receives
    euler * sum_j sum_a lambda_j[a] H_j[a, a]. The pair sides, which vary
    along every axis, are multiplied into the grid tensors first, one pair
    at a time.
    """
    if r.pairs is None:
        hs = _slab_products(r, g_side, x_side)
    else:
        hs = [np.zeros((n, n)) for n in r.axis_sizes]
        for f, s in r.pairs:
            for h, term in zip(hs, _slab_products(r, f[..., None] * g_side, s[..., None] * x_side)):
                h += term
    k_bars, g_alpha = [None] * len(grams), 0.0
    for j, (e, h) in enumerate(zip(r.axis_eigs, hs)):
        if grams[j].requires_grad:
            k_bars[j] = r.alpha * (e.eigenvectors @ h @ e.eigenvectors.T)
        g_alpha += e.eigenvalues @ np.diagonal(h)
    a_bar = np.array(r.euler * g_alpha) if alpha.requires_grad else None
    return k_bars, a_bar


def _spectral_needed(grams: list[Tensor], alpha: Tensor) -> bool:
    """A fixed kernel's Grams and alpha need no gradient."""
    return alpha.requires_grad or any(k.requires_grad for k in grams)


def _kron_cross(r: Resolvent, factors: list[Tensor], batch: int) -> KhatriRaoCross:
    """R KR(A_1, ..., A_d) = KR(R_1 A_1, ..., R_d A_d) for the Kronecker
    product R = R_1 (x) ... (x) R_d: the operator enters through the small
    factors, and the latent grid is never rotated."""
    return KhatriRaoCross([rj @ f.data for rj, f in zip(r.axis_resolvents, factors)], batch)


def _factors_needed(factors: list[Tensor], grams: list[Tensor], alpha: Tensor) -> bool:
    """Whether a Kronecker op's backward needs the factors' gradients: the
    Grams' and alpha's come from them too."""
    return any(f.requires_grad for f in factors) or _spectral_needed(grams, alpha)


def _kron_grads(
    r: Resolvent, factors: list[Tensor], a_tilde_bars: list[np.ndarray] | None,
    grams: list[Tensor], alpha: Tensor,
) -> tuple[list, list, np.ndarray | None]:
    """The factor, Gram and alpha gradients of A-tilde_j = R_j A_j, from the
    (N_j, B*n) gradients of the A-tilde_j (None where none is needed).

    A_j receives R_j A-tilde-bar_j (R_j is symmetric), and R_j receives
    R-bar_j = A-tilde-bar_j A_j^T. As dR_j = R_j d(alpha K_j) R_j, with
    Q_j = R_j R-bar_j R_j, K_j receives alpha Q_j and alpha receives
    sum_j <Q_j, K_j>: N_j x N_j algebra per axis, nothing on the grid.
    """
    a_bars, k_bars, g_alpha = [None] * len(factors), [None] * len(grams), 0.0
    if a_tilde_bars is None:
        return a_bars, k_bars, None
    spectral = _spectral_needed(grams, alpha)
    for j, (rj, f, g) in enumerate(zip(r.axis_resolvents, factors, a_tilde_bars)):
        if f.requires_grad:
            a_bars[j] = rj @ g
        if spectral:
            q = rj @ (g @ f.data.T) @ rj
            if grams[j].requires_grad:
                k_bars[j] = r.alpha * q
            g_alpha += np.vdot(q, grams[j].data)
    return a_bars, k_bars, (np.array(g_alpha) if alpha.requires_grad else None)


def _kron_encode_ad(
    r: Resolvent, factors: list[Tensor], v: Tensor, grams: list[Tensor], alpha: Tensor, batch: int
) -> Tensor:
    """:func:`resolvent_encode_ad` for a Kronecker-product operator:
    y = KR(R_1 A_1, ..., R_d A_d) V, read per sample. With the rotated
    cross kernel held as a :class:`KhatriRaoCross`, W = g read per sample
    and S = A-tilde_1^T W, V receives sum_b P . S, P receives sum_h S . V
    and A-tilde_1 receives W (P . V)^T; :func:`_kron_grads` takes those to
    the factors, Grams and alpha. No mode products in either pass."""
    cross = _kron_cross(r, factors, batch)
    y = cross.grid_sum(v.data)

    def backward(g):
        needed, v_bar, a_tilde_bars = _factors_needed(factors, grams, alpha), None, None
        if needed or v.requires_grad:
            ws = cross.sample_major(g)
            s = cross.from_grid(ws)
            if v.requires_grad:
                v_bar = cross.rest_sum(s)
            if needed:
                p_bar = cross.rest_grad(s, v.data) if len(factors) > 1 else None
                t = cross.products(v.data)  # recomputed, as the op keeps no copy
                a_tilde_bars = cross.factor_grads(ws @ t.swapaxes(1, 2), p_bar)
        a_bars, k_bars, a_bar = _kron_grads(r, factors, a_tilde_bars, grams, alpha)
        return [*a_bars, v_bar, *k_bars, a_bar]

    return custom_op([*factors, v, *grams, alpha], y, backward)


def _kron_decode_ad(
    r: Resolvent, factors: list[Tensor], v: Tensor, grams: list[Tensor], alpha: Tensor, batch: int
) -> Tensor:
    """:func:`resolvent_decode_ad` for a Kronecker-product operator:
    out = KR(R_1 A_1, ..., R_d A_d)^T v (R is symmetric), read per sample.
    With T = P . g, v receives A-tilde_1 T per sample, A-tilde_1 receives
    Y T^T and P receives sum_h S . g, with Y = v read per sample and
    S = A-tilde_1^T Y recomputed; :func:`_kron_grads` takes those to the
    factors, Grams and alpha. No mode products in either pass."""
    cross = _kron_cross(r, factors, batch)
    y = v.data.reshape(*r.axis_sizes, -1)
    out = cross.point_sum(y)

    def backward(g):
        needed, v_bar, a_tilde_bars = _factors_needed(factors, grams, alpha), None, None
        if needed or v.requires_grad:
            t = cross.products(g)
            if v.requires_grad:
                v_bar = cross.to_grid(t)
            if needed:
                ys = cross.sample_major(y)
                p_bar = cross.rest_grad(cross.from_grid(ys), g) if len(factors) > 1 else None
                a_tilde_bars = cross.factor_grads(ys @ t.swapaxes(1, 2), p_bar)
        a_bars, k_bars, a_bar = _kron_grads(r, factors, a_tilde_bars, grams, alpha)
        return [*a_bars, v_bar, *k_bars, a_bar]

    return custom_op([*factors, v, *grams, alpha], out, backward)


def resolvent_encode_ad(
    r: Resolvent, factors: list[Tensor], v: Tensor, grams: list[Tensor], alpha: Tensor, batch: int
) -> Tensor:
    """y = R blocks(K_GP) V: the (N_1, ..., N_d, B*h) latent features of a
    stacked batch of B clouds.

    ``r`` is the operator U diag(D) U^T built from the values of ``grams``
    and ``alpha``; ``factors`` are the (N_j, B*n) axis factors of the
    encoder's cross kernel K_GP = KR(A_1, ..., A_d), and ``v`` the (B*n, h)
    point tokens. A tp operator, which carries its per-axis resolvents,
    goes to :func:`_kron_encode_ad`, which takes no mode products.
    Otherwise, with the rotated K-hat = U^T K_GP held as a
    :class:`KhatriRaoCross` (A-hat_1 and P), the forward pass is
    x-hat = A-hat_1 (P . V) per sample and y-hat = D * x-hat, then
    y = U y-hat: d mode products. The backward pass takes d more, for
    g-hat = U^T g and w-hat = D * g-hat. With W = w-hat read per sample and
    S = A-hat_1^T W, V receives sum_b P . S, P receives sum_h S . V,
    A-hat_1 receives W (P . V)^T, and the Grams and alpha
    :func:`_spectral_grads` of g-hat and x-hat. U is never differentiated:
    R acts on K_GP V, which does not depend on the Grams, so the rotation
    only re-associates the product. No M x (B*n) array is formed in either
    pass.
    """
    if r.axis_resolvents is not None:
        return _kron_encode_ad(r, factors, v, grams, alpha, batch)
    cross = _eigen_cross(r, factors, batch)
    y_hat = cross.grid_sum(v.data)
    y_hat *= r.diag_weights[..., None]
    y = r.from_eigenbasis(y_hat)

    def backward(g):
        w_hat, g_side = _weighted(r, r.to_eigenbasis(g))
        learnable, spectral = any(f.requires_grad for f in factors), _spectral_needed(grams, alpha)
        # T = P . V (and from it x-hat) is recomputed, as the op keeps no copy
        t = cross.products(v.data) if learnable or (spectral and r.pairs != ()) else None
        a_bars, v_bar = [None] * len(factors), None
        if learnable or v.requires_grad:
            ws = cross.sample_major(w_hat)
            s = cross.from_grid(ws)
            if v.requires_grad:
                v_bar = cross.rest_sum(s)
            if learnable:
                p_bar = cross.rest_grad(s, v.data) if len(factors) > 1 else None
                a_bars = _rotate_back(r, cross.factor_grads(ws @ t.swapaxes(1, 2), p_bar))
        k_bars, a_bar = [None] * len(grams), None
        if spectral:
            x_side = None
            if r.pairs != ():
                x_side = cross.to_grid(t)
                if r.pairs is None:
                    x_side *= r.diag_weights[..., None]
            k_bars, a_bar = _spectral_grads(r, g_side, x_side, grams, alpha)
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
    (N_1, ..., N_d, B*h) memory order, as (M*B, h) or grid-shaped. A tp
    operator goes to :func:`_kron_decode_ad`, which takes no mode products.
    Otherwise the forward pass takes d mode products for x-hat = U^T v and
    y-hat = D * x-hat, then, with K-hat = U^T K_QG^T held as a
    :class:`KhatriRaoCross`, Y = y-hat read per sample and
    S = A-hat_1^T Y, out = sum_b P . S. The backward pass takes d more:
    with T = P . g, g-hat = A-hat_1 T per sample and w-hat = D * g-hat,
    v receives U w-hat, A-hat_1 receives Y T^T, P receives sum_h S . g
    (S recomputed from y-hat), and the Grams and alpha
    :func:`_spectral_grads` of g-hat and x-hat. No M x (B*n_q) array is
    formed in either pass.
    """
    if r.axis_resolvents is not None:
        return _kron_decode_ad(r, factors, v, grams, alpha, batch)
    cross = _eigen_cross(r, factors, batch)
    y_hat, x_side = _weighted(r, r.to_eigenbasis(v.data.reshape(*r.axis_sizes, -1)))
    out = cross.point_sum(y_hat)

    def backward(g):
        t = cross.products(g)
        a_bars = [None] * len(factors)
        if any(f.requires_grad for f in factors):
            ys = cross.sample_major(y_hat)
            p_bar = cross.rest_grad(cross.from_grid(ys), g) if len(factors) > 1 else None
            a_bars = _rotate_back(r, cross.factor_grads(ys @ t.swapaxes(1, 2), p_bar))
        w_hat, g_side = _weighted(r, cross.to_grid(t))
        k_bars, a_bar = [None] * len(grams), None
        if _spectral_needed(grams, alpha):
            k_bars, a_bar = _spectral_grads(r, g_side, x_side, grams, alpha)
        v_bar = r.from_eigenbasis(w_hat) if v.requires_grad else None
        return [*a_bars, v_bar, *k_bars, a_bar]

    return custom_op([*factors, v, *grams, alpha], out, backward)
