"""Differentiable wrappers for the dense layers, the axis kernel factors
and the Kronecker-structured kernel operators, each with a hand-written
vector-Jacobian product.

Each dense layer act(sum_k x_k W_k + b), with act the identity or the tanh
GELU, is one op over its inputs, its weight and its bias: the inputs meet
consecutive row blocks of one weight, so a list of branch outputs needs no
concat, and the GELU's derivative is applied in closed form.

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
prebuilt :class:`ikno.resolvent.Resolvent`, one body for every variant.
Each operator meets a cross kernel through its factors,
R KR(A_1, ..., A_d) = G KR(F_1 A_1, ..., F_d A_d), with per-axis factor
maps F_j and a grid map G (:class:`_OperatorMaps`). Vanilla and the
truncated partial sum are R = U diag(D) U^T in the axis eigenbasis, so
F_j = U_j^T (the mixed-product rule) and G = U diag(D): d mode products
per op and pass, whatever the truncation order, and eigen-grid Gram
gradients. Tp is R_1 (x) ... (x) R_d with R_j = (I - alpha K_j)^-1, so
F_j = R_j and G is the identity: no mode products, and N_j x N_j Gram
gradients per axis. A forward pass maps the factors, contracts the
Khatri-Rao product and applies the grid map (its transpose, first, for
decode); the backward pass takes the same steps in reverse.
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
    "dense_ad",
    "resolvent_decode_ad",
    "resolvent_encode_ad",
]


_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715


def dense_ad(xs: list[Tensor], w: Tensor | None, b: Tensor, gelu: bool = False) -> Tensor:
    """act(sum_k x_k W_k + b) over rows: one dense layer as one op.

    Each input x_k is read as rows of its last axis, and W_k is the next
    row block of ``w`` of that width, so ``xs`` may be a list of branch
    outputs and ``w`` their fusion weight. With ``w`` None the blocks are
    identities: the inputs, read as rows of ``b``'s width, are summed. act
    is the identity or, with ``gelu``, the tanh approximation
    0.5 z (1 + t), t = tanh(c0 (z + c1 z^3)). The forward keeps z and t,
    and with g the upstream gradient z receives
    z-bar = g (0.5 (1 + t) + 0.5 z (1 - t^2) c0 (1 + 3 c1 z^2)); x_k then
    receives z-bar W_k^T, W_k receives x_k^T z-bar and b the column sums of
    z-bar.
    """
    rows = [x.data.reshape(-1, b.shape[-1] if w is None else x.shape[-1]) for x in xs]
    if w is None:
        blocks = [None] * len(xs)
        z = rows[0].copy()
        for r in rows[1:]:
            z += r
    else:
        blocks, lo = [], 0
        for r in rows:  # slices, not np.split, which costs microseconds a call
            blocks.append(w.data[lo : lo + r.shape[1]])
            lo += r.shape[1]
        z = rows[0] @ blocks[0]
        for r, wk in zip(rows[1:], blocks[1:]):
            z += r @ wk
    z += b.data
    if gelu:
        t = np.tanh((z + _GELU_C1 * (z * z * z)) * _GELU_C0)
        out = 0.5 * z * (1.0 + t)
    else:
        out = z

    def backward(g):
        if gelu:
            s = 1.0 - t * t
            s *= z * (_GELU_C0 + (3.0 * _GELU_C0 * _GELU_C1) * (z * z))
            s += 1.0 + t
            s *= 0.5
            s *= g
            g = s
        x_bars = [
            (g if wk is None else g @ wk.T) if x.requires_grad else None
            for x, wk in zip(xs, blocks)
        ]
        b_bar = g.sum(axis=0) if b.requires_grad else None
        if w is None:
            return [*x_bars, b_bar]
        w_bar = np.concatenate([r.T @ g for r in rows]) if w.requires_grad else None
        return [*x_bars, w_bar, b_bar]

    return custom_op([*xs, b] if w is None else [*xs, w, b], out, backward)


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

    def backward(g):  # numpy's own sums: a BLAS dot splits across threads
        return [np.array([
            np.einsum("ij,ij->", g, out),
            -2.0 * beta * c * np.einsum("ij,ij->", g, gauss * (dx * dx)),
            -np.sign(gamma) * c * np.einsum("ij,ij->", g, lap * absd),
        ])]

    return custom_op([theta], out, backward)


class KhatriRaoCross:
    """A stacked batch's cross kernel K = KR(A_1, ..., A_d), (M, B*n), held
    factor by factor and never formed; in the ops the factors are the
    mapped F_j A_j of :class:`_OperatorMaps`.

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

    def grid_sum(self, x: np.ndarray) -> np.ndarray:
        """K X per sample, (N_1, ..., N_d, B*h), from stacked (B*n, h) X."""
        return self.to_grid(self.products(x))

    def point_sum(self, y: np.ndarray) -> np.ndarray:
        """K^T Y per sample, (B*n, h), from Y in the (N_1, ..., N_d, B*h)
        memory order."""
        return self.rest_sum(self.from_grid(self.sample_major(y)))

    def factor_grads(self, ys: np.ndarray, t: np.ndarray, s: np.ndarray, x: np.ndarray) -> list:
        """The (N_j, B*n) factor gradients of sum_b <Y_b, K_b X_b>, from Y
        read per sample (``ys``), T = P . X, S = A_1^T Y and the points'
        (B*n, h) values X. A_1 receives Y T^T per sample and P receives
        sum_h S . X, which reaches A_2, ..., A_d through the Khatri-Rao VJP
        over those d - 1 factors: for each axis, multiply by the other axes'
        factors and sum over their axes."""
        a1_bar = ys @ t.swapaxes(1, 2)
        b, n1, n = a1_bar.shape
        grads = [a1_bar.swapaxes(0, 1).reshape(n1, b * n)]
        rest = self.sizes[1:]
        if rest:
            p_bar = (s @ x.reshape(b, n, x.shape[-1], 1)).reshape(b * n, *rest)
            spread = [
                a.T.reshape(b * n, *(m if k == l else 1 for k, m in enumerate(rest)))
                for l, a in enumerate(self.factors[1:])
            ]
            for j in range(len(rest)):
                prod = p_bar
                for l, f in enumerate(spread):
                    if l != j:
                        prod = prod * f
                grads.append(prod.sum(axis=tuple(1 + l for l in range(len(rest)) if l != j)).T)
        return grads


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
    (D, D) of vanilla, ``g_side`` and ``x_side`` are D * g-hat and
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


class _OperatorMaps:
    """A branch operator R as the resolvent ops see it: one factorization
    R KR(A_1, ..., A_d) = G KR(F_1 A_1, ..., F_d A_d), with per-axis factor
    maps F_j (``maps``, their transposes ``maps_t``) and a grid map G,
    ``weigh`` then ``rotate_out``, whose transpose is ``rotate_in`` then
    ``weigh``; both are the identity unless a subclass sets them. ``weigh``
    also returns the side of its input that :meth:`gram_grads`, the Gram
    and alpha VJP, reads where it reads eigen-grid sides (``reads_sides``);
    a VJP that reads the factor maps' gradients sets ``reads_map_grads``.
    :func:`_operator_maps` picks the factorization."""

    reads_sides = reads_map_grads = False

    def __init__(self, r: Resolvent, maps: tuple, maps_t: tuple):
        self.r, self.maps, self.maps_t = r, maps, maps_t

    rotate_in = rotate_out = staticmethod(lambda y: y)
    weigh = staticmethod(lambda t: (t, None))

    def cross(self, factors: list[Tensor], batch: int) -> KhatriRaoCross:
        """KR(F_1 A_1, ..., F_d A_d), with the A_j the (N_j, B*n) factors."""
        return KhatriRaoCross([f @ a.data for f, a in zip(self.maps, factors)], batch)

    def needs(self, factors: list[Tensor], grams: list[Tensor], alpha: Tensor) -> tuple[bool, bool]:
        """Whether a backward pass needs the factor maps' gradients, and
        the eigen-grid sides."""
        spectral = _spectral_needed(grams, alpha)
        learnable = any(f.requires_grad for f in factors)
        return learnable or (spectral and self.reads_map_grads), spectral and self.reads_sides

    def input_grads(self, factors, map_bars, v_bar, g_side, x_side, grams, alpha) -> list:
        """An op's gradients in input order: the factors' F_j^T F-bar_j, from
        the factor maps' (N_j, B*n) gradients ``map_bars`` (None where none
        is needed), ``v_bar``, and the Gram and alpha gradients."""
        a_bars = [None] * len(factors)
        if map_bars is not None:
            a_bars = [ft @ g if f.requires_grad else None
                      for ft, f, g in zip(self.maps_t, factors, map_bars)]
        k_bars, a_bar = [None] * len(grams), None
        if _spectral_needed(grams, alpha):
            k_bars, a_bar = self.gram_grads(factors, map_bars, g_side, x_side, grams, alpha)
        return [*a_bars, v_bar, *k_bars, a_bar]


class _EigenMaps(_OperatorMaps):
    """R = U diag(D) U^T, vanilla and the truncated partial sum: F_j = U_j^T,
    as U^T KR(A_1, ..., A_d) = KR(U_1^T A_1, ..., U_d^T A_d) (the
    mixed-product rule), and G = U diag(D), d mode products each way,
    whatever the truncation order. U is never differentiated: R acts on
    the cross kernel's product with the points' values, which does not
    depend on the Grams, so the rotation only re-associates the product.
    The Gram and alpha VJP is :func:`_spectral_grads` of the eigen-grid
    sides, read wherever r has divided-difference pairs."""

    def __init__(self, r: Resolvent):
        us = tuple(e.eigenvectors for e in r.axis_eigs)
        super().__init__(r, tuple(u.T for u in us), us)
        self.rotate_in, self.rotate_out = r.to_eigenbasis, r.from_eigenbasis
        self.reads_sides = r.pairs != ()

    def side(self, t_hat: np.ndarray) -> np.ndarray:
        """The side of a fresh eigen-grid tensor t-hat that
        :func:`_spectral_grads` reads: D * t-hat, scaled in place, for the
        single pair (D, D) of vanilla, so that t-hat need not stay alive,
        and t-hat itself for the pairs of a partial sum."""
        if self.r.pairs is None:
            t_hat *= self.r.diag_weights[..., None]
        return t_hat

    def weigh(self, t_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """D * t-hat for a fresh C-contiguous eigen-grid tensor t-hat, and
        its :meth:`side`, or None where there are no pairs (truncated order
        0). t-hat is scaled in place unless the pairs read it."""
        if self.r.pairs:
            return np.multiply(t_hat, self.r.diag_weights[..., None], order="C"), t_hat
        t_hat *= self.r.diag_weights[..., None]
        return t_hat, (t_hat if self.r.pairs is None else None)

    def gram_grads(self, factors, map_bars, g_side, x_side, grams, alpha):
        return _spectral_grads(self.r, g_side, x_side, grams, alpha)


class _KronMaps(_OperatorMaps):
    """R = R_1 (x) ... (x) R_d, tp's per-axis resolvents
    R_j = (I - alpha K_j)^-1: F_j = R_j (symmetric, so also F_j^T), as
    R KR(A_1, ..., A_d) = KR(R_1 A_1, ..., R_d A_d), and G the identity, so
    the ops take no mode products at all."""

    reads_map_grads = True

    def gram_grads(self, factors, map_bars, g_side, x_side, grams, alpha):
        """R_j receives R-bar_j = A-tilde-bar_j A_j^T from the gradient of
        A-tilde_j = R_j A_j. As dR_j = R_j d(alpha K_j) R_j, with
        Q_j = R_j R-bar_j R_j, K_j receives alpha Q_j and alpha receives
        sum_j <Q_j, K_j>: N_j x N_j algebra per axis, nothing on the grid."""
        k_bars, g_alpha = [None] * len(grams), 0.0
        for j, (rj, f, g) in enumerate(zip(self.maps, factors, map_bars)):
            q = rj @ (g @ f.data.T) @ rj
            if grams[j].requires_grad:
                k_bars[j] = self.r.alpha * q
            g_alpha += np.vdot(q, grams[j].data)
        return k_bars, (np.array(g_alpha) if alpha.requires_grad else None)


def _operator_maps(r: Resolvent) -> _OperatorMaps:
    """The ops' view of ``r``: tp's per-axis resolvents where it carries
    them, its eigen factorization otherwise."""
    if r.axis_resolvents is None:
        return _EigenMaps(r)
    return _KronMaps(r, r.axis_resolvents, r.axis_resolvents)


def resolvent_encode_ad(
    r: Resolvent, factors: list[Tensor], v: Tensor, grams: list[Tensor], alpha: Tensor, batch: int
) -> Tensor:
    """y = R blocks(K_GP) V: the (N_1, ..., N_d, B*h) latent features of a
    stacked batch of B clouds.

    ``r`` is the branch operator built from the values of ``grams`` and
    ``alpha``; ``factors`` are the (N_j, B*n) axis factors of the encoder's
    cross kernel K_GP = KR(A_1, ..., A_d), and ``v`` the (B*n, h) point
    tokens. With r's factor maps applied, the cross kernel is held as a
    :class:`KhatriRaoCross` (A-hat_1 and P), and the forward pass is
    x-hat = A-hat_1 (P . V) per sample and y = G x-hat. The backward pass
    reverses it: with W = G^T g read per sample and S = A-hat_1^T W, V
    receives sum_b P . S, A-hat_1 receives W (P . V)^T and P sum_h S . V,
    which the maps' transposes take to the factors. The Gram and alpha VJP
    reads those gradients or the eigen-grid sides of g and of x-hat,
    recomputed as the op keeps no copy. A step runs only if an input that
    needs a gradient reads it, and no M x (B*n) array is formed.
    """
    op = _operator_maps(r)
    cross = op.cross(factors, batch)
    y = op.rotate_out(op.weigh(cross.grid_sum(v.data))[0])

    def backward(g):
        need_bars, need_sides = op.needs(factors, grams, alpha)
        w, g_side = op.weigh(op.rotate_in(g))
        t = cross.products(v.data) if need_bars or need_sides else None
        v_bar = map_bars = None
        if need_bars or v.requires_grad:
            ws = cross.sample_major(w)
            s = cross.from_grid(ws)
            if v.requires_grad:
                v_bar = cross.rest_sum(s)
            if need_bars:
                map_bars = cross.factor_grads(ws, t, s, v.data)
        x_side = op.side(cross.to_grid(t)) if need_sides else None
        return op.input_grads(factors, map_bars, v_bar, g_side, x_side, grams, alpha)

    return custom_op([*factors, v, *grams, alpha], y, backward)


def resolvent_decode_ad(
    r: Resolvent, factors: list[Tensor], v: Tensor, grams: list[Tensor], alpha: Tensor, batch: int
) -> Tensor:
    """out = blocks(K_QG) R v: the (B*n_q, h) query features of a stacked
    batch of B query sets.

    ``r`` is as for :func:`resolvent_encode_ad`; ``factors`` are the
    (N_j, B*n_q) axis factors of the decoder's cross kernel
    K_QG = KR(A_1, ..., A_d)^T, and ``v`` holds the latent features in the
    (N_1, ..., N_d, B*h) memory order, as (M*B, h) or grid-shaped. R is
    symmetric, so with the mapped cross kernel held as a
    :class:`KhatriRaoCross`, the forward pass is y = G^T v and, with
    Y = y read per sample and S = A-hat_1^T Y, out = sum_b P . S. The
    backward pass reverses it: with T = P . g and g-hat = A-hat_1 T per
    sample, v receives G g-hat, A-hat_1 receives Y T^T and P sum_h S . g,
    which the maps' transposes take to the factors. The Gram and alpha VJP
    reads those gradients or the eigen-grid sides of g-hat and of U^T v.
    A step runs only if an input that needs a gradient reads it, and no
    M x (B*n_q) array is formed.
    """
    op = _operator_maps(r)
    cross = op.cross(factors, batch)
    y, x_side = op.weigh(op.rotate_in(v.data.reshape(*r.axis_sizes, -1)))
    out = cross.point_sum(y)

    def backward(g):
        need_bars, need_sides = op.needs(factors, grams, alpha)
        t = cross.products(g)
        v_bar = map_bars = g_side = None
        if need_bars:
            ys = cross.sample_major(y)
            map_bars = cross.factor_grads(ys, t, cross.from_grid(ys), g)
        if v.requires_grad or need_sides:
            w, g_side = op.weigh(cross.to_grid(t))
            v_bar = op.rotate_out(w) if v.requires_grad else None
        return op.input_grads(factors, map_bars, v_bar, g_side, x_side, grams, alpha)

    return custom_op([*factors, v, *grams, alpha], out, backward)
