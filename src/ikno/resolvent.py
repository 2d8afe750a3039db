"""Discrete infinite- and finite-order kernel operators on the latent grid.

All three constructions share one eigen-factored form: with
K_j = U_j diag(lambda_j) U_j^T and U = U_1 (x) ... (x) U_d, each is
R = U diag(D) U^T for a weight tensor D on the product eigen-grid. With
Lambda = prod_j lambda_j:

* Vanilla: the full resolvent (I_M - alpha * K)^-1 with K the Kronecker
  product of axis Grams, D = 1 / (1 - alpha * Lambda).
* TP: the Kronecker product of per-axis resolvents (I_N - alpha * K_j)^-1,
  D = prod_j 1 / (1 - alpha * lambda_j). Not algebraically identical to
  Vanilla for d >= 2.
* Truncated: the order-p Neumann partial sum I + alpha*K + ... + (alpha*K)^p,
  D = P_p(alpha * Lambda) with P_p(mu) = 1 + mu + ... + mu^p.

None of them ever materializes an M x M matrix. A dense naive-inverse
path doubles as correctness oracle and benchmark foil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ShapeMismatchError, SingularAxisError, SingularDiagonalError
from .tensor_linalg import (
    SymEig,
    dense_inverse,
    kron_apply,
    kron_materialize,
    spectral_radius_from_axes,
    sym_eig,
)

__all__ = [
    "Resolvent",
    "build_vanilla",
    "build_tp",
    "build_truncated",
    "apply_resolvent",
    "apply_vanilla",
    "apply_naive_inverse",
    "inverse_power_partial_sum",
    "NAIVE_CAP_DEFAULT",
]

NAIVE_CAP_DEFAULT = 8192

_DIAG_TOL = 1e-10


@dataclass(frozen=True)
class Resolvent:
    """R = U diag(D) U^T, built by :func:`build_vanilla`, :func:`build_tp`
    or :func:`build_truncated`.

    Along axis j the divided difference of D between eigenvalues a and b
    of K_j is alpha * c_j * sum_i F_i[a] G_i[b], a sum of rank-one
    ``pairs`` (F_i, G_i) on the eigen-grid, where c_j does not vary along
    axis j: prod_{l != j} lambda_l for vanilla and truncated,
    prod_{l != j} (1 - alpha * lambda_l) for tp. ``cofactors`` holds c_j
    with axis j of size 1. Vanilla and tp have the single pair (D, D),
    stored as ``pairs = None``. D depends on alpha only through the
    products alpha * lambda_j, so alpha dD/dalpha = euler * sum_j lambda_j
    dD/dlambda_j with euler = 1/d (vanilla, truncated) or 1 (tp). The Gram
    and alpha gradients of :func:`ikno.ops_ad.resolvent_encode_ad` and
    :func:`ikno.ops_ad.resolvent_decode_ad` are built from these
    (Daleckii-Krein; Bhatia, *Matrix Analysis*, 1997, ch. V).

    Only :func:`build_tp` fills ``axis_resolvents``, the per-axis
    (I - alpha * K_j)^-1 = U_j diag(1 / (1 - alpha * lambda_j)) U_j^T whose
    Kronecker product is R. Where they are set, the AD ops take them as the
    factor maps and the identity as the grid map, and U_j^T and U diag(D)
    otherwise (:class:`ikno.ops_ad._OperatorMaps`); D, ``cofactors`` and
    ``euler`` stay valid for tp, for the eigen-grid apply and its oracles.

    Its arrays are made read-only on construction, so an operator shared
    between forward passes (the model's cache) cannot be corrupted in place.
    """

    axis_eigs: tuple[SymEig, ...]
    alpha: float
    diag_weights: np.ndarray  # D, shape (N_1, ..., N_d)
    neumann_valid: bool  # the Neumann series of R converges
    cofactors: tuple[np.ndarray, ...]
    euler: float
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None
    axis_resolvents: tuple[np.ndarray, ...] | None = None  # R_j, tp only

    def __post_init__(self):
        pair_sides = (a for pair in self.pairs or () for a in pair)
        axis_resolvents = self.axis_resolvents or ()
        for a in (self.diag_weights, *self.cofactors, *pair_sides, *axis_resolvents):
            a.flags.writeable = False

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return tuple(e.eigenvalues.size for e in self.axis_eigs)

    def to_eigenbasis(self, t: np.ndarray) -> np.ndarray:
        """U^T t: d mode products."""
        return kron_apply([e.eigenvectors.T for e in self.axis_eigs], t)

    def from_eigenbasis(self, t: np.ndarray) -> np.ndarray:
        """U t: d mode products."""
        return kron_apply([e.eigenvectors for e in self.axis_eigs], t)


def _check_axes(t: np.ndarray, sizes: tuple[int, ...]) -> None:
    if t.ndim != len(sizes) + 1 or t.shape[: len(sizes)] != sizes:
        raise ShapeMismatchError(
            f"tensor shape {t.shape} incompatible with axis sizes {sizes}"
        )


def _grid_product(vectors) -> np.ndarray:
    """Outer product of per-axis vectors, shape (len(v_1), ..., len(v_d))."""
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


def _cofactors(factors) -> tuple[np.ndarray, ...]:
    """c_j = the grid product of the per-axis ``factors`` of every axis but
    j, with axis j of size 1."""
    one = np.ones(1)
    return tuple(
        _grid_product([one if l == j else f for l, f in enumerate(factors)])
        for j in range(len(factors))
    )


def build_vanilla(axis_grams, alpha: float) -> Resolvent:
    eigs = tuple(sym_eig(g) for g in axis_grams)
    lams = [e.eigenvalues for e in eigs]
    denom = 1.0 - alpha * _grid_product(lams)
    near = np.abs(denom).min()
    if near < _DIAG_TOL:
        raise SingularDiagonalError(
            f"diagonal entry |1 - alpha*prod(lambda)| = {near:.3e} < {_DIAG_TOL}"
        )
    rho = spectral_radius_from_axes(list(eigs), alpha)
    return Resolvent(
        axis_eigs=eigs,
        alpha=float(alpha),
        diag_weights=1.0 / denom,
        neumann_valid=bool(rho < 1.0),
        cofactors=_cofactors(lams),
        euler=1.0 / len(eigs),
    )


def build_tp(axis_grams, alpha: float) -> Resolvent:
    eigs, denoms = [], []
    for j, g in enumerate(axis_grams):
        e = sym_eig(g)
        denom = 1.0 - alpha * e.eigenvalues
        near = float(np.abs(denom).min())
        if near < _DIAG_TOL:
            raise SingularAxisError(
                j, f"axis {j}: |1 - alpha*lambda| = {near:.3e} < {_DIAG_TOL}"
            )
        eigs.append(e)
        denoms.append(denom)
    rho = max(spectral_radius_from_axes([e], alpha) for e in eigs)
    return Resolvent(
        axis_eigs=tuple(eigs),
        alpha=float(alpha),
        diag_weights=_grid_product([1.0 / den for den in denoms]),
        neumann_valid=bool(rho < 1.0),  # every axis's series converges
        cofactors=_cofactors(denoms),
        euler=1.0,
        axis_resolvents=tuple(
            (e.eigenvectors / den) @ e.eigenvectors.T for e, den in zip(eigs, denoms)
        ),
    )


def build_truncated(axis_grams, alpha: float, order: int) -> Resolvent:
    """The order-p partial sum sum_{k <= p} (alpha * K)^k.

    With mu = alpha * Lambda and S_m(mu) = sum_{k <= m} mu^k, D = S_p(mu) by
    Horner, which stays finite where 1 - mu = 0. Since
    P(x) - P(y) = (x - y) sum_{i < p} x^i S_{p-1-i}(y), the divided
    difference has the p pairs (mu^i, S_{p-1-i}(mu)); order 0 has none.
    """
    eigs = tuple(sym_eig(g) for g in axis_grams)
    lams = [e.eigenvalues for e in eigs]
    mu = alpha * _grid_product(lams)
    sums = [np.ones_like(mu)]
    for _ in range(order):
        sums.append(1.0 + mu * sums[-1])
    rho = spectral_radius_from_axes(list(eigs), alpha)
    return Resolvent(
        axis_eigs=eigs,
        alpha=float(alpha),
        diag_weights=sums[order],
        neumann_valid=bool(rho < 1.0),
        cofactors=_cofactors(lams),
        euler=1.0 / len(eigs),
        pairs=tuple((mu**i, sums[order - 1 - i]) for i in range(order)),
    )


def apply_resolvent(r: Resolvent, t: np.ndarray) -> np.ndarray:
    """R t: rotate into the eigenbasis, scale by D, rotate back (2d mode
    products for any construction)."""
    t = np.asarray(t, dtype=np.float64)
    _check_axes(t, r.axis_sizes)
    return r.from_eigenbasis(r.to_eigenbasis(t) * r.diag_weights[..., None])


apply_vanilla = apply_resolvent  # the name the benchmark's oracle check (perfbench/workloads.py) calls


def _check_cap(axis_grams, cap: int) -> int:
    m = 1
    for g in axis_grams:
        m *= np.asarray(g).shape[0]
    if m > cap:
        raise CapExceededError(f"product grid size {m} exceeds cap {cap}")
    return m


def apply_naive_inverse(axis_grams, alpha: float, t: np.ndarray, cap: int = NAIVE_CAP_DEFAULT) -> np.ndarray:
    """Materialize K, invert (I - alpha*K) densely, multiply. Oracle path."""
    m = _check_cap(axis_grams, cap)
    t = np.asarray(t, dtype=np.float64)
    sizes = tuple(np.asarray(g).shape[0] for g in axis_grams)
    _check_axes(t, sizes)
    k = kron_materialize(list(axis_grams))
    inv = dense_inverse(np.eye(m) - alpha * k)
    h = t.shape[-1]
    return (inv @ t.reshape(m, h)).reshape(t.shape)


def inverse_power_partial_sum(axis_grams, alpha: float, n_terms: int, cap: int = NAIVE_CAP_DEFAULT) -> np.ndarray:
    """Partial sum -sum_{n=1}^{n_terms} (alpha*K)^{-n}; validation tool."""
    m = _check_cap(axis_grams, cap)
    if n_terms < 1:
        raise ValueError("need at least one term")
    ak = alpha * kron_materialize(list(axis_grams))
    ak_inv = dense_inverse(ak)
    term = ak_inv.copy()
    total = -term
    for _ in range(n_terms - 1):
        term = term @ ak_inv
        total -= term
    return total
