"""Discrete infinite- and finite-order kernel operators on the latent grid.

Three constructions:

* Vanilla: the full resolvent (I_M - alpha * K)^-1 with K the Kronecker
  product of axis Grams, applied via per-axis eigendecompositions and a
  diagonal reweighting - never materializing an M x M matrix.
* TP: the Kronecker product of per-axis resolvents (I_N - alpha * K_j)^-1.
  Not algebraically identical to Vanilla for d >= 2.
* Truncated: the order-p Neumann partial sum I + alpha*K + ... + (alpha*K)^p
  evaluated by Horner recursion.

A dense naive-inverse path doubles as correctness oracle and benchmark foil.
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
    mode_apply,
    spectral_radius_from_axes,
    sym_eig,
)

__all__ = [
    "ResolventVanilla",
    "ResolventTP",
    "TruncatedPropagator",
    "ConvergenceReport",
    "build_vanilla",
    "apply_vanilla",
    "build_tp",
    "apply_tp",
    "apply_truncated",
    "apply_naive_inverse",
    "convergence_report",
    "inverse_power_partial_sum",
    "save_vanilla",
    "load_vanilla",
    "NAIVE_CAP_DEFAULT",
]

NAIVE_CAP_DEFAULT = 8192

_DIAG_TOL = 1e-10


@dataclass(frozen=True)
class ResolventVanilla:
    axis_eigs: tuple[SymEig, ...]
    alpha: float
    diag_weights: np.ndarray  # shape (N_1, ..., N_d)
    neumann_valid: bool  # rho(alpha*K) < 1, i.e. the series interpretation holds

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return tuple(e.eigenvalues.size for e in self.axis_eigs)


@dataclass(frozen=True)
class ResolventTP:
    axis_eigs: tuple[SymEig, ...]
    axis_weights: tuple[np.ndarray, ...]  # per-axis 1 / (1 - alpha*lambda)
    alpha: float

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return tuple(e.eigenvalues.size for e in self.axis_eigs)

    @property
    def axis_inverses(self) -> tuple[np.ndarray, ...]:
        """Dense per-axis factors (I - alpha*K_j)^-1, for the tp gradient,
        oracles and export."""
        return tuple(
            (e.eigenvectors * w) @ e.eigenvectors.T
            for e, w in zip(self.axis_eigs, self.axis_weights)
        )


@dataclass(frozen=True)
class TruncatedPropagator:
    axis_grams: tuple[np.ndarray, ...]
    alpha: float
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")


@dataclass(frozen=True)
class ConvergenceReport:
    rho_alpha_k: float
    abs_alpha_lambda_min: float
    positive_series_converges: bool
    inverse_series_converges: bool


def _check_axes(t: np.ndarray, sizes: tuple[int, ...]) -> None:
    if t.ndim != len(sizes) + 1 or t.shape[: len(sizes)] != sizes:
        raise ShapeMismatchError(
            f"tensor shape {t.shape} incompatible with axis sizes {sizes}"
        )


def _kron_eigenvalues(eigs) -> np.ndarray:
    """Product-grid eigenvalue tensor of shape (N_1, ..., N_d)."""
    lam = eigs[0].eigenvalues
    out = lam
    for e in eigs[1:]:
        out = np.multiply.outer(out, e.eigenvalues)
    return out


def build_vanilla(axis_grams, alpha: float) -> ResolventVanilla:
    eigs = tuple(sym_eig(g) for g in axis_grams)
    lam = _kron_eigenvalues(eigs)
    denom = 1.0 - alpha * lam
    near = np.abs(denom).min()
    if near < _DIAG_TOL:
        raise SingularDiagonalError(
            f"diagonal entry |1 - alpha*prod(lambda)| = {near:.3e} < {_DIAG_TOL}"
        )
    rho = spectral_radius_from_axes(list(eigs), alpha)
    return ResolventVanilla(
        axis_eigs=eigs,
        alpha=float(alpha),
        diag_weights=1.0 / denom,
        neumann_valid=bool(rho < 1.0),
    )


def apply_vanilla(r: ResolventVanilla, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    _check_axes(t, r.axis_sizes)
    out = t
    for j, e in enumerate(r.axis_eigs):
        out = mode_apply(out, j, e.eigenvectors.T)
    out = out * r.diag_weights[..., None]
    for j, e in enumerate(r.axis_eigs):
        out = mode_apply(out, j, e.eigenvectors)
    return out


def build_tp(axis_grams, alpha: float) -> ResolventTP:
    eigs = []
    weights = []
    for j, g in enumerate(axis_grams):
        try:
            e = sym_eig(np.asarray(g, dtype=np.float64))
        except Exception as exc:
            raise SingularAxisError(j, f"axis {j}: {exc}") from exc
        denom = 1.0 - alpha * e.eigenvalues
        near = float(np.abs(denom).min())
        if near < _DIAG_TOL:
            raise SingularAxisError(
                j, f"axis {j}: |1 - alpha*lambda| = {near:.3e} < {_DIAG_TOL}"
            )
        eigs.append(e)
        weights.append(1.0 / denom)
    return ResolventTP(
        axis_eigs=tuple(eigs), axis_weights=tuple(weights), alpha=float(alpha)
    )


def apply_tp(r: ResolventTP, t: np.ndarray) -> np.ndarray:
    # Same factored primitive as the full resolvent: rotate each axis into
    # its eigenbasis, reweight, rotate back. Keeps the two apply paths
    # cost-symmetric (2d mode products each).
    t = np.asarray(t, dtype=np.float64)
    _check_axes(t, r.axis_sizes)
    out = t
    for j, (e, w) in enumerate(zip(r.axis_eigs, r.axis_weights)):
        out = mode_apply(out, j, e.eigenvectors.T)
        shape = [1] * out.ndim
        shape[j] = w.size
        out = out * w.reshape(shape)
        out = mode_apply(out, j, e.eigenvectors)
    return out


def apply_truncated(tp: TruncatedPropagator, t: np.ndarray) -> np.ndarray:
    """Horner accumulation s <- t + alpha * K s, repeated ``order`` times."""
    t = np.asarray(t, dtype=np.float64)
    sizes = tuple(g.shape[0] for g in tp.axis_grams)
    _check_axes(t, sizes)
    s = t
    for _ in range(tp.order):
        s = t + tp.alpha * kron_apply(list(tp.axis_grams), s)
    return s


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


def convergence_report(axis_grams, alpha: float) -> ConvergenceReport:
    eigs = [sym_eig(g) for g in axis_grams]
    rho = spectral_radius_from_axes(eigs, alpha)
    lam_min = 1.0
    for e in eigs:
        lam_min *= e.eigenvalues.min()
    abs_alpha_lam_min = abs(alpha) * lam_min
    return ConvergenceReport(
        rho_alpha_k=float(rho),
        abs_alpha_lambda_min=float(abs_alpha_lam_min),
        positive_series_converges=bool(rho < 1.0),
        inverse_series_converges=bool(abs_alpha_lam_min > 1.0),
    )


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


def save_vanilla(out_dir, r: ResolventVanilla) -> None:
    """Serialize a built operator to the binary tensor format (bit-exact)."""
    from .serialize import save_arrays

    arrays = {"diag_weights": r.diag_weights}
    for j, e in enumerate(r.axis_eigs):
        arrays[f"eigenvalues_{j}"] = e.eigenvalues
        arrays[f"eigenvectors_{j}"] = e.eigenvectors
    save_arrays(
        out_dir,
        arrays,
        meta={
            "kind": "resolvent-vanilla",
            "alpha": r.alpha,
            "neumann_valid": r.neumann_valid,
            "dim": len(r.axis_eigs),
        },
    )


def load_vanilla(in_dir) -> ResolventVanilla:
    from .serialize import load_arrays

    arrays, meta = load_arrays(in_dir)
    if meta.get("kind") != "resolvent-vanilla":
        raise ValueError(f"not a serialized operator: {meta.get('kind')!r}")
    eigs = tuple(
        SymEig(
            eigenvalues=arrays[f"eigenvalues_{j}"],
            eigenvectors=arrays[f"eigenvectors_{j}"],
        )
        for j in range(int(meta["dim"]))
    )
    return ResolventVanilla(
        axis_eigs=eigs,
        alpha=float(meta["alpha"]),
        diag_weights=arrays["diag_weights"],
        neumann_valid=bool(meta["neumann_valid"]),
    )
