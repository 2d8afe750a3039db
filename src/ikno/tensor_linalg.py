"""Dense symmetric linear algebra and tensor mode products.

Latent-grid feature tensors are stored as float64 ndarrays of shape
``(N_1, ..., N_d, h)``: axis 1 slowest, channel fastest. This matches the
Kronecker convention ``K = K_1 (x) K_2 (x) ... (x) K_d`` so that flattening
the leading d axes in C order enumerates grid points in the same order as
the rows of the materialized Kronecker matrix. In that order a mode-j
product reads the tensor as its C-order view
(N_1 ... N_{j-1}, N_j, N_{j+1} ... N_d h) and is one batched GEMM over it,
so no axis is ever moved by a transposed copy (Kolda & Bader, *Tensor
Decompositions and Applications*, SIAM Review 51(3), 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    EmptyInputError,
    IllConditionedError,
    NonSymmetricError,
    NoConvergenceError,
    ShapeMismatchError,
    SingularError,
)

__all__ = [
    "SymEig",
    "sym_eig",
    "mode_apply",
    "kron_apply",
    "kron_materialize",
    "dense_inverse",
    "spectral_radius_from_axes",
    "mode_apply_count",
    "reset_mode_apply_count",
]

# Counter over mode_apply invocations, exposed so tests can assert that
# Kronecker applications run in Theta(sum_j N_j) slab products and never
# fall back to a materialized M x M operator.
_MODE_APPLY_CALLS = 0


def mode_apply_count() -> int:
    return _MODE_APPLY_CALLS


def reset_mode_apply_count() -> None:
    global _MODE_APPLY_CALLS
    _MODE_APPLY_CALLS = 0


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition A = U diag(w) U^T with w ascending.

    The sign of each eigenvector column is fixed by making its
    largest-magnitude component positive, so the factors, and every
    operator built from them, are bit-reproducible across runs.
    :func:`sym_eig` returns both arrays read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_symmetric(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected square matrix, got shape {a.shape}")
    amax = np.abs(a).max() if a.size else 0.0
    asym = np.abs(a - a.T).max() if a.size else 0.0
    if asym > 1e-10 * (1.0 + amax):
        raise NonSymmetricError(f"asymmetry {asym:.3e} exceeds tolerance")


def sym_eig(a: np.ndarray) -> SymEig:
    """Symmetric eigendecomposition with deterministic sign convention."""
    a = np.asarray(a, dtype=np.float64)
    _check_symmetric(a)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergenceError(str(exc)) from exc
    # eigh returns ascending eigenvalues; pin eigenvector signs.
    pivot = np.abs(u).argmax(axis=0)
    signs = np.sign(u[pivot, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    u = u * signs
    w.flags.writeable = u.flags.writeable = False
    return SymEig(eigenvalues=w, eigenvectors=u)


def mode_apply(t: np.ndarray, axis: int, a: np.ndarray) -> np.ndarray:
    """Contract matrix ``a`` against tensor axis ``axis``.

    ``t`` has shape (N_1, ..., N_d, h); the channel axis is never a valid
    target. With ``t`` read as its C-order view (prod_{l<j} N_l, N_j, rest),
    the product is one batched GEMM of the N_j x N_j matrix against each
    N_j x rest slab: no M x M object is formed and no transposed copy of
    ``t`` is made. The result is C-contiguous.
    """
    global _MODE_APPLY_CALLS
    t = np.asarray(t, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    d = t.ndim - 1
    if not 0 <= axis < d:
        raise ShapeMismatchError(f"axis {axis} out of range for {d} tensor axes")
    if a.ndim != 2 or a.shape[1] != t.shape[axis] or a.shape[0] != t.shape[axis]:
        raise ShapeMismatchError(
            f"matrix shape {a.shape} incompatible with axis size {t.shape[axis]}"
        )
    _MODE_APPLY_CALLS += 1
    lead = math.prod(t.shape[:axis])
    view = t.reshape(lead, t.shape[axis], math.prod(t.shape[axis + 1:]))
    return np.matmul(a, view).reshape(t.shape)


def kron_apply(mats: list[np.ndarray], t: np.ndarray) -> np.ndarray:
    """Apply (A_1 (x) ... (x) A_d) to each channel of ``t``.

    Implemented as d successive mode products; total cost O(d * N * M * h)
    for uniform axis size N.
    """
    d = t.ndim - 1
    if len(mats) != d:
        raise ShapeMismatchError(f"{len(mats)} matrices for {d} tensor axes")
    out = t
    for j, a in enumerate(mats):
        out = mode_apply(out, j, a)
    return out


def kron_materialize(mats: list[np.ndarray]) -> np.ndarray:
    """Dense Kronecker product; oracle/benchmark path only."""
    return reduce(np.kron, [np.asarray(m, dtype=np.float64) for m in mats])


def dense_inverse(a: np.ndarray) -> np.ndarray:
    """Explicit inverse with a conditioning guard; oracle path only."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected square matrix, got shape {a.shape}")
    n = a.shape[0]
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] == 0.0:
        raise SingularError("matrix is singular")
    rcond = sv[-1] / sv[0]
    if rcond <= 1e-12:
        raise IllConditionedError(f"reciprocal condition estimate {rcond:.3e} <= 1e-12")
    inv = np.linalg.solve(a, np.eye(n))
    resid = np.abs(a @ inv - np.eye(n)).max()
    if resid > 1e-8 * n:
        raise IllConditionedError(f"inverse residual {resid:.3e} exceeds 1e-8 * n")
    return inv


def spectral_radius_from_axes(eigs: list[SymEig], alpha: float) -> float:
    """Spectral radius of alpha * (K_1 (x) ... (x) K_d).

    Kronecker eigenvalues are products of per-axis eigenvalues, so the
    radius is |alpha| times the product of per-axis max |lambda|.
    """
    if not eigs:
        raise EmptyInputError("need at least one axis eigensystem")
    prod = 1.0
    for e in eigs:
        prod *= np.abs(e.eigenvalues).max()
    return abs(alpha) * prod
