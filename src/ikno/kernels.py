"""Kernel evaluations, Gram assembly, and latent-grid geometry.

The learnable per-axis base kernel is

    k_j(x, y) = c_j * (exp(-(beta_j * (x - y))**2) + exp(-|gamma_j * (x - y)|))

and the d-dimensional kernel is the product of the per-axis kernels, so the
Gram over a product grid factorizes as the Kronecker product of axis Grams.
Axis Grams are stored UNNORMALIZED; any 1/N quadrature weight is absorbed
into the learnable c_j and the propagation coefficient alpha.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BadRangeError, DimMismatchError, DuplicatePointsWarning

__all__ = [
    "AxisKernelParams",
    "KernelBranch",
    "MultiScaleKernelParams",
    "LinearWindowKernel",
    "LatentGrid",
    "PointCloud",
    "axis_kernel_eval",
    "axis_kernel_matrix",
    "product_kernel_eval",
    "linear_window_eval",
    "axis_gram",
    "cross_kernel",
    "grid_linspace",
]


@dataclass(frozen=True)
class AxisKernelParams:
    """Learnable scales of one axis: amplitude c > 0, Gaussian inverse
    length scale beta, Laplace inverse length scale gamma."""

    c: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.beta == 0 or self.gamma == 0:
            raise ValueError("beta and gamma must be nonzero")


@dataclass(frozen=True)
class KernelBranch:
    axis_params: tuple[AxisKernelParams, ...]
    alpha: float


@dataclass(frozen=True)
class MultiScaleKernelParams:
    branches: tuple[KernelBranch, ...]

    def __post_init__(self):
        if len(self.branches) < 1:
            raise ValueError("need at least one kernel branch")


@dataclass(frozen=True)
class LinearWindowKernel:
    """Fixed compactly-supported separable kernel
    scale * prod_j max(1 - |x_j - y_j| / r, 0), with propagation coefficient
    alpha. A product of 1-D tents, so its Gram over a product grid is the
    positive semidefinite Kronecker product of axis Grams. Each axis factor
    carries scale**(1/d); that split defines the tp construction's per-axis
    Grams.
    """

    radius: float = 0.2
    scale: float = 1.0
    alpha: float = -0.15

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.scale > 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class LatentGrid:
    """Structured product grid with strictly increasing per-axis coordinates.

    Points are enumerated lexicographically with axis 1 slowest, matching
    the Kronecker factor order K_1 (x) ... (x) K_d.
    """

    per_axis_points: tuple[np.ndarray, ...]
    grid_min: float = -1.0
    grid_max: float = 1.0

    @property
    def dim(self) -> int:
        return len(self.per_axis_points)

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.per_axis_points)

    @property
    def num_points(self) -> int:
        return int(np.prod(self.axis_sizes))

    def points(self) -> np.ndarray:
        """All grid points as an (M, d) array in the pinned order."""
        mesh = np.meshgrid(*self.per_axis_points, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class PointCloud:
    """Arbitrary point set, optionally with per-point condition channels."""

    coords: np.ndarray
    channels: np.ndarray | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError(f"coords must be (N, d), got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "coords", coords)
        if self.channels is not None:
            ch = np.asarray(self.channels, dtype=np.float64)
            if ch.shape[0] != coords.shape[0]:
                raise ValueError("channel rows must match point count")
            object.__setattr__(self, "channels", ch)

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


def axis_kernel_eval(p: AxisKernelParams, x: float, y: float) -> float:
    d = x - y
    return p.c * (np.exp(-((p.beta * d) ** 2)) + np.exp(-abs(p.gamma * d)))


def axis_kernel_matrix(p: AxisKernelParams, dx: np.ndarray) -> np.ndarray:
    """Vectorized base kernel over an array of coordinate differences."""
    dx = np.asarray(dx, dtype=np.float64)
    return p.c * (np.exp(-((p.beta * dx) ** 2)) + np.exp(-np.abs(p.gamma * dx)))


def product_kernel_eval(axes, x, y) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(axes) != x.size or x.size != y.size:
        raise DimMismatchError(
            f"{len(axes)} axis kernels for points of dim {x.size}/{y.size}"
        )
    out = 1.0
    for p, xi, yi in zip(axes, x, y):
        out *= axis_kernel_eval(p, xi, yi)
    return float(out)


def linear_window_eval(k: LinearWindowKernel, x, y) -> float:
    """Scalar oracle of the separable linear-window kernel."""
    diff = np.abs(np.asarray(x, dtype=np.float64).ravel() - np.asarray(y, dtype=np.float64).ravel())
    out = k.scale
    for dj in diff:
        out *= max(1.0 - dj / k.radius, 0.0)
    return float(out)


def axis_gram(p: AxisKernelParams, coords: np.ndarray) -> np.ndarray:
    """Symmetric N x N Gram of one axis kernel over scalar coordinates.

    Strictly positive definite for pairwise-distinct coordinates; duplicate
    points degrade PD to PSD and are surfaced as a warning.
    """
    coords = np.asarray(coords, dtype=np.float64).ravel()
    if len(np.unique(coords)) < coords.size:
        warnings.warn(
            "duplicate coordinates: Gram is only positive semidefinite",
            DuplicatePointsWarning,
            stacklevel=2,
        )
    dx = coords[:, None] - coords[None, :]
    return axis_kernel_matrix(p, dx)


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, LatentGrid):
        return obj.points()
    if isinstance(obj, PointCloud):
        return obj.coords
    return np.asarray(obj, dtype=np.float64)


def cross_kernel(axes, rows, cols) -> np.ndarray:
    """Product-kernel matrix between two point sets.

    Grid arguments are enumerated in the pinned lexicographic order, so the
    result matches K_GP / K_QG roles directly. Evaluated entry by entry, it
    is the dense oracle for the model's Khatri-Rao cross kernels.
    """
    r = _as_points(rows)
    c = _as_points(cols)
    if r.shape[1] != c.shape[1] or r.shape[1] != len(axes):
        raise DimMismatchError(
            f"dim mismatch: rows d={r.shape[1]}, cols d={c.shape[1]}, axes={len(axes)}"
        )
    out = np.ones((r.shape[0], c.shape[0]))
    for j, p in enumerate(axes):
        out *= axis_kernel_matrix(p, r[:, j][:, None] - c[:, j][None, :])
    return out


def grid_linspace(d: int, per_axis: int, lo: float = -1.0, hi: float = 1.0) -> LatentGrid:
    if per_axis < 2:
        raise BadRangeError("need at least 2 points per axis")
    if not lo < hi:
        raise BadRangeError(f"bad range [{lo}, {hi}]")
    pts = np.linspace(lo, hi, per_axis)
    return LatentGrid(
        per_axis_points=tuple(pts.copy() for _ in range(d)), grid_min=lo, grid_max=hi
    )
