"""Deterministic desk-scale synthetic datasets with independent oracles.

Two generators, both pure functions of their spec (seed included):

* sine-sum Poisson pairs on [-1, 1]^2 with the forcing computed
  analytically (the pair satisfies -lap(u) = a exactly);
* Gaussian-source Poisson: the 5-point finite-difference system solved
  directly in the sine eigenbasis of its Kronecker-sum Laplacian
  (``verify.suite_poisson_solver`` checks it against conjugate gradient).

Every dataset is a tuple of :class:`SampleRecord` and is saved in one
file layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooManyRequestedError
from .kernels import PointCloud
from .rng import Rng64
from .serialize import load_arrays, save_arrays

__all__ = [
    "SampleRecord",
    "Dataset",
    "CSinesSpec",
    "PoissonGaussSpec",
    "gen_csines",
    "solve_poisson_fd",
    "gen_poisson_gauss",
    "subsample_cloud",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class SampleRecord:
    input_cloud: PointCloud  # coords + condition channels a(x)
    queries: PointCloud
    targets: np.ndarray  # (N_q, C)


@dataclass(frozen=True)
class Dataset:
    kind: str
    dim: int
    samples: tuple[SampleRecord, ...]
    meta: dict


def _check_sizes(spec) -> None:
    """A dataset needs a sample, and each sample an input point and a query."""
    for name in ("num_samples", "num_points", "num_queries"):
        value = getattr(spec, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


# -- sine-sum Poisson --------------------------------------------------------


@dataclass(frozen=True)
class CSinesSpec:
    num_samples: int = 256
    max_mode: int = 3
    amp_lo: float = -1.0
    amp_hi: float = 1.0
    num_points: int = 64
    num_queries: int = 64
    seed: int = 0

    def __post_init__(self):
        _check_sizes(self)
        if self.max_mode < 1:
            raise ValueError("max_mode must be >= 1")


def _sine_basis(coords: np.ndarray, k1: int, k2: int) -> np.ndarray:
    s1 = np.sin(np.pi * k1 * (coords[:, 0] + 1.0) / 2.0)
    s2 = np.sin(np.pi * k2 * (coords[:, 1] + 1.0) / 2.0)
    return s1 * s2


def _csines_fields(amps: np.ndarray, coords: np.ndarray, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, forcing) at coords; forcing = -lap(u) computed analytically."""
    u = np.zeros(coords.shape[0])
    f = np.zeros(coords.shape[0])
    idx = 0
    for k1 in range(1, kmax + 1):
        for k2 in range(1, kmax + 1):
            basis = _sine_basis(coords, k1, k2)
            u += amps[idx] * basis
            f += amps[idx] * (np.pi**2) * (k1**2 + k2**2) / 4.0 * basis
            idx += 1
    return u, f


def gen_csines(spec: CSinesSpec) -> Dataset:
    root = Rng64(spec.seed)
    samples = []
    n_modes = spec.max_mode**2
    for s in range(spec.num_samples):
        rng = root.child(s)
        amps = rng.uniform_array((n_modes,), spec.amp_lo, spec.amp_hi)
        in_pts = rng.uniform_array((spec.num_points, 2), -1.0, 1.0)
        q_pts = rng.uniform_array((spec.num_queries, 2), -1.0, 1.0)
        _, f_in = _csines_fields(amps, in_pts, spec.max_mode)
        u_q, _ = _csines_fields(amps, q_pts, spec.max_mode)
        samples.append(
            SampleRecord(
                input_cloud=PointCloud(in_pts, channels=f_in[:, None]),
                queries=PointCloud(q_pts),
                targets=u_q[:, None],
            )
        )
    return Dataset(
        kind="csines",
        dim=2,
        samples=tuple(samples),
        meta={
            "seed": spec.seed,
            "max_mode": spec.max_mode,
            "amp_range": [spec.amp_lo, spec.amp_hi],
            "num_points": spec.num_points,
            "num_queries": spec.num_queries,
        },
    )


# -- finite-difference Poisson solver ----------------------------------------


def solve_poisson_fd(f_grid: np.ndarray) -> np.ndarray:
    """Solve -lap_h(u) = f on [-1, 1]^2 with zero Dirichlet boundary.

    ``f_grid`` is (H, H) including boundary rows/columns; the returned u is
    (H, H) with zero boundary. The 5-point operator on the n = H - 2
    interior points is the Kronecker sum T (x) I + I (x) T of the 1-D
    second difference T = tridiag(-1, 2, -1) / dx^2. Each column of the
    sine basis S[i, k] = sin(pi (i+1) (k+1) / (n+1)) vanishes at the two
    boundary nodes i = -1 and i = n, so it is an exact eigenvector of T
    with eigenvalue mu_k = (2 - 2 cos(pi (k+1) / (n+1))) / dx^2, computed
    as 4 sin^2(pi (k+1) / (2 (n+1))) / dx^2 to avoid cancellation; and
    S^2 = (n+1)/2 I. So S (x) S diagonalizes the whole operator with
    eigenvalues mu_k + mu_l, and u = S ((S f S) / (mu_k + mu_l)) S
    (2 / (n+1))^2 solves the 5-point system exactly, up to rounding
    (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7(4), 1970): four
    n x n products, no iteration.
    """
    f_grid = np.asarray(f_grid, dtype=np.float64)
    h_pts = f_grid.shape[0]
    if f_grid.shape != (h_pts, h_pts) or h_pts < 3:
        raise ValueError("f_grid must be square with at least 3 points per side")
    n = h_pts - 2
    dx = 2.0 / (n + 1)
    k = np.arange(1, n + 1)
    s = np.sin(np.pi * np.outer(k, k) / (n + 1))
    mu = (2.0 * np.sin(np.pi * k / (2 * (n + 1))) / dx) ** 2
    coeffs = (s @ f_grid[1:-1, 1:-1] @ s) / (mu[:, None] + mu[None, :])
    out = np.zeros((h_pts, h_pts))
    out[1:-1, 1:-1] = (s @ coeffs @ s) * (2.0 / (n + 1)) ** 2
    return out


def bilinear_interp(grid_vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Interpolate an (H, H) field on [-1, 1]^2 at (n, 2) points."""
    h_pts = grid_vals.shape[0]
    dx = 2.0 / (h_pts - 1)
    x = (np.clip(pts[:, 0], -1.0, 1.0) + 1.0) / dx
    y = (np.clip(pts[:, 1], -1.0, 1.0) + 1.0) / dx
    i0 = np.clip(np.floor(x).astype(int), 0, h_pts - 2)
    j0 = np.clip(np.floor(y).astype(int), 0, h_pts - 2)
    tx = x - i0
    ty = y - j0
    v00 = grid_vals[i0, j0]
    v10 = grid_vals[i0 + 1, j0]
    v01 = grid_vals[i0, j0 + 1]
    v11 = grid_vals[i0 + 1, j0 + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


# -- Gaussian-source Poisson -------------------------------------------------


@dataclass(frozen=True)
class PoissonGaussSpec:
    num_samples: int = 256
    sources_lo: int = 1
    sources_hi: int = 4
    amp_lo: float = -2.0
    amp_hi: float = 2.0
    width_lo: float = 0.1
    width_hi: float = 0.4
    solver_res: int = 65
    num_points: int = 64
    num_queries: int = 64
    seed: int = 0

    def __post_init__(self):
        _check_sizes(self)
        if self.solver_res < 17:
            raise ValueError("solver_res must be >= 17")
        if not (0 < self.width_lo <= self.width_hi):
            raise ValueError("widths must be positive")
        if self.sources_lo < 1:
            raise ValueError(f"sources_lo must be >= 1, got {self.sources_lo}")
        if self.sources_hi < self.sources_lo:
            raise ValueError(
                f"sources_hi must be >= sources_lo = {self.sources_lo}, got {self.sources_hi}"
            )


def _gauss_sources(rng: Rng64, spec: PoissonGaussSpec):
    n_src = spec.sources_lo + rng.integer(spec.sources_hi - spec.sources_lo + 1)
    sources = []
    for _ in range(n_src):
        cx = rng.uniform(-0.8, 0.8)
        cy = rng.uniform(-0.8, 0.8)
        amp = rng.uniform(spec.amp_lo, spec.amp_hi)
        width = rng.uniform(spec.width_lo, spec.width_hi)
        sources.append((cx, cy, amp, width))
    return sources


def _gauss_eval(sources, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[0])
    for cx, cy, amp, width in sources:
        r2 = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2
        out += amp * np.exp(-r2 / (2.0 * width**2))
    return out


def _solver_grid(h_pts: int) -> np.ndarray:
    """The (H*H, 2) nodes of the solver grid on [-1, 1]^2, row-major in x."""
    axis = np.linspace(-1.0, 1.0, h_pts)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def gen_poisson_gauss(spec: PoissonGaussSpec) -> Dataset:
    root = Rng64(spec.seed)
    h_pts = spec.solver_res
    grid_pts = _solver_grid(h_pts)
    samples = []
    for s in range(spec.num_samples):
        rng = root.child(s)
        sources = _gauss_sources(rng, spec)
        f_grid = _gauss_eval(sources, grid_pts).reshape(h_pts, h_pts)
        u_grid = solve_poisson_fd(f_grid)
        in_pts = subsample_cloud((2, -1.0, 1.0), spec.num_points, rng).coords
        q_pts = subsample_cloud((2, -1.0, 1.0), spec.num_queries, rng).coords
        f_in = _gauss_eval(sources, in_pts)
        u_q = bilinear_interp(u_grid, q_pts)
        samples.append(
            SampleRecord(
                input_cloud=PointCloud(in_pts, channels=f_in[:, None]),
                queries=PointCloud(q_pts),
                targets=u_q[:, None],
            )
        )
    return Dataset(
        kind="poisson-gauss",
        dim=2,
        samples=tuple(samples),
        meta={
            "seed": spec.seed,
            "solver_res": spec.solver_res,
            "num_points": spec.num_points,
            "num_queries": spec.num_queries,
        },
    )


# -- point-cloud subsampling -------------------------------------------------


def subsample_cloud(source, n: int, rng: Rng64) -> PointCloud:
    """Deterministic cloud draw.

    Grid mode (source is an (N, d) array): seeded shuffle then first n,
    no duplicates. Continuous mode (source is (d, lo, hi)): n uniform
    points in the box.
    """
    if isinstance(source, tuple) and len(source) == 3:
        d, lo, hi = source
        if n < 1:
            raise TooManyRequestedError("need at least one point")
        return PointCloud(rng.uniform_array((n, d), lo, hi))
    pts = np.asarray(source, dtype=np.float64)
    if n > pts.shape[0]:
        raise TooManyRequestedError(f"requested {n} of {pts.shape[0]} available points")
    order = list(range(pts.shape[0]))
    rng.shuffle(order)
    return PointCloud(pts[order[:n]])


# -- dataset files -----------------------------------------------------------


def save_dataset(ds: Dataset, out_dir) -> dict:
    arrays = {
        "input_coords": np.stack([r.input_cloud.coords for r in ds.samples]),
        "input_values": np.stack([r.input_cloud.channels for r in ds.samples]),
        "query_coords": np.stack([r.queries.coords for r in ds.samples]),
        "target_values": np.stack([r.targets for r in ds.samples]),
    }
    meta = dict(ds.meta)
    meta.update(
        {
            "kind": ds.kind,
            "dim": ds.dim,
            "num_samples": len(ds.samples),
            "channel_names": ["a"],
        }
    )
    return save_arrays(out_dir, arrays, meta)


def load_dataset(in_dir) -> Dataset:
    arrays, meta = load_arrays(in_dir)
    kind = meta["kind"]
    if kind not in ("csines", "poisson-gauss"):
        raise ValueError(f"unknown dataset kind {kind!r} in {in_dir}")
    samples = tuple(
        SampleRecord(
            input_cloud=PointCloud(ic, channels=iv),
            queries=PointCloud(qc),
            targets=tv,
        )
        for ic, iv, qc, tv in zip(
            arrays["input_coords"],
            arrays["input_values"],
            arrays["query_coords"],
            arrays["target_values"],
        )
    )
    return Dataset(kind=kind, dim=int(meta["dim"]), samples=samples, meta=meta)
