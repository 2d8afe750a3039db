"""Self-contained correctness suites with machine-readable results.

Each suite pits the fast structured code paths against slow independent
oracles (dense inversion, finite differences, explicit eigenvalues,
conjugate gradient) and records the worst observed deviation. The CLI
``verify`` command runs all of them and fails loudly on any regression.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from . import data
from .autodiff import Tensor
from .kernels import (
    AxisKernelParams,
    LinearWindowKernel,
    PointCloud,
    axis_gram,
    cross_kernel,
    grid_linspace,
    linear_window_eval,
    product_kernel_eval,
)
from .model import ModelConfig, _np_graph, alpha_indices, decode_kernel_params, init_params
from .ops_ad import KhatriRaoCross, resolvent_decode_ad, resolvent_encode_ad
from .resolvent import (
    apply_naive_inverse,
    apply_resolvent,
    build_tp,
    build_truncated,
    build_vanilla,
    inverse_power_partial_sum,
)
from .rng import Rng64
from .tensor_linalg import kron_materialize
from .training import batch_loss, fd_steps, grad_fd, loss_and_grad

__all__ = [
    "CheckResult",
    "VerifyReport",
    "suite_oracle_equivalence",
    "suite_neumann_convergence",
    "suite_inverse_power",
    "suite_dimension_split",
    "suite_positive_definite",
    "suite_gradient",
    "suite_poisson_solver",
    "suite_cross_kernel",
    "run_all",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    threshold: float
    detail: str = ""
    wall_time_s: float = 0.0  # set by run_all

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_deviation": float(self.max_deviation),
            "threshold": float(self.threshold),
            "detail": self.detail,
            "wall_time_s": float(self.wall_time_s),
        }


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)
    cases: int = 0
    wall_time_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "report": "verify",
            "cases": int(self.cases),
            "all_passed": self.all_passed,
            "wall_time_s": float(self.wall_time_s),
            "checks": [c.to_dict() for c in self.checks],
        }


def _random_params(rng: Rng64) -> AxisKernelParams:
    return AxisKernelParams(
        c=float(np.exp(rng.uniform(-1.0, 1.0))),
        beta=float(rng.uniform(0.3, 3.0) * (1 if rng.uniform() < 0.5 else -1)),
        gamma=float(rng.uniform(0.3, 3.0) * (1 if rng.uniform() < 0.5 else -1)),
    )


def _random_axis_grams(rng: Rng64, d: int, n_max: int = 8):
    grams = []
    for _ in range(d):
        n = 2 + rng.integer(n_max - 1)
        coords = np.sort(rng.uniform_array(n, -1.0, 1.0))
        # nudge any near-duplicates apart so the Gram stays strictly PD
        for i in range(1, n):
            if coords[i] - coords[i - 1] < 1e-3:
                coords[i] = coords[i - 1] + 1e-3
        grams.append(axis_gram(_random_params(rng), coords))
    return grams


def _spectral_radius(grams) -> float:
    rho = 1.0
    for g in grams:
        rho *= float(np.abs(np.linalg.eigvalsh(g)).max())
    return rho


def _partial_sum(grams, alpha: float, order: int, t: np.ndarray) -> np.ndarray:
    """sum_{k <= order} (alpha * kron K)^k t, with K materialized."""
    ak = alpha * kron_materialize(list(grams))
    term = total = t.reshape(ak.shape[0], -1)
    for _ in range(order):
        term = ak @ term
        total = total + term
    return total.reshape(t.shape)


def _deviation(fast: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(fast - ref).max() / max(np.abs(ref).max(), 1.0))


def suite_oracle_equivalence(
    cases: int = 100, seed: int = 0, inject_fault: str | None = None
) -> CheckResult:
    """Fast eigen-factored operators vs. dense oracles, random instances.

    Alpha alternates between the negative regime [-2, 0) and the positive
    Neumann-valid regime (0, 0.9/rho(K)]. Vanilla is checked against the
    explicit dense inverse, tp against the Kronecker product of per-axis
    dense inverses, and the truncated partial sum of order i mod 5 against
    the dense sum_{k <= p} (alpha * kron K)^k, at the instance's alpha and
    at alpha = 1 / prod_j lambda_j for one point of the eigen-grid, where
    1 - alpha * Lambda = 0 and vanilla is singular. The optional
    ``tp-as-vanilla`` fault swaps the tensor-product operator into the
    full-resolvent check, and ``truncated-order-off-by-one`` builds the
    partial sum one order too high, so the suite demonstrably catches either
    miswiring.
    """
    rng = Rng64(seed ^ 0x0E0A)
    worst = 0.0
    detail = ""
    for i in range(cases):
        d = 1 + rng.integer(3)
        grams = _random_axis_grams(rng, d)
        if i % 2 == 0:
            alpha = rng.uniform(-2.0, -1e-3)
        else:
            alpha = rng.uniform(1e-3, 0.9 / _spectral_radius(grams))
        sizes = tuple(g.shape[0] for g in grams)
        t = rng.uniform_array(sizes + (2,), -1.0, 1.0)

        rv = build_vanilla(grams, alpha)
        fast = apply_resolvent(rv, t)
        if inject_fault == "tp-as-vanilla" and d >= 2:
            fast = apply_resolvent(build_tp(grams, alpha), t)
        devs = {"vanilla": _deviation(fast, apply_naive_inverse(grams, alpha, t))}

        # tensor-product variant against its own dense oracle
        rt = build_tp(grams, alpha)
        dense_tp = kron_materialize(
            [np.linalg.inv(np.eye(g.shape[0]) - alpha * g) for g in grams]
        )
        m = int(np.prod(sizes))
        ref_tp = (dense_tp @ t.reshape(m, -1)).reshape(t.shape)
        devs["tp"] = _deviation(apply_resolvent(rt, t), ref_tp)

        # truncated partial sum, also at rho(alpha * K) = 1, where the
        # eigen-grid point of largest |Lambda| has 1 - alpha * Lambda = 0
        order = i % 5
        built = order + 1 if inject_fault == "truncated-order-off-by-one" else order
        lam = reduce(np.multiply.outer, [np.linalg.eigvalsh(g) for g in grams])
        alpha_one = 1.0 / lam.flat[np.abs(lam).argmax()]
        for label, a in (("", alpha), (" at alpha*Lambda=1", alpha_one)):
            fast_tr = apply_resolvent(build_truncated(grams, a, built), t)
            ref_tr = _partial_sum(grams, a, order, t)
            devs[f"truncated p={order}{label}"] = _deviation(fast_tr, ref_tr)

        name, dev = max(devs.items(), key=lambda kv: kv[1])
        if dev > worst:
            worst = dev
            detail = f"case {i}: {name} d={d} sizes={sizes} alpha={alpha:.4f}"
    return CheckResult(
        name="resolvent-oracle-equivalence",
        passed=worst <= 1e-8,
        max_deviation=worst,
        threshold=1e-8,
        detail=detail,
    )


# Stored convergence instance: eigenvalues {0.5, 1.5}, alpha = +0.6, so the
# series ratio is rho(alpha*K) = 0.9 and the geometric bound is tight.
_CONV_GRAM = np.array([[1.0, 0.5], [0.5, 1.0]])
_CONV_ALPHA = 0.6


def suite_neumann_convergence() -> CheckResult:
    k = _CONV_GRAM
    alpha = _CONV_ALPHA
    rho = alpha * float(np.linalg.eigvalsh(k).max())
    resolvent = np.linalg.inv(np.eye(2) - alpha * k)
    worst_ratio = 1.0
    ok = abs(rho - 0.9) <= 0.02
    detail = f"rho={rho:.3f}"
    for p in (1, 5, 10, 20, 50):
        rp = np.eye(2)
        for _ in range(p):
            rp = np.eye(2) + alpha * k @ rp
        err = float(np.linalg.norm(rp - resolvent, 2))
        bound = rho ** (p + 1) / (1.0 - rho)
        ratio = max(err / bound, bound / err)
        worst_ratio = max(worst_ratio, ratio)
        ok = ok and err <= 3.0 * bound and err >= bound / 3.0
        detail += f" p={p}:err/bound={err / bound:.3f}"
    return CheckResult(
        name="neumann-geometric-bound",
        passed=ok,
        max_deviation=worst_ratio,
        threshold=3.0,
        detail=detail,
    )


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# Stored inverse-power instances: eigenvalues {2, 3} (|alpha|*lambda_min = 2,
# convergent) and {0.5, 1.5} (|alpha|*lambda_min = 0.5, divergent), alpha = -1.
_U_INV = _rotation(0.3)
_INV_GRAM_CONV = _U_INV @ np.diag([2.0, 3.0]) @ _U_INV.T
_INV_GRAM_DIV = _U_INV @ np.diag([0.5, 1.5]) @ _U_INV.T
_INV_ALPHA = -1.0


def suite_inverse_power() -> CheckResult:
    alpha = _INV_ALPHA
    resolvent = np.linalg.inv(np.eye(2) - alpha * _INV_GRAM_CONV)
    dev = None
    for n in range(1, 26):
        s = inverse_power_partial_sum([_INV_GRAM_CONV], alpha, n)
        dev = float(np.linalg.norm(s - resolvent, 2))
        if dev <= 1e-6:
            break
    converged = dev is not None and dev <= 1e-6

    norms = [
        float(np.linalg.norm(inverse_power_partial_sum([_INV_GRAM_DIV], alpha, n), 2))
        for n in (1, 5, 10, 15, 20, 25)
    ]
    diverges = all(b > a for a, b in zip(norms, norms[1:]))
    return CheckResult(
        name="inverse-power-regimes",
        passed=converged and diverges,
        max_deviation=float(dev),
        threshold=1e-6,
        detail=f"terms<=25 dev={dev:.3e}; divergent norms {norms[0]:.2e}->{norms[-1]:.2e}",
    )


# Stored d=2 witness where the tensor-product and full resolvents differ.
_WITNESS_GRAM = np.array([[1.0, 0.5], [0.5, 1.0]])
_WITNESS_ALPHA = -1.0


def suite_dimension_split(cases: int = 20, seed: int = 0) -> CheckResult:
    """d=1: TP and Vanilla coincide to 1e-9. d=2 witness: gap > 1e-3."""
    rng = Rng64(seed ^ 0xD51)
    worst_d1 = 0.0
    for _ in range(cases):
        grams = _random_axis_grams(rng, 1)
        alpha = rng.uniform(-2.0, -1e-3)
        t = rng.uniform_array((grams[0].shape[0], 2), -1.0, 1.0)
        a = apply_resolvent(build_vanilla(grams, alpha), t)
        b = apply_resolvent(build_tp(grams, alpha), t)
        worst_d1 = max(worst_d1, float(np.abs(a - b).max()))

    grams2 = [_WITNESS_GRAM, _WITNESS_GRAM]
    t2 = np.arange(8.0).reshape(2, 2, 2)
    gap = float(
        np.abs(
            apply_resolvent(build_vanilla(grams2, _WITNESS_ALPHA), t2)
            - apply_resolvent(build_tp(grams2, _WITNESS_ALPHA), t2)
        ).max()
    )
    return CheckResult(
        name="d1-coincidence-d2-gap",
        passed=worst_d1 <= 1e-9 and gap > 1e-3,
        max_deviation=worst_d1,
        threshold=1e-9,
        detail=f"d=2 witness gap {gap:.3e} (> 1e-3 required)",
    )


def suite_positive_definite(cases: int = 200, seed: int = 0) -> CheckResult:
    """Random valid kernel parameterizations give PSD Grams on distinct points."""
    rng = Rng64(seed ^ 0x9D)
    worst = 0.0  # most negative (min_eig / trace) seen, sign-flipped
    detail = ""
    for i in range(cases):
        d = 1 + rng.integer(3)
        n = 2 + rng.integer(15)
        params = [_random_params(rng) for _ in range(d)]
        pts = rng.uniform_array((n, d), -1.0, 1.0)
        gram = np.empty((n, n))
        for a in range(n):
            for b in range(a, n):
                gram[a, b] = gram[b, a] = product_kernel_eval(params, pts[a], pts[b])
        eigs = np.linalg.eigvalsh(gram)
        rel = -float(eigs.min()) / float(np.trace(gram))
        if rel > worst:
            worst = rel
            detail = f"case {i}: d={d} n={n} min_eig/trace={-rel:.3e}"
    return CheckResult(
        name="gram-positive-definite",
        passed=worst <= 1e-10,
        max_deviation=worst,
        threshold=1e-10,
        detail=detail,
    )


def suite_gradient(
    seed: int = 0,
    cases=(
        ("tp", 2, (6,), 1, None),
        ("vanilla", 2, (6,), 1, None),
        ("truncated", 2, (6,), 1, None),
        ("vanilla", 3, (6,), 1, None),
        ("tp", 3, (6,), 1, None),
        ("vanilla", 2, (6, 6, 4), 1, None),
        ("truncated", 2, (6,), 3, None),
    ),
) -> CheckResult:
    """Analytic gradient vs. central finite differences on toy models.

    ``cases`` are (variant, dim, cloud sizes, truncation order, alpha) with
    one sample of 5 queries per cloud size; an alpha replaces every
    branch's perturbed initial alpha of about -1. The d=3 cases cover the
    Khatri-Rao VJP of the eigenbasis-rotated cross-kernel factors, where
    each axis meets a product of two other factors, and the Gram gradients
    of the fused encode and decode ops, with two other axes' cofactors
    applied. The (6, 6, 4) case's batch runs as a stacked group of two
    samples plus a group of one, so both ops see 2*h channels. Truncated
    order 1 has a single divided-difference pair in its Gram gradient and
    order 3 sums three.

    An entry is compared only where the finite difference stands above its
    own round-off: a loss rounded to eps * |loss| moves the difference by
    about eps * |loss| / h (see :func:`ikno.training.grad_fd`), so entries
    below that over the threshold are masked. The floor scales with the
    loss: the order-3 case's cubic partial sum (|alpha * prod_j lambda_j|
    up to 19) makes its loss about 1e8, and rounding alone would read a
    relative deviation of 1 on its parameters whose gradient is exactly 0.
    """
    threshold = 1e-4
    rng = Rng64(seed ^ 0x6AD)
    worst = 0.0
    detail = ""
    for variant, dim, sizes, order, alpha in cases:
        cfg = ModelConfig(
            dim=dim, grid_l=4, hidden=8, branches=2, in_channels=1,
            processor="identity", variant=variant, truncation_order=order,
        )
        pv = init_params(cfg, seed)
        pv.values += rng.uniform_array(pv.size, -0.05, 0.05)
        if alpha is not None:
            pv.values[alpha_indices(cfg, pv)] = alpha
        batch = []
        for n in sizes:
            cloud = PointCloud(
                rng.uniform_array((n, dim), -1.0, 1.0),
                channels=rng.uniform_array((n, 1), -1.0, 1.0),
            )
            queries = PointCloud(rng.uniform_array((5, dim), -1.0, 1.0))
            batch.append((cloud, queries, rng.uniform_array((5, 1), -1.0, 1.0)))
        loss, g = loss_and_grad(cfg, pv, batch)

        def closure(values, cfg=cfg, pv=pv, batch=batch):
            probe = pv.copy()
            probe.values = values
            return batch_loss(cfg, probe, batch)

        g_fd = grad_fd(closure, pv.values)
        round_off = np.finfo(np.float64).eps * abs(loss) / fd_steps(pv.values)
        mask = np.abs(g_fd) >= round_off / threshold
        rel = np.abs(g - g_fd)[mask] / np.abs(g_fd)[mask]
        dev = float(rel.max()) if mask.any() else 0.0
        if dev > worst:
            worst = dev
            detail = (
                f"variant={variant} order={order} dim={dim} clouds={sizes} "
                f"params={pv.size} compared={int(mask.sum())}"
            )
    return CheckResult(
        name="analytic-vs-fd-gradient",
        passed=worst <= threshold,
        max_deviation=worst,
        threshold=threshold,
        detail=detail,
    )


def _laplacian_5pt(u_int: np.ndarray, dx: float) -> np.ndarray:
    """-lap_h on the interior values of a grid with zero Dirichlet boundary."""
    u = np.pad(u_int, 1)
    return (
        4.0 * u[1:-1, 1:-1] - u[:-2, 1:-1] - u[2:, 1:-1] - u[1:-1, :-2] - u[1:-1, 2:]
    ) / dx**2


def _solve_poisson_cg(f_grid: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Slow oracle for ``data.solve_poisson_fd``: conjugate gradient on the
    SPD 5-point system, run to relative residual <= tol (or n^2 steps)."""
    h_pts = f_grid.shape[0]
    dx = 2.0 / (h_pts - 1)
    b = f_grid[1:-1, 1:-1]
    u = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float((r * r).sum())
    stop = (tol * np.linalg.norm(b)) ** 2
    for _ in range(b.size):
        if rs <= stop:
            break
        ap = _laplacian_5pt(p, dx)
        step = rs / float((p * ap).sum())
        u += step * p
        r -= step * ap
        rs_new = float((r * r).sum())
        p = r + (rs_new / rs) * p
        rs = rs_new
    return np.pad(u, 1)


def suite_poisson_solver(seed: int = 0) -> CheckResult:
    """Direct sine-basis Poisson solve vs. conjugate gradient, Gaussian forcings.

    For two forcings at each solver resolution 17, 33 and 65, drawn as
    ``gen_poisson_gauss`` draws them, records the worst of two deviations
    relative to the norm of f: the direct solve against the CG oracle, and
    the 5-point residual of the direct solve.
    """
    rng = Rng64(seed)
    worst = 0.0
    detail = ""
    for res in (17, 33, 65):
        spec = data.PoissonGaussSpec(solver_res=res)
        grid_pts = data._solver_grid(res)
        dx = 2.0 / (res - 1)
        for i in range(2):
            sources = data._gauss_sources(rng, spec)
            f = data._gauss_eval(sources, grid_pts).reshape(res, res)
            u = data.solve_poisson_fd(f)
            f_norm = np.linalg.norm(f[1:-1, 1:-1])
            dev_cg = float(np.linalg.norm(u - _solve_poisson_cg(f)) / f_norm)
            dev_res = float(
                np.linalg.norm(_laplacian_5pt(u[1:-1, 1:-1], dx) - f[1:-1, 1:-1]) / f_norm
            )
            if max(dev_cg, dev_res) > worst:
                worst = max(dev_cg, dev_res)
                detail = (
                    f"solver_res={res} forcing {i} ({len(sources)} sources): "
                    f"vs CG {dev_cg:.2e}, residual {dev_res:.2e}"
                )
    return CheckResult(
        name="poisson-direct-vs-cg",
        passed=worst <= 1e-8,
        max_deviation=worst,
        threshold=1e-8,
        detail=detail,
    )


# A fixed window under the grid spacing at L = 3 and 4, so that many factor
# entries are exactly 0.
_CROSS_WINDOW = LinearWindowKernel(radius=0.6, scale=1.7, alpha=-0.3)


def _dense_cross(cfg: ModelConfig, pv, grid, pts: np.ndarray) -> np.ndarray:
    """The (M, n) K_GP of the config's single branch, entry by entry."""
    win = cfg.fixed_window
    if win is None:
        return cross_kernel(decode_kernel_params(cfg, pv).branches[0].axis_params, grid, pts)
    k = [[linear_window_eval(win, g, p) for p in pts] for g in grid.points()]
    return np.array(k).reshape(grid.num_points, len(pts))


def _dense_axis_grams(cfg: ModelConfig, pv, grid) -> list[np.ndarray]:
    """The single branch's N_j x N_j axis Grams: ``kernels.axis_gram`` for a
    learnable kernel, the window's 1-D tent with scale**(1/d) entry by
    entry for a fixed window."""
    win = cfg.fixed_window
    if win is None:
        axes = decode_kernel_params(cfg, pv).branches[0].axis_params
        return [axis_gram(p, pts) for p, pts in zip(axes, grid.per_axis_points)]
    axis_win = LinearWindowKernel(radius=win.radius, scale=win.scale ** (1.0 / cfg.dim))
    return [np.array([[linear_window_eval(axis_win, a, b) for b in pts] for a in pts])
            for pts in grid.per_axis_points]


def _tp_contractions(graph, batch: int, pts, v, y, inject_fault):
    """The tp encode op's R K_GP V, (M, B, h), and the decode op's
    K_QG R Y, (B, n, h), over the model's Grams, alpha and cross factors.
    The ``tp-factors-unrotated`` fault hands the ops identity per-axis
    resolvents, so they contract the bare cross-kernel factors."""
    grams, alpha = graph.axis_grams(0), graph.branch_alpha(0)
    r = build_tp([k.data for k in grams], float(alpha.data))
    if inject_fault == "tp-factors-unrotated":
        r = replace(r, axis_resolvents=tuple(np.eye(n) for n in r.axis_sizes))
    factors = graph.cross_factors(0, pts)
    m, h = y.shape[0], y.shape[-1]
    enc = resolvent_encode_ad(r, factors, Tensor(v), grams, alpha, batch)
    dec = resolvent_decode_ad(r, factors, Tensor(y.reshape(m * batch, h)), grams, alpha, batch)
    return enc.data.reshape(m, batch, h), dec.data.reshape(batch, -1, h)


def suite_cross_kernel(seed: int = 0, inject_fault: str | None = None) -> CheckResult:
    """Factor-by-factor cross-kernel contractions vs. dense cross kernels.

    For d = 1-3, learnable (random kernel parameters, scales of either
    sign) and fixed-window factors, stacked batches of 1 and 3 clouds and
    an empty cloud, the model's axis factors (``_Graph.cross_factors``) go
    into :class:`ikno.ops_ad.KhatriRaoCross`. Its encode-form K_GP V and
    decode-form K_QG Y are compared per sample with the products of the
    dense kernels, ``kernels.cross_kernel`` entry by entry for learnable
    kernels and ``kernels.linear_window_eval`` for the window, relative to
    the sums of absolute products, |K| |V| and |K_QG| |Y|.

    The same instances, with a negative alpha, check the tp encode and
    decode ops, which apply the per-axis resolvents R_j to the cross-kernel
    factors: R K_GP V and K_QG R Y against the dense
    R = kron((I - alpha K_1)^-1, ..., (I - alpha K_d)^-1) over Grams built
    entry by entry, relative to |R| |K| |V| and |K_QG| |R| |Y|. The
    ``tp-factors-unrotated`` fault fails this check alone.
    """
    rng = Rng64(seed ^ 0xC5)
    worst = 0.0
    detail = ""
    for dim in (1, 2, 3):
        grid_l = 3 + rng.integer(3)
        grid = grid_linspace(dim, grid_l)
        m = grid.num_points
        for window in (None, _CROSS_WINDOW):
            cfg = ModelConfig(dim=dim, grid_l=grid_l, hidden=2, branches=1, fixed_window=window)
            pv = init_params(cfg, seed)
            if window is None:
                sl, _ = pv.segments["kernel"]
                pv.values[sl] = rng.uniform_array(sl.stop - sl.start, -2.0, 2.0)
                # a negative alpha keeps every 1 - alpha * lambda_j >= 1
                idx = alpha_indices(cfg, pv)
                pv.values[idx] = -np.abs(pv.values[idx])
            alpha = window.alpha if window else decode_kernel_params(cfg, pv).branches[0].alpha
            r_dense = kron_materialize([
                np.linalg.inv(np.eye(k.shape[0]) - alpha * k)
                for k in _dense_axis_grams(cfg, pv, grid)
            ])
            graph = _np_graph(cfg, pv)
            for batch, n in ((1, 0), (3, 0), (1, 1 + rng.integer(7)), (3, 1 + rng.integer(7))):
                pts = rng.uniform_array((batch * n, dim), -1.0, 1.0)
                v = rng.uniform_array((batch * n, 2), -1.0, 1.0)
                y = rng.uniform_array((m, batch, 2), -1.0, 1.0)
                cross = KhatriRaoCross([f.data for f in graph.cross_factors(0, pts)], batch)
                kgp_v = cross.grid_sum(v).reshape(m, batch, 2)
                kqg_y = cross.point_sum(y).reshape(batch, n, 2)
                tp_enc, tp_dec = _tp_contractions(graph, batch, pts, v, y, inject_fault)
                for s in range(batch):
                    block = slice(s * n, (s + 1) * n)
                    k = _dense_cross(cfg, pv, grid, pts[block])
                    cases = (
                        ("", kgp_v[:, s], [k], v[block]),
                        ("", kqg_y[s], [k.T], y[:, s]),
                        ("tp encode ", tp_enc[:, s], [r_dense, k], v[block]),
                        ("tp decode ", tp_dec[s], [k.T, r_dense], y[:, s]),
                    )
                    for label, fast, mats, x in cases:
                        ref, scale = x, np.abs(x)
                        for a in reversed(mats):
                            ref, scale = a @ ref, np.abs(a) @ scale
                        scale = scale.max(initial=np.finfo(np.float64).tiny)
                        dev = float(np.abs(fast - ref).max(initial=0.0) / scale)
                        if dev > worst:
                            worst = dev
                            kind = "learnable" if window is None else "fixed-window"
                            detail = (f"{label}{kind} d={dim} L={grid_l} batch={batch} "
                                      f"n={n} sample {s}")
    return CheckResult(
        name="cross-kernel-contraction",
        passed=worst <= 1e-12,
        max_deviation=worst,
        threshold=1e-12,
        detail=detail,
    )


# Each fails exactly one check, so a run shows that check can fail.
FAULTS = ("tp-as-vanilla", "truncated-order-off-by-one", "tp-factors-unrotated")


def run_all(cases: int = 100, seed: int = 0, inject_fault: str | None = None) -> VerifyReport:
    if cases < 1:  # zero random instances would pass every check vacuously
        raise ValueError(f"cases must be >= 1, got {cases}")
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; expected one of {', '.join(FAULTS)}")
    t0 = time.monotonic()
    report = VerifyReport(cases=cases)
    suites = (
        lambda: suite_oracle_equivalence(cases=cases, seed=seed, inject_fault=inject_fault),
        suite_neumann_convergence,
        suite_inverse_power,
        lambda: suite_dimension_split(seed=seed),
        lambda: suite_positive_definite(seed=seed),
        lambda: suite_gradient(seed=seed),
        lambda: suite_poisson_solver(seed=seed),
        lambda: suite_cross_kernel(seed=seed, inject_fault=inject_fault),
    )
    for suite in suites:
        t_check = time.monotonic()
        check = suite()
        check.wall_time_s = time.monotonic() - t_check
        report.checks.append(check)
    report.wall_time_s = time.monotonic() - t0
    return report
