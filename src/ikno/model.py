"""The end-to-end operator network.

Pipeline: positional-encoding tokenizer -> multi-branch kernel encoder onto
a latent grid -> small latent processor -> kernel decoder at query points
-> output head. All learnables live in one flat named parameter vector so
the optimizer and the finite-difference gradient oracle see a single
float64 array.

Kernel branches share their parameters between encoder and decoder. The
``kernel`` segment is (branches, 1 + 3 * dim): row b holds branch b's alpha,
then (log c, beta, gamma) for each axis. The amplitude is stored as log(c)
so positivity is structural; beta and gamma are stored raw (only their
magnitudes enter the kernel).

A fixed-window configuration replaces the learnable product kernel with the
non-learnable separable linear-window kernel, the controlled setting of the
finite-order study. Only its axis factors and its alpha differ; Grams, cross
kernels and operators run through the same product-structured path.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import Tensor
from .errors import ChannelMismatchError
from .kernels import (
    AxisKernelParams,
    KernelBranch,
    LatentGrid,
    LinearWindowKernel,
    MultiScaleKernelParams,
    PointCloud,
    grid_linspace,
)
from . import ops_ad
from .ops_ad import axis_kernel_ad, dense_ad, resolvent_decode_ad, resolvent_encode_ad
from .resolvent import Resolvent
from .rng import Rng64

__all__ = [
    "ModelConfig",
    "ParamVector",
    "param_layout",
    "init_params",
    "positional_encode",
    "tokenize",
    "encode",
    "process",
    "decode",
    "forward",
    "decode_kernel_params",
    "alpha_indices",
]


@dataclass(frozen=True)
class ModelConfig:
    dim: int
    grid_l: int
    hidden: int
    branches: int = 3
    in_channels: int = 1
    out_channels: int = 1
    processor: str = "identity"  # identity | mlp | tiny_attention
    variant: str = "tp"  # vanilla | tp | truncated
    truncation_order: int = 1
    fixed_window: LinearWindowKernel | None = None

    def __post_init__(self):
        if self.branches < 1 or self.hidden < 1:
            raise ValueError("branches and hidden must be >= 1")
        if self.processor not in ("identity", "mlp", "tiny_attention"):
            raise ValueError(f"unknown processor {self.processor!r}")
        if self.variant not in ("vanilla", "tp", "truncated"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.truncation_order < 0:
            raise ValueError(f"truncation_order must be >= 0, got {self.truncation_order}")
        if self.fixed_window is not None and self.branches != 1:
            raise ValueError("fixed-window configs use a single kernel branch")

    @property
    def token_in(self) -> int:
        return 3 * self.dim + self.in_channels

    @property
    def kernel_learnable(self) -> bool:
        return self.fixed_window is None


@dataclass
class ParamVector:
    """Flat float64 parameter array with named segments."""

    values: np.ndarray
    segments: "OrderedDict[str, tuple[slice, tuple[int, ...]]]"

    def get(self, name: str) -> np.ndarray:
        sl, shape = self.segments[name]
        return self.values[sl].reshape(shape)

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.segments)

    @property
    def size(self) -> int:
        return self.values.size


def param_layout(config: ModelConfig) -> "OrderedDict[str, tuple[int, ...]]":
    h, q, d = config.hidden, config.branches, config.dim
    layout: OrderedDict[str, tuple[int, ...]] = OrderedDict()
    if config.kernel_learnable:
        layout["kernel"] = (q, 1 + 3 * d)
    layout["tokenizer.w0"] = (config.token_in, h)
    layout["tokenizer.b0"] = (h,)
    layout["tokenizer.w1"] = (h, h)
    layout["tokenizer.b1"] = (h,)
    layout["enc_fusion.w"] = (q * h, h)
    layout["enc_fusion.b"] = (h,)
    if config.processor == "mlp":
        layout["proc.w0"] = (h, h)
        layout["proc.b0"] = (h,)
        layout["proc.w1"] = (h, h)
        layout["proc.b1"] = (h,)
    elif config.processor == "tiny_attention":
        for name in ("wq", "wk", "wv", "wo"):
            layout[f"proc.{name}"] = (h, h)
    layout["dec_fusion.w"] = (q * h, h)
    layout["dec_fusion.b"] = (h,)
    layout["head.w0"] = (h, h)
    layout["head.b0"] = (h,)
    layout["head.w1"] = (h, config.out_channels)
    layout["head.b1"] = (config.out_channels,)
    return layout


def _segments(layout) -> "OrderedDict[str, tuple[slice, tuple[int, ...]]]":
    segs, off = OrderedDict(), 0
    for name, shape in layout.items():
        n = int(np.prod(shape))
        segs[name] = (slice(off, off + n), shape)
        off += n
    return segs


def init_params(config: ModelConfig, seed: int) -> ParamVector:
    """Seeded initialization.

    Kernel branches start at alpha = -1 with per-branch scale bases
    (1, 2, 4, ...); amplitudes start at c = 1. Fusion layers start as
    branch averaging so single-branch identities hold at init; other MLP
    weights are uniform in +-1/sqrt(fan_in).
    """
    layout = param_layout(config)
    segs = _segments(layout)
    total = sum(int(np.prod(s)) for s in layout.values())
    values = np.zeros(total)
    pv = ParamVector(values, segs)
    rng = Rng64(seed)
    h, q = config.hidden, config.branches

    if config.kernel_learnable:
        kern = pv.get("kernel")  # log c stays 0, so c = 1
        kern[:, 0] = -1.0
        base_scale = 2.0 ** np.arange(q)[:, None]
        kern[:, 2::3] = base_scale  # beta
        kern[:, 3::3] = base_scale  # gamma

    avg = np.concatenate([np.eye(h) / q for _ in range(q)], axis=0)
    for name, shape in layout.items():
        if name == "kernel":
            continue
        if name in ("enc_fusion.w", "dec_fusion.w"):
            pv.get(name)[...] = avg
        elif len(shape) == 1:
            pass  # biases stay zero
        else:
            bound = 1.0 / np.sqrt(shape[0])
            pv.get(name)[...] = rng.uniform_array(shape, -bound, bound)
    return pv


def decode_kernel_params(config: ModelConfig, pv: ParamVector) -> MultiScaleKernelParams:
    """The learnable kernel branches that ``pv``'s kernel segment encodes."""
    if not config.kernel_learnable:
        raise ValueError(
            "a fixed-window config has no learnable kernel parameters to decode; "
            "its kernel is config.fixed_window"
        )
    branches = []
    for row in pv.get("kernel"):
        axes = tuple(
            AxisKernelParams(c=float(np.exp(logc)), beta=float(beta), gamma=float(gamma))
            for logc, beta, gamma in row[1:].reshape(config.dim, 3)
        )
        branches.append(KernelBranch(axis_params=axes, alpha=float(row[0])))
    return MultiScaleKernelParams(branches=tuple(branches))


def alpha_indices(config: ModelConfig, pv: ParamVector) -> np.ndarray:
    """Flat indices of the per-branch alpha entries (for training clamps)."""
    if not config.kernel_learnable:
        return np.array([], dtype=np.intp)
    sl, (q, width) = pv.segments["kernel"]
    return sl.start + width * np.arange(q, dtype=np.intp)


# -- stages ------------------------------------------------------------------


def positional_encode(x) -> np.ndarray:
    """(x, cos x, sin x) per coordinate; layout: all coords, all cos, all sin."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    out = np.concatenate([arr, np.cos(arr), np.sin(arr)], axis=1)
    return out[0] if single else out


@lru_cache(maxsize=32)
def _grid_for(dim: int, grid_l: int) -> LatentGrid:
    return grid_linspace(dim, grid_l)


# Operators built by graphs that record no gradient, keyed by the builder's
# exact inputs: variant, truncation order and the bytes of alpha and of each
# Gram with its shape. Inference, `evaluate` and the finite-difference probes
# reuse one model's branches at a time, so the default model's 3 branches
# plus one fit; a model with more branches than that rebuilds its operators
# once per forward, as with no cache. The bound is in entries, not bytes: an
# entry keeps D and, for truncation order p, its 2p pair arrays on the L^d
# eigen-grid, plus d axis eigensystems, the key's d Grams and, for tp, d axis
# resolvents: a little over 8 * ((2p + 1) * L^d + k * d * L^2) bytes, with
# k = 3 for tp and 2 otherwise (p = 0 for vanilla and tp): 42 KB at d = 2,
# L = 32 vanilla, 58 KB there for tp, 1.7 MB at d = 2, L = 128 truncated p = 4.
RESOLVENT_CACHE_ENTRIES = 4


@lru_cache(maxsize=RESOLVENT_CACHE_ENTRIES)
def _build_operator(variant: str, order: tuple[int, ...], alpha: bytes,
                    grams: tuple[tuple[tuple[int, ...], bytes], ...]) -> Resolvent:
    """The branch operator over the Grams and alpha given by their bytes."""
    # looked up per call, so that wrappers of ops_ad's builders see it
    build = getattr(ops_ad, f"build_{variant}")
    return build([np.frombuffer(b).reshape(shape) for shape, b in grams],
                 float(np.frombuffer(alpha)[0]), *order)


class _Graph:
    """Forward passes over AD tensors for one parameter vector; parameter
    slices, Grams and resolvents are cached, so a batch's samples share them.
    Each branch's operator goes to ``resolvent_encode_ad`` and
    ``resolvent_decode_ad``, as looked up in this module: one op per
    direction for every variant, over the operator's factor maps and grid
    map (tp's per-axis resolvents and the identity, or the eigenbasis).

    A graph that records no gradient (``_np_graph``: inference, ``evaluate``,
    ``batch_loss`` and the finite-difference oracle) also takes each branch's
    operator from the module's bounded LRU of built operators, so forwards
    with unchanged Grams and alpha build none; any change to them, in-place
    writes included, changes the key and misses. A graph that records
    gradients never reads or fills that cache: its parameters move every
    step."""

    def __init__(self, config: ModelConfig, params_t: Tensor, pv: ParamVector):
        self.config = config
        self.params_t = params_t
        self.pv = pv
        self.grid = _grid_for(config.dim, config.grid_l)
        self._seg_cache: dict[str, Tensor] = {}
        self._branch_cache: dict[int, tuple[Tensor, list[Tensor]]] = {}
        self._gram_cache: dict[int, list[Tensor]] = {}
        self._resolvent_cache: dict[int, Resolvent] = {}

    def seg(self, name: str) -> Tensor:
        if name not in self._seg_cache:
            sl, shape = self.pv.segments[name]
            self._seg_cache[name] = self.params_t[sl].reshape(*shape)
        return self._seg_cache[name]

    def _branch_params(self, b: int) -> tuple[Tensor, list[Tensor]]:
        """Branch ``b``'s alpha and its per-axis (log c, beta, gamma) slices
        of the kernel segment, made once per graph (no slices for a fixed
        window, whose alpha is a constant)."""
        if b not in self._branch_cache:
            win = self.config.fixed_window
            if win is not None:
                self._branch_cache[b] = (Tensor(win.alpha), [])
            else:
                kern = self.seg("kernel")
                self._branch_cache[b] = (
                    kern[b, 0],
                    [kern[b, 1 + 3 * j : 4 + 3 * j] for j in range(self.config.dim)],
                )
        return self._branch_cache[b]

    def branch_alpha(self, b: int) -> Tensor:
        return self._branch_params(b)[0]

    def axis_factors(self, b: int, dx: np.ndarray, axis: int) -> Tensor:
        """Base-kernel matrix over coordinate differences for one axis."""
        win = self.config.fixed_window
        if win is not None:  # the window's scale is spread evenly over the axes
            scale = win.scale ** (1.0 / self.config.dim)
            return Tensor(scale * np.maximum(1.0 - np.abs(dx) / win.radius, 0.0))
        return axis_kernel_ad(self._branch_params(b)[1][axis], dx)

    def axis_grams(self, b: int) -> list[Tensor]:
        if b not in self._gram_cache:
            grams = []
            for pts in self.grid.per_axis_points:
                dx = pts[:, None] - pts[None, :]
                grams.append(self.axis_factors(b, dx, len(grams)))
            self._gram_cache[b] = grams
        return self._gram_cache[b]

    def cross_factors(self, b: int, pts: np.ndarray) -> list[Tensor]:
        """The N_j x n axis factors whose Khatri-Rao product is the cross
        kernel between the latent grid and ``pts``. The kernel depends on
        the coordinate difference only through its square and magnitude, so
        the grid-minus-point factors serve both orientations exactly."""
        return [
            self.axis_factors(b, axis_pts[:, None] - pts[:, j][None, :], j)
            for j, axis_pts in enumerate(self.grid.per_axis_points)
        ]

    def resolvent_op(self, op, b: int, v: Tensor, pts: np.ndarray, batch: int) -> Tensor:
        """``op``, :func:`ops_ad.resolvent_encode_ad` or
        :func:`ops_ad.resolvent_decode_ad`, over the branch's vanilla, tp or
        truncated operator (built once per graph), its cross factors with
        ``pts``, its Grams and its alpha."""
        grams, alpha = self.axis_grams(b), self.branch_alpha(b)
        if b not in self._resolvent_cache:
            self._resolvent_cache[b] = self._operator(grams, alpha)
        return op(self._resolvent_cache[b], self.cross_factors(b, pts), v, grams, alpha, batch)

    def _operator(self, grams: list[Tensor], alpha: Tensor) -> Resolvent:
        """The operator over ``grams`` and ``alpha``: built, or taken from the
        module's cache by a graph that records no gradient."""
        cfg = self.config
        order = (cfg.truncation_order,) if cfg.variant == "truncated" else ()
        if self.params_t.requires_grad:
            # looked up per call, so that wrappers of ops_ad's builders see it
            build = getattr(ops_ad, f"build_{cfg.variant}")
            return build([g.data for g in grams], float(alpha.data), *order)
        return _build_operator(cfg.variant, order, alpha.data.tobytes(),
                               tuple((g.shape, g.data.tobytes()) for g in grams))

    # -- pipeline stages --
    #
    # A batch of B samples whose clouds share one size n and whose query sets
    # share one size n_q runs as a single stacked pass: points and queries are
    # stacked sample-major, (B*n, .) and (B*n_q, .); latent features are
    # (M, B*h) with sample i in channels i*h:(i+1)*h, so the resolvents see B*h
    # channels, and (M*B, h) row-wise for the processor.
    # Every dense layer is one ``dense_ad`` op.

    def tokenize(self, clouds: Sequence[PointCloud]) -> Tensor:
        """(B*n, h) point tokens."""
        cfg = self.config
        for cloud in clouds:
            n_ch = 0 if cloud.channels is None else cloud.channels.shape[1]
            if n_ch != cfg.in_channels:
                raise ChannelMismatchError(
                    f"cloud has {n_ch} condition channels, config expects {cfg.in_channels}"
                )
        feats = positional_encode(_stacked(clouds, "coords"))
        if cfg.in_channels:
            feats = np.concatenate([feats, _stacked(clouds, "channels")], axis=1)
        hmid = dense_ad([Tensor(feats)], self.seg("tokenizer.w0"), self.seg("tokenizer.b0"),
                        gelu=True)
        return dense_ad([hmid], self.seg("tokenizer.w1"), self.seg("tokenizer.b1"))

    def encode(self, v_p: Tensor, clouds: Sequence[PointCloud]) -> Tensor:
        """(B*n, h) tokens -> (M*B, h) latent features.

        The fusion sum_b (R_b K_b V) W_b + bias is computed as
        sum_b R_b K_b (V W_b) + bias: the kernel integral acts on points and
        a fusion block on channels, so they commute, and each block meets
        the B*n tokens instead of the M*B grid rows."""
        cfg = self.config
        batch, h = len(clouds), v_p.shape[-1]
        coords = _stacked(clouds, "coords")
        v_w = v_p @ self.seg("enc_fusion.w").reshape(cfg.branches, h, h)  # (q, B*n, h)
        outs = [
            self.resolvent_op(resolvent_encode_ad, b, v_w[b], coords, batch)
            for b in range(cfg.branches)
        ]
        return dense_ad(outs, None, self.seg("enc_fusion.b"))

    def process(self, v_g: Tensor) -> Tensor:
        cfg = self.config
        if cfg.processor == "identity":
            return v_g
        if cfg.processor == "mlp":
            mid = dense_ad([v_g], self.seg("proc.w0"), self.seg("proc.b0"), gelu=True)
            return v_g + dense_ad([mid], self.seg("proc.w1"), self.seg("proc.b1"))
        m = self.grid.num_points
        batch = v_g.shape[0] // m

        def per_sample(t: Tensor) -> Tensor:  # (M*B, h) -> (B, M, h)
            return t.reshape(m, batch, cfg.hidden).swapaxes(0, 1)

        q = per_sample(v_g @ self.seg("proc.wq"))
        k = per_sample(v_g @ self.seg("proc.wk"))
        v = per_sample(v_g @ self.seg("proc.wv"))
        scores = (q @ k.swapaxes(1, 2)) * (1.0 / np.sqrt(cfg.hidden))
        # constant shift per row, gradient-safe; a row far below a shared
        # maximum would underflow to 0/0
        shifted = scores - scores.data.max(axis=-1, keepdims=True)
        e = shifted.exp()
        attn = e / e.sum(axis=-1, keepdims=True)
        mixed = (attn @ v).swapaxes(0, 1).reshape(m * batch, cfg.hidden)
        return v_g + mixed @ self.seg("proc.wo")

    def decode(self, v_gp: Tensor, queries: Sequence[PointCloud]) -> Tensor:
        """(M*B, h) latent features -> (B*n_q, out_channels) predictions."""
        cfg = self.config
        batch, coords = len(queries), _stacked(queries, "coords")
        outs = [
            self.resolvent_op(resolvent_decode_ad, b, v_gp, coords, batch)
            for b in range(cfg.branches)
        ]
        fused = dense_ad(outs, self.seg("dec_fusion.w"), self.seg("dec_fusion.b"))
        mid = dense_ad([fused], self.seg("head.w0"), self.seg("head.b0"), gelu=True)
        return dense_ad([mid], self.seg("head.w1"), self.seg("head.b1"))

    def forward(self, clouds: Sequence[PointCloud], queries: Sequence[PointCloud]) -> Tensor:
        """Stacked (B*n_q, out_channels) predictions of a batch whose clouds
        share one size and whose query sets share one size."""
        v_p = self.tokenize(clouds)
        v_g = self.encode(v_p, clouds)
        v_gp = self.process(v_g)
        return self.decode(v_gp, queries)


def _stacked(clouds: Sequence[PointCloud], attr: str) -> np.ndarray:
    """The clouds' ``coords`` or ``channels`` stacked sample-major."""
    if len(clouds) == 1:
        return getattr(clouds[0], attr)
    return np.concatenate([getattr(c, attr) for c in clouds])


def _np_graph(config: ModelConfig, pv: ParamVector) -> _Graph:
    return _Graph(config, Tensor(pv.values), pv)


# Single-sample numpy entry points: the stacked pipeline with B = 1.


def tokenize(config: ModelConfig, pv: ParamVector, cloud: PointCloud) -> np.ndarray:
    return _np_graph(config, pv).tokenize([cloud]).data


def encode(config: ModelConfig, pv: ParamVector, v_p: np.ndarray, cloud: PointCloud) -> np.ndarray:
    return _np_graph(config, pv).encode(Tensor(v_p), [cloud]).data


def process(config: ModelConfig, pv: ParamVector, v_g: np.ndarray) -> np.ndarray:
    return _np_graph(config, pv).process(Tensor(v_g)).data


def decode(config: ModelConfig, pv: ParamVector, v_gp: np.ndarray, queries: PointCloud) -> np.ndarray:
    return _np_graph(config, pv).decode(Tensor(v_gp), [queries]).data


def forward(config: ModelConfig, pv: ParamVector, cloud: PointCloud, queries: PointCloud) -> np.ndarray:
    return _np_graph(config, pv).forward([cloud], [queries]).data
