import tracemalloc
from functools import partial

import numpy as np
import pytest

from ikno.errors import ChannelMismatchError
from ikno.kernels import LinearWindowKernel, PointCloud, cross_kernel, linear_window_eval
from ikno.model import (
    ModelConfig,
    _Graph,
    _np_graph,
    alpha_indices,
    decode_kernel_params,
    encode,
    forward,
    init_params,
    positional_encode,
    process,
    tokenize,
)
from ikno.autodiff import Tensor, custom_op
from ikno import model, ops_ad
from ikno.ops_ad import KhatriRaoCross, _spectral_grads, axis_kernel_ad
from ikno.ops_ad import resolvent_decode_ad, resolvent_encode_ad
from ikno.resolvent import apply_resolvent, build_tp, build_truncated, build_vanilla
from ikno.kernels import AxisKernelParams, axis_gram, grid_linspace
from ikno.tensor_linalg import kron_materialize
from ikno.training import grad_analytic, grad_fd, loss_and_grad


def toy_config(**kw):
    base = dict(dim=2, grid_l=4, hidden=8, branches=2, in_channels=1, processor="identity")
    base.update(kw)
    return ModelConfig(**base)


def toy_cloud(rng, n, d, channels=1):
    return PointCloud(
        rng.uniform(-1, 1, (n, d)), channels=rng.uniform(-1, 1, (n, channels))
    )


class TestPositionalEncode:
    def test_zero_scalar(self):
        assert np.allclose(positional_encode(np.array([0.0])), [0.0, 1.0, 0.0])

    def test_half_pi(self):
        got = positional_encode(np.array([np.pi / 2]))
        assert np.abs(got - [np.pi / 2, 0.0, 1.0]).max() <= 1e-12

    def test_d2_layout(self):
        got = positional_encode(np.array([0.0, np.pi]))
        assert np.abs(got - [0.0, np.pi, 1.0, -1.0, 0.0, 0.0]).max() <= 1e-12


class TestInitParams:
    def test_alpha_and_scales_q3(self):
        cfg = ModelConfig(dim=2, grid_l=4, hidden=8, branches=3)
        pv = init_params(cfg, 0)
        msk = decode_kernel_params(cfg, pv)
        alphas = [br.alpha for br in msk.branches]
        assert np.allclose(alphas, [-1.0, -1.0, -1.0])
        for q, base in enumerate((1.0, 2.0, 4.0)):
            for ax in msk.branches[q].axis_params:
                assert ax.beta == base
                assert ax.gamma == base
                assert ax.c == 1.0

    def test_deterministic(self):
        cfg = toy_config()
        a = init_params(cfg, 42)
        b = init_params(cfg, 42)
        assert np.array_equal(a.values, b.values)

    def test_negative_truncation_order_rejected(self):
        with pytest.raises(ValueError, match="truncation_order"):
            ModelConfig(dim=2, grid_l=4, hidden=8, variant="truncated", truncation_order=-1)

    def test_decode_kernel_params_rejects_fixed_window(self):
        window = LinearWindowKernel(radius=0.6, scale=1.0, alpha=-0.15)
        cfg = ModelConfig(dim=2, grid_l=4, hidden=8, branches=1, fixed_window=window)
        with pytest.raises(ValueError, match="fixed-window config has no learnable kernel"):
            decode_kernel_params(cfg, init_params(cfg, 0))

    def test_alpha_indices_decode(self):
        cfg = ModelConfig(dim=2, grid_l=4, hidden=8, branches=3)
        pv = init_params(cfg, 0)
        idx = alpha_indices(cfg, pv)
        assert idx.size == 3
        assert np.allclose(pv.values[idx], -1.0)


class TestTokenize:
    def test_zero_weights_zero_tokens(self):
        cfg = toy_config()
        pv = init_params(cfg, 0)
        for name in ("tokenizer.w0", "tokenizer.b0", "tokenizer.w1", "tokenizer.b1"):
            sl, _ = pv.segments[name]
            pv.values[sl] = 0.0
        cloud = toy_cloud(np.random.default_rng(0), 5, 2)
        assert np.array_equal(tokenize(cfg, pv, cloud), np.zeros((5, 8)))

    def test_permutation_equivariant_rows(self):
        cfg = toy_config()
        pv = init_params(cfg, 1)
        rng = np.random.default_rng(2)
        cloud = toy_cloud(rng, 6, 2)
        perm = rng.permutation(6)
        permuted = PointCloud(cloud.coords[perm], channels=cloud.channels[perm])
        assert np.array_equal(tokenize(cfg, pv, cloud)[perm], tokenize(cfg, pv, permuted))

    def test_straight_line_mlp_oracle(self):
        cfg = toy_config()
        pv = init_params(cfg, 3)
        cloud = toy_cloud(np.random.default_rng(4), 3, 2)
        psi = np.concatenate(
            [cloud.coords, np.cos(cloud.coords), np.sin(cloud.coords)], axis=1
        )
        feats = np.concatenate([psi, cloud.channels], axis=1)
        w0 = pv.get("tokenizer.w0")
        b0 = pv.get("tokenizer.b0")
        w1 = pv.get("tokenizer.w1")
        b1 = pv.get("tokenizer.b1")
        pre = feats @ w0 + b0
        act = 0.5 * pre * (
            1.0 + np.tanh(0.7978845608028654 * (pre + 0.044715 * pre**3))
        )
        ref = act @ w1 + b1
        assert np.abs(tokenize(cfg, pv, cloud) - ref).max() <= 1e-12

    def test_channel_mismatch(self):
        cfg = toy_config()
        pv = init_params(cfg, 0)
        with pytest.raises(ChannelMismatchError):
            tokenize(cfg, pv, PointCloud(np.zeros((3, 2))))


class TestEncode:
    def test_empty_cloud_gives_fusion_of_zero(self):
        cfg = toy_config()
        pv = init_params(cfg, 0)
        cloud = PointCloud(np.zeros((0, 2)), channels=np.zeros((0, 1)))
        v_p = tokenize(cfg, pv, cloud)
        v_g = encode(cfg, pv, v_p, cloud)
        # fusion bias is zero at init, so the empty sum stays zero
        assert np.allclose(v_g, 0.0)

    def test_alpha_zero_first_order_identity(self):
        # single branch, alpha = 0, averaging-initialized fusion -> K_GP V_P
        cfg = toy_config(branches=1)
        pv = init_params(cfg, 5)
        idx = alpha_indices(cfg, pv)
        pv.values[idx] = 0.0
        cloud = toy_cloud(np.random.default_rng(6), 7, 2)
        v_p = tokenize(cfg, pv, cloud)
        msk = decode_kernel_params(cfg, pv)
        grid = grid_linspace(2, 4)
        kgp = cross_kernel(msk.branches[0].axis_params, grid, cloud.coords)
        ref = kgp @ v_p
        assert np.abs(encode(cfg, pv, v_p, cloud) - ref).max() <= 1e-10

    def test_truncated_p0_first_order_reduction(self):
        cfg = toy_config(branches=1, variant="truncated", truncation_order=0)
        pv = init_params(cfg, 7)
        cloud = toy_cloud(np.random.default_rng(8), 5, 2)
        v_p = tokenize(cfg, pv, cloud)
        msk = decode_kernel_params(cfg, pv)
        grid = grid_linspace(2, 4)
        kgp = cross_kernel(msk.branches[0].axis_params, grid, cloud.coords)
        assert np.abs(encode(cfg, pv, v_p, cloud) - kgp @ v_p).max() <= 1e-12

    def test_q2_componentwise_pipeline_oracle(self):
        cfg = toy_config(branches=2, variant="vanilla")
        pv = init_params(cfg, 9)
        cloud = toy_cloud(np.random.default_rng(10), 6, 2)
        v_p = tokenize(cfg, pv, cloud)
        msk = decode_kernel_params(cfg, pv)
        grid = grid_linspace(2, 4)
        outs = []
        for br in msk.branches:
            kgp = cross_kernel(br.axis_params, grid, cloud.coords)
            grams = [
                axis_gram(p, grid.per_axis_points[j])
                for j, p in enumerate(br.axis_params)
            ]
            r = build_vanilla(grams, br.alpha)
            x = (kgp @ v_p).reshape(4, 4, cfg.hidden)
            outs.append(apply_resolvent(r, x).reshape(16, cfg.hidden))
        fused = np.concatenate(outs, axis=-1)
        ref = fused @ pv.get("enc_fusion.w") + pv.get("enc_fusion.b")
        assert np.abs(encode(cfg, pv, v_p, cloud) - ref).max() <= 1e-9


def _dense_khatri_rao(mats):
    """(M, cols): column p is kron(A_1[:, p], ..., A_d[:, p])."""
    out = mats[0]
    for a in mats[1:]:
        out = (out[:, None, :] * a[None, :, :]).reshape(out.shape[0] * a.shape[0], a.shape[1])
    return out


def _dense_khatri_rao_vjp(k_bar, mats):
    sizes = [a.shape[0] for a in mats]
    t = k_bar.reshape(*sizes, k_bar.shape[1])
    views = [a.reshape(*(s if l == j else 1 for l, s in enumerate(sizes)), a.shape[1])
             for j, a in enumerate(mats)]
    grads = []
    for j in range(len(mats)):
        x = t
        for l, f in enumerate(views):
            if l != j:
                x = x * f
        grads.append(x.sum(axis=tuple(l for l in range(len(mats)) if l != j)))
    return grads


def _spectral_sides(r, w_hat, g_hat, x_hat):
    """The (g, x) sides that ops_ad._spectral_grads reads for r's pairs."""
    if r.pairs is None:
        return w_hat, x_hat * r.diag_weights[..., None]
    return (None, None) if r.pairs == () else (g_hat, x_hat)


def dense_encode_ad(r, factors, v, grams, alpha, batch):
    """resolvent_encode_ad with the rotated cross kernel K-hat formed densely."""
    a_hats = [e.eigenvectors.T @ f.data for e, f in zip(r.axis_eigs, factors)]
    k = _dense_khatri_rao(a_hats)
    m, n, h = k.shape[0], k.shape[1] // batch, v.shape[-1]
    blocks = [slice(s * n, (s + 1) * n) for s in range(batch)]
    x_hat = np.hstack([k[:, b] @ v.data[b] for b in blocks]).reshape(*r.axis_sizes, -1)

    def backward(g):
        g_hat = r.to_eigenbasis(g)
        w_hat = g_hat * r.diag_weights[..., None]
        w3 = w_hat.reshape(m, batch, h)
        k_bar = np.hstack([w3[:, s] @ v.data[b].T for s, b in enumerate(blocks)])
        v_bar = np.vstack([k[:, b].T @ w3[:, s] for s, b in enumerate(blocks)])
        a_bars = [e.eigenvectors @ gj
                  for e, gj in zip(r.axis_eigs, _dense_khatri_rao_vjp(k_bar, a_hats))]
        k_bars, a_bar = _spectral_grads(r, *_spectral_sides(r, w_hat, g_hat, x_hat), grams, alpha)
        return [*a_bars, v_bar, *k_bars, a_bar]

    y = r.from_eigenbasis(x_hat * r.diag_weights[..., None])
    return custom_op([*factors, v, *grams, alpha], y, backward)


def dense_decode_ad(r, factors, v, grams, alpha, batch):
    """resolvent_decode_ad with the rotated cross kernel K-hat formed densely."""
    a_hats = [e.eigenvectors.T @ f.data for e, f in zip(r.axis_eigs, factors)]
    k = _dense_khatri_rao(a_hats)
    m, n = k.shape[0], k.shape[1] // batch
    blocks = [slice(s * n, (s + 1) * n) for s in range(batch)]
    x_hat = r.to_eigenbasis(v.data.reshape(*r.axis_sizes, -1))
    y3 = (x_hat * r.diag_weights[..., None]).reshape(m, batch, -1)
    out = np.vstack([k[:, b].T @ y3[:, s] for s, b in enumerate(blocks)])

    def backward(g):
        g_hat = np.hstack([k[:, b] @ g[b] for b in blocks]).reshape(x_hat.shape)
        w_hat = g_hat * r.diag_weights[..., None]
        k_bar = np.hstack([y3[:, s] @ g[b].T for s, b in enumerate(blocks)])
        a_bars = [e.eigenvectors @ gj
                  for e, gj in zip(r.axis_eigs, _dense_khatri_rao_vjp(k_bar, a_hats))]
        k_bars, a_bar = _spectral_grads(r, *_spectral_sides(r, w_hat, g_hat, x_hat), grams, alpha)
        return [*a_bars, r.from_eigenbasis(w_hat), *k_bars, a_bar]

    return custom_op([*factors, v, *grams, alpha], out, backward)


class TestCrossKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 5])
    def test_khatri_rao_matches_dense_oracle(self, dim, n):
        """KhatriRaoCross's encode-form K_GP V and decode-form K_QG Y, over
        _Graph.cross_factors, against the dense kernels.cross_kernel."""
        cfg = ModelConfig(dim=dim, grid_l=4, hidden=4, branches=2)
        pv = init_params(cfg, 18)
        rng = np.random.default_rng(19)
        sl, _ = pv.segments["kernel"]
        pv.values[sl] = rng.uniform(-2, 2, sl.stop - sl.start)  # scales of either sign
        grid = grid_linspace(dim, 4)
        graph = _np_graph(cfg, pv)
        for batch in (1, 3):
            pts = rng.uniform(-1, 1, (batch * n, dim))
            v = rng.standard_normal((batch * n, 2))
            y = rng.standard_normal((grid.num_points, batch, 2))
            for b, br in enumerate(decode_kernel_params(cfg, pv).branches):
                cross = KhatriRaoCross([f.data for f in graph.cross_factors(b, pts)], batch)
                kgp = cross.grid_sum(v).reshape(grid.num_points, batch, 2)
                kqg = cross.point_sum(y).reshape(batch, n, 2)
                for s in range(batch):
                    block = slice(s * n, (s + 1) * n)
                    ref = cross_kernel(br.axis_params, grid, pts[block])
                    want = ref @ v[block]
                    scale = (np.abs(ref) @ np.abs(v[block])).max(initial=1.0)
                    assert np.abs(kgp[:, s] - want).max(initial=0.0) <= 1e-14 * scale
                    ref_t = cross_kernel(br.axis_params, pts[block], grid)
                    want_t = ref_t @ y[:, s]
                    scale_t = (np.abs(ref_t) @ np.abs(y[:, s])).max(initial=1.0)
                    assert np.abs(kqg[s] - want_t).max(initial=0.0) <= 1e-14 * scale_t

    @pytest.mark.parametrize(
        "op,build",
        [(resolvent_encode_ad, build_vanilla), (resolvent_decode_ad, build_vanilla),
         (resolvent_encode_ad, build_tp), (resolvent_decode_ad, build_tp),
         (resolvent_encode_ad, partial(build_truncated, order=2)),
         (resolvent_decode_ad, partial(build_truncated, order=2))],
        ids=["encode", "decode", "tp-encode", "tp-decode", "truncated-p2-encode",
             "truncated-p2-decode"],
    )
    def test_ops_form_no_cross_kernel(self, op, build):
        """At d=2, L=32, n=4096 the (M, n) cross kernel is 32 MiB; neither op,
        forward or backward, allocates that much at its peak, with the
        eigen-grid maps (vanilla, and truncated, whose pair sides are extra
        eigen-grid tensors in the backward pass) or tp's per-axis resolvents."""
        grid_l, n, h = 32, 4096, 2
        rng = np.random.default_rng(23)
        pts = np.linspace(-1, 1, grid_l)
        grams = [axis_gram(AxisKernelParams(c=1.0, beta=1.5, gamma=0.8), pts) for _ in range(2)]
        r = build(grams, -0.7)
        factors = [Tensor(rng.standard_normal((grid_l, n)), requires_grad=True) for _ in range(2)]
        grams_t = [Tensor(k, requires_grad=True) for k in grams]
        alpha = Tensor(np.array(-0.7), requires_grad=True)
        m = grid_l**2
        v_shape, g_shape = ((n, h), (m, h)) if op is resolvent_encode_ad else ((m, h), (n, h))
        v = Tensor(rng.standard_normal(v_shape), requires_grad=True)
        g = Tensor(rng.standard_normal(g_shape))
        tracemalloc.start()
        try:
            y = op(r, factors, v, grams_t, alpha, 1)
            (y.reshape(*g_shape) * g).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(f.grad.shape == (grid_l, n) for f in factors) and v.grad.shape == v_shape
        assert peak < m * n * 8

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["vanilla", "tp", "truncated-p3", "fixed-window",
                                      "fixed-window-tp"])
    def test_loss_and_grad_match_dense_cross_kernel(self, kind, dim, monkeypatch):
        """Losses and gradients of a stacked batch against ops that form K-hat
        in the eigenbasis, also for tp, whose ops apply its per-axis
        resolvents to the cross-kernel factors instead."""
        variant = {"truncated-p3": "truncated", "fixed-window": "vanilla",
                   "fixed-window-tp": "tp"}.get(kind, kind)
        window = None
        if kind.startswith("fixed-window"):
            window = LinearWindowKernel(radius=0.9, scale=1.7, alpha=-0.3)
        cfg = toy_config(dim=dim, variant=variant, truncation_order=3, processor="mlp",
                         fixed_window=window, branches=1 if window else 2)
        pv = init_params(cfg, 24)
        rng = np.random.default_rng(25)
        pv.values += rng.uniform(-0.05, 0.05, pv.size)
        batch = [(toy_cloud(rng, 7, dim), PointCloud(rng.uniform(-1, 1, (4, dim))),
                  rng.uniform(-1, 1, (4, 1))) for _ in range(3)]
        loss, grad = loss_and_grad(cfg, pv, batch)
        monkeypatch.setattr(model, "resolvent_encode_ad", dense_encode_ad)
        monkeypatch.setattr(model, "resolvent_decode_ad", dense_decode_ad)
        ref_loss, ref_grad = loss_and_grad(cfg, pv, batch)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()


def _window_matrix(win, rows, cols):
    return np.array([[linear_window_eval(win, r, c) for c in cols] for r in rows])


def _np_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))


class TestAxisKernelOp:
    @pytest.mark.parametrize("beta,gamma", [(1.3, 0.7), (-1.3, -0.7), (0.9, 0.0)],
                             ids=["positive", "negative", "gamma-zero"])
    @pytest.mark.parametrize("n", [0, 5])
    def test_vjp_matches_finite_differences(self, beta, gamma, n):
        rng = np.random.default_rng(20)
        dx = rng.uniform(-1, 1, (4, 1)) - rng.uniform(-1, 1, (1, n))
        g = rng.standard_normal(dx.shape)
        theta = np.array([0.3, beta, gamma])
        t = Tensor(theta, requires_grad=True)
        (axis_kernel_ad(t, dx) * Tensor(g)).sum().backward()
        fd = grad_fd(lambda p: float(np.vdot(g, axis_kernel_ad(Tensor(p), dx).data)), theta)
        assert np.abs(t.grad - fd).max() <= 1e-8 * max(1.0, np.abs(fd).max())
        if gamma == 0.0:
            assert t.grad[2] == 0.0

    def test_learnable_factor_is_one_node_over_the_kernel_slice(self):
        cfg = ModelConfig(dim=2, grid_l=4, hidden=4, branches=2)
        pv = init_params(cfg, 21)
        graph = _Graph(cfg, Tensor(pv.values, requires_grad=True), pv)
        dx = np.linspace(-1, 1, 4)[:, None] - np.array([[0.2, -0.4]])
        factor = graph.axis_factors(1, dx, 1)
        (theta,) = factor._parents
        assert theta._parents == (graph.seg("kernel"),)
        assert np.array_equal(theta.data, pv.get("kernel")[1, 4:7])


class TestFixedWindowOracle:
    """Fixed-window configs against dense operators built entry by entry from
    the scalar window oracle."""

    WINDOW = LinearWindowKernel(radius=0.9, scale=1.7, alpha=-0.3)

    def dense_operator(self, variant, grid):
        win, m = self.WINDOW, grid.num_points
        if variant == "tp":
            # each axis carries scale**(1/d) of the product kernel's scale
            axis_win = LinearWindowKernel(win.radius, win.scale ** (1.0 / grid.dim), win.alpha)
            op = np.ones((1, 1))
            for pts in grid.per_axis_points:
                kj = _window_matrix(axis_win, pts[:, None], pts[:, None])
                op = np.kron(op, np.linalg.inv(np.eye(len(pts)) - win.alpha * kj))
            return op
        kgg = _window_matrix(win, grid.points(), grid.points())
        if variant == "vanilla":
            return np.linalg.inv(np.eye(m) - win.alpha * kgg)
        op = np.eye(m)
        for _ in range(2):
            op = np.eye(m) + win.alpha * (kgg @ op)
        return op

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["vanilla", "tp", "truncated"])
    def test_encode_and_forward_match_dense_oracle(self, variant, dim):
        cfg = ModelConfig(
            dim=dim, grid_l=4, hidden=4, branches=1, variant=variant,
            truncation_order=2, fixed_window=self.WINDOW,
        )
        pv = init_params(cfg, 20)
        pv.values += np.random.default_rng(21).uniform(-0.3, 0.3, pv.size)
        rng = np.random.default_rng(22)
        cloud = toy_cloud(rng, 5, dim)
        queries = rng.uniform(-1, 1, (4, dim))
        grid = grid_linspace(dim, 4)
        op = self.dense_operator(variant, grid)
        kgp = _window_matrix(self.WINDOW, grid.points(), cloud.coords)
        kqg = _window_matrix(self.WINDOW, queries, grid.points())

        v_p = tokenize(cfg, pv, cloud)
        v_g = (op @ (kgp @ v_p)) @ pv.get("enc_fusion.w") + pv.get("enc_fusion.b")
        got = encode(cfg, pv, v_p, cloud)
        assert np.abs(got - v_g).max() <= 1e-10 * np.abs(v_g).max()

        fused = (kqg @ (op @ v_g)) @ pv.get("dec_fusion.w") + pv.get("dec_fusion.b")
        mid = _np_gelu(fused @ pv.get("head.w0") + pv.get("head.b0"))
        ref = mid @ pv.get("head.w1") + pv.get("head.b1")
        out = forward(cfg, pv, cloud, PointCloud(queries))
        assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max()


class TestProcess:
    def test_identity_kind(self):
        cfg = toy_config(processor="identity")
        pv = init_params(cfg, 0)
        v_g = np.random.default_rng(1).standard_normal((16, 8))
        assert np.array_equal(process(cfg, pv, v_g), v_g)

    def test_mlp_zero_weights_residual_identity(self):
        cfg = toy_config(processor="mlp")
        pv = init_params(cfg, 2)
        for name in ("proc.w0", "proc.b0", "proc.w1", "proc.b1"):
            sl, _ = pv.segments[name]
            pv.values[sl] = 0.0
        v_g = np.random.default_rng(3).standard_normal((16, 8))
        assert np.allclose(process(cfg, pv, v_g), v_g)

    def test_tiny_attention_two_token_oracle(self):
        cfg = ModelConfig(dim=1, grid_l=2, hidden=2, branches=1, processor="tiny_attention")
        pv = init_params(cfg, 4)
        wq, wk, wv, wo = (pv.get(f"proc.{n}") for n in ("wq", "wk", "wv", "wo"))
        v_g = np.array([[1.0, 0.0], [0.0, 1.0]])
        q, k, v = v_g @ wq, v_g @ wk, v_g @ wv
        scores = (q @ k.T) / np.sqrt(2)
        scores = scores - scores.max()
        e = np.exp(scores)
        attn = e / e.sum(axis=-1, keepdims=True)
        ref = v_g + (attn @ v) @ wo
        assert np.abs(process(cfg, pv, v_g) - ref).max() <= 1e-12

    def test_tiny_attention_rows_far_apart_stay_finite(self):
        # row 1's scores sit ~7e3 below row 0's maximum: a shift by the shared
        # maximum underflows all of row 1's exponentials to 0/0
        cfg = ModelConfig(dim=1, grid_l=2, hidden=2, branches=1, processor="tiny_attention")
        pv = init_params(cfg, 4)
        for name in ("wq", "wk", "wv", "wo"):
            pv.get(f"proc.{name}")[...] = np.eye(2)
        v_g = np.array([[100.0, 0.0], [0.0, 0.0]])
        # row 0 attends to itself; row 1 averages the two value rows
        ref = v_g + np.array([[100.0, 0.0], [50.0, 0.0]])
        assert np.abs(process(cfg, pv, v_g) - ref).max() <= 1e-12


class TestForward:
    def test_zero_head_zero_predictions(self):
        cfg = toy_config()
        pv = init_params(cfg, 0)
        for name in ("head.w1", "head.b1"):
            sl, _ = pv.segments[name]
            pv.values[sl] = 0.0
        rng = np.random.default_rng(5)
        out = forward(cfg, pv, toy_cloud(rng, 6, 2), PointCloud(rng.uniform(-1, 1, (4, 2))))
        assert np.array_equal(out, np.zeros((4, 1)))

    def test_query_permutation(self):
        cfg = toy_config()
        pv = init_params(cfg, 6)
        rng = np.random.default_rng(7)
        cloud = toy_cloud(rng, 6, 2)
        q = rng.uniform(-1, 1, (5, 2))
        perm = rng.permutation(5)
        a = forward(cfg, pv, cloud, PointCloud(q))
        b = forward(cfg, pv, cloud, PointCloud(q[perm]))
        assert np.abs(a[perm] - b).max() <= 1e-12

    def test_input_permutation_invariance(self):
        cfg = toy_config()
        pv = init_params(cfg, 8)
        rng = np.random.default_rng(9)
        cloud = toy_cloud(rng, 6, 2)
        perm = rng.permutation(6)
        permuted = PointCloud(cloud.coords[perm], channels=cloud.channels[perm])
        q = PointCloud(rng.uniform(-1, 1, (4, 2)))
        a = forward(cfg, pv, cloud, q)
        b = forward(cfg, pv, permuted, q)
        assert np.abs(a - b).max() <= 1e-10

    def test_discretization_consistency(self):
        cfg = toy_config()
        pv = init_params(cfg, 10)
        rng = np.random.default_rng(11)
        cloud = toy_cloud(rng, 6, 2)
        q = rng.uniform(-1, 1, (5, 2))
        full = forward(cfg, pv, cloud, PointCloud(q))
        sub = forward(cfg, pv, cloud, PointCloud(q[1:4]))
        assert np.abs(full[1:4] - sub).max() <= 1e-12

    def test_d1_variant_coincidence(self):
        rng = np.random.default_rng(12)
        cloud = toy_cloud(rng, 8, 1)
        q = PointCloud(rng.uniform(-1, 1, (6, 1)))
        outs = {}
        for variant in ("vanilla", "tp"):
            cfg = ModelConfig(dim=1, grid_l=5, hidden=8, branches=2, variant=variant)
            pv = init_params(cfg, 13)
            outs[variant] = forward(cfg, pv, cloud, q)
        assert np.abs(outs["vanilla"] - outs["tp"]).max() <= 1e-9

    def test_truncated_matches_explicit_propagator(self):
        cfg = toy_config(branches=1, variant="truncated", truncation_order=3)
        pv = init_params(cfg, 14)
        cloud = toy_cloud(np.random.default_rng(15), 5, 2)
        v_p = tokenize(cfg, pv, cloud)
        msk = decode_kernel_params(cfg, pv)
        grid = grid_linspace(2, 4)
        br = msk.branches[0]
        kgp = cross_kernel(br.axis_params, grid, cloud.coords)
        grams = tuple(
            axis_gram(p, grid.per_axis_points[j]) for j, p in enumerate(br.axis_params)
        )
        # the dense partial sum sum_{k<=3} (alpha K)^k x
        ak = br.alpha * kron_materialize(list(grams))
        term = ref = kgp @ v_p
        for _ in range(3):
            term = ak @ term
            ref = ref + term
        assert np.abs(encode(cfg, pv, v_p, cloud) - ref).max() <= 1e-9


class TestForwardMemory:
    def test_inference_frees_each_cross_kernel(self):
        """A no-gradient forward keeps no graph, so its intermediates die young.

        At d=2, L=32 and 256 points the bound is 8 MiB, four M x n arrays
        of float64; a forward that held its graph kept every branch's
        intermediates to the end.
        """
        cfg = ModelConfig(dim=2, grid_l=32, hidden=16, branches=3, processor="mlp",
                          variant="vanilla")
        pv = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        cloud = toy_cloud(rng, 256, 2)
        queries = PointCloud(rng.uniform(-1, 1, (256, 2)))
        forward(cfg, pv, cloud, queries)  # first call fills any lazy state
        tracemalloc.start()
        try:
            out = forward(cfg, pv, cloud, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (256, 1)
        assert peak < 4 * 1024 * 256 * 8


@pytest.fixture
def builds(monkeypatch):
    """An empty operator cache, and the names of the operator builders
    called from now on, in call order."""
    model._build_operator.cache_clear()
    names = []
    for name in ("build_vanilla", "build_tp", "build_truncated"):
        real = getattr(ops_ad, name)

        def counted(*args, real=real, name=name):
            names.append(name)
            return real(*args)

        monkeypatch.setattr(ops_ad, name, counted)
    yield names
    model._build_operator.cache_clear()


class TestResolventCache:
    @pytest.mark.parametrize(
        "variant, kw",
        [
            ("vanilla", {}),
            ("tp", {}),
            ("truncated", {}),
            # the inference benchmark's model: cold build and hit at full size
            ("vanilla", dict(grid_l=32, hidden=16, processor="mlp")),
        ],
        ids=["vanilla", "tp", "truncated", "vanilla-L32"],
    )
    def test_repeated_forward_builds_nothing(self, builds, variant, kw):
        cfg = toy_config(branches=3, variant=variant, truncation_order=2, **kw)
        pv = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        cloud, queries = toy_cloud(rng, 6, 2), PointCloud(rng.uniform(-1, 1, (5, 2)))
        cold = forward(cfg, pv, cloud, queries)
        assert builds == [f"build_{variant}"] * 3
        hit = forward(cfg, pv, cloud, queries)
        assert len(builds) == 3
        assert np.array_equal(hit, cold)

    def test_in_place_alpha_change_rebuilds(self, builds):
        cfg = toy_config(branches=3)
        pv = init_params(cfg, 0)
        rng = np.random.default_rng(1)
        cloud, queries = toy_cloud(rng, 6, 2), PointCloud(rng.uniform(-1, 1, (5, 2)))
        before = forward(cfg, pv, cloud, queries)
        pv.values[alpha_indices(cfg, pv)] = [-0.3, -0.6, -0.9]
        after = forward(cfg, pv, cloud, queries)
        assert len(builds) == 6
        model._build_operator.cache_clear()
        cold = forward(cfg, pv, cloud, queries)
        assert np.array_equal(after, cold)
        assert not np.array_equal(after, before)

    def test_bounded_least_recently_used(self, builds):
        cfg = toy_config(branches=1)
        pv = init_params(cfg, 0)
        rng = np.random.default_rng(2)
        cloud, queries = toy_cloud(rng, 6, 2), PointCloud(rng.uniform(-1, 1, (5, 2)))
        bound = model.RESOLVENT_CACHE_ENTRIES
        alphas = -np.linspace(0.1, 0.9, bound + 3)

        def forward_at(a):
            pv.values[alpha_indices(cfg, pv)] = a
            forward(cfg, pv, cloud, queries)

        for a in alphas[:bound]:
            forward_at(a)
        forward_at(alphas[0])  # a hit, which makes it the most recently used
        assert len(builds) == bound
        for a in alphas[bound:]:
            forward_at(a)
        assert model._build_operator.cache_info().currsize == bound
        forward_at(alphas[0])  # kept
        assert len(builds) == alphas.size
        forward_at(alphas[1])  # evicted as the least recently used
        assert len(builds) == alphas.size + 1
        assert model._build_operator.cache_info().currsize == bound


class TestDeadParameterAudit:
    @pytest.mark.parametrize("processor", ["mlp", "tiny_attention"])
    def test_every_parameter_reachable(self, processor):
        cfg = toy_config(processor=processor)
        pv = init_params(cfg, 16)
        rng = np.random.default_rng(17)
        pv.values += rng.uniform(-0.05, 0.05, pv.size)
        touched = np.zeros(pv.size, dtype=bool)
        for probe in range(2):
            prng = np.random.default_rng(100 + probe)
            cloud = toy_cloud(prng, 6, 2)
            queries = PointCloud(prng.uniform(-1, 1, (5, 2)))
            target = prng.uniform(-1, 1, (5, 1))
            g = grad_analytic(cfg, pv, [(cloud, queries, target)])
            touched |= g != 0.0
        assert touched.all(), f"dead parameters at indices {np.nonzero(~touched)[0][:10]}"
