"""The two fused resolvent AD ops against central differences of dense oracles.

For a stacked batch with per-sample cross kernels K_i (the dense column-wise
Kronecker products of the axis factors' column blocks) and an upstream
gradient g, the encoder op's VJP must give the gradient of
f = sum_i <g_i, R K_i V_i> and the decoder op's that of
f = sum_i <g_i, K_i^T R v_i>, with R the dense (I - alpha*K)^-1 for vanilla,
the Kronecker product of the per-axis inverses for tp and the partial sum
sum_{k <= p} (alpha*K)^k for truncated order p. Grams are symmetric, so a
Gram is perturbed symmetrically and checked through K_bar + K_bar^T.
"""

import tracemalloc

import numpy as np
import pytest

from ikno.autodiff import Tensor
from ikno.kernels import AxisKernelParams, axis_gram
from ikno.ops_ad import _spectral_grads, resolvent_decode_ad, resolvent_encode_ad
from ikno.resolvent import build_tp, build_truncated, build_vanilla
from ikno.tensor_linalg import dense_inverse, kron_materialize

CHANNELS = 3
EPS = 1e-6
RTOL = 1e-7


def dense_resolvent(variant, grams, alpha):
    if variant == "vanilla":
        k = kron_materialize(grams)
        return dense_inverse(np.eye(len(k)) - alpha * k)
    if variant == "tp":
        return kron_materialize([dense_inverse(np.eye(len(k)) - alpha * k) for k in grams])
    ak = alpha * kron_materialize(grams)
    term = total = np.eye(len(ak))
    for _ in range(TRUNCATED_ORDERS[variant]):
        term = ak @ term
        total = total + term
    return total


def dense_cross(factors):
    """(M, n): column p is kron(A_1[:, p], ..., A_d[:, p])."""
    n = factors[0].shape[1]
    cols = [kron_materialize([a[:, [p]] for a in factors]) for p in range(n)]
    return np.hstack(cols) if cols else np.zeros((int(np.prod([len(a) for a in factors])), 0))


def oracle(direction, variant, factors, v, grams, alpha, batch):
    """The op's output, per sample stacked as the op stacks it."""
    r = dense_resolvent(variant, grams, alpha)
    k = dense_cross(factors)
    m, n = k.shape[0], k.shape[1] // batch
    if direction == "encode":  # (M, B*h), sample i in channels i*h:(i+1)*h
        blocks = [r @ k[:, i * n:(i + 1) * n] @ v[i * n:(i + 1) * n] for i in range(batch)]
        return np.hstack(blocks)
    vv = v.reshape(m, batch, -1)  # (N_1, ..., N_d, B*h) in memory order
    return np.vstack([k[:, i * n:(i + 1) * n].T @ r @ vv[:, i] for i in range(batch)])


OPS = {"encode": resolvent_encode_ad, "decode": resolvent_decode_ad}
TRUNCATED_ORDERS = {f"truncated-p{p}": p for p in range(4)}
BUILDS = {
    "vanilla": build_vanilla,
    "tp": build_tp,
    **{
        name: lambda grams, alpha, p=p: build_truncated(grams, alpha, p)
        for name, p in TRUNCATED_ORDERS.items()
    },
}


def make_case(seed, d, direction, n, batch):
    rng = np.random.default_rng(seed)
    grams = [
        axis_gram(AxisKernelParams(c=1.0, beta=1.5, gamma=0.8), np.sort(rng.uniform(-1, 1, size)))
        for size in rng.integers(2, 6, d)
    ]
    sizes = tuple(len(k) for k in grams)
    factors = [rng.standard_normal((s, batch * n)) for s in sizes]
    if direction == "encode":
        v = rng.standard_normal((batch * n, CHANNELS))
        g = rng.standard_normal((*sizes, batch * CHANNELS))
    else:
        v = rng.standard_normal((*sizes, batch * CHANNELS))
        g = rng.standard_normal((batch * n, CHANNELS))
    return grams, factors, v, g


def stable_alpha(grams, sign):
    radii = [np.abs(np.linalg.eigvalsh(k)).max() for k in grams]
    # 0 < alpha < 1/rho(K), and below every axis's 1/rho(K_j) for tp
    return -0.7 if sign == "negative" else 0.5 / max(np.prod(radii), *radii)


def analytic(direction, variant, factors, v, grams, alpha, g, batch):
    factors_t = [Tensor(a, requires_grad=True) for a in factors]
    v_t = Tensor(v, requires_grad=True)
    grams_t = [Tensor(k, requires_grad=True) for k in grams]
    alpha_t = Tensor(np.array(alpha), requires_grad=True)
    r = BUILDS[variant](grams, alpha)
    y = OPS[direction](r, factors_t, v_t, grams_t, alpha_t, batch)
    (y * Tensor(g)).sum().backward()
    grads = [a.grad for a in factors_t], v_t.grad, [k.grad for k in grams_t], float(alpha_t.grad)
    return y.data, *grads


def central(f, eps=EPS):
    return (f(eps) - f(-eps)) / (2 * eps)


def check_against_oracle(direction, variant, d, sign, n, batch):
    grams, factors, v, g = make_case(10 * d + len(variant) + len(direction), d, direction, n, batch)
    alpha = stable_alpha(grams, sign)

    def f(factors_=factors, v_=v, grams_=grams, alpha_=alpha):
        y = oracle(direction, variant, factors_, v_, grams_, alpha_, batch)
        return float(np.vdot(g, y))  # the op's and the oracle's layouts share one memory order

    y, a_bars, v_bar, k_bars, alpha_bar = analytic(
        direction, variant, factors, v, grams, alpha, g, batch
    )
    ref = oracle(direction, variant, factors, v, grams, alpha, batch)
    assert np.abs(y.reshape(ref.shape) - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=1.0)
    scale = max(
        np.abs(v_bar).max(initial=1.0), *(np.abs(ab).max(initial=1.0) for ab in a_bars),
        *(np.abs(kb).max() for kb in k_bars), abs(alpha_bar),
    )

    rng = np.random.default_rng(d)
    for _ in range(3):  # f is linear in v and in each factor: directional checks suffice
        dv = rng.standard_normal(v.shape)
        fd = central(lambda e: f(v_=v + e * dv))
        assert abs(np.sum(v_bar * dv) - fd) <= RTOL * scale * max(np.abs(dv).sum(), 1.0)
        for j, (a, a_bar) in enumerate(zip(factors, a_bars)):
            da = rng.standard_normal(a.shape)

            def fa(e, j=j, da=da):
                return f(factors_=[aa + e * da if l == j else aa for l, aa in enumerate(factors)])

            fd = central(fa)
            assert abs(np.sum(a_bar * da) - fd) <= RTOL * scale * max(np.abs(da).sum(), 1.0)

    fd_alpha = central(lambda e: f(alpha_=alpha + e))
    assert abs(alpha_bar - fd_alpha) <= RTOL * scale

    for j, (k, k_bar) in enumerate(zip(grams, k_bars)):
        size = len(k)
        fd_sym = np.empty((size, size))
        for a in range(size):
            for b in range(size):
                e_ab = np.zeros((size, size))
                e_ab[a, b] += 1.0
                e_ab[b, a] += 1.0

                def fk(e, j=j, e_ab=e_ab):
                    return f(grams_=[kk + e * e_ab if l == j else kk for l, kk in enumerate(grams)])

                fd_sym[a, b] = central(fk)
        assert np.abs(k_bar + k_bar.T - fd_sym).max() <= RTOL * scale
    return y, a_bars, v_bar, k_bars, alpha_bar


@pytest.mark.parametrize("sign", ["negative", "positive"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("variant", sorted(BUILDS))
def test_vjp_matches_dense_oracle(variant, d, sign):
    for direction in sorted(OPS):  # a stacked batch of 2, 3 points per sample
        check_against_oracle(direction, variant, d, sign, n=3, batch=2)


@pytest.mark.parametrize("direction", sorted(OPS))
@pytest.mark.parametrize("variant", sorted(BUILDS))
def test_empty_cloud(variant, direction):
    y, a_bars, v_bar, k_bars, alpha_bar = check_against_oracle(
        direction, variant, 2, "negative", n=0, batch=2
    )
    assert not y.any() and alpha_bar == 0.0
    assert all(a.shape[1] == 0 for a in a_bars)
    assert all(not kb.any() for kb in k_bars)
    assert (v_bar.shape == (0, CHANNELS)) if direction == "encode" else not v_bar.any()


def test_spectral_grads_copy_no_grid_tensor():
    """Vanilla's Gram gradients contract the eigen-grid sides through
    axis-moving views: at d = 3, L = 16 with 64 channels the contraction's
    peak stays below one grid tensor (its per-point N_j x N_j products are
    a quarter of one)."""
    rng = np.random.default_rng(44)
    grams = [axis_gram(AxisKernelParams(c=1.0, beta=1.5, gamma=0.8), np.linspace(-1, 1, 16))] * 3
    r = build_vanilla(grams, -0.7)
    g_side, x_side = rng.standard_normal((2, 16, 16, 16, 64))
    grams_t = [Tensor(k, requires_grad=True) for k in grams]
    alpha = Tensor(np.array(-0.7), requires_grad=True)
    tracemalloc.start()
    try:
        k_bars, alpha_bar = _spectral_grads(r, g_side, x_side, grams_t, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(kb.shape == (16, 16) for kb in k_bars) and np.isfinite(alpha_bar)
    assert peak < x_side.nbytes
