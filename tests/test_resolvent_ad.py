"""The one resolvent AD op against central differences of dense oracles.

For an upstream gradient g the op's VJP must give the gradient of
f(x, K_1, ..., K_d, alpha) = <g, R x>, with R the dense (I - alpha*K)^-1
for vanilla and the Kronecker product of the per-axis inverses for tp.
Grams are symmetric, so a Gram is perturbed symmetrically and checked
through K_bar + K_bar^T.
"""

import numpy as np
import pytest

from ikno.autodiff import Tensor
from ikno.kernels import AxisKernelParams, axis_gram
from ikno.ops_ad import resolvent_ad
from ikno.resolvent import apply_naive_inverse, build_tp, build_vanilla
from ikno.tensor_linalg import dense_inverse, kron_materialize

CHANNELS = 3
EPS = 1e-6
RTOL = 1e-7


def tp_oracle(grams, alpha, x):
    dense = kron_materialize([dense_inverse(np.eye(len(k)) - alpha * k) for k in grams])
    return (dense @ x.reshape(dense.shape[0], -1)).reshape(x.shape)


ORACLES = {"vanilla": (build_vanilla, apply_naive_inverse), "tp": (build_tp, tp_oracle)}


def make_case(seed, d):
    rng = np.random.default_rng(seed)
    grams = [
        axis_gram(AxisKernelParams(c=1.0, beta=1.5, gamma=0.8), np.sort(rng.uniform(-1, 1, n)))
        for n in rng.integers(2, 5, d)
    ]
    shape = tuple(len(k) for k in grams) + (CHANNELS,)
    return grams, rng.standard_normal(shape), rng.standard_normal(shape)


def analytic(variant, grams, alpha, x, g):
    x_t = Tensor(x, requires_grad=True)
    grams_t = [Tensor(k, requires_grad=True) for k in grams]
    alpha_t = Tensor(np.array(alpha), requires_grad=True)
    y = resolvent_ad(ORACLES[variant][0](grams, alpha), x_t, grams_t, alpha_t)
    (y * Tensor(g)).sum().backward()
    return x_t.grad, [k.grad for k in grams_t], float(alpha_t.grad)


def central(f, eps=EPS):
    return (f(eps) - f(-eps)) / (2 * eps)


@pytest.mark.parametrize("sign", ["negative", "positive"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("variant", sorted(ORACLES))
def test_vjp_matches_dense_oracle(variant, d, sign):
    grams, x, g = make_case(10 * d + len(variant), d)
    radii = [np.abs(np.linalg.eigvalsh(k)).max() for k in grams]
    # 0 < alpha < 1/rho(K), and below every axis's 1/rho(K_j) for tp
    alpha = -0.7 if sign == "negative" else 0.5 / max(np.prod(radii), *radii)
    oracle = ORACLES[variant][1]

    def f(grams_, alpha_, x_):
        return float(np.sum(g * oracle(grams_, alpha_, x_)))

    x_bar, k_bars, alpha_bar = analytic(variant, grams, alpha, x, g)
    scale = max(np.abs(x_bar).max(), *(np.abs(kb).max() for kb in k_bars), abs(alpha_bar))

    rng = np.random.default_rng(d)
    for _ in range(3):  # f is linear in x: directional checks suffice
        v = rng.standard_normal(x.shape)
        fd = central(lambda e: f(grams, alpha, x + e * v))
        assert abs(np.sum(x_bar * v) - fd) <= RTOL * scale * np.abs(v).sum()

    fd_alpha = central(lambda e: f(grams, alpha + e, x))
    assert abs(alpha_bar - fd_alpha) <= RTOL * scale

    for j, (k, k_bar) in enumerate(zip(grams, k_bars)):
        n = len(k)
        fd_sym = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                e_ab = np.zeros((n, n))
                e_ab[a, b] += 1.0
                e_ab[b, a] += 1.0

                def fk(e, j=j, e_ab=e_ab):
                    return f([kk + e * e_ab if l == j else kk for l, kk in enumerate(grams)], alpha, x)

                fd_sym[a, b] = central(fk)
        assert np.abs(k_bar + k_bar.T - fd_sym).max() <= RTOL * scale
