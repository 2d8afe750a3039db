"""The stacked batch path against per-sample forwards.

A batch whose clouds share one size and whose query sets share one size
runs as one forward pass (latent features (N_1, ..., N_d, B*h)); every
result here must match running the samples one at a time.
"""

import numpy as np
import pytest

from ikno import ops_ad, tensor_linalg
from ikno.kernels import LinearWindowKernel, PointCloud
from ikno.model import ModelConfig, _np_graph, forward, init_params
from ikno.training import batch_loss, loss_and_grad

RTOL = 1e-13

CONFIGS = {
    **{
        f"{variant}-{processor}": dict(variant=variant, processor=processor)
        for variant in ("tp", "vanilla", "truncated")
        for processor in ("identity", "mlp", "tiny_attention")
    },
    "fixed-window": dict(
        variant="vanilla", branches=1,
        fixed_window=LinearWindowKernel(radius=0.6, scale=1.0, alpha=-0.15),
    ),
}


def make_config(dim=2, **kw):
    base = dict(dim=dim, grid_l=4, hidden=6, branches=2, truncation_order=2)
    base.update(kw)
    return ModelConfig(**base)


def make_params(cfg, seed=0):
    pv = init_params(cfg, seed)
    pv.values += np.random.default_rng(seed).uniform(-0.05, 0.05, pv.size)
    return pv


def make_batch(rng, dim, sizes):
    """One (cloud, queries, target) sample per (n, n_q) in ``sizes``."""
    return [
        (
            PointCloud(rng.uniform(-1, 1, (n, dim)), channels=rng.uniform(-1, 1, (n, 1))),
            PointCloud(rng.uniform(-1, 1, (n_q, dim))),
            rng.uniform(-1, 1, (n_q, 1)),
        )
        for n, n_q in sizes
    ]


def rel(a, b):
    return float(np.abs(np.asarray(a) - b).max() / max(np.abs(b).max(), 1e-300))


def per_sample_loss_and_grad(cfg, pv, batch):
    loss, grad = 0.0, np.zeros(pv.size)
    for sample in batch:
        l, g = loss_and_grad(cfg, pv, [sample])
        loss, grad = loss + l, grad + g
    return loss, grad


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stacked_matches_per_sample(name):
    cfg = make_config(**CONFIGS[name])
    pv = make_params(cfg)
    batch = make_batch(np.random.default_rng(1), cfg.dim, [(7, 5)] * 3)
    clouds, queries, _ = zip(*batch)
    stacked = _np_graph(cfg, pv).forward(clouds, queries).data
    single = np.concatenate([forward(cfg, pv, c, q) for c, q in zip(clouds, queries)])
    assert stacked.shape == (15, 1)
    assert rel(stacked, single) <= RTOL

    loss, grad = loss_and_grad(cfg, pv, batch)
    loss_1, grad_1 = per_sample_loss_and_grad(cfg, pv, batch)
    assert rel(loss, loss_1) <= RTOL
    assert rel(grad, grad_1) <= RTOL
    assert rel(batch_loss(cfg, pv, batch), loss_1) <= RTOL


@pytest.mark.parametrize("dim", [1, 3])
def test_stacked_matches_per_sample_other_dims(dim):
    cfg = make_config(dim=dim, grid_l=5 if dim == 1 else 3, processor="tiny_attention")
    pv = make_params(cfg, 2)
    batch = make_batch(np.random.default_rng(2), dim, [(6, 4)] * 4)
    loss, grad = loss_and_grad(cfg, pv, batch)
    loss_1, grad_1 = per_sample_loss_and_grad(cfg, pv, batch)
    assert rel(loss, loss_1) <= RTOL
    assert rel(grad, grad_1) <= RTOL


def test_permuting_the_batch_permutes_the_outputs():
    cfg = make_config(processor="tiny_attention")
    pv = make_params(cfg)
    batch = make_batch(np.random.default_rng(3), cfg.dim, [(6, 4)] * 4)
    perm = [2, 0, 3, 1]
    graph = _np_graph(cfg, pv)
    clouds, queries, _ = zip(*batch)
    out = graph.forward(clouds, queries).data.reshape(4, 4, 1)
    out_perm = graph.forward([clouds[i] for i in perm], [queries[i] for i in perm]).data
    assert rel(out_perm.reshape(4, 4, 1), out[perm]) <= RTOL


def test_ragged_batch_matches_per_sample_sum():
    cfg = make_config(processor="mlp")
    pv = make_params(cfg)
    # two groups of (cloud size, query count) plus a singleton, interleaved
    batch = make_batch(np.random.default_rng(4), cfg.dim, [(5, 3), (8, 3), (5, 3), (5, 6), (8, 3)])
    loss, grad = loss_and_grad(cfg, pv, batch)
    loss_1, grad_1 = per_sample_loss_and_grad(cfg, pv, batch)
    assert rel(loss, loss_1) <= RTOL
    assert rel(grad, grad_1) <= RTOL
    assert rel(batch_loss(cfg, pv, batch), loss_1) <= RTOL


@pytest.mark.parametrize("variant", ["tp", "vanilla", "truncated"])
def test_mode_products_do_not_grow_with_batch(variant):
    # tp's per-axis resolvents act on the cross-kernel factors, so its step
    # takes no mode products at any batch size
    cfg = make_config(variant=variant, processor="mlp")
    pv = make_params(cfg)
    batch = make_batch(np.random.default_rng(5), cfg.dim, [(6, 4)] * 4)
    counts = []
    for b in (1, 4):
        before = tensor_linalg.mode_apply_count()
        loss_and_grad(cfg, pv, batch[:b])
        counts.append(tensor_linalg.mode_apply_count() - before)
    if variant == "tp":
        assert counts == [0, 0]
    else:
        assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("variant", ["tp", "vanilla", "truncated-p1", "truncated-p3"])
@pytest.mark.parametrize("fixed", [False, True])
def test_resolvent_step_takes_4d_mode_products(monkeypatch, variant, fixed):
    # the cross kernels enter the eigenbasis through their axis factors, so
    # each direction's op rotates the grid once (d mode products) in the
    # forward and once in the backward: 4d per branch and step, learnable
    # or not, whatever the truncation order; a fixed window's Grams and
    # alpha need no gradient, so its backward never forms their contraction.
    # tp applies its per-axis resolvents to the factors instead: no mode
    # products and no eigen-grid contraction at all
    window = LinearWindowKernel(radius=0.6, scale=1.0, alpha=-0.15) if fixed else None
    variant, _, order = variant.partition("-p")
    cfg = make_config(
        variant=variant, truncation_order=int(order or 1), processor="mlp", grid_l=8,
        branches=1, fixed_window=window,
    )
    pv = make_params(cfg)
    batch = make_batch(np.random.default_rng(6), cfg.dim, [(6, 4)] * 2)
    spectral_calls = []
    spectral_grads = ops_ad._spectral_grads

    def counted(*args):
        spectral_calls.append(args)
        return spectral_grads(*args)

    monkeypatch.setattr(ops_ad, "_spectral_grads", counted)
    before = tensor_linalg.mode_apply_count()
    loss_and_grad(cfg, pv, batch)
    if variant == "tp":
        assert tensor_linalg.mode_apply_count() - before == 0
        assert len(spectral_calls) == 0
    else:
        assert tensor_linalg.mode_apply_count() - before == 4 * cfg.dim == 8
        assert len(spectral_calls) == (0 if fixed else 2)  # encode and decode
