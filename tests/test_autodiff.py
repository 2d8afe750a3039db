import gc
import weakref

import numpy as np

import ikno.model
from ikno.autodiff import Tensor, concat, custom_op
from ikno.kernels import PointCloud
from ikno.model import ModelConfig, init_params
from ikno.training import loss_and_grad


def test_graph_is_freed_without_the_cycle_collector(monkeypatch):
    cfg = ModelConfig(dim=2, grid_l=4, hidden=4, branches=2, processor="mlp")
    pv = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    batch = [
        (
            PointCloud(rng.uniform(-1, 1, (5, 2)), channels=rng.uniform(-1, 1, (5, 1))),
            PointCloud(rng.uniform(-1, 1, (3, 2))),
            rng.uniform(-1, 1, (3, 1)),
        )
        for _ in range(2)
    ]
    refs = []
    real_gelu = ikno.model.gelu

    def recording_gelu(x):
        out = real_gelu(x)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ikno.model, "gelu", recording_gelu)
    gc.disable()
    try:
        loss, grad = loss_and_grad(cfg, pv, batch)
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_deep_chain_backward():
    x = Tensor(np.array(0.5), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y * 1.0001
    y.backward()
    assert abs(x.grad - 1.0001**5000) <= 1e-12 * 1.0001**5000


def test_leaf_gradients_kept_interior_released():
    a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]]), requires_grad=True)
    c = Tensor(np.array([4.0, 5.0]))  # constant: no gradient
    h = (a.reshape(1, 3) @ w).tanh()  # (1, 2)
    z = concat([h * c, (a[1:2] * a[1:2]).reshape(1, 1)], axis=-1)  # a reaches z twice
    loss = z.sum()
    loss.backward()

    hv = np.tanh(a.data @ w.data)
    dh = c.data * (1.0 - hv * hv)
    want_a = w.data @ dh
    want_a[1] += 2.0 * a.data[1]
    assert np.allclose(a.grad, want_a, rtol=1e-15, atol=0)
    assert np.allclose(w.grad, np.outer(a.data, dh), rtol=1e-15, atol=0)
    assert c.grad is None
    for t in (h, z, loss):
        assert t.grad is None and t._vjp is None and t._parents == ()


def test_batched_matmul_gradient():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    g = rng.standard_normal((3, 4, 2))
    ((a @ b) * g).sum().backward()
    assert np.allclose(a.grad, g @ b.data.T, rtol=1e-14, atol=0)
    assert np.allclose(b.grad, np.einsum("bij,bik->jk", a.data, g), rtol=1e-13, atol=0)


def _chain(a, b):
    """``*``, ``exp``, ``@`` and a ``custom_op``; returns every result."""
    m = a * b
    e = m.exp()
    p = e @ b.swapaxes(0, 1)
    c = custom_op([p], 2.0 * p.data, lambda g: [2.0 * g])
    return m, e, p, c


def test_constant_results_keep_no_graph():
    rng = np.random.default_rng(2)
    a, b = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
    results = _chain(a, b)
    for t in results:
        assert not t.requires_grad and t._parents == () and t._vjp is None
    refs = [weakref.ref(t) for t in results[:-1]]
    del results
    assert all(r() is None for r in refs)  # the intermediates went with their graph


def test_results_of_a_gradient_input_keep_their_graph():
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)))
    m, e, p, c = _chain(a, b)
    for t, parent in ((m, a), (e, m), (p, e), (c, p)):
        assert t.requires_grad and t._vjp is not None
        assert t._parents[0] is parent
