import gc
import weakref

import numpy as np
import pytest

import ikno.model
from ikno.autodiff import Tensor, custom_op
from ikno.kernels import PointCloud
from ikno.model import ModelConfig, init_params
from ikno.ops_ad import dense_ad
from ikno.training import grad_fd, loss_and_grad


def _toy_batch(samples, dim=2):
    rng = np.random.default_rng(0)
    return [
        (
            PointCloud(rng.uniform(-1, 1, (5, dim)), channels=rng.uniform(-1, 1, (5, 1))),
            PointCloud(rng.uniform(-1, 1, (3, dim))),
            rng.uniform(-1, 1, (3, 1)),
        )
        for _ in range(samples)
    ]


def test_graph_is_freed_without_the_cycle_collector(monkeypatch):
    cfg = ModelConfig(dim=2, grid_l=4, hidden=4, branches=2, processor="mlp")
    pv = init_params(cfg, 0)
    batch = _toy_batch(2)
    refs = []
    real_dense = ikno.model.dense_ad

    def recording_dense(*args, **kwargs):
        out = real_dense(*args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ikno.model, "dense_ad", recording_dense)
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
    z = (h * c).sum(axis=-1, keepdims=True) + (a[1:2] * a[1:2]).reshape(1, 1)  # a reaches z twice
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


def test_training_step_tensor_count(monkeypatch):
    # each dense layer is one op and each branch's parameter slices are made
    # once per graph: a change that splits them up again raises the count
    cfg = ModelConfig(dim=2, grid_l=4, hidden=4, branches=3, processor="mlp")
    pv = init_params(cfg, 0)
    count = 0
    real_init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal count
        count += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    loss_and_grad(cfg, pv, _toy_batch(2))
    assert count <= 92


# -- gradient ownership -------------------------------------------------------


def test_value_reaching_a_node_twice_gets_the_sum():
    rng = np.random.default_rng(3)
    up = rng.standard_normal((2, 3))
    kept = up.copy()
    x, leaf = (Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(2))
    y = x * 3.0
    for s in (y + y, leaf + leaf):  # an interior node, then a leaf, reached twice
        out = custom_op([s], s.data, lambda g: [up])  # hands both parents ``up``
        out.sum().backward()
    assert np.array_equal(x.grad, 6.0 * up) and np.array_equal(leaf.grad, 2.0 * up)
    assert np.array_equal(up, kept)


def test_leaf_gradient_is_an_owned_writable_array():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    x.sum().backward()  # arrives as a read-only broadcast view
    up = rng.standard_normal(2)
    v = Tensor(rng.standard_normal(2), requires_grad=True)
    custom_op([v], v.data, lambda g: [up]).sum().backward()  # arrives as ``up`` itself
    for t, want in ((x, np.ones((3, 2))), (v, up)):
        assert t.grad.dtype == np.float64 and t.grad.flags.writeable and t.grad.flags.owndata
        assert np.array_equal(t.grad, want)
    assert not np.shares_memory(v.grad, up)


@pytest.mark.parametrize("idx", [np.s_[1:3], np.s_[[1, 1, 2]]], ids=["basic", "advanced"])
def test_getitem_vjp_never_writes_into_an_upstream_gradient(idx):
    x = Tensor(np.arange(4.0), requires_grad=True)
    up = np.ones(4)
    c = custom_op([x], x.data.copy(), lambda g: [up])
    # the custom op's VJP runs first, so x borrows ``up`` before the slice adds
    (x[idx].sum() + c.sum()).backward()
    want = np.ones(4)
    np.add.at(want, idx, 1.0)
    assert np.array_equal(x.grad, want)
    assert np.array_equal(up, np.ones(4))


# -- the dense op -------------------------------------------------------------

_GELU_C0, _GELU_C1 = 0.7978845608028654, 0.044715


def _composed_dense(xs, w, b, gelu):
    """The dense layer as a chain of elementwise Tensor nodes."""
    z, lo = None, 0
    for x in xs:
        width = x.shape[-1] if w is not None else b.shape[-1]
        term = x.reshape(-1, width)
        if w is not None:
            term = term @ w[lo : lo + width]
        z, lo = (term if z is None else z + term), lo + width
    z = z + b
    if not gelu:
        return z
    inner = (z + _GELU_C1 * (z * z * z)) * _GELU_C0
    return 0.5 * z * (1.0 + inner.tanh())


def _dense_case(weighted):
    """Three inputs (the middle one constant), a weight or None, a bias and
    an upstream gradient."""
    rng = np.random.default_rng(5)
    if weighted:
        xs = [rng.standard_normal(s) for s in ((5, 3), (5, 2), (5, 3))]
        w = rng.standard_normal((8, 4))
    else:  # inputs are read as rows of the bias's width
        xs = [rng.standard_normal(s) for s in ((5, 4), (5, 2, 2), (5, 4))]
        w = None
    return xs, w, rng.standard_normal(4), rng.standard_normal((5, 4))


def _dense_tensors(xs, w, b):
    ts = [Tensor(x, requires_grad=(k != 1)) for k, x in enumerate(xs)]
    w_t = None if w is None else Tensor(w, requires_grad=True)
    return ts, w_t, Tensor(b, requires_grad=True)


@pytest.mark.parametrize("gelu", [False, True], ids=["identity", "gelu"])
@pytest.mark.parametrize("weighted", [True, False], ids=["blocks", "sum"])
def test_dense_op_vjp_matches_finite_differences(gelu, weighted):
    xs, w, b, g = _dense_case(weighted)
    ts, w_t, b_t = _dense_tensors(xs, w, b)
    (dense_ad(ts, w_t, b_t, gelu=gelu) * Tensor(g)).sum().backward()
    arrays = [*xs, *([] if w is None else [w]), b]
    tensors = [*ts, *([] if w_t is None else [w_t]), b_t]
    assert tensors[1].grad is None
    for k, (a, t) in enumerate(zip(arrays, tensors)):
        if k == 1:
            continue

        def probe(p, k=k):
            vals = [Tensor(p.reshape(a.shape) if j == k else v) for j, v in enumerate(arrays)]
            w_p = None if w is None else vals[3]
            return float(np.vdot(g, dense_ad(vals[:3], w_p, vals[-1], gelu=gelu).data))

        fd = grad_fd(probe, a.ravel())
        assert np.abs(t.grad.ravel() - fd).max() <= 1e-8 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("gelu", [False, True], ids=["identity", "gelu"])
@pytest.mark.parametrize("weighted", [True, False], ids=["blocks", "sum"])
def test_dense_op_matches_the_composed_chain(gelu, weighted):
    xs, w, b, g = _dense_case(weighted)
    ts, w_t, b_t = _dense_tensors(xs, w, b)
    out = dense_ad(ts, w_t, b_t, gelu=gelu)
    (out * Tensor(g)).sum().backward()
    rs, rw, rb = _dense_tensors(xs, w, b)
    ref = _composed_dense(rs, rw, rb, gelu)
    (ref * Tensor(g)).sum().backward()
    assert np.array_equal(out.data, ref.data)  # the same operations in the same order
    pairs = [*zip(ts, rs), *([] if w is None else [(w_t, rw)]), (b_t, rb)]
    for t, r in pairs:
        if r.grad is None:
            assert t.grad is None
        else:  # the GELU's derivative is closed-form here, a chain rule there
            assert np.abs(t.grad - r.grad).max() <= 1e-14 * np.abs(r.grad).max()


def test_dense_op_on_constants_keeps_no_graph():
    xs, w, b, _ = _dense_case(True)
    out = dense_ad([Tensor(x) for x in xs], Tensor(w), Tensor(b), gelu=True)
    assert not out.requires_grad and out._parents == () and out._vjp is None
