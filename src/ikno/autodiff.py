"""Minimal reverse-mode automatic differentiation over float64 ndarrays.

Just enough machinery for the operator network: broadcast add, subtract,
multiply and divide, matmul, exp/tanh/sqrt, sums, slicing/reshaping, and a
hook for custom vector-Jacobian products. The hook serves the ops of
:mod:`ikno.ops_ad`: each dense layer and each axis kernel factor is one op
instead of a chain of elementwise nodes, and the Kronecker resolvent
operators' forward passes go through eigendecompositions that are never
differentiated through directly.

Only tensors that require a gradient record a graph. A result whose inputs
are all constants keeps no parent links and no VJP closure, so a forward
pass run without trainable parameters (inference, the finite-difference
oracle) frees each intermediate array as soon as nothing reads it.

Gradients are not copied as they flow. A node's first gradient is borrowed:
it may be shared with other nodes or be a read-only view. A second one is
added out of place, and a node copies a borrowed gradient before it writes
into it, so no node ever writes into an array that another node holds.
Leaves own their gradients once ``backward`` returns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "custom_op"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_owns_grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.grad = None
        self._owns_grad = False
        if self.requires_grad:
            self._parents = parents
            self._vjp = vjp
        else:  # nothing will read the graph: let the inputs and closure go
            self._parents = ()
            self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        if self.grad is None:  # borrowed: g may be shared or a read-only view
            self.grad, self._owns_grad = g, False
        elif self._owns_grad:
            self.grad += g
        else:
            self.grad, self._owns_grad = self.grad + g, True

    def _owned_grad(self) -> np.ndarray:
        """The gradient as an array of this node's own, for in-place writes."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        elif not self._owns_grad:
            self.grad = np.array(self.grad, dtype=np.float64)
        self._owns_grad = True
        return self.grad

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf's ``grad``.

        The graph is released as the sweep goes: once a node's VJP has run,
        its gradient, VJP closure and parent links are dropped, so each
        intermediate array is freed as soon as nothing downstream needs it
        and no reference cycle keeps the graph alive afterwards. Leaves
        (tensors without a VJP) keep their gradients, as arrays of their own.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        # iterative depth-first post-order; parents are visited in order,
        # as a recursive visit would, so gradients sum in the same order
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            t, done = stack.pop()
            if done:
                topo.append(t)
            elif id(t) not in seen and t.requires_grad:
                seen.add(id(t))
                stack.append((t, True))
                stack.extend((p, False) for p in reversed(t._parents))
        self.grad, self._owns_grad = np.ones_like(self.data), True
        while topo:
            t = topo.pop()
            if t._vjp is not None:
                if t.grad is not None:
                    t._vjp(t.grad)
                t.grad = t._vjp = None
                t._parents = ()
            elif t.grad is not None:
                t._owned_grad()

    # -- arithmetic ---------------------------------------------------------

    def _binary(self, other, fwd, vjp_a, vjp_b):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        out_data = fwd(a.data, b.data)

        def vjp(g):
            if a.requires_grad:
                a._accum(_unbroadcast(vjp_a(g, a.data, b.data), a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(vjp_b(g, a.data, b.data), b.data.shape))

        return Tensor(out_data, parents=(a, b), vjp=vjp)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b, lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g)

    def __mul__(self, other):
        return self._binary(
            other, lambda a, b: a * b, lambda g, a, b: g * b, lambda g, a, b: g * a
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(
            other,
            lambda a, b: a / b,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        out_data = a.data @ b.data

        def vjp(g):  # batched operands broadcast over their leading axes
            if a.requires_grad:
                a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

        return Tensor(out_data, parents=(a, b), vjp=vjp)

    # -- elementwise --------------------------------------------------------

    def _unary(self, fwd, dfwd):
        a = self
        out_data = fwd(a.data)

        def vjp(g):
            if a.requires_grad:
                a._accum(g * dfwd(a.data, out_data))

        return Tensor(out_data, parents=(a,), vjp=vjp)

    def exp(self):
        return self._unary(np.exp, lambda x, y: y)

    def tanh(self):
        return self._unary(np.tanh, lambda x, y: 1.0 - y * y)

    def sqrt(self):
        return self._unary(np.sqrt, lambda x, y: 0.5 / y)

    # -- reductions / shaping -----------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            if not a.requires_grad:
                return
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            a._accum(np.broadcast_to(gg, a.data.shape))

        return Tensor(out_data, parents=(a,), vjp=vjp)

    def reshape(self, *shape):
        a = self
        out_data = a.data.reshape(*shape)

        def vjp(g):
            if a.requires_grad:
                a._accum(g.reshape(a.data.shape))

        return Tensor(out_data, parents=(a,), vjp=vjp)

    def swapaxes(self, axis1, axis2):
        a = self
        out_data = a.data.swapaxes(axis1, axis2)

        def vjp(g):
            if a.requires_grad:
                a._accum(g.swapaxes(axis1, axis2))

        return Tensor(out_data, parents=(a,), vjp=vjp)

    def __getitem__(self, idx):
        a = self
        out_data = a.data[idx]

        # a basic index never repeats an element, so it can add in place
        basic = all(
            isinstance(i, (int, np.integer, slice)) and not isinstance(i, bool)
            for i in (idx if isinstance(idx, tuple) else (idx,))
        )

        def vjp(g):
            if a.requires_grad:
                if basic:
                    a._owned_grad()[idx] += g
                else:
                    np.add.at(a._owned_grad(), idx, g)

        return Tensor(out_data, parents=(a,), vjp=vjp)


def custom_op(inputs: list[Tensor], out_data: np.ndarray, backward) -> Tensor:
    """Wrap a forward result with a hand-written vector-Jacobian product.

    ``backward(g)`` must return one gradient array (or None) per input, in
    order.
    """

    def vjp(g):
        grads = backward(g)
        for t, gr in zip(inputs, grads):
            if t.requires_grad and gr is not None:
                t._accum(np.asarray(gr, dtype=np.float64).reshape(t.data.shape))

    return Tensor(out_data, parents=tuple(inputs), vjp=vjp)
