"""Reverse-mode automatic differentiation on dense float64 arrays.

Tape-based engine: every operation records a node holding its input tensors,
its output tensors, and a backward rule. ``backward(loss)`` replays the nodes
reachable from the loss in exact reverse creation order and accumulates
gradients into leaf tensors created with ``requires_grad=True``.

All arrays are float64 and row-major. ``add`` requires equal shapes and
broadcasts nothing.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

_COUNTER = itertools.count()
_STATE = threading.local()


def _recording() -> bool:
    return getattr(_STATE, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values unchanged)."""
    prev = _recording()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


class Tensor:
    """Dense float64 array with an optional gradient slot.

    Leaf tensors (no creator node) accumulate into ``grad`` when they were
    created with ``requires_grad=True``. Tensors produced by ops carry a
    reference to their creator node; their gradients are transient.
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "outputs", "backward_fn", "seq", "done")

    def __init__(self, inputs, outputs, backward_fn):
        self.inputs = inputs
        self.outputs = outputs
        self.backward_fn = backward_fn
        self.seq = next(_COUNTER)
        self.done = False


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _make(out_arrays: Sequence[np.ndarray], inputs: Sequence[Tensor],
          backward_fn: Callable) -> list[Tensor]:
    outs = [Tensor.__new__(Tensor) for _ in out_arrays]
    track = _recording() and any(t.requires_grad for t in inputs)
    for o, arr in zip(outs, out_arrays):
        o.data = arr
        o.grad = None
        o.requires_grad = track
        o.node = None
    if track:
        node = _Node(tuple(inputs), tuple(outs), backward_fn)
        for o in outs:
            o.node = node
    return outs


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable requires-grad leaf.

    The loss must be a scalar produced by a recorded op. Calling backward a
    second time through any already-visited node raises RuntimeError.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise ValueError("loss is not the output of a recorded operation")

    nodes: list[_Node] = []
    seen: set[int] = set()
    stack = [loss.node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        nodes.append(n)
        for t in n.inputs:
            if t.node is not None and id(t.node) not in seen:
                stack.append(t.node)
    if any(n.done for n in nodes):
        raise RuntimeError("backward was already called through part of this graph")
    nodes.sort(key=lambda n: n.seq, reverse=True)

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    def sink(t: Tensor, g: np.ndarray) -> None:
        if t.node is not None:
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = np.array(g, dtype=np.float64, copy=True)
        elif t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g

    for n in nodes:
        gouts = [grads.pop(id(o), None) for o in n.outputs]
        if all(g is None for g in gouts):
            continue
        gouts = [np.zeros_like(o.data) if g is None else g for g, o in zip(gouts, n.outputs)]
        n.backward_fn(gouts, sink)
        n.done = True
        # the closure holds the arrays saved for backward, and a node and its
        # outputs form a cycle; break both now rather than at the next GC
        n.backward_fn = None
        n.outputs = ()


# ---------------------------------------------------------------------------
# operations


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add requires equal shapes, got {a.shape} and {b.shape}")

    def bwd(gs, sink):
        sink(a, gs[0])
        sink(b, gs[0])

    return _make([a.data + b.data], [a, b], bwd)[0]


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant (no gradient flows into c)."""
    c = float(c)

    def bwd(gs, sink):
        sink(a, gs[0] * c)

    return _make([a.data * c], [a], bwd)[0]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy matmul semantics for 1-D/2-D operands."""
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0 or ad.ndim > 2 or bd.ndim > 2:
        raise ValueError(f"matmul supports 1-D/2-D operands, got {a.shape} and {b.shape}")
    if ad.shape[-1] != (bd.shape[0] if bd.ndim >= 1 else None):
        raise ValueError(f"matmul inner dimensions differ: {a.shape} and {b.shape}")

    def bwd(gs, sink):
        g = gs[0]
        if ad.ndim == 1 and bd.ndim == 1:
            sink(a, g * bd)
            sink(b, g * ad)
        elif ad.ndim == 1:
            sink(a, bd @ g)
            sink(b, np.outer(ad, g))
        elif bd.ndim == 1:
            sink(a, np.outer(g, bd))
            sink(b, ad.T @ g)
        else:
            sink(a, g @ bd.T)
            sink(b, ad.T @ g)

    return _make([ad @ bd], [a, b], bwd)[0]


def sum_all(a: Tensor) -> Tensor:
    """Sum all elements to a 0-D scalar, left to right (numpy's sum is pairwise),
    so a sum of step log-probs has the bits of a running total over them."""
    total = np.add.accumulate(a.data.reshape(-1))[-1] if a.data.size else 0.0

    def bwd(gs, sink):
        sink(a, np.full_like(a.data, float(gs[0])))

    return _make([np.array(total, dtype=np.float64)], [a], bwd)[0]


def cut(a: Tensor) -> Tensor:
    """A requires-grad leaf sharing ``a``'s data.

    A graph built on the cut stops there: ``backward`` accumulates into its
    ``grad`` and leaves ``a``'s graph untouched, until ``resume`` carries
    that gradient on.
    """
    leaf = Tensor.__new__(Tensor)
    leaf.data, leaf.grad, leaf.requires_grad, leaf.node = a.data, None, True, None
    return leaf


def resume(pairs: Sequence[tuple[Tensor, np.ndarray | None]]) -> Tensor:
    """A 0-D zero whose backward sinks each (tensor, gradient) pair's gradient
    into its tensor; ``backward(resume(...))`` finishes the cut graphs."""
    pairs = [(t, g) for t, g in pairs if g is not None]

    def bwd(gs, sink):
        for t, g in pairs:
            sink(t, g)

    return _make([np.zeros(())], [t for t, _ in pairs], bwd)[0]
