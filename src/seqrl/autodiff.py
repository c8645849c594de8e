"""Reverse-mode automatic differentiation on dense float64 arrays.

Tape-based engine: every operation records a node holding its input tensors,
its output tensors, and a backward rule. ``backward(loss)`` replays the nodes
reachable from the loss in exact reverse creation order and accumulates
gradients into leaf tensors created with ``requires_grad=True``.

All arrays are float64 and row-major. Binary elementwise ops require equal
shapes; the only broadcast is the explicit bias-row addition ``add_row``.
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


def _check_equal_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op} requires equal shapes, got {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_equal_shapes(a, b, "add")

    def bwd(gs, sink):
        sink(a, gs[0])
        sink(b, gs[0])

    return _make([a.data + b.data], [a, b], bwd)[0]


def add_row(mat: Tensor, row: Tensor) -> Tensor:
    """Add a 1-D row vector to every row of a 2-D matrix (explicit broadcast)."""
    if mat.data.ndim != 2 or row.data.ndim != 1 or mat.shape[1] != row.shape[0]:
        raise ValueError(f"add_row requires (n, d) + (d,), got {mat.shape} and {row.shape}")

    def bwd(gs, sink):
        sink(mat, gs[0])
        sink(row, gs[0].sum(axis=0))

    return _make([mat.data + row.data], [mat, row], bwd)[0]


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


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(gs, sink):
        sink(a, gs[0] * (1.0 - out * out))

    return _make([out], [a], bwd)[0]


def softmax(a: Tensor) -> Tensor:
    """Softmax over a 1-D vector, computed with max subtraction."""
    if a.data.ndim != 1:
        raise ValueError(f"softmax expects a 1-D tensor, got shape {a.shape}")
    shifted = a.data - np.max(a.data)
    e = np.exp(shifted)
    out = e / e.sum()

    def bwd(gs, sink):
        g = gs[0]
        sink(a, out * (g - np.dot(out, g)))

    return _make([out], [a], bwd)[0]


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over a 1-D vector, computed with max subtraction."""
    if a.data.ndim != 1:
        raise ValueError(f"log_softmax expects a 1-D tensor, got shape {a.shape}")
    shifted = a.data - np.max(a.data)
    lse = np.log(np.sum(np.exp(shifted)))
    out = shifted - lse
    soft = np.exp(out)

    def bwd(gs, sink):
        g = gs[0]
        sink(a, g - soft * g.sum())

    return _make([out], [a], bwd)[0]


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Select rows of a 2-D table; backward scatter-adds (repeats accumulate)."""
    if table.data.ndim != 2:
        raise ValueError(f"gather_rows expects a 2-D table, got shape {table.shape}")
    idx = np.asarray(list(ids), dtype=np.int64)
    n = table.shape[0]
    for i in idx:
        if i < 0 or i >= n:
            raise IndexError(f"row id {int(i)} out of range [0, {n})")

    def bwd(gs, sink):
        g = np.zeros_like(table.data)
        np.add.at(g, idx, gs[0])
        sink(table, g)

    return _make([table.data[idx]], [table], bwd)[0]


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate 1-D or 2-D tensors along an axis; backward splits."""
    if not parts:
        raise ValueError("concat requires at least one tensor")
    nd = parts[0].data.ndim
    if any(p.data.ndim != nd for p in parts):
        raise ValueError("concat requires tensors of equal rank")
    if axis < 0 or axis >= nd:
        raise ValueError(f"concat axis {axis} invalid for rank {nd}")
    sizes = [p.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def bwd(gs, sink):
        for p, piece in zip(parts, np.split(gs[0], bounds, axis=axis)):
            sink(p, piece)

    return _make([np.concatenate([p.data for p in parts], axis=axis)], list(parts), bwd)[0]


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    orig = a.data.shape

    def bwd(gs, sink):
        sink(a, gs[0].reshape(orig))

    return _make([a.data.reshape(shape)], [a], bwd)[0]


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


# ---------------------------------------------------------------------------
# fused LSTM ops
#
# Gate layout along the 4H axis is [input, forget, cell, output]. The fused
# forward/backward keeps the per-step python overhead off the tape, which is
# what makes desk-scale training runs fit their time budget.


def _lstm_gates(pre: np.ndarray, hidden: int, out: np.ndarray | None = None):
    """The four gates of ``pre``, as views of one array (``out`` if given):
    sigmoids, computed as 0.5 * (1 + tanh(pre / 2)), and tanh for the cell."""
    act = np.multiply(pre, 0.5, out=out)
    np.tanh(act, out=act)
    act += 1.0
    act *= 0.5
    np.tanh(pre[..., 2 * hidden:3 * hidden], out=act[..., 2 * hidden:3 * hidden])
    return tuple(act[..., k * hidden:(k + 1) * hidden] for k in range(4))


def _lstm_grads(dh, dc, c_prev, i, f, g, o, tc):
    """Backward through one LSTM step's gates.

    dh and dc are the gradients reaching the step's new hidden and cell
    states from outside the cell; tc is tanh of the new cell state. Returns
    the gradient of the gate preactivations and the total gradient of the
    new cell state (times f, that is the gradient of the previous one).
    """
    dc = dc + dh * o * (1.0 - tc * tc)
    da = np.concatenate([
        dc * g * i * (1.0 - i),
        dc * c_prev * f * (1.0 - f),
        dc * i * (1.0 - g * g),
        dh * tc * o * (1.0 - o),
    ], axis=-1)
    return da, dc


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor,
              w_ih: Tensor, w_hh: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step. Returns (h_next, c_next).

    x: (din,), h_prev/c_prev: (H,), w_ih: (din, 4H), w_hh: (H, 4H), b: (4H,).
    """
    hidden = h_prev.shape[0]
    if w_ih.data.ndim != 2 or w_ih.shape[0] != x.shape[0] or w_ih.shape[1] != 4 * hidden:
        raise ValueError(f"lstm_cell w_ih shape {w_ih.shape} does not match x {x.shape}, H={hidden}")
    if w_hh.shape != (hidden, 4 * hidden):
        raise ValueError(f"lstm_cell w_hh shape {w_hh.shape} must be ({hidden}, {4 * hidden})")
    if b.shape != (4 * hidden,):
        raise ValueError(f"lstm_cell bias shape {b.shape} must be ({4 * hidden},)")

    xd, hd, cd = x.data, h_prev.data, c_prev.data
    pre = xd @ w_ih.data + hd @ w_hh.data + b.data
    i, f, g, o = _lstm_gates(pre, hidden)
    c_new = f * cd + i * g
    tc = np.tanh(c_new)
    h_new = o * tc

    def bwd(gs, sink):
        da, dc = _lstm_grads(gs[0], gs[1], cd, i, f, g, o, tc)
        sink(x, da @ w_ih.data.T)
        sink(h_prev, da @ w_hh.data.T)
        sink(c_prev, dc * f)
        sink(w_ih, np.outer(xd, da))
        sink(w_hh, np.outer(hd, da))
        sink(b, da)

    return tuple(_make([h_new, c_new], [x, h_prev, c_prev, w_ih, w_hh, b], bwd))
