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
from functools import reduce
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
        # the closure holds the arrays saved for backward; a node and its
        # outputs form a cycle, so drop them now rather than at the next GC
        n.backward_fn = None


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_equal_shapes(a, b, "mul")
    ad, bd = a.data, b.data

    def bwd(gs, sink):
        sink(a, gs[0] * bd)
        sink(b, gs[0] * ad)

    return _make([ad * bd], [a, b], bwd)[0]


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


def sigmoid(a: Tensor) -> Tensor:
    # 0.5 * (1 + tanh(x / 2)) is overflow-free for any finite input
    out = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def bwd(gs, sink):
        sink(a, gs[0] * out * (1.0 - out))

    return _make([out], [a], bwd)[0]


def leaky_relu(a: Tensor, alpha: float = 0.01) -> Tensor:
    pos = a.data > 0
    slope = np.where(pos, 1.0, alpha)

    def bwd(gs, sink):
        sink(a, gs[0] * slope)

    return _make([np.where(pos, a.data, alpha * a.data)], [a], bwd)[0]


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


def pick(a: Tensor, index: int) -> Tensor:
    """Select one element of a 1-D tensor as a 0-D scalar."""
    if a.data.ndim != 1:
        raise ValueError(f"pick expects a 1-D tensor, got shape {a.shape}")
    index = int(index)
    if index < 0 or index >= a.shape[0]:
        raise IndexError(f"pick index {index} out of range [0, {a.shape[0]})")

    def bwd(gs, sink):
        g = np.zeros_like(a.data)
        g[index] = gs[0]
        sink(a, g)

    return _make([a.data[index].reshape(())], [a], bwd)[0]


def add_n(parts: Sequence[Tensor]) -> Tensor:
    """Sum equally shaped tensors left to right (deterministic fold order)."""
    if not parts:
        raise ValueError("add_n requires at least one tensor")
    shape = parts[0].shape
    for p in parts:
        if p.shape != shape:
            raise ValueError(f"add_n requires equal shapes, got {shape} and {p.shape}")
    out = reduce(np.add, (p.data for p in parts))

    def bwd(gs, sink):
        for p in parts:
            sink(p, gs[0])

    return _make([np.array(out, dtype=np.float64, copy=True)], list(parts), bwd)[0]


def sum_all(a: Tensor) -> Tensor:
    """Sum all elements to a 0-D scalar."""

    def bwd(gs, sink):
        sink(a, np.full_like(a.data, float(gs[0])))

    return _make([np.asarray(a.data.sum())], [a], bwd)[0]


# ---------------------------------------------------------------------------
# fused LSTM ops
#
# Gate layout along the 4H axis is [input, forget, cell, output]. The fused
# forward/backward keeps the per-step python overhead off the tape, which is
# what makes desk-scale training runs fit their time budget.


def _lstm_gates(pre: np.ndarray, hidden: int):
    i = 0.5 * (1.0 + np.tanh(0.5 * pre[..., :hidden]))
    f = 0.5 * (1.0 + np.tanh(0.5 * pre[..., hidden:2 * hidden]))
    g = np.tanh(pre[..., 2 * hidden:3 * hidden])
    o = 0.5 * (1.0 + np.tanh(0.5 * pre[..., 3 * hidden:]))
    return i, f, g, o


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


def lstm_sequence(pre_x: Tensor, w_hh: Tensor) -> Tensor:
    """Run an LSTM over a whole sequence from zero initial state.

    pre_x: (S, 4H) input-side preactivations (inputs @ w_ih + b, precomputed so
    the big matrix product is a single tape op). w_hh: (H, 4H). Returns the
    hidden states (S, H). The recurrence and its BPTT loop run outside the
    tape as one fused node.
    """
    if pre_x.data.ndim != 2 or w_hh.data.ndim != 2:
        raise ValueError(f"lstm_sequence expects 2-D inputs, got {pre_x.shape} and {w_hh.shape}")
    hidden = w_hh.shape[0]
    if w_hh.shape[1] != 4 * hidden or pre_x.shape[1] != 4 * hidden:
        raise ValueError(f"lstm_sequence shapes inconsistent: pre_x {pre_x.shape}, w_hh {w_hh.shape}")

    steps = pre_x.shape[0]
    pd, wd = pre_x.data, w_hh.data
    i_all = np.empty((steps, hidden))
    f_all = np.empty((steps, hidden))
    g_all = np.empty((steps, hidden))
    o_all = np.empty((steps, hidden))
    c_all = np.empty((steps, hidden))
    h_all = np.empty((steps, hidden))
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in range(steps):
        pre = pd[t] + h @ wd
        i, f, g, o = _lstm_gates(pre, hidden)
        c = f * c + i * g
        h = o * np.tanh(c)
        i_all[t], f_all[t], g_all[t], o_all[t] = i, f, g, o
        c_all[t], h_all[t] = c, h

    def bwd(gs, sink):
        dH = gs[0]
        d_pre = np.zeros_like(pd)
        d_whh = np.zeros_like(wd)
        dh = np.zeros(hidden)
        dc = np.zeros(hidden)
        for t in range(steps - 1, -1, -1):
            f = f_all[t]
            dh = dh + dH[t]
            c_prev = c_all[t - 1] if t > 0 else np.zeros(hidden)
            da, dc = _lstm_grads(dh, dc, c_prev, i_all[t], f, g_all[t], o_all[t],
                                 np.tanh(c_all[t]))
            d_pre[t] = da
            h_prev = h_all[t - 1] if t > 0 else np.zeros(hidden)
            d_whh += np.outer(h_prev, da)
            dh = da @ wd.T
            dc = dc * f
        sink(pre_x, d_pre)
        sink(w_hh, d_whh)

    return _make([h_all], [pre_x, w_hh], bwd)[0]
