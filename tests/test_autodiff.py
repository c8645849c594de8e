"""Tape engine: op semantics, backward rules vs finite differences, errors."""

import gc
import weakref

import numpy as np
import pytest

from seqrl import autodiff as ad
from seqrl.model import _rollout, encode
from seqrl.oracles import finite_difference

TOL = 1e-6


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    """max |a - n| / max(|a|, floor) over all components."""
    denom = np.maximum(np.abs(analytic), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_op_gradients(f, tensors, h=1e-5, floor=1e-8):
    """Backward vs central differences for one scalar-valued graph."""
    for t in tensors:
        t.zero_grad()
    ad.backward(f())
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    numeric = finite_difference(f, tensors, h=h)
    for t in tensors:
        t.zero_grad()
    return max(max_rel_error(a, n, floor=floor) for a, n in zip(analytic, numeric))


def rand(*shape, seed=0, scale=1.0):
    return ad.parameter(np.random.default_rng(seed).normal(0.0, scale, size=shape))


def sum_sq(t):
    """A scalar quadratic in t: the sum of squares of a vector, of t @ v for a
    fixed vector v when t is a matrix; a 0-D t is returned as it is."""
    if t.data.ndim == 0:
        return t
    if t.data.ndim == 2:
        t = ad.matmul(t, ad.constant(np.random.default_rng(99).normal(size=t.shape[1])))
    return ad.matmul(t, t)


def test_tensor_basics():
    t = ad.tensor([[1.0, 2.0]])
    assert t.shape == (1, 2)
    assert not t.requires_grad
    p = ad.parameter(np.zeros(3))
    assert p.requires_grad
    with pytest.raises(ValueError):
        ad.tensor([np.inf])


def test_scalar_item_and_zero_grad():
    p = ad.parameter(np.array([2.0]))
    loss = ad.matmul(p, p)
    ad.backward(loss)
    assert p.grad == pytest.approx(4.0)
    p.zero_grad()
    assert p.grad is None


def test_add_forward():
    a = ad.tensor([1.0, 2.0])
    b = ad.tensor([3.0, 5.0])
    np.testing.assert_array_equal(ad.add(a, b).data, [4.0, 7.0])


def test_binary_ops_reject_shape_mismatch():
    a = ad.tensor(np.zeros((2, 3)))
    b = ad.tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="shape"):
        ad.add(a, b)


def test_matmul_identity_and_orthogonal_rows():
    m = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ad.matmul(ad.tensor(np.eye(2)), m).data, m.data)
    out = ad.matmul(ad.tensor([[1.0, 0.0]]), ad.tensor([[0.0], [5.0]]))
    np.testing.assert_array_equal(out.data, [[0.0]])


def test_matmul_rejects_inner_mismatch():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("shapes", [((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,))])
def test_matmul_gradients(shapes):
    a = rand(*shapes[0], seed=1)
    b = rand(*shapes[1], seed=2)
    assert check_op_gradients(lambda: sum_sq(ad.matmul(a, b)), [a, b]) <= TOL


def test_scale_is_constant_coefficient():
    v = ad.parameter(np.array([2.0, 3.0]))
    ad.backward(ad.sum_all(ad.scale(v, -2.5)))
    np.testing.assert_array_equal(v.grad, [-2.5, -2.5])


def test_cut_stops_backward_and_resume_finishes_it():
    a = rand(3, 4, seed=21)
    w = rand(4, seed=22)
    v = rand(3, seed=23)

    def upstream():
        return ad.matmul(a, w)

    def downstream(y):
        return ad.add(sum_sq(y), ad.matmul(y, v))

    # reference: the uncut graph, with the downstream loss taken twice
    y = upstream()
    ad.backward(ad.add(downstream(y), ad.scale(downstream(y), 2.0)))
    expected = [t.grad.copy() for t in (a, w, v)]
    for t in (a, w, v):
        t.zero_grad()

    y = upstream()
    y_cut = ad.cut(y)
    assert y_cut.data is y.data and y_cut.node is None and y_cut.requires_grad
    ad.backward(downstream(y_cut))
    ad.backward(ad.scale(downstream(y_cut), 2.0))
    # the cut graphs left the upstream node and its leaves untouched
    assert a.grad is None and w.grad is None
    assert not y.node.done and y.node.backward_fn is not None
    ad.backward(ad.resume([(y, y_cut.grad)]))
    assert y.node.done
    for got, want in zip((a.grad, w.grad, v.grad), expected):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_resume_skips_missing_gradients():
    p = ad.parameter(np.array([1.0, 2.0]))
    q = ad.parameter(np.array([3.0]))
    ad.backward(ad.resume([(ad.scale(p, 3.0), np.array([1.0, -1.0])), (ad.scale(q, 3.0), None)]))
    np.testing.assert_array_equal(p.grad, [3.0, -3.0])
    assert q.grad is None


def test_backward_requires_recorded_scalar():
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.parameter(np.zeros(2)))
    with pytest.raises(ValueError, match="recorded"):
        ad.backward(ad.parameter(np.array(1.0)))


def test_backward_twice_is_rejected():
    p = ad.parameter(np.array([3.0]))
    loss = ad.matmul(p, p)
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="already"):
        ad.backward(loss)
    # and partial reuse through a downstream node is also rejected
    p.zero_grad()
    mid = ad.matmul(p, p)
    ad.backward(ad.scale(mid, 2.0))
    with pytest.raises(RuntimeError, match="already"):
        ad.backward(ad.scale(mid, 3.0))


def test_gradients_accumulate_across_separate_graphs():
    p = ad.parameter(np.array([2.0]))
    ad.backward(ad.matmul(p, p))
    ad.backward(ad.matmul(p, p))
    assert p.grad == pytest.approx(8.0)


def test_shared_subexpression_accumulates_through_fanout():
    p = ad.parameter(np.array([1.0, 2.0]))
    m = np.array([[0.5, -1.0], [2.0, 0.25], [1.5, 3.0]])
    y = ad.matmul(ad.constant(m), p)
    loss = ad.add(ad.matmul(y, y), ad.sum_all(y))
    ad.backward(loss)
    np.testing.assert_allclose(p.grad, m.T @ (2.0 * (m @ p.data) + 1.0), atol=1e-14)


def test_backward_frees_saved_arrays_without_gc(tiny_model):
    # a node and its outputs reference each other; backward must drop the
    # closure itself so its saved arrays do not wait for the cyclic collector
    config, params = tiny_model
    enc = encode([np.random.default_rng(19).normal(size=(4, config.feature_dim))],
                 params, config)[0]
    _, out = _rollout(enc, params, config, [3, 3], lambda lp, _rows, _step: np.argmax(lp, axis=1))
    bwd = out.node.backward_fn
    cache = dict(zip(bwd.__code__.co_freevars, bwd.__closure__))["cache"].cell_contents
    saved = [arr for entry in cache for arr in entry if isinstance(arr, np.ndarray)]
    del bwd, cache
    assert saved
    refs = [weakref.ref(arr) for arr in saved]
    del saved
    loss = ad.sum_all(out)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ad.backward(loss)
        assert all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()
    assert out.node.done
    with pytest.raises(RuntimeError, match="already"):
        ad.backward(loss)


def test_no_grad_suppresses_taping():
    p = ad.parameter(np.array([1.0, 2.0]))
    with ad.no_grad():
        out = ad.add(p, p)
    assert out.node is None
    with pytest.raises(ValueError):
        ad.backward(ad.sum_all(out))


def test_no_grad_forward_values_are_bitwise_identical():
    p = ad.parameter(np.random.default_rng(18).normal(size=6))
    m = ad.constant(np.random.default_rng(20).normal(size=(6, 5)))
    tracked = ad.matmul(p, m).data
    with ad.no_grad():
        untracked = ad.matmul(p, m).data
    assert np.array_equal(tracked, untracked)


def test_gradient_comparison_detects_mismatches():
    t = ad.parameter(np.array([0.3, -0.7]))
    good = check_op_gradients(lambda: ad.scale(ad.matmul(t, t), 0.5), [t])
    assert good < 1e-8
    # a wrong analytic gradient (here off by 2x) cannot slip past the metric
    numeric = finite_difference(lambda: 0.5 * float(t.data @ t.data), [t])[0]
    assert max_rel_error(2.0 * t.data, numeric) > 0.4
    assert max_rel_error(np.array([2.0]), np.array([2.0 + 2e-9])) \
        == pytest.approx(1e-9, rel=1e-3)


def test_finite_difference_helper_linearity():
    # sanity-check the checker itself on an analytically known function
    p = ad.parameter(np.array([1.0, -2.0]))

    def f():
        return float(3.0 * p.data[0] - 0.5 * p.data[1])

    grad = finite_difference(f, [p])[0]
    assert max_rel_error(np.array([3.0, -0.5]), grad) <= 1e-9
