"""Tape engine: op semantics, backward rules vs finite differences, errors."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrl import autodiff as ad
from seqrl.oracles import check_op_gradients, finite_difference, max_rel_error

TOL = 1e-6


def rand(*shape, seed=0, scale=1.0):
    return ad.parameter(np.random.default_rng(seed).normal(0.0, scale, size=shape))


def test_tensor_basics():
    t = ad.tensor([[1.0, 2.0]])
    assert t.shape == (1, 2)
    assert not t.requires_grad
    p = ad.parameter(np.zeros(3))
    assert p.requires_grad
    with pytest.raises(ValueError):
        ad.tensor([np.inf])


def test_scalar_item_and_zero_grad():
    p = ad.parameter(np.array(2.0))
    loss = ad.mul(p, p)
    ad.backward(loss)
    assert p.grad == pytest.approx(4.0)
    p.zero_grad()
    assert p.grad is None


def test_add_and_mul_forward():
    a = ad.tensor([1.0, 2.0])
    b = ad.tensor([3.0, 5.0])
    np.testing.assert_array_equal(ad.add(a, b).data, [4.0, 7.0])
    np.testing.assert_array_equal(ad.mul(a, b).data, [3.0, 10.0])


def test_binary_ops_reject_shape_mismatch():
    a = ad.tensor(np.zeros((2, 3)))
    b = ad.tensor(np.zeros((3, 2)))
    for op in (ad.add, ad.mul):
        with pytest.raises(ValueError, match="shape"):
            op(a, b)


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
    assert check_op_gradients(lambda: ad.sum_all(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
                              [a, b]) <= TOL


@pytest.mark.parametrize("fn", [ad.tanh, ad.sigmoid, ad.leaky_relu])
def test_pointwise_gradients(fn):
    a = rand(4, seed=3)
    assert check_op_gradients(lambda: ad.sum_all(ad.mul(fn(a), fn(a))), [a]) <= TOL


def test_pointwise_known_values():
    assert ad.tanh(ad.tensor(np.array(0.0))).item() == 0.0
    assert ad.leaky_relu(ad.tensor(np.array(-1.0))).item() == pytest.approx(-0.01)
    assert ad.sigmoid(ad.tensor(np.array(0.0))).item() == pytest.approx(0.5)
    # sigmoid stays exact far into the tails
    assert ad.sigmoid(ad.tensor(np.array(-800.0))).item() == pytest.approx(0.0, abs=1e-300)
    assert ad.sigmoid(ad.tensor(np.array(800.0))).item() == pytest.approx(1.0)


def test_add_row_broadcasts_explicitly():
    m = ad.tensor(np.zeros((2, 3)))
    r = ad.tensor(np.array([1.0, 2.0, 3.0]))
    out = ad.add_row(m, r)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    mp, rp = rand(2, 3, seed=4), rand(3, seed=5)
    assert check_op_gradients(
        lambda: ad.sum_all(ad.mul(ad.add_row(mp, rp), ad.add_row(mp, rp))), [mp, rp]) <= TOL


def test_softmax_uniform_and_sum():
    np.testing.assert_allclose(ad.softmax(ad.tensor([0.0, 0.0])).data, [0.5, 0.5])
    np.testing.assert_allclose(ad.log_softmax(ad.tensor([0.0] * 4)).data,
                               np.full(4, -np.log(4.0)), atol=1e-15)
    out = ad.softmax(rand(9, seed=6, scale=3.0))
    assert out.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_shift_invariance_is_exact():
    # max subtraction makes huge inputs equal their shifted versions bitwise
    big = ad.softmax(ad.tensor([1000.0, 1000.5])).data
    small = ad.softmax(ad.tensor([0.0, 0.5])).data
    assert np.array_equal(big, small)
    assert np.all(np.isfinite(big)) and big.sum() == pytest.approx(1.0)


def test_softmax_log_softmax_consistency():
    x = rand(7, seed=7, scale=2.0)
    np.testing.assert_allclose(np.exp(ad.log_softmax(x).data), ad.softmax(x).data, atol=1e-12)


@pytest.mark.parametrize("fn", [ad.softmax, ad.log_softmax])
def test_softmax_gradients(fn):
    a = rand(5, seed=8)
    w = ad.constant(np.random.default_rng(9).normal(size=5))
    assert check_op_gradients(lambda: ad.sum_all(ad.mul(fn(a), w)), [a]) <= TOL


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_softmax_is_a_distribution(vals):
    out = ad.softmax(ad.tensor(np.array(vals))).data
    assert np.all(out >= 0.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_gather_rows_forward_and_repeats():
    table = ad.tensor(np.eye(3))
    np.testing.assert_array_equal(ad.gather_rows(table, [2]).data, [[0.0, 0.0, 1.0]])
    t = rand(4, 3, seed=10)
    out = ad.gather_rows(t, [0, 2, 1])
    np.testing.assert_array_equal(out.data, t.data[[0, 2, 1]])
    # repeated ids accumulate gradient on the shared row
    ad.backward(ad.sum_all(ad.gather_rows(t, [1, 1])))
    np.testing.assert_array_equal(t.grad[1], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(t.grad[0], [0.0, 0.0, 0.0])


def test_gather_rows_rejects_bad_id():
    with pytest.raises(IndexError, match="3"):
        ad.gather_rows(ad.tensor(np.eye(3)), [3])


def test_concat_and_reshape_gradients():
    a, b = rand(2, 3, seed=11), rand(1, 3, seed=12)
    out = ad.concat([a, b], axis=0)
    assert out.shape == (3, 3)
    assert check_op_gradients(
        lambda: ad.sum_all(ad.mul(ad.concat([a, b], axis=0), ad.concat([a, b], axis=0))),
        [a, b]) <= TOL
    c = rand(6, seed=13)
    assert check_op_gradients(
        lambda: ad.sum_all(ad.mul(ad.reshape(c, (2, 3)), ad.reshape(c, (2, 3)))), [c]) <= TOL


def test_concat_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        ad.concat([ad.tensor(np.zeros(2)), ad.tensor(np.zeros((2, 2)))])


def test_pick_and_add_n():
    v = ad.parameter(np.array([1.0, 4.0, 9.0]))
    assert ad.pick(v, 2).item() == 9.0
    with pytest.raises(IndexError):
        ad.pick(v, 3)
    total = ad.add_n([ad.pick(v, i) for i in range(3)])
    ad.backward(total)
    np.testing.assert_array_equal(v.grad, [1.0, 1.0, 1.0])


def test_scale_is_constant_coefficient():
    v = ad.parameter(np.array([2.0, 3.0]))
    ad.backward(ad.sum_all(ad.scale(v, -2.5)))
    np.testing.assert_array_equal(v.grad, [-2.5, -2.5])


def naive_lstm_step(x, h, c, w_ih, w_hh, b):
    """Plain numpy recurrence used as the oracle for the fused cell."""
    hidden = h.shape[0]
    pre = x @ w_ih + h @ w_hh + b
    i, f, g, o = (pre[0:hidden], pre[hidden:2 * hidden],
                  pre[2 * hidden:3 * hidden], pre[3 * hidden:])
    sig = lambda z: 0.5 * (1.0 + np.tanh(0.5 * z))
    c_next = sig(f) * c + sig(i) * np.tanh(g)
    h_next = sig(o) * np.tanh(c_next)
    return h_next, c_next


def test_lstm_cell_matches_naive_recurrence():
    rng = np.random.default_rng(14)
    x, h, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)
    w_ih, w_hh, b = rng.normal(size=(3, 16)), rng.normal(size=(4, 16)), rng.normal(size=16)
    h2, c2 = ad.lstm_cell(*(ad.tensor(v) for v in (x, h, c, w_ih, w_hh, b)))
    h_ref, c_ref = naive_lstm_step(x, h, c, w_ih, w_hh, b)
    np.testing.assert_allclose(h2.data, h_ref, atol=1e-14)
    np.testing.assert_allclose(c2.data, c_ref, atol=1e-14)


def test_lstm_cell_gradients():
    rng = np.random.default_rng(15)
    args = [ad.parameter(rng.normal(scale=0.7, size=s))
            for s in [(3,), (4,), (4,), (3, 16), (4, 16), (16,)]]

    def loss():
        h, c = ad.lstm_cell(*args)
        return ad.add(ad.sum_all(ad.mul(h, h)), ad.sum_all(ad.mul(c, c)))

    assert check_op_gradients(loss, args) <= TOL


def test_lstm_sequence_matches_stepwise_cells():
    rng = np.random.default_rng(16)
    steps, hidden = 5, 3
    pre = rng.normal(size=(steps, 4 * hidden))
    w_hh = rng.normal(scale=0.5, size=(hidden, 4 * hidden))
    seq = ad.lstm_sequence(ad.tensor(pre), ad.tensor(w_hh))
    h = ad.tensor(np.zeros(hidden))
    c = ad.tensor(np.zeros(hidden))
    for t in range(steps):
        h, c = ad.lstm_cell(ad.tensor(np.zeros(1)), h, c,
                            ad.tensor(np.zeros((1, 4 * hidden))),
                            ad.tensor(w_hh), ad.tensor(pre[t]))
        np.testing.assert_allclose(seq.data[t], h.data, atol=1e-13)


def test_lstm_sequence_gradients():
    rng = np.random.default_rng(17)
    pre = ad.parameter(rng.normal(scale=0.8, size=(4, 12)))
    w_hh = ad.parameter(rng.normal(scale=0.5, size=(3, 12)))

    def loss():
        out = ad.lstm_sequence(pre, w_hh)
        return ad.sum_all(ad.mul(out, out))

    assert check_op_gradients(loss, [pre, w_hh]) <= TOL


def test_backward_requires_recorded_scalar():
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.parameter(np.zeros(2)))
    with pytest.raises(ValueError, match="recorded"):
        ad.backward(ad.parameter(np.array(1.0)))


def test_backward_twice_is_rejected():
    p = ad.parameter(np.array(3.0))
    loss = ad.mul(p, p)
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="already"):
        ad.backward(loss)
    # and partial reuse through a downstream node is also rejected
    p.zero_grad()
    mid = ad.mul(p, p)
    ad.backward(ad.scale(mid, 2.0))
    with pytest.raises(RuntimeError, match="already"):
        ad.backward(ad.scale(mid, 3.0))


def test_gradients_accumulate_across_separate_graphs():
    p = ad.parameter(np.array(2.0))
    ad.backward(ad.mul(p, p))
    ad.backward(ad.mul(p, p))
    assert p.grad == pytest.approx(8.0)


def test_shared_subexpression_accumulates_through_fanout():
    p = ad.parameter(np.array([1.0, 2.0]))
    y = ad.tanh(p)
    loss = ad.add(ad.sum_all(ad.mul(y, y)), ad.sum_all(y))
    ad.backward(loss)
    expected = (2.0 * np.tanh(p.data) + 1.0) * (1.0 - np.tanh(p.data) ** 2)
    np.testing.assert_allclose(p.grad, expected, atol=1e-14)


def test_backward_frees_saved_arrays_without_gc():
    # a node and its outputs reference each other; backward must drop the
    # closure itself so its saved arrays do not wait for the cyclic collector
    p = ad.parameter(np.random.default_rng(19).normal(size=4))
    out = ad.log_softmax(p)
    saved = [cell.cell_contents for cell in out.node.backward_fn.__closure__
             if isinstance(cell.cell_contents, np.ndarray)]
    assert saved
    refs = [weakref.ref(arr) for arr in saved]
    del saved
    loss = ad.pick(out, 1)
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
        out = ad.mul(p, p)
    assert out.node is None
    with pytest.raises(ValueError):
        ad.backward(ad.sum_all(out))


def test_no_grad_forward_values_are_bitwise_identical():
    p = ad.parameter(np.random.default_rng(18).normal(size=6))
    tracked = ad.softmax(ad.tanh(p)).data
    with ad.no_grad():
        untracked = ad.softmax(ad.tanh(p)).data
    assert np.array_equal(tracked, untracked)


def test_finite_difference_helper_linearity():
    # sanity-check the checker itself on an analytically known function
    p = ad.parameter(np.array([1.0, -2.0]))

    def f():
        return float(3.0 * p.data[0] - 0.5 * p.data[1])

    grad = finite_difference(f, [p])[0]
    assert max_rel_error(np.array([3.0, -0.5]), grad) <= 1e-9
