"""The verification helpers themselves: enumeration and finite differences."""

import numpy as np
import pytest

from seqrl import autodiff as ad
from seqrl import oracles


def test_finite_difference_recovers_quadratic_gradient():
    t = ad.parameter(np.array([1.0, -2.0, 0.5]))
    grads = oracles.finite_difference(lambda: 0.5 * float(np.sum(t.data ** 2)), [t])
    # central differences are exact on quadratics up to roundoff
    np.testing.assert_allclose(grads[0], t.data, atol=1e-10)
    np.testing.assert_array_equal(t.data, [1.0, -2.0, 0.5])  # restored in place


def test_rel_error_helpers():
    a = np.array([3.0, 4.0])
    assert oracles.l2_rel_error(a, a.copy()) == 0.0
    assert oracles.l2_rel_error(a, np.array([3.0, 4.0004])) == pytest.approx(8e-5)
    # tiny gradients are judged against the floor, not their own size
    assert oracles.l2_rel_error(np.zeros(2), np.full(2, 1e-12), floor=1e-8) \
        == pytest.approx(np.sqrt(2) * 1e-4)


def test_enumerate_emissions_is_complete():
    combos = oracles.enumerate_emissions(num_graphemes=2, max_len=3)
    assert len(combos) == 15  # 1 + 2 + 4 terminated, 8 truncated
    assert sum(1 for _, terminated in combos if terminated) == 7
    assert all(len(c) == 3 for c, t in combos if not t)
    assert len({(c, t) for c, t in combos}) == 15
    assert ((), True) in combos


def test_tiny_task_layout():
    task = oracles.make_tiny_task()
    assert task.config.vocab_size == 3
    assert task.features.shape == (4, 3)
    assert len(task.reference) == 2
    assert task.max_len == 3
    harder = oracles.gradient_check_task()
    assert harder.features.shape[0] == 6
    assert len(harder.reference) == 3


def test_expected_estimator_gradients_cover_all_parameters():
    task = oracles.make_tiny_task()
    grads = oracles.expected_estimator_gradient(task, "final_reward")
    assert set(grads) == set(task.params)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert any(np.any(g != 0) for g in grads.values())


def test_monte_carlo_report_shape():
    task = oracles.make_tiny_task()
    report = oracles.unbiasedness_report(task, num_batches=50, num_samples=4, seed=3)
    assert report.num_batches == 50
    assert report.num_components == sum(p.data.size for p in task.params.values())
    assert 0.0 <= report.frac_within_3se <= 1.0
    assert np.isfinite(report.max_z)


def test_telescoping_fuzz_quick():
    assert oracles.telescoping_mismatches(num_pairs=300, seed=5) == 0


def test_mle_gradient_report_is_finite_and_small():
    task = oracles.make_tiny_task()
    report = oracles.mle_gradient_report(task.config, task.params, task.features,
                                         task.reference)
    assert set(report) == set(task.params)
    assert max(report.values()) < 1e-3
