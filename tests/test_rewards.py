"""Reward shaping checked against brute-force recursion and frozen cases."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrl.rewards import (MovingStats, discounted_returns, edit_distance,
                           normalize_final, normalize_timewise,
                           prefix_edit_distances, step_rewards, total_reward)


def recursive_edit_distance(a: tuple, b: tuple) -> int:
    """Textbook exponential recursion; independent of the DP implementation."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(go(i - 1, j) + 1,
                   go(i, j - 1) + 1,
                   go(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return go(len(a), len(b))


@pytest.mark.parametrize("a, b, expected", [
    ("sunday", "saturday", 3),
    ("kitten", "sitting", 3),
    ("abc", "abc", 0),
    ("", "abc", 3),
    ("abc", "", 3),
    ("", "", 0),
])
def test_edit_distance_known_cases(a, b, expected):
    assert edit_distance(a, b) == expected


def test_edit_distance_matches_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = tuple(rng.integers(0, 3, size=rng.integers(0, 7)))
        b = tuple(rng.integers(0, 3, size=rng.integers(0, 7)))
        assert edit_distance(a, b) == recursive_edit_distance(a, b)


def test_prefix_distances_equal_per_prefix_recomputation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        hyp = list(rng.integers(0, 4, size=rng.integers(1, 9)))
        ref = list(rng.integers(0, 4, size=rng.integers(1, 9)))
        prefixes = prefix_edit_distances(hyp, ref)
        assert prefixes == [recursive_edit_distance(tuple(hyp[:t]), tuple(ref))
                            for t in range(1, len(hyp) + 1)]


def test_prefix_distances_need_nonempty_hypothesis():
    with pytest.raises(ValueError):
        prefix_edit_distances([], [1, 2])


def test_step_rewards_frozen_cases():
    # matching pair: each step earns one point
    assert prefix_edit_distances("ab", "ab") == [1, 0]
    assert step_rewards("ab", "ab") == [1, 1]
    # swapped pair: the second symbol makes things worse
    assert prefix_edit_distances("ba", "ab") == [1, 2]
    assert step_rewards("ba", "ab") == [1, -1]


def test_step_rewards_reject_empty_reference():
    with pytest.raises(ValueError):
        step_rewards([1], [])


@given(st.lists(st.integers(0, 7), min_size=1, max_size=20),
       st.lists(st.integers(0, 7), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_telescoping_identity(hyp, ref):
    assert sum(step_rewards(hyp, ref)) == len(ref) - edit_distance(hyp, ref)
    assert total_reward(hyp, ref) == len(ref) - edit_distance(hyp, ref)


def test_discounted_returns_frozen_case():
    assert discounted_returns([1, -1], 0.5) == [0.5, -1.0]


def test_discounted_returns_limits():
    rewards = [2, -1, 3]
    assert discounted_returns(rewards, 0.0) == [2.0, -1.0, 3.0]
    # gamma=1 gives plain suffix sums
    assert discounted_returns(rewards, 1.0) == [4.0, 2.0, 3.0]
    assert discounted_returns([], 0.5) == []


@pytest.mark.parametrize("gamma", [-0.1, 1.5])
def test_discounted_returns_reject_bad_gamma(gamma):
    with pytest.raises(ValueError):
        discounted_returns([1.0], gamma)


def test_normalize_final_two_samples():
    out = normalize_final([2, 0])
    # mean 1, population std 1 (+eps in the denominator)
    np.testing.assert_allclose(out, [1.0 / (1.0 + 1e-8), -1.0 / (1.0 + 1e-8)], rtol=0, atol=1e-15)


def test_normalize_final_zero_mean():
    rng = np.random.default_rng(8)
    for _ in range(20):
        vals = rng.integers(-5, 9, size=rng.integers(2, 12))
        out = normalize_final(vals)
        assert abs(out.mean()) < 1e-12


def test_normalize_final_rejects_single_sample():
    with pytest.raises(ValueError):
        normalize_final([3])


def test_timewise_stats_first_update():
    stats = MovingStats()
    out = normalize_timewise([[3.0]], stats)
    # normalized with the prior (mu=0, sigma=1), then one EMA update
    np.testing.assert_allclose(out[0], [3.0 / (1.0 + 1e-8)], rtol=0, atol=1e-15)
    assert stats.mu[0] == pytest.approx(0.03)
    assert stats.sigma[0] == pytest.approx(0.99)


def test_timewise_stats_converged_step_normalizes_to_zero():
    stats = MovingStats(mu=np.array([4.0]), sigma=np.array([2.0]))
    out = normalize_timewise([[4.0]], stats)
    assert out[0][0] == pytest.approx(0.0, abs=1e-12)


def test_timewise_stats_track_stationary_returns():
    # long-run behavior: after 1000 updates on N(10, 2) the mean locks on
    stats = MovingStats()
    rng = np.random.default_rng(12)
    for _ in range(1000):
        normalize_timewise([[float(v)] for v in rng.normal(10.0, 2.0, size=4)], stats)
    assert 9.5 <= stats.mu[0] <= 10.5
    assert 1.0 <= stats.sigma[0] <= 3.0


def test_timewise_slots_grow_with_longest_sample():
    stats = MovingStats()
    normalize_timewise([[1.0], [1.0, 2.0, 3.0]], stats)
    assert stats.mu.shape == (3,)
    # step 2 saw exactly one value
    assert stats.mu[2] == pytest.approx(0.03)


def test_timewise_normalizes_before_updating():
    stats = MovingStats()
    first = normalize_timewise([[5.0]], stats)
    second = normalize_timewise([[5.0]], stats)
    # the second batch is normalized with already-moved statistics
    assert second[0][0] < first[0][0]
