"""Edit-distance reward shaping for sequence-level training.

Per-step rewards are differences of prefix edit distances against the
reference: the first step is scored against the empty prefix baseline
``|ref|``, later steps against the previous prefix. Summed over a hypothesis
the rewards telescope to ``|ref| - edit_distance(hyp, ref)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS = 1e-8


def edit_distance(a, b) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    a = list(a)
    return prefix_edit_distances(a, b)[-1] if a else len(list(b))


def prefix_edit_distances(hyp, ref) -> list[int]:
    """Distances of every non-empty hypothesis prefix to the full reference.

    One DP pass over the standard edit-distance matrix; element t-1 equals
    ``edit_distance(hyp[:t], ref)``.
    """
    hyp, ref = list(hyp), list(ref)
    if not hyp:
        raise ValueError("prefix_edit_distances requires a non-empty hypothesis")
    prev = list(range(len(ref) + 1))
    out = []
    for i, x in enumerate(hyp, start=1):
        cur = [i] + [0] * len(ref)
        for j, y in enumerate(ref, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
        out.append(cur[len(ref)])
    return out


def step_rewards(hyp, ref) -> list[int]:
    """Per-step rewards from prefix edit-distance differences.

    r[0] = |ref| - ED(hyp[:1], ref); r[t] = ED(hyp[:t], ref) - ED(hyp[:t+1], ref).
    Integer arithmetic throughout, so the telescoping identity
    ``sum(r) == |ref| - ED(hyp, ref)`` is exact.
    """
    ref = list(ref)
    if not ref:
        raise ValueError("step_rewards requires a non-empty reference")
    prefix = prefix_edit_distances(hyp, ref)
    rewards = [len(ref) - prefix[0]]
    for t in range(1, len(prefix)):
        rewards.append(prefix[t - 1] - prefix[t])
    return rewards


def discounted_returns(rewards, gamma: float) -> list[float]:
    """Right-to-left discounted suffix sums: R[t] = r[t] + gamma * R[t+1]."""
    gamma = float(gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"discount factor must lie in [0, 1], got {gamma}")
    out = [0.0] * len(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = float(rewards[t]) + gamma * acc
        out[t] = acc
    return out


@dataclass
class MovingStats:
    """Per-time-step running mean/std, updated by exponential moving average.

    Slots grow on demand; a step never seen before starts at mean 0, std 1.
    Single-writer: updates happen once per sample batch, in batch order.
    """

    decay: float = 0.99
    mu: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sigma: np.ndarray = field(default_factory=lambda: np.ones(0))

    def _grow(self, n: int) -> None:
        if n > self.mu.shape[0]:
            extra = n - self.mu.shape[0]
            self.mu = np.concatenate([self.mu, np.zeros(extra)])
            self.sigma = np.concatenate([self.sigma, np.ones(extra)])


def normalize_timewise(returns_batch: list[list[float]], stats: MovingStats) -> list[np.ndarray]:
    """Normalize each return by its time step's moving statistics.

    All values are normalized with the statistics as they stood before the
    call; afterwards the stats are EMA-updated once from this batch. Returns
    one array per input sample; ``stats`` is mutated in place.
    """
    longest = max((len(r) for r in returns_batch), default=0)
    stats._grow(longest)
    normalized = [
        (np.asarray(r, dtype=np.float64) - stats.mu[:len(r)]) / (stats.sigma[:len(r)] + EPS)
        for r in returns_batch
    ]
    d = stats.decay
    for t in range(longest):
        vals = np.array([r[t] for r in returns_batch if len(r) > t])
        stats.mu[t] = d * stats.mu[t] + (1.0 - d) * vals.mean()
        stats.sigma[t] = d * stats.sigma[t] + (1.0 - d) * vals.std()
    return normalized


def normalize_final(rewards) -> np.ndarray:
    """Normalize total rewards across the samples of one batch.

    Subtracts the batch mean and divides by the population std (+ eps).
    """
    vals = np.asarray(rewards, dtype=np.float64)
    if vals.shape[0] < 2:
        raise ValueError(f"final-reward normalization needs at least 2 samples, got {vals.shape[0]}")
    return (vals - vals.mean()) / (vals.std() + EPS)


def total_reward(hyp_graphemes, ref) -> int:
    """Sum of step rewards; by telescoping, |ref| - edit_distance(hyp, ref)."""
    return len(list(ref)) - edit_distance(hyp_graphemes, ref)
