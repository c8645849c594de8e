"""Training objectives: teacher-forced likelihood and REINFORCE surrogates.

Both policy-gradient estimators are built as surrogate scalars whose backward
pass produces the estimator: one dot product of the sampled log-probs with a
constant coefficient vector, so no gradient ever flows through the rewards.
The time-distributed variant weights each step's log-prob by its normalized
discounted return; the final-reward variant weights every step of a sample by
that sample's normalized total reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .decoding import SampleBatch
from .errors import ConfigError, check_field_types
from .rewards import (MovingStats, discounted_returns, normalize_final,
                      normalize_timewise, step_rewards, total_reward)

MODES = ("final_reward", "time_reward")
NORMALIZATIONS = ("across_samples", "timewise", "none")


@dataclass(frozen=True)
class RlConfig:
    """Reward mode, discount, sample count and mixing weight.

    final_reward pairs with across_samples normalization and time_reward with
    timewise normalization; "none" is allowed for either (used by the
    estimator oracles, which need the raw unbiased form).
    """

    mode: str = "time_reward"
    gamma: float = 0.95
    num_samples: int = 15
    rl_weight: float = 1.0
    normalization: str = "timewise"

    def __post_init__(self):
        check_field_types(self)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}")
        if self.mode == "final_reward" and self.normalization == "timewise":
            raise ConfigError("final_reward mode pairs with across_samples normalization")
        if self.mode == "time_reward" and self.normalization == "across_samples":
            raise ConfigError("time_reward mode pairs with timewise normalization")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be at least 1, got {self.num_samples}")
        if self.mode == "final_reward" and self.normalization == "across_samples" \
                and self.num_samples < 2:
            raise ConfigError("across_samples normalization needs at least 2 samples")
        if self.rl_weight < 0.0:
            raise ConfigError(f"rl_weight must be non-negative, got {self.rl_weight}")


def mle_loss(step_log_probs: Tensor, transcript) -> Tensor:
    """Negative sum of the teacher-forced step log-prob vector (eos included)."""
    transcript = list(transcript)
    if step_log_probs.shape != (len(transcript),):
        raise ValueError(f"got log-probs of shape {step_log_probs.shape} for a "
                         f"transcript of length {len(transcript)}")
    return ad.scale(ad.sum_all(step_log_probs), -1.0)


def _weighted_sum(batch: SampleBatch, coeffs) -> Tensor:
    """(1/M) sum over the sampled steps of coefficient times log-prob, as one
    dot product; ``coeffs`` holds one sequence per sample, one entry per step."""
    weights = ad.constant(np.concatenate([np.asarray(c, dtype=np.float64) for c in coeffs]))
    return ad.scale(ad.matmul(batch.log_probs, weights), 1.0 / len(batch.samples))


def reinforce_time_gradient(batch: SampleBatch, ref, gamma: float,
                            stats: MovingStats | None,
                            normalize: bool = True) -> tuple[Tensor, list[int]]:
    """Surrogate (1/M) sum_m sum_t R~[t] * log P(y_t) for one utterance.

    Returns for the eos step carry no reward of their own (nothing follows
    it), so its raw return is zero; normalization still gives that step a
    learning signal. Returns the surrogate and each sample's total reward.
    ``stats`` is EMA-updated in place when normalizing.
    """
    if batch.log_probs.node is None:
        raise ValueError("sample batch was decoded without gradient recording")
    ref = list(ref)
    raw_returns: list[list[float]] = []
    totals: list[int] = []
    for hyp in batch.samples:
        if hyp.graphemes:
            rewards = step_rewards(hyp.graphemes, ref)
            returns = discounted_returns(rewards, gamma)
            totals.append(sum(rewards))
        else:
            returns = []
            totals.append(total_reward((), ref))
        # the eos step has a coefficient slot of its own
        raw_returns.append(returns + ([] if hyp.truncated else [0.0]))
    if normalize:
        if stats is None:
            raise ValueError("timewise normalization requires MovingStats")
        coeffs = normalize_timewise(raw_returns, stats)
    else:
        coeffs = raw_returns
    return _weighted_sum(batch, coeffs), totals


def reinforce_final_gradient(batch: SampleBatch, ref,
                             normalize: bool = True) -> tuple[Tensor, list[int]]:
    """Surrogate (1/M) sum_m R~_m * log P(y_m) for one utterance.

    The total reward telescopes to |ref| - edit_distance(y_m, ref) and is
    normalized across the M samples. Returns the surrogate and the raw totals.
    """
    if batch.log_probs.node is None:
        raise ValueError("sample batch was decoded without gradient recording")
    ref = list(ref)
    totals = [total_reward(hyp.graphemes, ref) for hyp in batch.samples]
    if normalize:
        if len(batch.samples) < 2:
            raise ValueError("across-sample normalization needs at least 2 samples")
        coeffs = normalize_final(totals)
    else:
        coeffs = [float(t) for t in totals]
    return _weighted_sum(batch, [[c] * len(hyp.step_log_probs)
                                 for hyp, c in zip(batch.samples, coeffs)]), totals


def rl_surrogate(batch: SampleBatch, ref, rl_config: RlConfig,
                 stats: MovingStats | None) -> tuple[Tensor, list[int]]:
    """Dispatch to the configured estimator."""
    if rl_config.mode == "time_reward":
        return reinforce_time_gradient(batch, ref, rl_config.gamma, stats,
                                       normalize=rl_config.normalization == "timewise")
    return reinforce_final_gradient(batch, ref,
                                    normalize=rl_config.normalization == "across_samples")


def combined_loss(mle: Tensor, surrogate: Tensor, rl_weight: float) -> Tensor:
    """MLE loss plus rl_weight times the negated RL surrogate.

    Minimizing this descends the likelihood loss while ascending the expected
    reward. With rl_weight=0 the gradient is bitwise the pure MLE gradient.
    """
    return ad.add(mle, ad.scale(surrogate, -float(rl_weight)))
