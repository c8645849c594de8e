"""Training objectives: teacher-forced likelihood and REINFORCE coefficients.

Both policy-gradient estimators are coefficient vectors computed off the
tape, one entry per sampled step: a loss that is their dot product with the
sampled log-probs has the estimator as its gradient, and no gradient ever
flows through the rewards. The time-distributed variant weights each step's
log-prob by its normalized discounted return; the final-reward variant
weights every step of a sample by that sample's normalized total reward.
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


def rl_surrogate(batch: SampleBatch, ref, rl_config: RlConfig,
                 stats: MovingStats | None) -> tuple[np.ndarray, list[int]]:
    """REINFORCE coefficients of one utterance's samples, and their totals.

    Returns one coefficient per sampled step, sample after sample, and each
    sample's total reward. The configured estimator's surrogate is the dot
    product of the coefficients with the sampled steps' log-probs: time_reward
    weights each step by its discounted return, final_reward every step of a
    sample by its total reward, each normalized as configured and times 1/M.
    The eos step earns no reward of its own (nothing follows it), so its raw
    return is zero; timewise normalization still gives it a learning signal.
    ``stats`` is EMA-updated in place by timewise normalization.
    """
    if batch.log_probs.node is None:
        raise ValueError("sample batch was decoded without gradient recording")
    ref = list(ref)
    if rl_config.mode == "time_reward":
        per_step: list = []
        totals: list[int] = []
        for hyp in batch.samples:
            if hyp.graphemes:
                rewards = step_rewards(hyp.graphemes, ref)
                returns = discounted_returns(rewards, rl_config.gamma)
                totals.append(sum(rewards))
            else:
                returns = []
                totals.append(total_reward((), ref))
            # the eos step has a coefficient slot of its own
            per_step.append(returns + ([] if hyp.truncated else [0.0]))
        if rl_config.normalization == "timewise":
            if stats is None:
                raise ValueError("timewise normalization requires MovingStats")
            per_step = normalize_timewise(per_step, stats)
    else:
        totals = [total_reward(hyp.graphemes, ref) for hyp in batch.samples]
        per_sample = (normalize_final(totals) if rl_config.normalization == "across_samples"
                      else totals)
        per_step = [[float(c)] * len(hyp.step_log_probs)
                    for hyp, c in zip(batch.samples, per_sample)]
    coeffs = np.concatenate([np.asarray(c, dtype=np.float64) for c in per_step])
    return coeffs * (1.0 / len(batch.samples)), totals
