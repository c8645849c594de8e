"""Independent verification machinery: finite differences and enumeration.

These routines only drive the public forward/sampling interfaces, so they
stay independent of the backward rules and estimators they check. The test
suite and the CLI's oracle-check command both run through here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .decoding import SampleBatch, forced_decode, sample_sequences
from .model import ModelConfig, init_params, sequence_log_prob
from .objectives import RlConfig, mle_loss, rl_surrogate
from .rewards import edit_distance, step_rewards


def _scalar(value) -> float:
    if isinstance(value, Tensor):
        return value.item()
    return float(value)


def finite_difference(f, tensors: list[Tensor], h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of the scalar function f().

    f must recompute the forward pass from the tensors' current data (it may
    return a float or a 0-D tensor); each entry is perturbed in place by +-h
    and restored.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = _scalar(f())
            flat[i] = orig - h
            f_minus = _scalar(f())
            flat[i] = orig
            gf[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def l2_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    """||a - n|| / max(||a||, floor), the whole-tensor relative error.

    Central differences carry ~1e-11 absolute noise at h=1e-5 in 64-bit
    floats, so per-component ratios are meaningless for components below
    ~1e-5; the aggregate compares against the parameter's full gradient.
    """
    denom = max(float(np.linalg.norm(analytic)), floor)
    return float(np.linalg.norm(analytic - numeric)) / denom


@dataclass(frozen=True)
class TinyTask:
    """A fixed small model plus one utterance, shared by the oracle checks."""

    config: ModelConfig
    params: dict[str, Tensor]
    features: np.ndarray
    reference: tuple[int, ...]
    max_len: int


def make_tiny_task(seed: int = 2024, num_graphemes: int = 2, frames: int = 4,
                   max_len: int = 3, init_scale: float = 0.5,
                   ref_len: int = 2) -> TinyTask:
    """Small enough to enumerate every trajectory, big enough to be generic.

    The default mild init keeps the policy spread out (good for sampling
    checks); gradient checks pass a wider scale so every parameter's
    gradient sits clear of the finite-difference noise floor.
    """
    config = ModelConfig(vocab_size=num_graphemes + 1, feature_dim=3, enc_hidden=3,
                         enc_layers=1, subsample_layers=0, embed_dim=3,
                         dec_hidden=4, mlp_hidden=3)
    params = init_params(config, seed, scale=init_scale)
    rng = np.random.default_rng([seed, 7])
    features = rng.normal(0.0, 1.0, size=(frames, config.feature_dim))
    reference = tuple(int(v) for v in rng.integers(0, num_graphemes, size=ref_len))
    return TinyTask(config=config, params=params, features=features,
                    reference=reference, max_len=max_len)


def gradient_check_task() -> TinyTask:
    """The tiny task used for whole-model gradient verification.

    Seed and scale chosen so the smallest per-parameter gradient norm is
    ~1e-3, two orders above the h=1e-5 finite-difference noise.
    """
    return make_tiny_task(seed=101, frames=6, init_scale=1.2, ref_len=3)


def mle_gradient_report(config: ModelConfig, params: dict[str, Tensor],
                        features: np.ndarray, transcript, h: float = 1e-5) -> dict[str, float]:
    """Per-parameter max relative error of backward vs central differences."""
    target = list(transcript) + [config.eos_id]

    def loss_value() -> float:
        with ad.no_grad():
            total, _ = sequence_log_prob(features, target, params, config)
        return -total.item()

    for p in params.values():
        p.zero_grad()
    total, per_step = sequence_log_prob(features, target, params, config)
    ad.backward(mle_loss(per_step, target))

    report = {}
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = finite_difference(loss_value, [p], h=h)[0]
        report[name] = l2_rel_error(analytic, numeric)
        p.zero_grad()
    return report


def enumerate_emissions(num_graphemes: int, max_len: int):
    """All full decoding trajectories: eos-terminated up to max_len-1
    graphemes, plus truncated sequences of exactly max_len graphemes."""
    out = []
    for length in range(0, max_len):
        for combo in itertools.product(range(num_graphemes), repeat=length):
            out.append((combo, True))
    for combo in itertools.product(range(num_graphemes), repeat=max_len):
        out.append((combo, False))
    return out


def _collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for n, p in params.items()}


def _zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()


def expected_estimator_gradient(task: TinyTask, mode: str,
                                gamma: float = 1.0) -> dict[str, np.ndarray]:
    """Exact expectation of an unnormalized estimator by full enumeration.

    Sums probability-weighted per-trajectory estimator values over every
    possible decoding trajectory of the tiny task.
    """
    config, params = task.config, task.params
    rl_config = RlConfig(mode=mode, gamma=gamma, num_samples=1, normalization="none")
    num_graphemes = config.vocab_size - 1
    _zero_grads(params)
    total_prob = 0.0
    for graphemes, terminated in enumerate_emissions(num_graphemes, task.max_len):
        hyp, log_probs = forced_decode(task.features, params, config, graphemes, terminated)
        prob = float(np.exp(hyp.total_log_prob))
        total_prob += prob
        batch = SampleBatch(samples=(hyp,), seeds=((0,),), log_probs=log_probs)
        coeffs, _ = rl_surrogate(batch, task.reference, rl_config, None)
        ad.backward(ad.matmul(log_probs, ad.constant(prob * coeffs)))
    if abs(total_prob - 1.0) > 1e-9:
        raise AssertionError(f"trajectory probabilities sum to {total_prob}, not 1")
    grads = _collect_grads(params)
    _zero_grads(params)
    return grads


def causality_gap(task: TinyTask) -> float:
    """Max component difference between the enumerated expectations of the
    time-distributed estimator (gamma=1, no normalization) and the
    final-reward estimator (no normalization)."""
    time_grad = expected_estimator_gradient(task, "time_reward", gamma=1.0)
    final_grad = expected_estimator_gradient(task, "final_reward")
    return max(float(np.max(np.abs(time_grad[n] - final_grad[n]))) for n in time_grad)


@dataclass
class MonteCarloStats:
    """Running per-component mean and standard error across batches."""

    count: int
    mean: dict[str, np.ndarray]
    stderr: dict[str, np.ndarray]


def monte_carlo_global_gradient(task: TinyTask, num_batches: int,
                                num_samples: int, seed: int) -> MonteCarloStats:
    """Sample-based estimates of the final-reward estimator, batch by batch."""
    config, params = task.config, task.params
    rl_config = RlConfig(mode="final_reward", num_samples=num_samples, normalization="none")
    _zero_grads(params)
    sums: dict[str, np.ndarray] | None = None
    sq_sums: dict[str, np.ndarray] | None = None
    for b in range(num_batches):
        batch = sample_sequences(task.features, params, config, num_samples,
                                 task.max_len, np.random.SeedSequence([seed, b]))
        coeffs, _ = rl_surrogate(batch, task.reference, rl_config, None)
        ad.backward(ad.matmul(batch.log_probs, ad.constant(coeffs)))
        grads = _collect_grads(params)
        _zero_grads(params)
        if sums is None:
            sums = grads
            sq_sums = {n: g * g for n, g in grads.items()}
        else:
            for n, g in grads.items():
                sums[n] += g
                sq_sums[n] += g * g
    n = float(num_batches)
    mean = {k: v / n for k, v in sums.items()}
    stderr = {}
    for k in sums:
        var = np.maximum(sq_sums[k] / n - mean[k] * mean[k], 0.0)
        stderr[k] = np.sqrt(var / n)
    return MonteCarloStats(count=num_batches, mean=mean, stderr=stderr)


def telescoping_mismatches(num_pairs: int = 1000, seed: int = 5,
                           num_symbols: int = 8, max_len: int = 20) -> int:
    """Count fuzzed pairs where summed step rewards miss |ref| - ED(hyp, ref).

    Pure integer comparison; any nonzero count is a defect.
    """
    rng = np.random.default_rng([seed, 9])
    bad = 0
    for _ in range(num_pairs):
        hyp = [int(v) for v in rng.integers(0, num_symbols, size=int(rng.integers(1, max_len + 1)))]
        ref = [int(v) for v in rng.integers(0, num_symbols, size=int(rng.integers(1, max_len + 1)))]
        if sum(step_rewards(hyp, ref)) != len(ref) - edit_distance(hyp, ref):
            bad += 1
    return bad


@dataclass(frozen=True)
class UnbiasednessReport:
    """Z-scores of the Monte Carlo mean against the enumerated expectation."""

    num_batches: int
    num_components: int
    max_z: float
    frac_within_3se: float


def unbiasedness_report(task: TinyTask, num_batches: int, num_samples: int,
                        seed: int) -> UnbiasednessReport:
    exact = expected_estimator_gradient(task, "final_reward")
    mc = monte_carlo_global_gradient(task, num_batches, num_samples, seed)
    zs = []
    for name in sorted(exact):
        diff = np.abs(mc.mean[name] - exact[name])
        se = mc.stderr[name]
        # zero spread demands exact agreement; anything else is infinitely off
        z = np.where(se > 0.0, diff / np.where(se > 0.0, se, 1.0),
                     np.where(diff == 0.0, 0.0, np.inf))
        zs.append(z.reshape(-1))
    z = np.concatenate(zs)
    return UnbiasednessReport(num_batches=num_batches,
                              num_components=int(z.shape[0]),
                              max_z=float(np.max(z)),
                              frac_within_3se=float(np.mean(z <= 3.0)))
