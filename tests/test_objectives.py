"""Likelihood and policy-gradient surrogate construction."""

import numpy as np
import pytest

from seqrl import autodiff as ad
from seqrl.data import Utterance
from seqrl.decoding import Hypothesis, SampleBatch, _finish, sample_sequences
from seqrl.errors import ConfigError
from seqrl.model import _rollout, encode, sequence_log_prob
from seqrl.objectives import RlConfig, rl_surrogate
from seqrl.rewards import MovingStats, discounted_returns, step_rewards, total_reward
from seqrl.training import _teacher_forced_loss

from test_decoding import random_feats


def grads_snapshot(params):
    return {name: p.grad.copy() for name, p in params.items()}


def zero_grads(params):
    for p in params.values():
        p.zero_grad()


def forced_batch(feats, params, config, combos):
    """A sample batch of the given grapheme sequences, each ended by eos and
    forced as one row of a single rollout."""
    rows = [tuple(c) + (config.eos_id,) for c in combos]
    enc = encode([feats], params, config)[0]
    out, log_probs = _rollout(enc, params, config, [len(r) for r in rows],
                              lambda _lp, live, step: [rows[r][step] for r in live.tolist()])
    return SampleBatch(samples=tuple(_finish(*row) for row in out),
                       seeds=tuple((m,) for m in range(len(rows))), log_probs=log_probs)


def test_rl_config_validation():
    RlConfig()  # defaults are coherent
    RlConfig(mode="final_reward", normalization="across_samples")
    RlConfig(mode="final_reward", normalization="none", num_samples=1)
    RlConfig(mode="time_reward", normalization="none")
    with pytest.raises(ConfigError, match="mode"):
        RlConfig(mode="bleu")
    with pytest.raises(ConfigError, match="normalization"):
        RlConfig(normalization="layerwise")
    with pytest.raises(ConfigError, match="pairs"):
        RlConfig(mode="final_reward", normalization="timewise")
    with pytest.raises(ConfigError, match="pairs"):
        RlConfig(mode="time_reward", normalization="across_samples")
    with pytest.raises(ConfigError, match="gamma"):
        RlConfig(gamma=1.5)
    with pytest.raises(ConfigError, match="num_samples"):
        RlConfig(num_samples=0)
    with pytest.raises(ConfigError, match="2 samples"):
        RlConfig(mode="final_reward", normalization="across_samples", num_samples=1)
    with pytest.raises(ConfigError, match="rl_weight"):
        RlConfig(rl_weight=-0.1)


def test_mle_loss_is_negative_total_log_prob(tiny_model):
    config, params = tiny_model
    feats = random_feats(20)
    transcript = [0, 1, config.eos_id]
    total, _ = sequence_log_prob(feats, transcript, params, config)
    # the utterance loss that teacher-forced training differentiates
    utt = Utterance(uid="u0", features=feats, transcript=tuple(transcript[:-1]))
    loss, _ = _teacher_forced_loss(params, config)(utt, 0, 1, encode([feats], params, config)[0])
    assert loss.item() == -total.item()
    assert loss.item() > 0.0


def test_mle_loss_gradient_negates_log_prob_gradient(tiny_model):
    config, params = tiny_model
    feats = random_feats(21)
    transcript = [2, 0, config.eos_id]
    total, _ = sequence_log_prob(feats, transcript, params, config)
    ad.backward(total)
    g_lp = grads_snapshot(params)
    zero_grads(params)
    total, _ = sequence_log_prob(feats, transcript, params, config)
    ad.backward(ad.scale(total, -1.0))
    g_loss = grads_snapshot(params)
    for name in g_lp:
        np.testing.assert_array_equal(g_loss[name], -g_lp[name])


TIME_RAW = RlConfig(mode="time_reward", gamma=0.9, normalization="none")
FINAL_RAW = RlConfig(mode="final_reward", normalization="none")
FINAL_NORMALIZED = RlConfig(mode="final_reward", normalization="across_samples")


def surrogate(batch, coeffs):
    """The estimator's surrogate: the coefficients dotted with the sampled log-probs."""
    return ad.matmul(batch.log_probs, ad.constant(coeffs))


def test_unrecorded_batch_is_rejected():
    hyp = Hypothesis(graphemes=(0,), step_log_probs=(-1.0, -0.5),
                     total_log_prob=-1.5, normalized_score=-0.75)
    batch = SampleBatch(samples=(hyp,), seeds=((0,),),
                        log_probs=ad.constant([-1.0, -0.5]))
    with pytest.raises(ValueError, match="gradient recording"):
        rl_surrogate(batch, [0, 1], RlConfig(gamma=0.9), MovingStats())
    # checked before the across-sample normalization's two-sample minimum
    with pytest.raises(ValueError, match="gradient recording"):
        rl_surrogate(batch, [0, 1], FINAL_NORMALIZED, None)


def test_batch_sampled_without_recording_is_rejected_before_stats_change(tiny_model):
    config, params = tiny_model
    feats = random_feats(31)
    stats = MovingStats()
    recorded = sample_sequences(feats, params, config, num_samples=3, max_len=4, rng=5)
    rl_surrogate(recorded, [0, 1], RlConfig(gamma=0.9, num_samples=3), stats)
    mu, sigma = stats.mu.copy(), stats.sigma.copy()
    with ad.no_grad():
        batch = sample_sequences(feats, params, config, num_samples=3, max_len=4, rng=5)
    assert batch.samples == recorded.samples
    for rl_config in (RlConfig(num_samples=3),
                      RlConfig(mode="final_reward", normalization="across_samples",
                               num_samples=3)):
        with pytest.raises(ValueError, match="gradient recording"):
            rl_surrogate(batch, [0, 1], rl_config, stats)
    np.testing.assert_array_equal(stats.mu, mu)
    np.testing.assert_array_equal(stats.sigma, sigma)


def test_time_surrogate_weights_steps_by_returns(tiny_model):
    config, params = tiny_model
    feats = random_feats(22)
    ref = [0, 2]
    batch = forced_batch(feats, params, config, [(0, 1)])
    coeffs, totals = rl_surrogate(batch, ref, RlConfig(gamma=0.5, normalization="none"), None)
    hyp = batch.samples[0]
    returns = discounted_returns(step_rewards(hyp.graphemes, ref), 0.5)
    # the eos step carries a zero return, so it drops out of the sum
    assert len(hyp.step_log_probs) == len(returns) + 1
    assert coeffs.tolist() == returns + [0.0]
    expected = sum(r * lp for r, lp in zip(returns, hyp.step_log_probs))
    assert surrogate(batch, coeffs).item() == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert totals == [sum(step_rewards(hyp.graphemes, ref))]


def test_zero_returns_give_zero_gradient(tiny_model):
    # an empty terminated hypothesis earns nothing, so unnormalized REINFORCE
    # must leave every parameter gradient identically zero
    config, params = tiny_model
    feats = random_feats(23)
    batch = forced_batch(feats, params, config, [()])
    coeffs, totals = rl_surrogate(batch, [0, 1], TIME_RAW, None)
    assert totals == [0]
    ad.backward(surrogate(batch, coeffs))
    assert all(np.all(p.grad == 0.0) for p in params.values())


def test_final_surrogate_single_sample_scales_log_prob(tiny_model):
    config, params = tiny_model
    feats = random_feats(24)
    ref = [1, 0, 2]
    batch = forced_batch(feats, params, config, [(1, 0, 2)])
    coeffs, totals = rl_surrogate(batch, ref, FINAL_RAW, None)
    reward = totals[0]
    assert reward == 3  # perfect match: |ref| - 0
    ad.backward(surrogate(batch, coeffs))
    g_rl = grads_snapshot(params)
    zero_grads(params)
    repeat = forced_batch(feats, params, config, [(1, 0, 2)])
    ad.backward(ad.sum_all(repeat.log_probs))
    g_lp = grads_snapshot(params)
    for name in g_rl:
        np.testing.assert_allclose(g_rl[name], reward * g_lp[name],
                                   rtol=1e-12, atol=1e-15)


def test_identical_samples_normalize_to_zero_gradient(tiny_model):
    config, params = tiny_model
    feats = random_feats(25)
    batch = forced_batch(feats, params, config, [(0, 1), (0, 1), (0, 1)])
    coeffs, totals = rl_surrogate(batch, [0, 1], FINAL_NORMALIZED, None)
    assert len(set(totals)) == 1
    ad.backward(surrogate(batch, coeffs))
    assert all(np.all(p.grad == 0.0) for p in params.values())


def test_normalization_preconditions(tiny_model):
    config, params = tiny_model
    feats = random_feats(26)
    batch = forced_batch(feats, params, config, [(0,)])
    with pytest.raises(ValueError, match="MovingStats"):
        rl_surrogate(batch, [0], RlConfig(gamma=0.9), None)
    with pytest.raises(ValueError, match="at least 2"):
        rl_surrogate(batch, [0], FINAL_NORMALIZED, None)


def test_time_normalization_updates_stats_in_place(tiny_model):
    config, params = tiny_model
    feats = random_feats(27)
    stats = MovingStats()
    batch = forced_batch(feats, params, config, [(0, 1, 2), (2,)])
    rl_surrogate(batch, [0, 1], RlConfig(gamma=0.9), stats)
    assert stats.mu.shape[0] == 4  # longest sample plus its eos slot
    assert np.any(stats.mu != 0.0)


def test_dispatch_honors_mode(tiny_model):
    # per sampled step, sample after sample, times 1/M: the discounted return
    # (zero on eos) in time_reward mode, the sample's total in final_reward mode
    config, params = tiny_model
    feats = random_feats(28)
    ref = [0, 1]
    batch = forced_batch(feats, params, config, [(0,), (1, 1)])
    cfg_time = RlConfig(mode="time_reward", gamma=0.7, normalization="none", num_samples=2)
    coeffs, totals = rl_surrogate(batch, ref, cfg_time, stats=None)
    returns = [discounted_returns(step_rewards(h.graphemes, ref), 0.7) + [0.0]
               for h in batch.samples]
    assert coeffs.tolist() == [r * 0.5 for rs in returns for r in rs]
    assert totals == [total_reward(h.graphemes, ref) for h in batch.samples]
    cfg_final = RlConfig(mode="final_reward", gamma=0.7, normalization="none", num_samples=2)
    coeffs_f, totals_f = rl_surrogate(batch, ref, cfg_final, stats=None)
    assert coeffs_f.tolist() == [t * 0.5 for t, h in zip(totals, batch.samples)
                                 for _ in h.step_log_probs]
    assert totals_f == totals


def tape_size(loss):
    """Nodes reachable from a loss: the graph backward replays."""
    seen = set()
    stack = [loss.node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(t.node for t in node.inputs if t.node is not None)
    return len(seen)


def test_teacher_forced_tape_does_not_grow_with_the_transcript(tiny_model):
    config, params = tiny_model
    feats = random_feats(32)
    sizes = []
    for graphemes in ([1], [0, 2, 1, 1, 0, 2, 2, 0, 1, 0, 2]):
        transcript = graphemes + [config.eos_id]
        total, _ = sequence_log_prob(feats, transcript, params, config)
        sizes.append(tape_size(ad.scale(total, -1.0)))
    assert sizes[0] == sizes[1]


def test_rl_tape_does_not_grow_with_the_sample_count(tiny_model):
    # the utterance loss of reward training: one rollout holds the
    # teacher-forced row and the samples, and one dot product weights them
    config, params = tiny_model
    feats = random_feats(33)
    transcript = [0, 2, 1]
    sizes = []
    for num_samples in (1, 15):
        rl_config = RlConfig(num_samples=num_samples)
        batch = sample_sequences(feats, params, config, num_samples, None, rng=4,
                                 transcript=transcript)
        coeffs, _ = rl_surrogate(batch, transcript, rl_config, MovingStats())
        weights = np.concatenate([np.full(batch.forced_steps, -1.0),
                                  -rl_config.rl_weight * coeffs])
        sizes.append(tape_size(ad.matmul(batch.log_probs, ad.constant(weights))))
    assert sizes[0] == sizes[1] == 3  # encoder, rollout, dot product
