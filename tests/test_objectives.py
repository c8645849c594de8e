"""Likelihood and policy-gradient surrogate construction."""

import numpy as np
import pytest

from seqrl import autodiff as ad
from seqrl.decoding import Hypothesis, SampleBatch, _finish, sample_sequences
from seqrl.errors import ConfigError
from seqrl.model import _rollout, encode, sequence_log_prob
from seqrl.objectives import (RlConfig, combined_loss, mle_loss,
                              reinforce_final_gradient, reinforce_time_gradient,
                              rl_surrogate)
from seqrl.rewards import MovingStats, discounted_returns, step_rewards

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
    out, log_probs = _rollout(enc, params, config, max(map(len, rows)), len(rows),
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
    total, per_step = sequence_log_prob(feats, transcript, params, config)
    loss = mle_loss(per_step, transcript)
    assert loss.item() == -total.item()
    assert loss.item() > 0.0
    with pytest.raises(ValueError, match="transcript"):
        mle_loss(per_step, [0, 1])


def test_mle_loss_gradient_negates_log_prob_gradient(tiny_model):
    config, params = tiny_model
    feats = random_feats(21)
    transcript = [2, 0, config.eos_id]
    total, _ = sequence_log_prob(feats, transcript, params, config)
    ad.backward(total)
    g_lp = grads_snapshot(params)
    zero_grads(params)
    _, per_step = sequence_log_prob(feats, transcript, params, config)
    ad.backward(mle_loss(per_step, transcript))
    g_loss = grads_snapshot(params)
    for name in g_lp:
        np.testing.assert_array_equal(g_loss[name], -g_lp[name])


def test_unrecorded_batch_is_rejected():
    hyp = Hypothesis(graphemes=(0,), step_log_probs=(-1.0, -0.5),
                     total_log_prob=-1.5, normalized_score=-0.75)
    batch = SampleBatch(samples=(hyp,), seeds=((0,),),
                        log_probs=ad.constant([-1.0, -0.5]))
    with pytest.raises(ValueError, match="gradient recording"):
        reinforce_time_gradient(batch, [0, 1], 0.9, MovingStats())
    with pytest.raises(ValueError, match="gradient recording"):
        reinforce_final_gradient(batch, [0, 1])


def test_batch_sampled_without_recording_is_rejected_before_stats_change(tiny_model):
    config, params = tiny_model
    feats = random_feats(31)
    stats = MovingStats()
    recorded = sample_sequences(feats, params, config, num_samples=3, max_len=4, rng=5)
    reinforce_time_gradient(recorded, [0, 1], 0.9, stats, normalize=True)
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
    surrogate, totals = reinforce_time_gradient(batch, ref, 0.5, None, normalize=False)
    hyp = batch.samples[0]
    returns = discounted_returns(step_rewards(hyp.graphemes, ref), 0.5)
    expected = sum(r * lp for r, lp in zip(returns, hyp.step_log_probs))
    # the eos step carries a zero return, so it drops out of the sum
    assert len(hyp.step_log_probs) == len(returns) + 1
    assert surrogate.item() == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert totals == [sum(step_rewards(hyp.graphemes, ref))]


def test_zero_returns_give_zero_gradient(tiny_model):
    # an empty terminated hypothesis earns nothing, so unnormalized REINFORCE
    # must leave every parameter gradient identically zero
    config, params = tiny_model
    feats = random_feats(23)
    batch = forced_batch(feats, params, config, [()])
    surrogate, totals = reinforce_time_gradient(batch, [0, 1], 0.9, None,
                                                normalize=False)
    assert totals == [0]
    ad.backward(surrogate)
    assert all(np.all(p.grad == 0.0) for p in params.values())


def test_final_surrogate_single_sample_scales_log_prob(tiny_model):
    config, params = tiny_model
    feats = random_feats(24)
    ref = [1, 0, 2]
    batch = forced_batch(feats, params, config, [(1, 0, 2)])
    surrogate, totals = reinforce_final_gradient(batch, ref, normalize=False)
    reward = totals[0]
    assert reward == 3  # perfect match: |ref| - 0
    ad.backward(surrogate)
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
    surrogate, totals = reinforce_final_gradient(batch, [0, 1], normalize=True)
    assert len(set(totals)) == 1
    ad.backward(surrogate)
    assert all(np.all(p.grad == 0.0) for p in params.values())


def test_normalization_preconditions(tiny_model):
    config, params = tiny_model
    feats = random_feats(26)
    batch = forced_batch(feats, params, config, [(0,)])
    with pytest.raises(ValueError, match="MovingStats"):
        reinforce_time_gradient(batch, [0], 0.9, None, normalize=True)
    with pytest.raises(ValueError, match="at least 2"):
        reinforce_final_gradient(batch, [0], normalize=True)


def test_time_normalization_updates_stats_in_place(tiny_model):
    config, params = tiny_model
    feats = random_feats(27)
    stats = MovingStats()
    batch = forced_batch(feats, params, config, [(0, 1, 2), (2,)])
    reinforce_time_gradient(batch, [0, 1], 0.9, stats, normalize=True)
    assert stats.mu.shape[0] == 4  # longest sample plus its eos slot
    assert np.any(stats.mu != 0.0)


def test_dispatch_honors_mode(tiny_model):
    config, params = tiny_model
    feats = random_feats(28)
    ref = [0, 1]
    batch = forced_batch(feats, params, config, [(0,), (1, 1)])
    cfg_time = RlConfig(mode="time_reward", gamma=0.7, normalization="none",
                        num_samples=2)
    direct, _ = reinforce_time_gradient(batch, ref, 0.7, None, normalize=False)
    via_dispatch, _ = rl_surrogate(batch, ref, cfg_time, stats=None)
    assert via_dispatch.item() == direct.item()
    cfg_final = RlConfig(mode="final_reward", gamma=0.7, normalization="none",
                         num_samples=2)
    direct_f, _ = reinforce_final_gradient(batch, ref, normalize=False)
    via_dispatch_f, _ = rl_surrogate(batch, ref, cfg_final, stats=None)
    assert via_dispatch_f.item() == direct_f.item()


def test_combined_loss_with_zero_weight_matches_pure_mle(tiny_model):
    config, params = tiny_model
    feats = random_feats(29)
    transcript = [0, 1, config.eos_id]
    ref = transcript[:-1]

    batch = sample_sequences(feats, params, config, num_samples=3, max_len=4, rng=9)
    _, per_step = sequence_log_prob(feats, transcript, params, config)
    surrogate, _ = reinforce_final_gradient(batch, ref, normalize=True)
    ad.backward(combined_loss(mle_loss(per_step, transcript), surrogate, 0.0))
    g_combined = grads_snapshot(params)

    zero_grads(params)
    _, per_step2 = sequence_log_prob(feats, transcript, params, config)
    ad.backward(mle_loss(per_step2, transcript))
    g_mle = grads_snapshot(params)
    for name in g_mle:
        np.testing.assert_array_equal(g_combined[name], g_mle[name])


def test_combined_loss_direction(tiny_model):
    # higher weight on the surrogate moves the loss opposite to the reward
    config, params = tiny_model
    feats = random_feats(30)
    transcript = [2, 2, config.eos_id]
    batch = forced_batch(feats, params, config, [(2, 2), (0,)])
    _, per_step = sequence_log_prob(feats, transcript, params, config)
    mle = mle_loss(per_step, transcript)
    surrogate, _ = reinforce_final_gradient(batch, [2, 2], normalize=False)
    a = combined_loss(mle, surrogate, 0.0).item()
    b = combined_loss(mle, surrogate, 2.0).item()
    assert b == pytest.approx(a - 2.0 * surrogate.item(), rel=1e-12)


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
        _, per_step = sequence_log_prob(feats, transcript, params, config)
        sizes.append(tape_size(mle_loss(per_step, transcript)))
    assert sizes[0] == sizes[1]


def test_rl_tape_does_not_grow_with_the_sample_count(tiny_model):
    # the utterance loss of reward training: one encoder pass feeds the
    # teacher-forced term and the sampled surrogate
    config, params = tiny_model
    feats = random_feats(33)
    transcript = [0, 2, 1, config.eos_id]
    sizes = []
    for num_samples in (1, 15):
        rl_config = RlConfig(num_samples=num_samples)
        enc = encode([feats], params, config)[0]
        _, per_step = sequence_log_prob(feats, transcript, params, config, enc=enc)
        batch = sample_sequences(feats, params, config, num_samples, None, rng=4, enc=enc)
        surrogate, _ = rl_surrogate(batch, transcript[:-1], rl_config, MovingStats())
        loss = combined_loss(mle_loss(per_step, transcript), surrogate, rl_config.rl_weight)
        sizes.append(tape_size(loss))
    assert sizes[0] == sizes[1]
