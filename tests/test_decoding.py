"""Sampling, greedy, and beam search behavior."""

import itertools

import numpy as np
import pytest

from seqrl import autodiff as ad
from seqrl.decoding import (Hypothesis, SampleBatch, _rollout, beam_search, forced_decode,
                            greedy_decode, sample_sequences)
from seqrl.model import (ModelConfig, decode_step, encode, init_params,
                         initial_decoder_state, param_shapes, sequence_log_prob)
from seqrl.oracles import finite_difference, l2_rel_error

from test_model import zero_params


def small_config(vocab=4):
    return ModelConfig(vocab_size=vocab, feature_dim=3, enc_hidden=2, enc_layers=1,
                       subsample_layers=0, embed_dim=2, dec_hidden=3, mlp_hidden=2)


def random_feats(seed, frames=5, width=3):
    return np.random.default_rng([seed, 17]).normal(size=(frames, width))


def test_sampling_reproducible_for_a_seed(tiny_model):
    config, params = tiny_model
    feats = random_feats(1)
    a = sample_sequences(feats, params, config, num_samples=4, max_len=6, rng=42)
    b = sample_sequences(feats, params, config, num_samples=4, max_len=6, rng=42)
    assert a.samples == b.samples
    assert a.seeds == b.seeds == ((0,), (1,), (2,), (3,))


def test_sampling_prefix_stable_across_batch_sizes(tiny_model):
    # sample m only depends on (root seed, m), not on how many samples are drawn
    config, params = tiny_model
    feats = random_feats(2)
    big = sample_sequences(feats, params, config, num_samples=5, max_len=6, rng=7)
    small = sample_sequences(feats, params, config, num_samples=3, max_len=6, rng=7)
    assert big.samples[:3] == small.samples


def test_sampling_validates_arguments(tiny_model):
    config, params = tiny_model
    feats = random_feats(3)
    with pytest.raises(ValueError, match="num_samples"):
        sample_sequences(feats, params, config, num_samples=0, max_len=4, rng=0)
    with pytest.raises(ValueError, match="max_len"):
        sample_sequences(feats, params, config, num_samples=1, max_len=0, rng=0)
    with pytest.raises(ValueError):
        SampleBatch(utterance_index=0, samples=(), seeds=())


def test_hypothesis_bookkeeping_invariants(tiny_model):
    config, params = tiny_model
    feats = random_feats(4)
    batch = sample_sequences(feats, params, config, num_samples=16, max_len=5, rng=11)
    for hyp in batch.samples:
        expected_steps = len(hyp.graphemes) + (0 if hyp.truncated else 1)
        assert len(hyp.step_log_probs) == expected_steps
        assert hyp.total_log_prob == sum(hyp.step_log_probs)
        assert hyp.normalized_score == hyp.total_log_prob / (len(hyp.graphemes) + 1)
        if hyp.truncated:
            assert len(hyp.graphemes) == 5
        else:
            assert len(hyp.graphemes) <= 4
        assert config.eos_id not in hyp.graphemes


def test_eos_dominant_model_yields_empty_hypothesis():
    config = small_config()
    params = zero_params(config)
    params["dec.out.b"].data[config.eos_id] = 50.0
    feats = np.zeros((3, 3))
    for hyp in (greedy_decode(feats, params, config),
                sample_sequences(feats, params, config, 3, 6, rng=0).samples[0],
                beam_search(feats, params, config, beam=2)):
        assert hyp.graphemes == ()
        assert not hyp.truncated
        assert len(hyp.step_log_probs) == 1
        assert hyp.normalized_score == hyp.total_log_prob
        assert hyp.total_log_prob == pytest.approx(0.0, abs=1e-12)


def test_eos_starved_model_truncates():
    config = small_config()
    params = zero_params(config)
    params["dec.out.b"].data[config.eos_id] = -50.0
    hyp = greedy_decode(np.zeros((3, 3)), params, config, max_len=4)
    assert hyp.truncated
    assert len(hyp.graphemes) == 4
    assert len(hyp.step_log_probs) == 4


def test_sampling_matches_prescribed_first_step_distribution():
    # with zero weights the output bias is the whole logit, so the first-step
    # law is known exactly; empirical counts must sit within 3 sigma
    config = small_config(vocab=3)
    params = zero_params(config)
    target = np.array([0.5, 0.3, 0.2])
    params["dec.out.b"].data[:] = np.log(target)
    feats = np.zeros((2, 3))
    n = 1000
    batch = sample_sequences(feats, params, config, num_samples=n, max_len=1, rng=123)
    first = [hyp.graphemes[0] if hyp.graphemes else config.eos_id
             for hyp in batch.samples]
    counts = np.bincount(first, minlength=3)
    assert counts.sum() == n
    for y in range(3):
        sigma = np.sqrt(n * target[y] * (1 - target[y]))
        assert abs(counts[y] - n * target[y]) <= 3 * sigma


def test_forced_decode_matches_training_scorer(tiny_model):
    config, params = tiny_model
    feats = random_feats(5)
    hyp = forced_decode(feats, params, config, [0, 2], terminated=True)
    total, per_step = sequence_log_prob(feats, [0, 2, config.eos_id], params, config)
    assert hyp.graphemes == (0, 2)
    assert not hyp.truncated
    assert hyp.step_log_probs == tuple(s.item() for s in per_step)
    assert hyp.total_log_prob == total.item()


def test_forced_decode_truncated_form(tiny_model):
    config, params = tiny_model
    feats = random_feats(6)
    hyp = forced_decode(feats, params, config, [1, 1, 0], terminated=False)
    assert hyp.truncated
    assert len(hyp.step_log_probs) == 3
    with pytest.raises(ValueError, match="emission"):
        forced_decode(feats, params, config, [], terminated=False)


def test_forced_decode_rejects_bad_symbol_ids(tiny_model):
    config, params = tiny_model
    feats = random_feats(6)
    for bad in (-1, config.vocab_size):
        with pytest.raises(IndexError, match="out of range"):
            forced_decode(feats, params, config, [0, bad], terminated=True)


def test_sampled_log_probs_stay_differentiable(tiny_model):
    config, params = tiny_model
    feats = random_feats(7)
    batch = sample_sequences(feats, params, config, num_samples=2, max_len=4, rng=3)
    hyp = batch.samples[0]
    assert hyp.lp_nodes is not None
    assert all(node.node is not None for node in hyp.lp_nodes)
    ad.backward(ad.add_n(list(hyp.lp_nodes)))
    assert any(np.any(p.grad != 0) for p in params.values())


def test_greedy_runs_without_recording(tiny_model):
    config, params = tiny_model
    hyp = greedy_decode(random_feats(8), params, config)
    assert all(node.node is None for node in hyp.lp_nodes)


@pytest.mark.parametrize("seed", range(25))
def test_beam_one_is_greedy(seed):
    config = small_config()
    params = init_params(config, seed, scale=0.8)
    feats = random_feats(seed + 100, frames=4)
    greedy = greedy_decode(feats, params, config, max_len=6)
    beam = beam_search(feats, params, config, beam=1, max_len=6)
    assert beam.graphemes == greedy.graphemes
    assert beam.total_log_prob == pytest.approx(greedy.total_log_prob, rel=1e-12)
    assert beam.truncated == greedy.truncated


@pytest.mark.parametrize("seed", range(10))
def test_wider_beam_never_scores_worse(seed):
    config = small_config()
    params = init_params(config, seed + 50, scale=0.8)
    feats = random_feats(seed + 200, frames=4)
    greedy = greedy_decode(feats, params, config, max_len=6)
    beam = beam_search(feats, params, config, beam=5, max_len=6)
    assert beam.normalized_score >= greedy.normalized_score - 1e-12


def test_exhaustive_search_agrees_with_wide_beam():
    config = small_config(vocab=3)
    params = init_params(config, 4, scale=0.9)
    feats = random_feats(300, frames=3)
    max_len = 3
    enc = encode(feats, params, config)
    candidates = []
    for length in range(max_len):
        for combo in itertools.product(range(config.eos_id), repeat=length):
            candidates.append(forced_decode(feats, params, config, combo,
                                            terminated=True, enc=enc))
    for combo in itertools.product(range(config.eos_id), repeat=max_len):
        candidates.append(forced_decode(feats, params, config, combo,
                                        terminated=False, enc=enc))
    best = sorted(candidates, key=lambda h: (-h.normalized_score, h.graphemes))[0]
    # a beam wider than the whole expansion pool is an exhaustive search
    found = beam_search(feats, params, config, beam=32, max_len=max_len)
    assert found.graphemes == best.graphemes
    assert found.normalized_score == pytest.approx(best.normalized_score, rel=1e-12)


def test_beam_rejects_bad_width(tiny_model):
    config, params = tiny_model
    with pytest.raises(ValueError, match="beam"):
        beam_search(random_feats(9), params, config, beam=0)


# ---------------------------------------------------------------------------
# the row-batched rollout against the taped single-step reference


def scorer_config(scorer):
    return ModelConfig(vocab_size=4, feature_dim=3, enc_hidden=2, enc_layers=2,
                       subsample_layers=1, embed_dim=3, dec_hidden=4,
                       scorer=scorer, mlp_hidden=3)


def stepwise_log_probs(feats, symbols, params, config):
    """Per-step log-probs of a symbol sequence from a loop over decode_step."""
    with ad.no_grad():
        enc = encode(feats, params, config)
        state = initial_decoder_state(config)
        prev = config.sos_id
        out = []
        for y in symbols:
            log_probs, state = decode_step(prev, state, enc, params, config)
            out.append(float(log_probs.data[y]))
            prev = y
    return tuple(out)


@pytest.mark.parametrize("scorer", ["dot", "bilinear", "mlp"])
def test_rollouts_match_decode_step_bitwise(scorer):
    config = scorer_config(scorer)
    eos = config.eos_id
    for seed in range(4):
        params = init_params(config, seed, scale=1.0)
        feats = random_feats(seed + 400, frames=6)
        batch = sample_sequences(feats, params, config, num_samples=9, max_len=5,
                                 rng=seed)
        for hyp in batch.samples:
            symbols = hyp.graphemes + (() if hyp.truncated else (eos,))
            assert hyp.step_log_probs == stepwise_log_probs(feats, symbols, params, config)
        greedy = greedy_decode(feats, params, config, max_len=5)
        symbols = greedy.graphemes + (() if greedy.truncated else (eos,))
        assert greedy.step_log_probs == stepwise_log_probs(feats, symbols, params, config)
        for graphemes, terminated in (((0, 2, 1), True), ((1, 1), False), ((), True)):
            forced = forced_decode(feats, params, config, graphemes, terminated=terminated)
            symbols = graphemes + ((eos,) if terminated else ())
            assert forced.step_log_probs == stepwise_log_probs(feats, symbols, params, config)


@pytest.mark.parametrize("scorer", ["dot", "bilinear", "mlp"])
def test_sample_m_independent_of_num_samples(scorer):
    config = scorer_config(scorer)
    params = init_params(config, 3, scale=1.0)
    feats = random_feats(500, frames=7)
    batches = {n: sample_sequences(feats, params, config, num_samples=n, max_len=6, rng=21)
               for n in (1, 3, 16, 17)}
    for n, batch in batches.items():
        for m, hyp in enumerate(batch.samples):
            assert hyp == batches[17].samples[m], (n, m)
            assert hyp.step_log_probs == batches[17].samples[m].step_log_probs
            assert batch.seeds[m] == (m,)


@pytest.mark.parametrize("scorer", ["dot", "bilinear", "mlp"])
def test_rollout_gradient_matches_finite_differences(scorer):
    # rows end at different steps and one is cut at max_len; every picked
    # log-prob gets its own random coefficient
    config = scorer_config(scorer)
    params = init_params(config, 8, scale=1.0)
    feats = random_feats(600, frames=6)
    eos = config.eos_id
    rows = [(0, 1, eos), (2, eos), (eos,), (1, 0, 2, 1), (0, 0, 1, eos)]
    max_len = 4
    coeffs = np.random.default_rng(9).normal(size=(len(rows), max_len))

    def choose(_log_probs, live, step):
        return [rows[r][step] for r in live.tolist()]

    def objective():
        enc = encode(feats, params, config)
        hyps = _rollout(enc, params, config, max_len, len(rows), choose)
        assert [h.truncated for h in hyps] == [False, False, False, True, False]
        terms = [ad.scale(node, float(coeffs[r, t]))
                 for r, hyp in enumerate(hyps) for t, node in enumerate(hyp.lp_nodes)]
        return ad.add_n(terms)

    for p in params.values():
        p.zero_grad()
    ad.backward(objective())
    analytic = {name: p.grad.copy() for name, p in params.items()}

    def value():
        with ad.no_grad():
            return objective().item()

    for name, p in params.items():
        numeric = finite_difference(value, [p])[0]
        assert l2_rel_error(analytic[name], numeric) <= 1e-6, name
