"""Sampling, greedy, and beam search behavior."""

import functools
import itertools
import sys

import numpy as np
import pytest

from seqrl import autodiff as ad
from seqrl import model
from seqrl.decoding import (SampleBatch, _finish, beam_search, forced_decode, greedy_decode,
                            sample_sequences)
from seqrl.model import (ModelConfig, _rollout, default_max_len, encode, init_params,
                         sequence_log_prob)
from seqrl.oracles import finite_difference, l2_rel_error

from test_model import reference_initial_state, reference_step, zero_params


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
        SampleBatch(samples=(), seeds=(), log_probs=ad.constant(np.zeros(0)))
    batch = sample_sequences(feats, params, config, num_samples=2, max_len=4, rng=0)
    with pytest.raises(ValueError, match="log_probs"):
        SampleBatch(samples=batch.samples, seeds=batch.seeds,
                    log_probs=ad.constant(batch.log_probs.data[1:]))


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
    hyp, log_probs = forced_decode(feats, params, config, [0, 2], terminated=True)
    total, per_step = sequence_log_prob(feats, [0, 2, config.eos_id], params, config)
    assert hyp.graphemes == (0, 2)
    assert not hyp.truncated
    assert hyp.step_log_probs == tuple(per_step.data.tolist())
    assert hyp.step_log_probs == tuple(log_probs.data.tolist())
    assert hyp.total_log_prob == total.item()


def test_forced_decode_truncated_form(tiny_model):
    config, params = tiny_model
    feats = random_feats(6)
    hyp, _ = forced_decode(feats, params, config, [1, 1, 0], terminated=False)
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


def test_forced_decode_rejects_eos_among_graphemes(tiny_model):
    # eos ends a sequence; as a grapheme it would score a shorter one
    config, params = tiny_model
    feats = random_feats(6)
    for terminated in (True, False):
        with pytest.raises(IndexError, match="out of range"):
            forced_decode(feats, params, config, [0, config.eos_id, 1],
                          terminated=terminated)


def test_sampled_log_probs_stay_differentiable(tiny_model):
    config, params = tiny_model
    feats = random_feats(7)
    batch = sample_sequences(feats, params, config, num_samples=2, max_len=4, rng=3)
    steps = [lp for hyp in batch.samples for lp in hyp.step_log_probs]
    assert batch.log_probs.data.tolist() == steps
    assert batch.log_probs.node is not None
    ad.backward(ad.sum_all(batch.log_probs))
    assert any(np.any(p.grad != 0) for p in params.values())


@pytest.mark.parametrize("decode", [greedy_decode, functools.partial(beam_search, beam=5)],
                         ids=["greedy", "beam5"])
def test_decoders_run_without_recording(tiny_model, decode):
    # every recorded node draws one number from the tape's creation counter
    config, params = tiny_model
    before = next(ad._COUNTER)
    decode(random_feats(8), params, config)
    assert next(ad._COUNTER) == before + 1


@pytest.mark.parametrize("max_len", [0, -1])
def test_decoders_reject_max_len_below_one(tiny_model, max_len):
    # a cap below one would return an empty truncated hypothesis of probability 1
    config, params = tiny_model
    feats = random_feats(8)
    for decode in (functools.partial(sample_sequences, num_samples=2, rng=0),
                   greedy_decode, functools.partial(beam_search, beam=3)):
        with pytest.raises(ValueError, match="max_len must be at least 1"):
            decode(feats, params, config, max_len=max_len)


def test_every_decoder_runs_decode_step_once_per_step(monkeypatch):
    # rebind every seqrl module's reference, as the benchmark's tracer does
    calls = {"decode_step": 0, "attend": 0}
    for name in calls:
        original = getattr(model, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if module is not None and mod_name.split(".")[0] == "seqrl":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)

    def steps(decode):
        calls.update(decode_step=0, attend=0)
        out = decode()
        assert calls["attend"] == calls["decode_step"]
        return calls["decode_step"], out

    config = rollout_config()
    params = init_params(config, 0, scale=1.0)
    feats = random_feats(8, frames=6)
    n, hyp = steps(lambda: greedy_decode(feats, params, config))
    assert n == len(hyp.step_log_probs) > 1
    n, batch = steps(lambda: sample_sequences(feats, params, config, num_samples=6,
                                              max_len=4, rng=0))
    assert n == max(len(h.step_log_probs) for h in batch.samples)
    assert len({len(h.step_log_probs) for h in batch.samples}) > 1
    n, (hyp, _) = steps(lambda: forced_decode(feats, params, config, [0, 1, 2]))
    assert n == len(hyp.step_log_probs) == 4
    n, _ = steps(lambda: sequence_log_prob(feats, [0, 1, config.eos_id], params, config))
    assert n == 3
    # a model that never emits eos keeps every hypothesis alive to max_len;
    # one that always does ends a beam of one after its first step
    for eos_bias, beam, expected in ((-50.0, 3, 4), (50.0, 1, 1)):
        small = small_config()
        zero = zero_params(small)
        zero["dec.out.b"].data[small.eos_id] = eos_bias
        n, _ = steps(lambda: beam_search(np.zeros((3, 3)), zero, small, beam=beam, max_len=4))
        assert n == expected


@pytest.mark.parametrize("seed", range(25))
def test_beam_one_is_greedy(seed):
    config = small_config()
    params = init_params(config, seed, scale=0.8)
    feats = random_feats(seed + 100, frames=4)
    greedy = greedy_decode(feats, params, config, max_len=6)
    beam = beam_search(feats, params, config, beam=1, max_len=6)
    assert beam == greedy
    assert beam.step_log_probs == greedy.step_log_probs


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
    enc = encode([feats], params, config)[0]
    candidates = []
    for length in range(max_len):
        for combo in itertools.product(range(config.eos_id), repeat=length):
            candidates.append(forced_decode(feats, params, config, combo,
                                            terminated=True, enc=enc)[0])
    for combo in itertools.product(range(config.eos_id), repeat=max_len):
        candidates.append(forced_decode(feats, params, config, combo,
                                        terminated=False, enc=enc)[0])
    best = sorted(candidates, key=lambda h: (-h.normalized_score, h.graphemes))[0]
    # a beam wider than the whole expansion pool is an exhaustive search
    found = beam_search(feats, params, config, beam=32, max_len=max_len)
    assert found == best
    assert found.step_log_probs == best.step_log_probs


def test_beam_rejects_bad_width(tiny_model):
    config, params = tiny_model
    with pytest.raises(ValueError, match="beam"):
        beam_search(random_feats(9), params, config, beam=0)


# ---------------------------------------------------------------------------
# the row-batched rollout against the per-step reference


def rollout_config(vocab=4):
    return ModelConfig(vocab_size=vocab, feature_dim=3, enc_hidden=2, enc_layers=2,
                       subsample_layers=1, embed_dim=3, dec_hidden=4, mlp_hidden=3)


def stepwise_log_probs(feats, symbols, params, config):
    """Per-step log-probs of a symbol sequence from a loop over reference_step."""
    with ad.no_grad():
        enc = encode([feats], params, config)[0]
        state = reference_initial_state(config)
        prev = config.sos_id
        out = []
        for y in symbols:
            log_probs, state = reference_step(prev, state, enc, params, config)
            out.append(float(log_probs[y]))
            prev = y
    return tuple(out)


def stepwise_beam_search(feats, params, config, beam, max_len=None):
    """Beam search that pools every expansion of a loop over reference_step and
    sorts the pool by (-cumulative log-prob, graphemes)."""
    with ad.no_grad():
        enc = encode([feats], params, config)[0]
        if max_len is None:
            max_len = default_max_len(enc.source_length, config)
        live = [((), (), 0.0, reference_initial_state(config), config.sos_id)]
        finished = []
        for _ in range(max_len):
            pool = []
            for graphemes, lps, cum, state, prev in live:
                log_probs, new_state = reference_step(prev, state, enc, params, config)
                for y in range(config.vocab_size):
                    lp = float(log_probs[y])
                    pool.append((cum + lp, graphemes + (y,), lps + (lp,), new_state, y))
            pool.sort(key=lambda item: (-item[0], item[1]))
            live = []
            for cum, emitted, lps, state, y in pool[:beam]:
                if y == config.eos_id:
                    finished.append(_finish(emitted[:-1], lps, False))
                else:
                    live.append((emitted, lps, cum, state, y))
            if not live:
                break
        finished += [_finish(graphemes, lps, True) for graphemes, lps, *_ in live]
    return min(finished, key=lambda hyp: (-hyp.normalized_score, hyp.graphemes))


def markov_params(config):
    """Zero weights but for a first-order chain: the output logits are
    [2, 0, 2, 2], plus tanh(1) * [2, 1, -1, -1] right after symbol 2.

    Decoder unit 0 has its input and output gates at exactly 1 and its
    forget gate at exactly 0, so it holds tanh(1) right after symbol 2 and 0
    otherwise; every other unit stays at 0.
    """
    params = zero_params(config)
    hd = config.dec_hidden
    params["dec.lstm.b"].data[[0, hd, 3 * hd]] = (40.0, -40.0, 40.0)
    params["dec.embed.w"].data[2, 0] = 1.0
    params["dec.lstm.w_ih"].data[0, 2 * hd] = 40.0
    params["dec.out.w"].data[0] = (2.0, 1.0, -1.0, -1.0)
    params["dec.out.b"].data[:] = (2.0, 0.0, 2.0, 2.0)
    return params


def test_beam_search_matches_stepwise_reference_bitwise():
    narrow, wide = rollout_config(), rollout_config(vocab=9)
    cases = [(narrow, init_params(narrow, seed, scale=1.0)) for seed in range(3)]
    # exact ties: with zero weights every expansion ties, so the tie-break
    # alone picks the survivors; in the chain, (2, 0) outscores (0, 0), so the
    # rows leave lexicographic order, and later (0, 2, 0) ties (2, 0, 0)
    cases += [(wide, zero_params(wide)), (narrow, markov_params(narrow))]
    feats = random_feats(700, frames=6)
    # with 4 symbols and max_len 3, a beam of 40 keeps every expansion
    for (config, params), beam, max_len in itertools.product(cases, (1, 2, 5, 40),
                                                             (1, 3, None)):
        found = beam_search(feats, params, config, beam=beam, max_len=max_len)
        expected = stepwise_beam_search(feats, params, config, beam, max_len)
        assert found == expected, (config.vocab_size, beam, max_len)
        assert found.step_log_probs == expected.step_log_probs


def test_rollouts_match_decode_step_bitwise():
    config = rollout_config()
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
            forced, _ = forced_decode(feats, params, config, graphemes, terminated=terminated)
            symbols = graphemes + ((eos,) if terminated else ())
            assert forced.step_log_probs == stepwise_log_probs(feats, symbols, params, config)


def test_sample_m_independent_of_num_samples():
    config = rollout_config()
    params = init_params(config, 3, scale=1.0)
    feats = random_feats(500, frames=7)
    batches = {n: sample_sequences(feats, params, config, num_samples=n, max_len=6, rng=21)
               for n in (1, 3, 16, 17)}
    for n, batch in batches.items():
        for m, hyp in enumerate(batch.samples):
            assert hyp == batches[17].samples[m], (n, m)
            assert hyp.step_log_probs == batches[17].samples[m].step_log_probs


def test_forced_row_leaves_the_samples_unchanged():
    # the forced row runs first and draws nothing: the samples, their seeds
    # and their log-probs are bitwise those drawn without it
    config = rollout_config()
    params = init_params(config, 4, scale=1.0)
    feats = random_feats(510, frames=7)
    transcript = (2, 0, 1, 1)
    plain = sample_sequences(feats, params, config, num_samples=6, max_len=6, rng=22)
    joint = sample_sequences(feats, params, config, num_samples=6, max_len=6, rng=22,
                             transcript=transcript)
    assert joint.samples == plain.samples
    assert joint.seeds == plain.seeds
    assert plain.forced_steps == 0
    assert joint.forced_steps == len(transcript) + 1
    _, per_step = sequence_log_prob(feats, transcript + (config.eos_id,), params, config)
    assert joint.log_probs.data[:joint.forced_steps].tolist() == per_step.data.tolist()
    assert joint.log_probs.data[joint.forced_steps:].tolist() == plain.log_probs.data.tolist()


def test_forced_row_runs_past_max_len(tiny_model):
    config, params = tiny_model
    feats = random_feats(511)
    eos = config.eos_id
    # samples stop at max_len, the forced row runs through all of its steps
    transcript = (0, 1, 2, 2, 1, 0, 1)
    plain = sample_sequences(feats, params, config, 8, 3, rng=23)
    joint = sample_sequences(feats, params, config, 8, 3, rng=23, transcript=transcript)
    assert joint.samples == plain.samples
    assert any(hyp.truncated for hyp in joint.samples)
    for hyp in joint.samples:
        assert len(hyp.step_log_probs) <= 3
        assert hyp.truncated == (len(hyp.graphemes) == 3)
    _, per_step = sequence_log_prob(feats, transcript + (eos,), params, config)
    assert joint.forced_steps == 8
    assert joint.log_probs.data[:8].tolist() == per_step.data.tolist()
    # the same past the default cap, 2 * 3 + 5 steps for 5 frames
    long = transcript + transcript[:5]
    assert len(long) + 1 > default_max_len(feats.shape[0], config) == 11
    batch = sample_sequences(feats, params, config, 4, None, rng=24, transcript=long)
    _, per_step = sequence_log_prob(feats, long + (eos,), params, config)
    assert batch.forced_steps == len(long) + 1
    assert batch.log_probs.data[:batch.forced_steps].tolist() == per_step.data.tolist()
    assert all(len(hyp.step_log_probs) <= 11 for hyp in batch.samples)


def test_sampling_rejects_a_bad_transcript(tiny_model):
    config, params = tiny_model
    feats = random_feats(512)
    for bad in (-1, config.eos_id):
        with pytest.raises(IndexError, match="out of range"):
            sample_sequences(feats, params, config, 2, 4, rng=0, transcript=(0, bad))
            assert batch.seeds[m] == (m,)


def test_rollout_gradient_matches_finite_differences():
    # rows end at different steps and two are cut at their step caps; every
    # picked log-prob gets its own random coefficient
    config = rollout_config()
    params = init_params(config, 8, scale=1.0)
    feats = random_feats(600, frames=6)
    eos = config.eos_id
    rows = [(0, 1, eos), (2, eos), (eos,), (1, 0, 2, 1), (0, 0, 1, eos)]
    caps = [3, 4, 4, 4, 2]
    coeffs = np.random.default_rng(9).normal(size=(len(rows), max(caps)))

    def choose(_log_probs, live, step):
        return [rows[r][step] for r in live.tolist()]

    def objective():
        enc = encode([feats], params, config)[0]
        out, log_probs = _rollout(enc, params, config, caps, choose)
        assert [truncated for _, _, truncated in out] == [False, False, False, True, True]
        weights = [coeffs[r, t] for r, (_, steps, _) in enumerate(out)
                   for t in range(len(steps))]
        return ad.matmul(log_probs, ad.constant(weights))

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
