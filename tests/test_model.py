"""Encoder/attention/decoder semantics against hand-computed oracles."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from seqrl import autodiff as ad
from seqrl.errors import ConfigError
from seqrl.oracles import finite_difference, l2_rel_error
from seqrl.model import (ModelConfig, _lstm_gates, attend, decode_step, default_max_len,
                         encode, init_params, initial_decoder_state, param_shapes,
                         sequence_log_prob)


def attention_score(h_enc, h_dec, params):
    """Per-row reference scorer: one encoder state against one decoder state."""
    pre = h_enc @ params["att.mlp.w_enc"].data + h_dec @ params["att.mlp.w_dec"].data
    return float(np.tanh(pre) @ params["att.mlp.v"].data)


# ---------------------------------------------------------------------------
# the one-vector reference decoder step that the row-wise decode_step, the
# rollout and beam search are held to, bit for bit


@dataclass
class ReferenceState:
    h: np.ndarray
    c: np.ndarray
    prev_context: np.ndarray


def reference_initial_state(config) -> ReferenceState:
    return ReferenceState(h=np.zeros(config.dec_hidden), c=np.zeros(config.dec_hidden),
                          prev_context=np.zeros(config.enc_out_dim))


def reference_attend(enc, h_dec, params, config):
    """Softmax alignment over encoder frames and the resulting context vector,
    for one decoder state."""
    henc = enc.states.data
    pre = enc.mlp_proj.data + h_dec @ params["att.mlp.w_dec"].data
    scores = np.tanh(pre) @ params["att.mlp.v"].data
    e = np.exp(scores - np.max(scores))
    alignment = e / e.sum()
    return alignment @ henc, alignment


def reference_step(prev_id, state, enc, params, config):
    """Advance the decoder by one symbol; returns (log_probs, new_state).

    The LSTM consumes [embed(prev_id); previous context]; attention runs on
    the new hidden state; logits read [hidden; context]. Plain numpy, one
    vector at a time, recording nothing on the tape.
    """
    prev_id = int(prev_id)
    if prev_id < 0 or prev_id > config.sos_id:
        raise IndexError(f"symbol id {prev_id} out of range [0, {config.sos_id}]")
    x = np.concatenate([params["dec.embed.w"].data[prev_id], state.prev_context])
    pre = (x @ params["dec.lstm.w_ih"].data + state.h @ params["dec.lstm.w_hh"].data
           + params["dec.lstm.b"].data)
    i, f, g, o = _lstm_gates(pre, config.dec_hidden)
    c_new = f * state.c + i * g
    h_new = o * np.tanh(c_new)
    context, _ = reference_attend(enc, h_new, params, config)
    logits = (np.concatenate([h_new, context]) @ params["dec.out.w"].data
              + params["dec.out.b"].data)
    shifted = logits - np.max(logits)
    log_probs = shifted - np.log(np.sum(np.exp(shifted)))
    return log_probs, ReferenceState(h=h_new, c=c_new, prev_context=context)


def count_params(config):
    return sum(math.prod(s) for s in param_shapes(config).values())


def zero_params(config):
    return {name: ad.parameter(np.zeros(shape))
            for name, shape in param_shapes(config).items()}


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=1)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=4, enc_layers=2, subsample_layers=2)


def test_id_layout():
    config = ModelConfig(vocab_size=9)
    assert config.eos_id == 8
    assert config.sos_id == 9
    assert config.enc_out_dim == 2 * config.enc_hidden


@pytest.mark.parametrize("k", [0, 1, 2])
def test_subsampled_length_is_iterated_halving(k):
    config = ModelConfig(vocab_size=4, enc_layers=3, subsample_layers=k)
    for s in range(1, 65):
        assert config.subsampled_length(s) == math.ceil(s / 2 ** k)
    assert config.subsampled_length(8) == 8 // 2 ** k


def test_init_params_matches_declared_shapes():
    config = ModelConfig(vocab_size=5, feature_dim=4, enc_hidden=3, enc_layers=2,
                         subsample_layers=1, embed_dim=4, dec_hidden=6, mlp_hidden=4)
    params = init_params(config, 3)
    shapes = param_shapes(config)
    assert set(params) == set(shapes)
    for name, p in params.items():
        assert p.shape == shapes[name]
        assert p.requires_grad
    # forget-gate bias slices start open, everything else near zero
    for name in ("enc.l0.fwd.b", "enc.l1.bwd.b", "dec.lstm.b"):
        b = params[name].data
        hidden = b.shape[0] // 4
        assert np.all(b[hidden:2 * hidden] == 1.0)
        assert np.all(np.abs(np.delete(b, np.s_[hidden:2 * hidden])) <= 0.08)
    assert np.all(np.abs(params["enc.proj.w"].data) <= 0.08)


def test_init_params_deterministic_per_seed():
    config = ModelConfig(vocab_size=4)
    a = init_params(config, 7)
    b = init_params(config, 7)
    c = init_params(config, 8)
    assert all(np.array_equal(a[n].data, b[n].data) for n in a)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_encode_output_shape_and_subsampling():
    config = ModelConfig(vocab_size=4, feature_dim=3, enc_hidden=3, enc_layers=3,
                         subsample_layers=2, embed_dim=3, dec_hidden=4, mlp_hidden=3)
    params = init_params(config, 1)
    enc = encode([np.random.default_rng(0).normal(size=(8, 3))], params, config)[0]
    assert enc.states.shape == (2, 6)
    assert enc.source_length == 8
    # odd lengths round up at each halving
    assert encode([np.zeros((7, 3))], params, config)[0].states.shape == (2, 6)


def test_encode_rejects_bad_inputs(tiny_model):
    config, params = tiny_model
    with pytest.raises(ValueError, match="features"):
        encode([np.zeros((4, config.feature_dim + 1))], params, config)
    with pytest.raises(ValueError, match="features"):
        encode([np.zeros(config.feature_dim)], params, config)
    with pytest.raises(ValueError, match="too short"):
        encode([np.zeros((1, config.feature_dim))], params, config)


def naive_sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def naive_lstm(pre, w_hh):
    hidden = w_hh.shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = []
    for t in range(pre.shape[0]):
        z = pre[t] + h @ w_hh
        i, f, g, o = (naive_sigmoid(z[:hidden]), naive_sigmoid(z[hidden:2 * hidden]),
                      np.tanh(z[2 * hidden:3 * hidden]), naive_sigmoid(z[3 * hidden:]))
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return np.stack(out)


def test_encode_matches_naive_recurrence():
    config = ModelConfig(vocab_size=3, feature_dim=3, enc_hidden=2, enc_layers=1,
                         subsample_layers=0, embed_dim=2, dec_hidden=3, mlp_hidden=2)
    params = init_params(config, 11, scale=0.4)
    x = np.random.default_rng(12).normal(size=(5, 3))
    enc = encode([x], params, config)[0]

    proj = x @ params["enc.proj.w"].data + params["enc.proj.b"].data
    proj = np.where(proj > 0, proj, 0.01 * proj)
    fwd = naive_lstm(proj @ params["enc.l0.fwd.w_ih"].data + params["enc.l0.fwd.b"].data,
                     params["enc.l0.fwd.w_hh"].data)
    bwd = naive_lstm(proj[::-1] @ params["enc.l0.bwd.w_ih"].data + params["enc.l0.bwd.b"].data,
                     params["enc.l0.bwd.w_hh"].data)[::-1]
    np.testing.assert_allclose(enc.states.data, np.concatenate([fwd, bwd], axis=1),
                               atol=1e-13)


BATCH_MODEL = dict(vocab_size=4, feature_dim=3, enc_hidden=3, enc_layers=3,
                   subsample_layers=2, embed_dim=3, dec_hidden=6, mlp_hidden=3)


def test_encode_rows_are_independent_of_the_batch():
    config = ModelConfig(**BATCH_MODEL)
    params = init_params(config, 13, scale=0.5)
    rng = np.random.default_rng(14)
    # odd lengths, equal lengths and the shortest legal input, unsorted
    lengths = [9, 4, 13, 9, 6, 2 ** config.subsample_layers, 11]
    feats = [rng.normal(size=(s, config.feature_dim)) for s in lengths]
    batch = encode(feats, params, config)
    assert [e.source_length for e in batch] == lengths
    for x, enc in zip(feats, batch):
        alone = encode([x], params, config)[0]
        assert enc.states.shape == (config.subsampled_length(x.shape[0]), config.enc_out_dim)
        assert np.array_equal(enc.states.data, alone.states.data)
        assert np.array_equal(enc.mlp_proj.data, alone.mlp_proj.data)


def test_encode_gradients_match_finite_differences():
    config = ModelConfig(**dict(BATCH_MODEL, enc_layers=2, subsample_layers=1))
    params = init_params(config, 15, scale=0.6)
    rng = np.random.default_rng(16)
    # mixed lengths, so rows end at different steps and the padding is exercised
    feats = [rng.normal(size=(s, config.feature_dim)) for s in (5, 2, 7, 5)]
    encs = encode(feats, params, config)
    outputs = [t for e in encs for t in (e.states, e.mlp_proj)]
    # u @ T @ v for fixed random vectors u and v, summed over the outputs
    weights = [(rng.normal(size=t.shape[0]), rng.normal(size=t.shape[1])) for t in outputs]

    def loss(tensors):
        total = ad.constant(np.zeros(()))
        for t, (u, v) in zip(tensors, weights):
            total = ad.add(total, ad.matmul(ad.matmul(ad.constant(u), t), ad.constant(v)))
        return total

    def value():
        with ad.no_grad():
            again = encode(feats, params, config)
        return loss([t for e in again for t in (e.states, e.mlp_proj)])

    ad.backward(loss(outputs))
    checked = [n for n in params if n.startswith("enc.") or n == "att.mlp.w_enc"]
    assert len(checked) == 2 + 6 * config.enc_layers + 1
    for name in checked:
        numeric = finite_difference(value, [params[name]])[0]
        assert l2_rel_error(params[name].grad, numeric) <= 1e-6, name


def test_zero_params_give_zero_states_and_uniform_outputs():
    config = ModelConfig(vocab_size=5, feature_dim=3, enc_hidden=3, enc_layers=2,
                         subsample_layers=1, embed_dim=3, dec_hidden=4, mlp_hidden=3)
    params = zero_params(config)
    x = np.random.default_rng(2).normal(size=(6, 3))
    enc = encode([x], params, config)[0]
    np.testing.assert_array_equal(enc.states.data, np.zeros((3, 6)))
    prev = np.array([config.sos_id, 0, 3])
    log_probs, h, c, ctx, _ = decode_step(enc, params, config, prev,
                                          *initial_decoder_state(config, 3))
    np.testing.assert_allclose(log_probs, np.full((3, 5), -np.log(5.0)), atol=1e-15)
    for state, width in ((h, 4), (c, 4), (ctx, 6)):
        np.testing.assert_array_equal(state, np.zeros((3, width)))


def test_mlp_score_zero_readout_is_zero(tiny_model):
    config, params = tiny_model
    params["att.mlp.v"].data[:] = 0.0
    rng = np.random.default_rng(4)
    score = attention_score(rng.normal(size=config.enc_out_dim),
                            rng.normal(size=config.dec_hidden), params)
    assert score == 0.0


def test_attend_single_frame_is_certain(tiny_model):
    config, params = tiny_model
    enc = encode([np.random.default_rng(5).normal(size=(2, config.feature_dim))],
                 params, config)[0]
    assert enc.states.shape[0] == 1
    h = np.random.default_rng(6).normal(size=(3, config.dec_hidden))
    context, alignment, _ = attend(enc, h, params)
    np.testing.assert_array_equal(alignment, np.ones((3, 1)))
    np.testing.assert_allclose(context, np.repeat(enc.states.data, 3, axis=0), atol=1e-15)


def test_attend_is_softmax_weighted_sum(tiny_model):
    config, params = tiny_model
    enc = encode([np.random.default_rng(7).normal(size=(6, config.feature_dim))],
                 params, config)[0]
    h = np.random.default_rng(8).normal(size=(4, config.dec_hidden))
    context, alignment, att = attend(enc, h, params)
    assert alignment.shape == (4, enc.states.shape[0])
    assert att.shape == (4, enc.states.shape[0], config.mlp_hidden)
    np.testing.assert_allclose(alignment.sum(axis=1), np.ones(4), atol=1e-12)
    np.testing.assert_allclose(context, alignment @ enc.states.data, atol=1e-12)
    for h_dec, a, row_att in zip(h, alignment, att):
        np.testing.assert_allclose(
            row_att, np.tanh(enc.mlp_proj.data + h_dec @ params["att.mlp.w_dec"].data),
            atol=1e-12)
        # the vectorized scores agree with the single-pair scorer
        per_row = np.array([attention_score(h_enc, h_dec, params)
                            for h_enc in enc.states.data])
        shifted = np.exp(per_row - per_row.max())
        np.testing.assert_allclose(a, shifted / shifted.sum(), atol=1e-12)


def random_decoder_rows(config, rows, seed):
    """Previous symbols (sos among them) and random decoder states of ``rows`` rows."""
    rng = np.random.default_rng([seed, rows])
    prev = rng.integers(0, config.sos_id + 1, size=rows)
    prev[0] = config.sos_id
    return (prev, rng.normal(size=(rows, config.dec_hidden)),
            rng.normal(size=(rows, config.dec_hidden)),
            rng.normal(size=(rows, config.enc_out_dim)))


def test_decode_step_contract(tiny_model):
    config, params = tiny_model
    enc = encode([np.random.default_rng(9).normal(size=(4, config.feature_dim))],
                 params, config)[0]
    log_probs, h, c, ctx, _ = decode_step(enc, params, config,
                                          *random_decoder_rows(config, 5, 9))
    assert log_probs.shape == (5, config.vocab_size)
    np.testing.assert_allclose(np.exp(log_probs).sum(axis=1), np.ones(5), atol=1e-12)
    assert h.shape == c.shape == (5, config.dec_hidden)
    assert ctx.shape == (5, config.enc_out_dim)


def test_reference_step_returns_arrays_and_records_nothing(tiny_model):
    # every recorded node draws one number from the tape's creation counter
    config, params = tiny_model
    with ad.no_grad():
        enc = encode([np.random.default_rng(9).normal(size=(4, config.feature_dim))],
                     params, config)[0]
    before = next(ad._COUNTER)
    log_probs, h, c, ctx, saved = decode_step(enc, params, config,
                                              *random_decoder_rows(config, 3, 10))
    attended = attend(enc, h, params)
    assert next(ad._COUNTER) == before + 1
    for value in (log_probs, h, c, ctx) + saved + attended:
        assert type(value) is np.ndarray


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_decode_step_rows_equal_the_one_vector_reference(tiny_model, rows):
    config, _ = tiny_model
    params = init_params(config, 12, scale=1.0)
    enc = encode([np.random.default_rng(11).normal(size=(7, config.feature_dim))],
                 params, config)[0]
    prev, h, c, ctx = random_decoder_rows(config, rows, 12)
    log_probs, h_new, c_new, ctx_new, saved = decode_step(enc, params, config, prev, h, c, ctx)
    align = saved[-2]  # saved is (x, i, f, g, o, tc, att, align, hc)
    for r in range(rows):
        state = ReferenceState(h=h[r], c=c[r], prev_context=ctx[r])
        expected, new_state = reference_step(prev[r], state, enc, params, config)
        assert np.array_equal(log_probs[r], expected)
        assert np.array_equal(h_new[r], new_state.h)
        assert np.array_equal(c_new[r], new_state.c)
        assert np.array_equal(ctx_new[r], new_state.prev_context)
        assert np.array_equal(align[r], reference_attend(enc, new_state.h, params, config)[1])


def test_sequence_log_prob_sums_per_step(tiny_model):
    config, params = tiny_model
    feats = np.random.default_rng(10).normal(size=(5, config.feature_dim))
    transcript = [0, 2, 1, config.eos_id]
    total, per_step = sequence_log_prob(feats, transcript, params, config)
    assert per_step.shape == (4,)
    assert total.item() == sum(per_step.data.tolist())
    assert total.item() < 0.0


def test_sequence_log_prob_uniform_for_zero_params():
    config = ModelConfig(vocab_size=4, feature_dim=3, enc_hidden=2, enc_layers=1,
                         subsample_layers=0, embed_dim=2, dec_hidden=3, mlp_hidden=2)
    params = zero_params(config)
    total, _ = sequence_log_prob(np.zeros((3, 3)), [0, 1, config.eos_id], params, config)
    assert total.item() == pytest.approx(-3.0 * np.log(4.0), abs=1e-12)


def test_sequence_log_prob_input_contract(tiny_model):
    config, params = tiny_model
    feats = np.zeros((4, config.feature_dim))
    with pytest.raises(ValueError, match="eos"):
        sequence_log_prob(feats, [0, 1], params, config)
    with pytest.raises(ValueError, match="eos"):
        sequence_log_prob(feats, [], params, config)
    with pytest.raises(IndexError):
        # eos is the terminator, never an interior symbol
        sequence_log_prob(feats, [0, config.eos_id, config.eos_id], params, config)


def test_default_max_len_formula():
    config = ModelConfig(vocab_size=4, subsample_layers=2)
    assert default_max_len(16, config) == 2 * 4 + 5
    assert default_max_len(17, config) == 2 * 5 + 5


def test_count_params_matches_init(tiny_model):
    config, params = tiny_model
    assert count_params(config) == sum(p.data.size for p in params.values())
