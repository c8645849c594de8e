"""Optimizer behavior and the two training phases end to end."""

import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from seqrl import autodiff as ad
from seqrl import decoding, model, training
from seqrl.checkpoint import Checkpoint, load_checkpoint, validate_checkpoint
from seqrl.data import Corpus, default_vocabulary, generate_corpus
from seqrl.decoding import beam_search, greedy_decode, sample_sequences
from seqrl.errors import ConfigError, SchemaError
from seqrl.model import ModelConfig, encode, init_params, sequence_log_prob
from seqrl.objectives import RlConfig, rl_surrogate
from seqrl.rewards import MovingStats, edit_distance
from seqrl.training import (AdamState, TrainConfig, adam_update, evaluate,
                            train_mle, train_rl, write_metrics)

from test_data import corpus_cer

MICRO_MODEL = dict(vocab_size=4, feature_dim=4, enc_hidden=4, enc_layers=2,
                   subsample_layers=1, embed_dim=4, dec_hidden=6, mlp_hidden=4)


def micro_train_config(**overrides):
    base = dict(model=ModelConfig(**MICRO_MODEL),
                rl=RlConfig(mode="time_reward", gamma=0.9, num_samples=3,
                            normalization="timewise"),
                seed=1, learning_rate=5e-3, batch_size=2, mle_max_epochs=5,
                rl_max_epochs=1, patience=5)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def mle_run(micro_corpus):
    _, train, dev = micro_corpus
    config = micro_train_config()
    return config, train, dev, train_mle(train, dev, config)


def test_adam_first_step_moves_by_learning_rate():
    params = {"w": ad.parameter(np.zeros(3))}
    state = AdamState.new(params)
    adam_update(params, {"w": np.array([0.5, -2.0, 1e-4])}, state, lr=0.01)
    # bias correction makes the first step lr * sign(grad), up to eps
    np.testing.assert_allclose(params["w"].data, [-0.01, 0.01, -0.01], rtol=1e-3)
    assert state.t == 1


def test_adam_zero_gradient_is_a_no_op():
    params = {"w": ad.parameter(np.array([1.0, -2.0]))}
    state = AdamState.new(params)
    adam_update(params, {"w": np.zeros(2)}, state, lr=0.5)
    np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])


def test_adam_minimizes_a_quadratic():
    params = {"w": ad.parameter(np.array([-4.0]))}
    state = AdamState.new(params)
    for _ in range(200):
        grad = 2.0 * (params["w"].data - 3.0)
        adam_update(params, {"w": grad}, state, lr=0.1)
    assert abs(params["w"].data[0] - 3.0) < 0.1


def test_train_config_validation_and_round_trip():
    config = micro_train_config()
    rebuilt = TrainConfig.from_dict(asdict(config))
    assert rebuilt == config
    with pytest.raises(ConfigError, match="learning_rate"):
        micro_train_config(learning_rate=0.0)
    with pytest.raises(ConfigError, match="batch_size"):
        micro_train_config(batch_size=0)
    with pytest.raises(ConfigError, match="unknown config keys"):
        TrainConfig.from_dict({"model": dict(MICRO_MODEL), "momentum": 0.9})
    with pytest.raises(ConfigError, match="unknown model config keys"):
        TrainConfig.from_dict({"model": dict(MICRO_MODEL, dropout=0.1)})
    with pytest.raises(ConfigError, match="'model' section"):
        TrainConfig.from_dict({"learning_rate": 1e-3})
    with pytest.raises(ConfigError, match="vocab_size"):
        TrainConfig.from_dict({"model": dict(MICRO_MODEL, vocab_size=1)})


@pytest.mark.parametrize("make", [
    lambda: ModelConfig(**dict(MICRO_MODEL, enc_hidden=2.5)),
    lambda: ModelConfig(**dict(MICRO_MODEL, enc_layers=True)),
    lambda: RlConfig(mode=1),
    lambda: RlConfig(num_samples=2.5),
    lambda: RlConfig(gamma="0.9"),
    lambda: RlConfig(gamma=True),
    lambda: RlConfig(gamma=float("nan")),
    lambda: RlConfig(rl_weight=float("inf")),
    lambda: micro_train_config(seed=-1),
    lambda: micro_train_config(seed=1.0),
    lambda: micro_train_config(learning_rate=float("nan")),
    lambda: micro_train_config(learning_rate=float("inf")),
])
def test_config_fields_are_checked(make):
    with pytest.raises(ConfigError):
        make()


def test_mle_training_reduces_loss(mle_run):
    config, _, _, result = mle_run
    assert len(result.metrics) >= 2
    assert result.metrics[-1].train_loss < result.metrics[0].train_loss
    assert all(r.phase == "mle" for r in result.metrics)
    assert all(math.isnan(r.mean_reward) for r in result.metrics)
    assert result.best_dev_cer == min(r.dev_cer for r in result.metrics)
    validate_checkpoint(result.checkpoint, config.model)
    assert result.checkpoint.phase == "mle"


def test_mle_training_is_deterministic(mle_run):
    config, train, dev, first = mle_run
    second = train_mle(train, dev, config)
    assert len(first.metrics) == len(second.metrics)
    for a, b in zip(first.metrics, second.metrics):
        assert (a.epoch, a.phase) == (b.epoch, b.phase)
        assert a.train_loss == b.train_loss
        assert a.dev_cer == b.dev_cer
    for name, arr in first.checkpoint.params.items():
        np.testing.assert_array_equal(arr, second.checkpoint.params[name])


def test_training_writes_loadable_outputs(micro_corpus, tmp_path):
    _, train, dev = micro_corpus
    config = micro_train_config(mle_max_epochs=2)
    result = train_mle(train, dev, config, out_dir=str(tmp_path))
    assert result.metrics_path == str(tmp_path / "mle_metrics.csv")
    assert result.checkpoint_path == str(tmp_path / "mle_best.ckpt")
    loaded = load_checkpoint(result.checkpoint_path)
    validate_checkpoint(loaded, config.model)
    for name, arr in result.checkpoint.params.items():
        np.testing.assert_array_equal(loaded.params[name], arr)
    # the CSV is exactly what write_metrics produces for these rows
    write_metrics(result.metrics, str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_bytes() == \
        (tmp_path / "mle_metrics.csv").read_bytes()
    header = (tmp_path / "mle_metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,phase,train_loss,mean_reward,dev_cer"


def test_patience_stops_stalled_training(micro_corpus):
    _, train, dev = micro_corpus
    # a vanishing learning rate cannot improve dev CER, so epoch 1 sets the
    # best and the run stops after exactly patience stale epochs
    config = micro_train_config(learning_rate=1e-12, mle_max_epochs=10, patience=1)
    result = train_mle(train, dev, config)
    assert len(result.metrics) == 2
    assert result.checkpoint.epoch == 1


def test_memorizes_two_utterances():
    vocab = default_vocabulary(3)
    pool = generate_corpus(vocab, 2, (2, 3), frames_per_symbol=4,
                           noise_sigma=0.05, seed=14, feature_dim=4)
    train = Corpus(vocab=vocab, feature_dim=4, utterances=pool.utterances)
    # dev CER improves in discrete jumps, so early stopping is disabled
    config = micro_train_config(learning_rate=3e-2, mle_max_epochs=60,
                                batch_size=2, patience=60)
    result = train_mle(train, train, config)
    assert result.best_dev_cer == 0.0


def test_evaluate_agrees_with_greedy(micro_corpus):
    vocab, _, _ = micro_corpus
    # more utterances than one encoder chunk, of mixed lengths
    corpus = generate_corpus(vocab, training._EVAL_CHUNK + 3, (2, 4), frames_per_symbol=4,
                             noise_sigma=0.05, seed=17, feature_dim=4)
    config = ModelConfig(**MICRO_MODEL)
    params = init_params(config, 3)
    for beam in (1, 3):
        result = evaluate(corpus, params, config, beam=beam)
        assert len(result.rows) == len(corpus)
        pairs = []
        for utt, row in zip(corpus, result.rows):
            hyp = (greedy_decode(utt.features, params, config) if beam == 1
                   else beam_search(utt.features, params, config, beam=beam))
            pairs.append((hyp.graphemes, utt.transcript))
            assert row.uid == utt.uid
            assert row.hypothesis == vocab.to_string(hyp.graphemes)
            assert row.reference == vocab.to_string(utt.transcript)
            assert row.distance == edit_distance(hyp.graphemes, utt.transcript)
        assert result.cer == corpus_cer(pairs)


def test_corpus_model_mismatch_is_rejected(micro_corpus):
    _, train, dev = micro_corpus
    config = micro_train_config()
    empty = Corpus(vocab=train.vocab, feature_dim=4)
    with pytest.raises(SchemaError, match="empty"):
        train_mle(empty, dev, config)
    bigger_vocab = generate_corpus(default_vocabulary(6), 2, (2, 3), 2, 0.1,
                                   seed=2, feature_dim=4)
    with pytest.raises(SchemaError, match="vocabulary size"):
        train_mle(bigger_vocab, dev, config)
    wrong_width = generate_corpus(train.vocab, 2, (2, 3), 2, 0.1,
                                  seed=2, feature_dim=5)
    with pytest.raises(SchemaError, match="feature_dim"):
        train_mle(train, wrong_width, config)


def test_rl_phase_runs_from_mle_checkpoint(mle_run):
    config, train, dev, mle_result = mle_run
    result = train_rl(train, dev, config, mle_result.checkpoint)
    assert result.metrics[0].epoch == 0
    assert math.isnan(result.metrics[0].train_loss)
    assert math.isnan(result.metrics[0].mean_reward)
    assert len(result.metrics) == 2
    assert result.best_dev_cer <= result.metrics[0].dev_cer
    assert result.checkpoint.phase == "rl"
    # per-sample total reward never exceeds the reference length
    mean_ref = np.mean([len(u.transcript) for u in train])
    assert result.metrics[1].mean_reward <= mean_ref
    repeat = train_rl(train, dev, config, mle_result.checkpoint)
    for a, b in zip(result.metrics[1:], repeat.metrics[1:]):
        assert a.train_loss == b.train_loss
        assert a.mean_reward == b.mean_reward
        assert a.dev_cer == b.dev_cer


def test_rl_rejects_mismatched_checkpoint(micro_corpus, mle_run):
    _, train, dev = micro_corpus
    config, _, _, mle_result = mle_run
    other = micro_train_config(model=ModelConfig(**dict(MICRO_MODEL, dec_hidden=8)))
    with pytest.raises(SchemaError, match="shape"):
        train_rl(train, dev, other, mle_result.checkpoint)


def _batch_uids(train, config, tag, epoch=1):
    order = np.random.default_rng([config.seed, tag, epoch]).permutation(len(train))
    return [[train.utterances[int(i)].uid for i in order[k:k + config.batch_size]]
            for k in range(0, len(train), config.batch_size)]


def reachable(loss):
    """The nodes a backward from ``loss`` replays, by id; holding the nodes
    keeps them alive, so no id is reused."""
    seen, stack = {}, [loss.node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(t.node for t in node.inputs if t.node is not None)
    return seen


def test_each_utterance_backward_stops_at_the_batch_encoder(mle_run, monkeypatch):
    # one encoder node per batch; each utterance's backward runs through its
    # own decoder graph only, before the next utterance's loss is built, and
    # one backward per batch, after the batch's last utterance, runs the encoder
    _, train, dev, mle_result = mle_run
    config = micro_train_config(batch_size=4)
    events = []
    real_encode, real_backward = training.encode, ad.backward
    real_sample = training.sample_sequences

    def encode(*args):
        encs = real_encode(*args)
        if encs[0].states.node is not None:  # dev evaluation records nothing
            events.append(("encode", id(encs[0].states.node)))
        return encs

    def sample_sequences(*args, **kwargs):
        events.append(("loss", None))  # each utterance's loss starts here
        return real_sample(*args, **kwargs)

    def backward(loss):
        events.append(("backward", reachable(loss)))
        real_backward(loss)

    monkeypatch.setattr(training, "encode", encode)
    monkeypatch.setattr(training, "sample_sequences", sample_sequences)
    monkeypatch.setattr(ad, "backward", backward)
    train_rl(train, dev, config, mle_result.checkpoint)

    sizes = [len(b) for b in _batch_uids(train, config, training._TAG_SHUFFLE_RL)]
    assert sizes == [4, len(train) - 4]
    expected = []
    for size in sizes:
        expected += ["encode"] + ["loss", "backward"] * size + ["backward"]
    assert [kind for kind, _ in events] == expected
    events = [event for event in events if event[0] != "loss"]
    decoder_nodes, k = set(), 0
    for size in sizes:
        encoder = events[k][1]
        for _, nodes in events[k + 1:k + 1 + size]:
            # an utterance's decoder graph, shared with no other utterance
            assert encoder not in nodes and decoder_nodes.isdisjoint(nodes)
            decoder_nodes |= set(nodes)
        # the batch's own backward: the resume node and the encoder node
        nodes = events[k + 1 + size][1]
        assert encoder in nodes and len(nodes) == 2
        k += size + 2


def test_non_finite_gradient_names_parameter_and_batch(micro_corpus):
    _, train, dev = micro_corpus
    # the first Adam step blows the weights up; the second batch's gradients
    # overflow, and the run must stop there instead of at the end of the epoch
    config = micro_train_config(learning_rate=1e300)
    second = _batch_uids(train, config, training._TAG_SHUFFLE_MLE)[1]
    with np.errstate(all="ignore"), \
            pytest.raises(RuntimeError, match=r"\[mle\] gradient of \S+ became non-finite "
                                              r"at epoch 1 in the batch of") as err:
        train_mle(train, dev, config)
    assert any(uid in str(err.value) for uid in second)


def test_non_finite_loss_names_phase_epoch_and_utterance(mle_run, monkeypatch):
    config, train, dev, mle_result = mle_run
    real = ad.matmul  # the last op of the utterance loss
    monkeypatch.setattr(ad, "matmul", lambda *args: ad.scale(real(*args), float("nan")))
    first = _batch_uids(train, config, training._TAG_SHUFFLE_RL)[0][0]
    with pytest.raises(RuntimeError, match=rf"^\[rl\] loss became non-finite at epoch 1 "
                                           rf"on utterance {first}$"):
        train_rl(train, dev, config, mle_result.checkpoint)


def test_log_lines_of_both_phases(micro_corpus, tmp_path):
    _, train, dev = micro_corpus
    config = micro_train_config(mle_max_epochs=2, rl_max_epochs=2)
    mle_log, rl_log = [], []
    mle = train_mle(train, dev, config, out_dir=str(tmp_path), log=mle_log.append)
    rl = train_rl(train, dev, config, mle.checkpoint, out_dir=str(tmp_path),
                  log=rl_log.append)

    def masked(lines):
        return [re.sub(r"\(\d+\.\ds\)$", "(Ts)", line) for line in lines]

    assert masked(mle_log) == [
        f"[mle] epoch {r.epoch}: loss {r.train_loss:.4f} dev_cer {r.dev_cer:.4f} (Ts)"
        for r in mle.metrics] + [
        f"[mle] wrote {tmp_path}/mle_metrics.csv and {tmp_path}/mle_best.ckpt"]
    assert masked(rl_log) == [f"[rl] start: dev_cer {rl.metrics[0].dev_cer:.4f}"] + [
        f"[rl] epoch {r.epoch}: loss {r.train_loss:.4f} mean_reward {r.mean_reward:.3f} "
        f"dev_cer {r.dev_cer:.4f} (Ts)" for r in rl.metrics[1:]] + [
        f"[rl] wrote {tmp_path}/rl_metrics.csv and {tmp_path}/rl_best.ckpt"]
    assert len(mle.metrics) == 2 and len(rl.metrics) == 3


def test_rl_patience_returns_the_unchanged_start(mle_run):
    _, train, dev, mle_result = mle_run
    # a vanishing learning rate cannot improve on the epoch-0 baseline, so
    # the run stops after one stale epoch and hands back the start's params
    config = micro_train_config(learning_rate=1e-12, rl_max_epochs=5, patience=1)
    result = train_rl(train, dev, config, mle_result.checkpoint)
    assert [r.epoch for r in result.metrics] == [0, 1]
    assert result.checkpoint.epoch == 0
    assert result.best_dev_cer == result.metrics[0].dev_cer
    for name, arr in mle_result.checkpoint.params.items():
        np.testing.assert_array_equal(result.checkpoint.params[name], arr)


def rl_utterance_loss(monkeypatch, train, dev, config, start):
    """train_rl's parameters and per-utterance loss, without running an epoch."""
    captured = {}

    def run_phase(phase, train, dev, config, params, max_epochs, tag, utterance_loss,
                  *args, **kwargs):
        captured.update(params=params, loss=utterance_loss)

    with monkeypatch.context() as patch:
        patch.setattr(training, "_run_phase", run_phase)
        train_rl(train, dev, config, start)
    return captured["params"], captured["loss"]


def utterance_grads(params, loss_of_enc, features, config):
    """Run the backward of ``loss_of_enc(enc)``, a (loss, total rewards) pair,
    on a fresh encoding of ``features``; returns the pair and every
    parameter's gradient."""
    for p in params.values():
        p.zero_grad()
    loss, totals = loss_of_enc(encode([features], params, config)[0])
    ad.backward(loss)
    return loss, totals, {n: p.grad.copy() for n, p in params.items()}


def teacher_forced(utt, params, config):
    target = utt.transcript + (config.eos_id,)

    def loss(enc):
        total, _ = sequence_log_prob(utt.features, target, params, config, enc=enc)
        return ad.scale(total, -1.0), ()
    return loss


def test_rl_weight_zero_is_teacher_forced_and_draws_no_samples(mle_run, monkeypatch):
    _, train, dev, mle_result = mle_run
    config = micro_train_config(rl=RlConfig(gamma=0.9, num_samples=3, rl_weight=0.0))

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled at rl_weight 0")

    monkeypatch.setattr(training, "sample_sequences", no_sampling)
    params, loss_fn = rl_utterance_loss(monkeypatch, train, dev, config, mle_result.checkpoint)
    for idx, utt in enumerate(train):
        _, totals, g_rl = utterance_grads(params, lambda enc: loss_fn(utt, idx, 1, enc),
                                          utt.features, config.model)
        _, _, g_mle = utterance_grads(params, teacher_forced(utt, params, config.model),
                                      utt.features, config.model)
        assert totals == ()
        for name in g_mle:
            np.testing.assert_array_equal(g_rl[name], g_mle[name])
    result = train_rl(train, dev, config, mle_result.checkpoint)
    assert all(math.isnan(r.mean_reward) for r in result.metrics)
    assert not math.isnan(result.metrics[1].train_loss)


def two_rollout_loss(utt, idx, params, config, stats):
    """The utterance loss as a teacher-forced rollout plus a sampled one:
    mle + rl_weight * (-surrogate), and the samples' total rewards."""
    seed = np.random.SeedSequence([config.seed, training._TAG_SAMPLES, 1, idx])

    def loss(enc):
        mle, _ = teacher_forced(utt, params, config.model)(enc)
        batch = sample_sequences(utt.features, params, config.model, config.rl.num_samples,
                                 None, seed, enc=enc)
        coeffs, totals = rl_surrogate(batch, utt.transcript, config.rl, stats)
        surrogate = ad.matmul(batch.log_probs, ad.constant(coeffs))
        return ad.add(mle, ad.scale(surrogate, -config.rl.rl_weight)), totals
    return loss


def test_one_rollout_gradient_matches_the_two_rollout_form(micro_corpus, monkeypatch):
    _, train, dev = micro_corpus
    net = ModelConfig(**dict(MICRO_MODEL, dec_hidden=8))
    start = Checkpoint(config={}, phase="mle", epoch=0, best_dev_cer=1.0,
                       params={n: p.data for n, p in init_params(net, 3, scale=0.5).items()})
    for rl in (RlConfig(gamma=0.9, num_samples=4, rl_weight=0.7),
               RlConfig(mode="final_reward", normalization="across_samples", num_samples=4)):
        config = micro_train_config(model=net, rl=rl)
        params, loss_fn = rl_utterance_loss(monkeypatch, train, dev, config, start)
        stats = MovingStats()
        for idx, utt in enumerate(train):
            one, totals, g_one = utterance_grads(
                params, lambda enc: loss_fn(utt, idx, 1, enc), utt.features, net)
            two, two_totals, g_two = utterance_grads(
                params, two_rollout_loss(utt, idx, params, config, stats), utt.features, net)
            assert totals == two_totals
            assert one.item() == pytest.approx(two.item(), rel=1e-12)
            for name, g in g_two.items():
                assert np.max(np.abs(g_one[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


def test_rl_loss_direction(mle_run, monkeypatch):
    # a higher weight on the reward term moves the loss opposite to the surrogate
    _, train, dev, mle_result = mle_run
    utt = train.utterances[0]
    losses = {}
    for weight in (0.0, 2.0):
        rl = RlConfig(mode="final_reward", normalization="none", num_samples=3,
                      rl_weight=weight)
        config = micro_train_config(rl=rl)
        params, loss_fn = rl_utterance_loss(monkeypatch, train, dev, config,
                                            mle_result.checkpoint)
        with ad.no_grad():
            enc = encode([utt.features], params, config.model)[0]
        losses[weight] = loss_fn(utt, 0, 1, enc)[0].item()
    batch = sample_sequences(utt.features, params, config.model, 3, None,
                             np.random.SeedSequence([config.seed, training._TAG_SAMPLES, 1, 0]))
    coeffs, _ = rl_surrogate(batch, utt.transcript, config.rl, None)
    surrogate = float(batch.log_probs.data @ coeffs)
    assert losses[2.0] == pytest.approx(losses[0.0] - 2.0 * surrogate, rel=1e-12)


def test_train_rl_records_one_rollout_per_utterance(mle_run, monkeypatch):
    config, train, dev, mle_result = mle_run
    real_rollout, real_backward = model._rollout, ad.backward
    rollouts, graphs = [], []

    def rollout(*args):
        rows, log_probs = real_rollout(*args)
        if log_probs.node is not None:  # dev evaluation records nothing
            rollouts.append(log_probs.node)
        return rows, log_probs

    def backward(loss):
        graphs.append(reachable(loss))
        real_backward(loss)

    for module in (model, decoding):
        monkeypatch.setattr(module, "_rollout", rollout)
    monkeypatch.setattr(ad, "backward", backward)
    train_rl(train, dev, config, mle_result.checkpoint)

    ids = {id(node) for node in rollouts}
    assert len(rollouts) == len(ids) == len(train) * config.rl_max_epochs
    per_graph = [len(ids & set(graph)) for graph in graphs]
    # each utterance's backward replays its one rollout; each batch's replays none
    batches = math.ceil(len(train) / config.batch_size) * config.rl_max_epochs
    assert sorted(per_graph) == [0] * batches + [1] * len(rollouts)
