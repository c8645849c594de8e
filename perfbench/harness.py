"""Workloads, timed passes and correctness checks for the seqrl benchmark.

Every run sets up the same way: it generates the seed's corpora, trains the
warm start with ``train_mle`` and writes the files the decode path reads.
It then times passes of three paths through seqrl's public API:

* ``mle``: ``train_mle`` from fresh init, four epochs, each with its greedy
  dev evaluation;
* ``rl``: ``train_rl`` from the warm start, one epoch with the paper's
  recipe (time reward, gamma 0.95, 15 samples, timewise normalisation);
* ``decode``: the ``seqrl evaluate`` path: load checkpoint and corpus from
  files, then evaluate greedily and with beam 5.

Every run reports every end-to-end metric, so every run times all three
paths; a workload decides which training path leads each round and runs
most often. Every round of both workloads decodes twice, so the decode
path needs no workload of its own.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import seqrl
import tracing

WORKLOADS = {"mle-train": "mle", "rl-train": "rl"}


# the acceptance test's task and training recipe
GRAPHEMES = 8
MIN_LEN, MAX_LEN = 3, 12
FRAMES_PER_SYMBOL = 8
NOISE = 0.3
FEATURE_DIM = 16
BATCH_SIZE = 8
MLE_LR = 2e-3  # the warm start and the mle pass share this recipe
RL_LR = 5e-4
BEAM = 5
MODEL = seqrl.ModelConfig(vocab_size=GRAPHEMES + 1, feature_dim=FEATURE_DIM)


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale: the real one, or tiny for the smoke test."""

    per_length_train: int  # utterances per transcript length in the train split
    per_length_dev: int
    per_length_held_out: int
    warm_train: int  # utterances the warm start learns from
    warm_dev: int
    mle_epochs: int = 4
    num_samples: int = 15
    setup_repeats: int = 3
    check_utts: int = 10  # utterances in each post-run check subset


SCALES = {
    "bench": Scale(per_length_train=6, per_length_dev=4, per_length_held_out=2,
                   warm_train=40, warm_dev=20),
    "tiny": Scale(per_length_train=2, per_length_dev=1, per_length_held_out=1,
                  warm_train=10, warm_dev=5, mle_epochs=3, num_samples=3,
                  setup_repeats=2, check_utts=3),
}


@dataclass
class Inputs:
    train: seqrl.Corpus
    dev: seqrl.Corpus
    held_out: seqrl.Corpus  # never trained on or used for model selection
    warm: seqrl.Checkpoint
    ckpt_path: str
    dev_path: str


@dataclass
class Outcome:
    """Counts and figures one run accumulates."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def record(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, ops: int, problems: list[str]) -> None:
        """Count ``ops`` operations, all of them failed if any check failed."""
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)

    def same(self, key: str, digest: str) -> list[str]:
        """Compare with the first digest recorded under ``key``."""
        first = self.fingerprints.setdefault(key, digest)
        return [] if first == digest else [f"{key}: a repeated pass gave different results"]


# ---------------------------------------------------------------------------
# independent references


def levenshtein(a, b) -> int:
    """Full-matrix Levenshtein distance, written apart from seqrl.rewards."""
    a, b = list(a), list(b)
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1))
    return d[len(a)][len(b)]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _train_digest(result) -> str:
    rows = [(r.epoch, r.phase, r.train_loss, r.mean_reward, r.dev_cer) for r in result.metrics]
    params = result.checkpoint.params
    return _digest(rows, *[x for n in sorted(params) for x in (n, params[n])])


def _eval_digest(result) -> str:
    return _digest(result.cer, [(r.uid, r.reference, r.hypothesis, r.distance)
                                for r in result.rows])


# ---------------------------------------------------------------------------
# set-up


SPLITS = ("train", "dev", "held_out")
WARM_SEED = 0


def _splits(scale: Scale, seed: int) -> dict[str, seqrl.Corpus]:
    """The seed's train, dev and held-out corpora, each stratified by length.

    Every split holds the same number of transcripts of each length from
    min_len to max_len, so a seed changes what is transcribed but not how
    much work it is. Frames follow ``generate_corpus``'s recipe (noisy
    copies of per-symbol prototypes) with the prototypes of WARM_SEED, so
    every seed poses the task the warm start was trained on.
    """
    vocab = seqrl.default_vocabulary(GRAPHEMES)
    protos = seqrl.prototype_matrix(vocab, FEATURE_DIM, WARM_SEED)
    per_length = {"train": scale.per_length_train, "dev": scale.per_length_dev,
                  "held_out": scale.per_length_held_out}
    out = {}
    for tag, split in enumerate(SPLITS):
        utts = []
        for i in range(per_length[split]):
            for length in range(MIN_LEN, MAX_LEN + 1):
                rng = np.random.default_rng([seed, tag, length, i])
                ids = rng.integers(0, vocab.num_graphemes, size=length)
                frames = np.repeat(protos[ids], FRAMES_PER_SYMBOL, axis=0)
                frames = frames + rng.normal(0.0, NOISE, size=frames.shape)
                utts.append(seqrl.Utterance(uid=f"{split}-{length:02d}-{i}", features=frames,
                                            transcript=tuple(int(y) for y in ids)))
        out[split] = seqrl.Corpus(vocab=vocab, feature_dim=FEATURE_DIM, utterances=utts)
    return out


def _warm_splits(scale: Scale) -> dict[str, seqrl.Corpus]:
    """The corpora the warm start learns from: the same for every seed."""
    counts = {"train": scale.warm_train, "dev": scale.warm_dev}
    return seqrl.generate_splits(seqrl.default_vocabulary(GRAPHEMES), counts,
                                 (MIN_LEN, MAX_LEN), FRAMES_PER_SYMBOL,
                                 NOISE, WARM_SEED, FEATURE_DIM)


def _mle_config(scale: Scale, seed: int) -> seqrl.TrainConfig:
    return seqrl.TrainConfig(model=MODEL, seed=seed, learning_rate=MLE_LR,
                             batch_size=BATCH_SIZE, mle_max_epochs=scale.mle_epochs,
                             patience=scale.mle_epochs)


def set_up(scale: Scale, seed: int, workdir: str) -> Inputs:
    """Corpus generation, warm-start training, and the files the decode path reads.

    The warm start is the same model whatever the workload seed: one this
    briefly trained decodes very differently from one training draw to the
    next (greedy output length 3 to 7.5 symbols, beam output 5 to 35), and
    a fixed model keeps that out of the throughputs. The seed picks the
    corpora it is trained further on and decoded over.
    """
    splits = _splits(scale, seed)
    train, dev = splits["train"], splits["dev"]
    warm_splits = _warm_splits(scale)
    warm = seqrl.train_mle(warm_splits["train"], warm_splits["dev"],
                           _mle_config(scale, WARM_SEED)).checkpoint
    inputs = Inputs(train=train, dev=dev, held_out=splits["held_out"], warm=warm,
                    ckpt_path=os.path.join(workdir, "warm.ckpt"),
                    dev_path=os.path.join(workdir, "dev.corpus"))
    seqrl.save_checkpoint(warm, inputs.ckpt_path)
    seqrl.save_corpus(dev, inputs.dev_path)
    return inputs


def _setup_digest(inputs: Inputs) -> str:
    files = []
    for path in (inputs.ckpt_path, inputs.dev_path):
        with open(path, "rb") as fh:
            files.append(fh.read())
    return _digest(*files)


# ---------------------------------------------------------------------------
# timed passes; each records its end-to-end figures and returns its result


def _mle_pass(scale: Scale, seed: int, inputs: Inputs, out: Outcome):
    config = _mle_config(scale, seed)
    started = time.perf_counter()
    result = seqrl.train_mle(inputs.train, inputs.dev, config)
    out.record("mle_train_utts_per_s",
               scale.mle_epochs * len(inputs.train) / (time.perf_counter() - started))
    return result


def _rl_pass(scale: Scale, seed: int, inputs: Inputs, out: Outcome):
    rl = seqrl.RlConfig(mode="time_reward", gamma=0.95, num_samples=scale.num_samples,
                        normalization="timewise")
    config = seqrl.TrainConfig(model=MODEL, rl=rl, seed=seed, learning_rate=RL_LR,
                               batch_size=BATCH_SIZE, rl_max_epochs=1, patience=1)
    started = time.perf_counter()
    result = seqrl.train_rl(inputs.train, inputs.dev, config, inputs.warm)
    out.record("rl_train_utts_per_s", len(inputs.train) / (time.perf_counter() - started))
    return result


def _decode_pass(scale: Scale, seed: int, inputs: Inputs, out: Outcome):
    started = time.perf_counter()
    ckpt = seqrl.load_checkpoint(inputs.ckpt_path)
    corpus = seqrl.load_corpus(inputs.dev_path)
    loaded = time.perf_counter()
    config = seqrl.ModelConfig(**ckpt.config["model"])
    seqrl.validate_checkpoint(ckpt, config)
    params = _params(ckpt.params)
    with seqrl.no_grad():
        t0 = time.perf_counter()
        greedy = seqrl.evaluate(corpus, params, config, beam=1)
        t1 = time.perf_counter()
        beam = seqrl.evaluate(corpus, params, config, beam=BEAM)
        t2 = time.perf_counter()
    out.record("load_s", loaded - started)
    out.record("greedy_utts_per_s", len(corpus) / (t1 - t0))
    out.record("beam5_utts_per_s", len(corpus) / (t2 - t1))
    return ckpt, corpus, greedy, beam


def _params(arrays) -> dict:
    return {name: seqrl.parameter(arr) for name, arr in arrays.items()}


# ---------------------------------------------------------------------------
# checks on each pass, outside its timed part; each returns its problems


def _eval_problems(result, corpus, label: str) -> list[str]:
    """Each row's distance and the pooled CER against the benchmark's own DP."""
    problems = []
    total = ref_len = 0
    for row, utt in zip(result.rows, corpus):
        dist = levenshtein(corpus.vocab.ids_of(list(row.hypothesis)), utt.transcript)
        total += dist
        ref_len += len(utt.transcript)
        if row.uid != utt.uid or row.distance != dist:
            problems.append(f"{label}: {row.uid} distance {row.distance}, reference DP gives {dist}")
    if len(result.rows) != len(corpus) or result.cer != total / ref_len:
        problems.append(f"{label}: pooled CER {result.cer!r}, reference DP gives {total / ref_len!r}")
    return problems


def _check_mle(result, inputs: Inputs, out: Outcome) -> list[str]:
    problems = out.same("mle", _train_digest(result))
    if not all(math.isfinite(row.train_loss) for row in result.metrics):
        problems.append(f"mle: non-finite training loss in {result.metrics}")
    return problems


def _check_rl(result, inputs: Inputs, out: Outcome) -> list[str]:
    row = result.metrics[-1]
    mean_ref = statistics.fmean(len(u.transcript) for u in inputs.train)
    problems = out.same("rl", _train_digest(result))
    if len(result.metrics) != 2:
        problems.append(f"rl: expected an epoch-0 and an epoch-1 row, got {result.metrics}")
    if not row.mean_reward <= mean_ref:
        problems.append(f"rl: mean_reward {row.mean_reward} exceeds the mean "
                        f"reference length {mean_ref}")
    return problems


def _check_decode(loaded, inputs: Inputs, out: Outcome) -> list[str]:
    ckpt, corpus, greedy, beam = loaded
    problems = out.same("decode", _digest(_eval_digest(greedy), _eval_digest(beam)))
    if sorted(ckpt.params) != sorted(inputs.warm.params) or any(
            ckpt.params[n].dtype != a.dtype or ckpt.params[n].tobytes() != a.tobytes()
            for n, a in inputs.warm.params.items()):
        problems.append("decode: loaded parameters differ from those set-up wrote")
    if [u.uid for u in corpus] != [u.uid for u in inputs.dev] or any(
            a.transcript != b.transcript or a.features.tobytes() != b.features.tobytes()
            for a, b in zip(corpus, inputs.dev)):
        problems.append("decode: loaded features differ from those set-up wrote")
    return (problems + _eval_problems(greedy, corpus, "decode greedy")
            + _eval_problems(beam, corpus, "decode beam"))


# path: (timed pass, its checks, utterances it works through, operations per
# utterance: decode makes a greedy and a beam hypothesis of each)
PASSES = {
    "mle": (_mle_pass, _check_mle, lambda s, i: s.mle_epochs * len(i.train), 1),
    "rl": (_rl_pass, _check_rl, lambda s, i: len(i.train), 1),
    "decode": (_decode_pass, _check_decode, lambda s, i: len(i.dev), 2),
}

# One round of each workload: its own path leads and runs more often than
# the others. A decode pass takes about half a second against three for a
# training pass, so every round runs at least two: their figures need more
# samples to ride out bursts of contention from other tenants of the machine.
ROUNDS = {
    "mle-train": ("mle", "decode", "rl", "mle", "decode"),
    "rl-train": ("rl", "decode", "mle", "rl", "decode"),
}


# ---------------------------------------------------------------------------
# checks once per run, after the timed part; one operation per item checked


def _teacher_forced_loss(corpus, params) -> float:
    with seqrl.no_grad():
        return statistics.fmean(
            -seqrl.sequence_log_prob(u.features, u.transcript + (MODEL.eos_id,),
                                     params, MODEL)[0].item() for u in corpus)


def _log_prob_problems(hyp, features, params, label: str) -> list[str]:
    """Summed step log-probs against teacher-forced scoring of the same symbols."""
    if hyp.truncated:
        return []
    with seqrl.no_grad():
        forced = seqrl.sequence_log_prob(features, hyp.graphemes + (MODEL.eos_id,),
                                         params, MODEL)[0].item()
    total = math.fsum(hyp.step_log_probs)
    if abs(total - forced) <= 1e-9:
        return []
    return [f"{label}: step log-probs sum to {total!r}, sequence_log_prob gives {forced!r}"]


def final_checks(scale: Scale, seed: int, inputs: Inputs, results: dict, out: Outcome) -> dict:
    """Checks that need extra decoding; returns figures the run reports as info."""
    subset = inputs.dev.utterances[:scale.check_utts]

    # mle: the logged dev CER is the benchmark's own CER of the trained model,
    # and training lowered the teacher-forced loss on the held-out split
    mle = results["mle"]
    trained = _params(mle.checkpoint.params)
    evaluated = seqrl.evaluate(inputs.dev, trained, MODEL, beam=1)
    problems = _eval_problems(evaluated, inputs.dev, "mle dev")
    logged = mle.metrics[mle.checkpoint.epoch - 1].dev_cer
    if not evaluated.cer == logged == mle.best_dev_cer:
        problems.append(f"mle: logged dev CER {logged!r}, best {mle.best_dev_cer!r}, "
                        f"re-evaluated {evaluated.cer!r}")
    out.count(len(inputs.dev), problems)
    # four epochs lower the loss on what they train on; on held-out data it
    # rose on seeds 0 and 53, so that is only reported
    init = seqrl.init_params(MODEL, seed)
    initial, final = (_teacher_forced_loss(inputs.train, p) for p in (init, trained))
    out.count(len(inputs.train), [] if final < initial else [
        f"mle: train teacher-forced loss {final} is not below the initial {initial}"])
    held_out = [_teacher_forced_loss(inputs.held_out, p) for p in (init, trained)]

    # greedy hypotheses of the warm start score as teacher forcing does; beam 1 is greedy
    warm = _params(inputs.warm.params)
    for utt in subset:
        greedy = seqrl.greedy_decode(utt.features, warm, MODEL)
        beam1 = seqrl.beam_search(utt.features, warm, MODEL, beam=1)
        problems = _log_prob_problems(greedy, utt.features, warm, f"greedy {utt.uid}")
        if (beam1.graphemes, beam1.step_log_probs, beam1.truncated) != \
                (greedy.graphemes, greedy.step_log_probs, greedy.truncated):
            problems.append(f"beam 1 differs from greedy on {utt.uid}")
        out.count(1, problems)

    # rl: the logged epoch-0 CER is the warm start's; sampled hypotheses score
    # as teacher forcing does and their step rewards telescope to |ref| - ED
    rl = results["rl"]
    start = seqrl.evaluate(inputs.dev, warm, MODEL, beam=1)
    problems = _eval_problems(start, inputs.dev, "rl start")
    if start.cer != rl.metrics[0].dev_cer:
        problems.append(f"rl: logged epoch-0 dev CER {rl.metrics[0].dev_cer!r}, "
                        f"warm start gives {start.cer!r}")
    out.count(len(inputs.dev), problems)
    for k, utt in enumerate(inputs.train.utterances[:scale.check_utts]):
        with seqrl.no_grad():
            batch = seqrl.sample_sequences(utt.features, warm, MODEL, scale.num_samples,
                                           None, np.random.SeedSequence([seed, 77, k]))
        for m, hyp in enumerate(batch.samples):
            label = f"sample {m} of {utt.uid}"
            problems = _log_prob_problems(hyp, utt.features, warm, label)
            want = len(utt.transcript) - levenshtein(hyp.graphemes, utt.transcript)
            got = (sum(seqrl.step_rewards(hyp.graphemes, utt.transcript))
                   if hyp.graphemes else seqrl.total_reward((), utt.transcript))
            if got != want:
                problems.append(f"{label}: rewards sum to {got}, |ref| - ED is {want}")
            out.count(1, problems)
    return {"rl_dev_cer_start": rl.metrics[0].dev_cer, "rl_dev_cer_end": rl.metrics[-1].dev_cer,
            "rl_mean_reward": rl.metrics[-1].mean_reward,
            "mle_train_loss_init": initial, "mle_train_loss_end": final,
            "mle_held_out_loss_init": held_out[0], "mle_held_out_loss_end": held_out[1]}


# ---------------------------------------------------------------------------
# the run


END_TO_END_UNITS = {"setup_s": "s", "mle_train_utts_per_s": "utt/s",
                    "rl_train_utts_per_s": "utt/s", "greedy_utts_per_s": "utt/s",
                    "beam5_utts_per_s": "utt/s", "load_s": "s"}


def run(workload: str, seed: int, seconds: float, scale: Scale, workdir: str,
        tracer: tracing.Tracer | None = None) -> tuple[Outcome, dict, dict]:
    """Set up, time whole rounds for ``seconds``, check; return figures.

    A round is the workload's sequence of passes in ROUNDS. With a
    ``tracer`` every pass but the first of each round is traced; that first
    one runs without the wrappers, so the run measures its own tracing
    overhead on the same work.
    """
    focus = WORKLOADS[workload]
    out = Outcome()

    def traced_call(name, traced, attrs, fn, *args):
        if tracer is None or not traced:
            return fn(*args)
        patch = tracing.Patch(tracer)
        index = tracer.open(name, **attrs)
        try:
            return fn(*args)
        finally:
            tracer.close(index)
            patch.remove()

    setup_times = []
    for _ in range(scale.setup_repeats):
        started = time.perf_counter()
        inputs = traced_call(tracing.SETUP, True, {}, set_up, scale, seed, workdir)
        setup_times.append(time.perf_counter() - started)
        out.count(1, out.same("setup", _setup_digest(inputs)))
    out.samples["setup_s"] = setup_times

    results: dict = {}
    focus_seconds: dict[bool, list[float]] = {True: [], False: []}
    started = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - started < seconds:
        for k, path in enumerate(ROUNDS[workload]):
            run_pass, check_pass, utts_of, ops_per_utt = PASSES[path]
            traced = k > 0
            utts = utts_of(scale, inputs)
            attrs = {"traced": traced, "utts": utts}
            t0 = time.perf_counter()
            result = traced_call(tracing.PASS_PREFIX + path, traced, attrs,
                                 run_pass, scale, seed, inputs, out)
            if path == focus:
                focus_seconds[traced].append(time.perf_counter() - t0)
            out.count(utts * ops_per_utt, check_pass(result, inputs, out))
            results[path] = result
        rounds += 1
    info = final_checks(scale, seed, inputs, results, out)
    info["rounds"] = rounds
    info["samples"] = {name: len(values) for name, values in out.samples.items()}

    if tracer is not None:
        metrics = tracing.per_layer_metrics(tracer, focus)
        ratio = statistics.median(focus_seconds[True]) / statistics.median(focus_seconds[False])
        metrics["trace.overhead_pct"] = {"value": 100.0 * (ratio - 1.0), "unit": "%"}
    else:
        metrics = {name: {"value": statistics.median(out.samples[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mib"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB"}
    return out, metrics, info
