"""Two-phase training: teacher-forced warmup, then reward-augmented updates.

Both phases run shuffled mini-batches with Adam, log one metrics row per
epoch, stop early when dev CER stops improving, and retain the best-dev
checkpoint. All randomness derives from (seed, purpose tag, epoch, index)
substreams, so runs are bitwise reproducible.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import Checkpoint, save_checkpoint, validate_checkpoint
from .data import Corpus, corpus_cer
from .decoding import beam_search, greedy_decode, sample_sequences
from .errors import ConfigError, SchemaError
from .model import ModelConfig, check_params, encode, init_params, sequence_log_prob
from .objectives import RlConfig, combined_loss, mle_loss, rl_surrogate
from .rewards import MovingStats

# substream purpose tags (first entry after the seed in every derivation)
_TAG_SHUFFLE_MLE = 11
_TAG_SHUFFLE_RL = 21
_TAG_SAMPLES = 31


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    rl: RlConfig = field(default_factory=RlConfig)
    seed: int = 1
    learning_rate: float = 5e-4
    batch_size: int = 16
    mle_max_epochs: int = 30
    rl_max_epochs: int = 10
    patience: int = 5
    eval_beam: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("batch_size", "mle_max_epochs", "rl_max_epochs", "patience", "eval_beam"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("model", "rl")}
        out["model"] = {f.name: getattr(self.model, f.name) for f in fields(ModelConfig)}
        out["rl"] = {f.name: getattr(self.rl, f.name) for f in fields(RlConfig)}
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        raw = dict(raw)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        if "model" not in raw:
            raise ConfigError("config requires a 'model' section")
        for section, typ in (("model", ModelConfig), ("rl", RlConfig)):
            if section in raw and isinstance(raw[section], dict):
                sect = raw[section]
                bad = sorted(set(sect) - {f.name for f in fields(typ)})
                if bad:
                    raise ConfigError(f"unknown {section} config keys: {bad}")
                try:
                    raw[section] = typ(**sect)
                except TypeError as exc:
                    raise ConfigError(f"invalid {section} config: {exc}") from None
        return cls(**raw)


@dataclass
class AdamState:
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def new(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(t=0,
                   m={n: np.zeros_like(p.data) for n, p in params.items()},
                   v={n: np.zeros_like(p.data) for n, p in params.items()})


def adam_update(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                state: AdamState, lr: float, beta1: float = 0.9,
                beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam step, in place, in parameter order."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1 ** t)
        v_hat = state.v[name] / (1.0 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class EvalRow:
    uid: str
    reference: str
    hypothesis: str
    distance: int


@dataclass
class EvalResult:
    cer: float
    rows: list[EvalRow]


def evaluate(corpus: Corpus, params: dict[str, Tensor], config: ModelConfig,
             beam: int = 1) -> EvalResult:
    """Decode every utterance and pool CER as total distance / total length."""
    from .rewards import edit_distance
    rows = []
    pairs = []
    for utt in corpus:
        if beam == 1:
            hyp = greedy_decode(utt.features, params, config)
        else:
            hyp = beam_search(utt.features, params, config, beam=beam)
        pairs.append((hyp.graphemes, utt.transcript))
        rows.append(EvalRow(
            uid=utt.uid,
            reference=corpus.vocab.to_string(utt.transcript),
            hypothesis=corpus.vocab.to_string(hyp.graphemes),
            distance=edit_distance(hyp.graphemes, utt.transcript),
        ))
    return EvalResult(cer=corpus_cer(pairs), rows=rows)


@dataclass
class MetricsRow:
    epoch: int
    phase: str
    train_loss: float
    mean_reward: float
    dev_cer: float


def write_metrics(rows: list[MetricsRow], path: str) -> None:
    lines = ["epoch,phase,train_loss,mean_reward,dev_cer"]
    for r in rows:
        lines.append(f"{r.epoch},{r.phase},{r.train_loss:.17g},"
                     f"{r.mean_reward:.17g},{r.dev_cer:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics: list[MetricsRow]
    best_dev_cer: float
    checkpoint_path: str | None = None
    metrics_path: str | None = None


def _tensors_from_arrays(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: ad.parameter(np.array(arr, dtype=np.float64, copy=True))
            for name, arr in arrays.items()}


def _snapshot(config: TrainConfig, phase: str, epoch: int, dev_cer: float,
              params: dict[str, Tensor], adam: AdamState,
              stats: MovingStats) -> Checkpoint:
    return Checkpoint(
        config=config.to_dict(),
        phase=phase,
        epoch=epoch,
        best_dev_cer=dev_cer,
        seed=config.seed,
        adam_t=adam.t,
        params={n: p.data.copy() for n, p in params.items()},
        adam_m={n: a.copy() for n, a in adam.m.items()},
        adam_v={n: a.copy() for n, a in adam.v.items()},
        stats=MovingStats(decay=stats.decay, mu=stats.mu.copy(), sigma=stats.sigma.copy()),
    )


def _check_corpus(corpus: Corpus, config: ModelConfig, split: str) -> None:
    if len(corpus) == 0:
        raise SchemaError(f"{split} corpus is empty")
    if corpus.vocab.model_vocab_size != config.vocab_size:
        raise SchemaError(
            f"{split} corpus vocabulary size {corpus.vocab.model_vocab_size} "
            f"does not match model vocab_size {config.vocab_size}")
    if corpus.feature_dim != config.feature_dim:
        raise SchemaError(
            f"{split} corpus feature_dim {corpus.feature_dim} does not match "
            f"model feature_dim {config.feature_dim}")


def _grads_over(params: dict[str, Tensor], batch_size: int) -> dict[str, np.ndarray]:
    inv = 1.0 / batch_size
    return {n: (p.grad * inv if p.grad is not None else np.zeros_like(p.data))
            for n, p in params.items()}


def _assert_finite(params: dict[str, Tensor], epoch: int) -> None:
    for name, p in params.items():
        if not np.all(np.isfinite(p.data)):
            raise RuntimeError(f"parameter {name} became non-finite at epoch {epoch}")


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, order.shape[0], batch_size):
        yield order[start:start + batch_size]


def _finish_phase(result_rows, best, config, out_dir, phase, log):
    metrics_path = ckpt_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, f"{phase}_metrics.csv")
        ckpt_path = os.path.join(out_dir, f"{phase}_best.ckpt")
        write_metrics(result_rows, metrics_path)
        save_checkpoint(best, ckpt_path)
        log(f"[{phase}] wrote {metrics_path} and {ckpt_path}")
    return TrainResult(checkpoint=best, metrics=result_rows,
                       best_dev_cer=best.best_dev_cer,
                       checkpoint_path=ckpt_path, metrics_path=metrics_path)


def train_mle(train: Corpus, dev: Corpus, config: TrainConfig,
              out_dir: str | None = None, log=lambda msg: None) -> TrainResult:
    """Teacher-forced training with greedy dev CER early stopping."""
    _check_corpus(train, config.model, "train")
    _check_corpus(dev, config.model, "dev")
    params = init_params(config.model, config.seed)
    adam = AdamState.new(params)
    stats = MovingStats()
    eos = config.model.eos_id

    rows: list[MetricsRow] = []
    best: Checkpoint | None = None
    stale = 0
    for epoch in range(1, config.mle_max_epochs + 1):
        started = time.monotonic()
        order = np.random.default_rng(
            [config.seed, _TAG_SHUFFLE_MLE, epoch]).permutation(len(train))
        epoch_loss = 0.0
        for chunk in _batches(order, config.batch_size):
            for p in params.values():
                p.zero_grad()
            for idx in chunk:
                utt = train.utterances[int(idx)]
                target = utt.transcript + (eos,)
                _, per_step = sequence_log_prob(utt.features, target, params, config.model)
                loss = mle_loss(per_step, target)
                ad.backward(loss)
                epoch_loss += loss.item()
            adam_update(params, _grads_over(params, len(chunk)), adam, config.learning_rate)
        _assert_finite(params, epoch)
        dev_cer = evaluate(dev, params, config.model, beam=config.eval_beam).cer
        rows.append(MetricsRow(epoch=epoch, phase="mle",
                               train_loss=epoch_loss / len(train),
                               mean_reward=float("nan"), dev_cer=dev_cer))
        log(f"[mle] epoch {epoch}: loss {epoch_loss / len(train):.4f} "
            f"dev_cer {dev_cer:.4f} ({time.monotonic() - started:.1f}s)")
        if best is None or dev_cer < best.best_dev_cer:
            best = _snapshot(config, "mle", epoch, dev_cer, params, adam, stats)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return _finish_phase(rows, best, config, out_dir, "mle", log)


def train_rl(train: Corpus, dev: Corpus, config: TrainConfig, start: Checkpoint,
              out_dir: str | None = None, log=lambda msg: None) -> TrainResult:
    """Reward-augmented training from an existing checkpoint.

    Per utterance: sample num_samples sequences from the model's own
    predictions, shape rewards, and descend the combined objective. The
    optimizer and reward statistics start fresh for this phase.
    """
    _check_corpus(train, config.model, "train")
    _check_corpus(dev, config.model, "dev")
    validate_checkpoint(start, config.model)
    params = _tensors_from_arrays(start.params)
    check_params(params, config.model)
    adam = AdamState.new(params)
    stats = MovingStats()
    rl_cfg = config.rl
    eos = config.model.eos_id

    rows: list[MetricsRow] = []
    baseline = evaluate(dev, params, config.model, beam=config.eval_beam).cer
    rows.append(MetricsRow(epoch=0, phase="rl", train_loss=float("nan"),
                           mean_reward=float("nan"), dev_cer=baseline))
    log(f"[rl] start: dev_cer {baseline:.4f}")
    best = _snapshot(config, "rl", 0, baseline, params, adam, stats)
    stale = 0
    for epoch in range(1, config.rl_max_epochs + 1):
        started = time.monotonic()
        order = np.random.default_rng(
            [config.seed, _TAG_SHUFFLE_RL, epoch]).permutation(len(train))
        epoch_loss = 0.0
        reward_sum = 0.0
        reward_count = 0
        for chunk in _batches(order, config.batch_size):
            for p in params.values():
                p.zero_grad()
            for idx in chunk:
                utt = train.utterances[int(idx)]
                target = utt.transcript + (eos,)
                enc = encode(utt.features, params, config.model)
                _, per_step = sequence_log_prob(utt.features, target, params, config.model,
                                                enc=enc)
                mle = mle_loss(per_step, target)
                batch = sample_sequences(
                    utt.features, params, config.model, rl_cfg.num_samples,
                    None, np.random.SeedSequence(
                        [config.seed, _TAG_SAMPLES, epoch, int(idx)]),
                    utterance_index=int(idx), enc=enc)
                surrogate, totals = rl_surrogate(batch, utt.transcript, rl_cfg, stats)
                loss = combined_loss(mle, surrogate, rl_cfg.rl_weight)
                ad.backward(loss)
                epoch_loss += loss.item()
                reward_sum += float(sum(totals))
                reward_count += len(totals)
            adam_update(params, _grads_over(params, len(chunk)), adam, config.learning_rate)
        _assert_finite(params, epoch)
        dev_cer = evaluate(dev, params, config.model, beam=config.eval_beam).cer
        mean_reward = reward_sum / reward_count
        rows.append(MetricsRow(epoch=epoch, phase="rl",
                               train_loss=epoch_loss / len(train),
                               mean_reward=mean_reward, dev_cer=dev_cer))
        log(f"[rl] epoch {epoch}: loss {epoch_loss / len(train):.4f} "
            f"mean_reward {mean_reward:.3f} dev_cer {dev_cer:.4f} "
            f"({time.monotonic() - started:.1f}s)")
        if dev_cer < best.best_dev_cer:
            best = _snapshot(config, "rl", epoch, dev_cer, params, adam, stats)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return _finish_phase(rows, best, config, out_dir, "rl", log)
