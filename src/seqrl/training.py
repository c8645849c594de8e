"""Two-phase training: teacher-forced warmup, then reward-augmented updates.

Both phases run one epoch loop and differ only in their per-utterance loss.
The loop runs shuffled mini-batches with Adam, fails fast on a non-finite
loss or gradient, logs one metrics row per epoch, stops early when dev CER
stops improving, and retains the best-dev checkpoint. All randomness derives
from (seed, purpose tag, epoch, index) substreams, so runs are bitwise
reproducible.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import Checkpoint, save_checkpoint, validate_checkpoint
from .data import Corpus, _f17, _write_lines
from .decoding import beam_search, greedy_decode, sample_sequences
from .errors import ConfigError, SchemaError, check_field_types
from .model import EncoderStates, ModelConfig, encode, init_params, sequence_log_prob
from .objectives import RlConfig, rl_surrogate
from .rewards import MovingStats, edit_distance

# substream purpose tags (first entry after the seed in every derivation)
_TAG_SHUFFLE_MLE = 11
_TAG_SHUFFLE_RL = 21
_TAG_SAMPLES = 31

# utterances evaluate encodes at once; a fixed chunk bounds the encoder
# arrays alive at once whatever the corpus size
_EVAL_CHUNK = 8


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
        for name, section in (("model", ModelConfig), ("rl", RlConfig)):
            if not isinstance(getattr(self, name), section):
                raise ConfigError(f"{name} must be an object, got {getattr(self, name)!r}")
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("batch_size", "mle_max_epochs", "rl_max_epochs", "patience", "eval_beam"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")

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
    rows = []
    utts = corpus.utterances
    if not utts:
        raise ValueError("evaluate needs at least one utterance")
    for start in range(0, len(utts), _EVAL_CHUNK):
        chunk = utts[start:start + _EVAL_CHUNK]
        with ad.no_grad():
            encs = encode([utt.features for utt in chunk], params, config)
        for utt, enc in zip(chunk, encs):
            if beam == 1:
                hyp = greedy_decode(utt.features, params, config, enc=enc)
            else:
                hyp = beam_search(utt.features, params, config, beam=beam, enc=enc)
            rows.append(EvalRow(
                uid=utt.uid,
                reference=corpus.vocab.to_string(utt.transcript),
                hypothesis=corpus.vocab.to_string(hyp.graphemes),
                distance=edit_distance(hyp.graphemes, utt.transcript),
            ))
    cer = sum(row.distance for row in rows) / sum(len(utt.transcript) for utt in utts)
    return EvalResult(cer=cer, rows=rows)


@dataclass
class MetricsRow:
    epoch: int
    phase: str
    train_loss: float
    mean_reward: float
    dev_cer: float


def write_metrics(rows: list[MetricsRow], path: str) -> None:
    _write_lines(path, ["epoch,phase,train_loss,mean_reward,dev_cer"] + [
        f"{r.epoch},{r.phase},{_f17(r.train_loss)},{_f17(r.mean_reward)},{_f17(r.dev_cer)}"
        for r in rows])


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
              params: dict[str, Tensor]) -> Checkpoint:
    return Checkpoint(config=asdict(config), phase=phase, epoch=epoch, best_dev_cer=dev_cer,
                      params={n: p.data.copy() for n, p in params.items()})


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


def _finish_phase(result_rows, best, out_dir, phase, log):
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


def _run_phase(phase: str, train: Corpus, dev: Corpus, config: TrainConfig,
               params: dict[str, Tensor], max_epochs: int, shuffle_tag: int,
               utterance_loss, out_dir: str | None, log,
               baseline: bool = False) -> TrainResult:
    """The epoch loop both phases share.

    Each mini-batch is encoded with one ``encode`` call.
    ``utterance_loss(utt, index, epoch, enc)`` returns the utterance's scalar
    loss, built on its encoder states ``enc``, and its per-sample total
    rewards (empty when the phase samples nothing). Each utterance's loss
    reads a cut of its encoder states, so its backward runs at once through
    its own decoder only; one backward per batch then carries the gradients
    the cuts collected through the encoder. With ``baseline`` the unchanged
    start is evaluated and logged as epoch 0 and is the best checkpoint
    until an epoch beats it.
    """
    adam = AdamState.new(params)
    rows: list[MetricsRow] = []
    best: Checkpoint | None = None
    if baseline:
        dev_cer = evaluate(dev, params, config.model, beam=config.eval_beam).cer
        rows.append(MetricsRow(epoch=0, phase=phase, train_loss=float("nan"),
                               mean_reward=float("nan"), dev_cer=dev_cer))
        log(f"[{phase}] start: dev_cer {dev_cer:.4f}")
        best = _snapshot(config, phase, 0, dev_cer, params)
    stale = 0
    for epoch in range(1, max_epochs + 1):
        started = time.monotonic()
        order = np.random.default_rng([config.seed, shuffle_tag, epoch]).permutation(len(train))
        epoch_loss = reward_sum = 0.0
        reward_count = 0
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            for p in params.values():
                p.zero_grad()
            utts = [train.utterances[int(idx)] for idx in chunk]
            encs = encode([utt.features for utt in utts], params, config.model)
            links = []  # (encoder output, its cut)
            for idx, utt, enc in zip(chunk, utts, encs):
                cut = EncoderStates(states=ad.cut(enc.states), source_length=enc.source_length,
                                    mlp_proj=ad.cut(enc.mlp_proj))
                links += [(enc.states, cut.states), (enc.mlp_proj, cut.mlp_proj)]
                loss, totals = utterance_loss(utt, int(idx), epoch, cut)
                ad.backward(loss)
                value = loss.item()
                if not np.isfinite(value):
                    raise RuntimeError(f"[{phase}] loss became non-finite at epoch {epoch} "
                                       f"on utterance {utt.uid}")
                epoch_loss += value
                reward_sum += float(sum(totals))
                reward_count += len(totals)
            ad.backward(ad.resume([(t, c.grad) for t, c in links]))
            grads = _grads_over(params, len(chunk))
            for name, g in grads.items():
                if not np.all(np.isfinite(g)):
                    uids = [train.utterances[int(i)].uid for i in chunk]
                    raise RuntimeError(f"[{phase}] gradient of {name} became non-finite at "
                                       f"epoch {epoch} in the batch of {', '.join(uids)}")
            adam_update(params, grads, adam, config.learning_rate)
        _assert_finite(params, epoch)
        dev_cer = evaluate(dev, params, config.model, beam=config.eval_beam).cer
        train_loss = epoch_loss / len(train)
        mean_reward = reward_sum / reward_count if reward_count else float("nan")
        rows.append(MetricsRow(epoch=epoch, phase=phase, train_loss=train_loss,
                               mean_reward=mean_reward, dev_cer=dev_cer))
        reward_part = f"mean_reward {mean_reward:.3f} " if reward_count else ""
        log(f"[{phase}] epoch {epoch}: loss {train_loss:.4f} {reward_part}"
            f"dev_cer {dev_cer:.4f} ({time.monotonic() - started:.1f}s)")
        if best is None or dev_cer < best.best_dev_cer:
            best = _snapshot(config, phase, epoch, dev_cer, params)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return _finish_phase(rows, best, out_dir, phase, log)


def _teacher_forced_loss(params: dict[str, Tensor], model: ModelConfig):
    """The per-utterance loss of teacher-forced training: the negative
    log-prob of the transcript and eos."""
    def utterance_loss(utt, idx, epoch, enc):
        target = utt.transcript + (model.eos_id,)
        total, _ = sequence_log_prob(utt.features, target, params, model, enc=enc)
        return ad.scale(total, -1.0), ()
    return utterance_loss


def train_mle(train: Corpus, dev: Corpus, config: TrainConfig,
              out_dir: str | None = None, log=lambda msg: None) -> TrainResult:
    """Teacher-forced training with greedy dev CER early stopping."""
    _check_corpus(train, config.model, "train")
    _check_corpus(dev, config.model, "dev")
    params = init_params(config.model, config.seed)
    return _run_phase("mle", train, dev, config, params, config.mle_max_epochs,
                      _TAG_SHUFFLE_MLE, _teacher_forced_loss(params, config.model),
                      out_dir, log)


def train_rl(train: Corpus, dev: Corpus, config: TrainConfig, start: Checkpoint,
              out_dir: str | None = None, log=lambda msg: None) -> TrainResult:
    """Reward-augmented training from an existing checkpoint.

    Per utterance, one rollout forces a row through the transcript and eos
    and samples num_samples more from the model's own predictions. The loss
    is the dot product of its step log-probs with constant coefficients: -1
    on the forced steps (the likelihood loss) and -rl_weight times the
    REINFORCE coefficients on the sampled ones. With rl_weight 0 the loss is
    the teacher-forced one and nothing is sampled. The optimizer and reward
    statistics start fresh for this phase.
    """
    _check_corpus(train, config.model, "train")
    _check_corpus(dev, config.model, "dev")
    validate_checkpoint(start, config.model)
    params = _tensors_from_arrays(start.params)
    stats = MovingStats()
    rl_cfg = config.rl

    def reward_loss(utt, idx, epoch, enc):
        batch = sample_sequences(
            utt.features, params, config.model, rl_cfg.num_samples, None,
            np.random.SeedSequence([config.seed, _TAG_SAMPLES, epoch, idx]), enc=enc,
            transcript=utt.transcript)
        coeffs, totals = rl_surrogate(batch, utt.transcript, rl_cfg, stats)
        weights = np.concatenate([np.full(batch.forced_steps, -1.0), -rl_cfg.rl_weight * coeffs])
        return ad.matmul(batch.log_probs, ad.constant(weights)), totals

    utterance_loss = (_teacher_forced_loss(params, config.model) if rl_cfg.rl_weight == 0.0
                      else reward_loss)
    return _run_phase("rl", train, dev, config, params, config.rl_max_epochs,
                      _TAG_SHUFFLE_RL, utterance_loss, out_dir, log, baseline=True)
