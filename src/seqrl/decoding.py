"""Sequence generation: ancestral sampling, greedy decoding, beam search.

Generation stops when eos is emitted or when max_len symbols have been
produced without it (recorded as truncated). Hypothesis scores are length
normalized: total log-prob divided by the grapheme count plus one, counting
the eos step. Sampling, greedy decoding and forced scoring run as rows of
the model's fused rollout; beam search runs its live hypotheses as rows of
the rollout's decoder step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import (EncoderStates, ModelConfig, _grapheme_ids, _rollout, _step_rows,
                    default_max_len, encode)


@dataclass(frozen=True)
class Hypothesis:
    """One decoded sequence. graphemes excludes eos; step_log_probs includes
    the eos step when the sequence terminated."""

    graphemes: tuple[int, ...]
    step_log_probs: tuple[float, ...]
    total_log_prob: float
    normalized_score: float
    truncated: bool = False


def _finish(graphemes, lps, truncated: bool) -> Hypothesis:
    total = 0.0
    for v in lps:
        total += v
    return Hypothesis(
        graphemes=tuple(graphemes),
        step_log_probs=tuple(lps),
        total_log_prob=total,
        normalized_score=total / (len(graphemes) + 1),
        truncated=truncated,
    )


@dataclass(frozen=True)
class SampleBatch:
    """M sampled hypotheses for one utterance with their RNG substream keys.

    ``log_probs`` is the rollout's 1-D tensor of step log-probs: first the
    ``forced_steps`` steps of the row forced through the transcript, if one
    was given, then every sampled step, sample after sample. The training
    loss differentiates through it.
    """

    samples: tuple[Hypothesis, ...]
    seeds: tuple[tuple[int, ...], ...]
    log_probs: Tensor
    forced_steps: int = 0

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("a sample batch needs at least one sample")
        if len(self.seeds) != len(self.samples):
            raise ValueError("seeds and samples must align")
        steps = self.forced_steps + sum(len(h.step_log_probs) for h in self.samples)
        if self.log_probs.shape != (steps,):
            raise ValueError("log_probs must hold one entry per forced and sampled step")


def _resolve_max_len(max_len: int | None, enc: EncoderStates, config: ModelConfig) -> int:
    """The decode-length cap: ``default_max_len`` when None, at least 1."""
    if max_len is None:
        max_len = default_max_len(enc.source_length, config)
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    return max_len


def _as_seed_sequence(rng) -> np.random.SeedSequence:
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.SeedSequence(int(rng))
    return np.random.SeedSequence([int(v) for v in rng])


def _substream(root: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    # deterministic child derivation, independent of how often the root is used
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (index,))


def sample_sequences(features, params, config: ModelConfig, num_samples: int,
                     max_len: int | None, rng, enc: EncoderStates | None = None,
                     transcript=None) -> SampleBatch:
    """Draw num_samples sequences, each conditioned on its own predictions.

    ``rng`` seeds a root stream; sample m uses the deterministic substream
    (root, m), so the batch is reproducible regardless of evaluation order
    and sample m does not depend on num_samples. The samples run as rows of
    one rollout, which records the tape so the batch's log-probs stay
    differentiable. Given a ``transcript`` (grapheme ids), one more row,
    first in the rollout, is forced through it and eos, whatever
    ``max_len`` says, and draws nothing: the samples are those drawn
    without it. A caller that already encoded ``features`` passes the
    result as ``enc``.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    root = _as_seed_sequence(rng)
    forced = [] if transcript is None else _grapheme_ids(transcript, config) + [config.eos_id]
    if enc is None:
        enc = encode([features], params, config)[0]
    max_len = _resolve_max_len(max_len, enc, config)
    children = [_substream(root, m) for m in range(num_samples)]
    gens = [np.random.default_rng(child) for child in children]
    last = config.vocab_size - 1
    first = 1 if forced else 0  # the row id of sample 0

    def draw(log_probs, rows, step):
        # live rows keep their order, so a live forced row is the first one
        lead = 1 if first and rows[0] == 0 else 0
        cum = np.cumsum(np.exp(log_probs[lead:]), axis=1)
        u = np.array([gens[r - first].random() for r in rows[lead:].tolist()]) * cum[:, -1]
        # cum is non-decreasing, so this counts what searchsorted(side="right") finds
        drawn = np.minimum(np.sum(cum <= u[:, None], axis=1), last)
        return np.concatenate([[forced[step]], drawn]) if lead else drawn

    caps = ([len(forced)] if first else []) + [max_len] * num_samples
    rows, log_probs = _rollout(enc, params, config, caps, draw)
    seeds = tuple(tuple(int(k) for k in child.spawn_key) for child in children)
    return SampleBatch(samples=tuple(_finish(*row) for row in rows[first:]), seeds=seeds,
                       log_probs=log_probs, forced_steps=len(forced))


def forced_decode(features, params, config: ModelConfig, graphemes,
                  terminated: bool = True,
                  enc: EncoderStates | None = None) -> tuple[Hypothesis, Tensor]:
    """Score a fixed emission sequence through the sampling path.

    Used by enumeration oracles: the decoder is driven exactly as during
    sampling but the "draws" are prescribed. Returns the hypothesis and the
    rollout's tensor of its step log-probs.
    """
    symbols = _grapheme_ids(graphemes, config) + ([config.eos_id] if terminated else [])
    if not symbols:
        raise ValueError("forced_decode needs at least one emission")
    if enc is None:
        enc = encode([features], params, config)[0]
    rows, log_probs = _rollout(enc, params, config, [len(symbols)],
                               lambda _lp, _rows, step: [symbols[step]])
    return _finish(*rows[0]), log_probs


def greedy_decode(features, params, config: ModelConfig, max_len: int | None = None,
                  enc: EncoderStates | None = None) -> Hypothesis:
    """Pick the argmax symbol at every step (ties to the smaller id). A caller
    that already encoded ``features`` passes the result as ``enc``."""
    with ad.no_grad():
        if enc is None:
            enc = encode([features], params, config)[0]
        rows, _ = _rollout(enc, params, config, [_resolve_max_len(max_len, enc, config)],
                           lambda lp, _rows, _step: np.argmax(lp, axis=1))
    return _finish(*rows[0])


def beam_search(features, params, config: ModelConfig, beam: int = 5,
                max_len: int | None = None, enc: EncoderStates | None = None) -> Hypothesis:
    """Beam search over grapheme expansions, maximizing the normalized score.

    At each step all expansions of the live hypotheses are pooled and ranked
    by cumulative log-prob; the top ``beam`` survive. Survivors ending in eos
    are finalized, as is anything still alive at max_len (truncated). Ties
    break toward the lexicographically smaller grapheme sequence. The live
    hypotheses advance together as rows of the model's decoder step. A
    caller that already encoded ``features`` passes the result as ``enc``.
    """
    if beam < 1:
        raise ValueError(f"beam width must be at least 1, got {beam}")
    if enc is None:
        with ad.no_grad():
            enc = encode([features], params, config)[0]
    max_len = _resolve_max_len(max_len, enc, config)
    # one row per live hypothesis, kept in lexicographic order of graphemes,
    # so the row-major flat index orders expansions as their graphemes do
    prev = np.array([config.sos_id])
    h = np.zeros((1, config.dec_hidden))
    c = np.zeros((1, config.dec_hidden))
    ctx = np.zeros((1, config.enc_out_dim))
    cum = np.zeros(1)
    live = [((), ())]  # each row's (graphemes, step log-probs)
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        log_probs, h, c, ctx, _ = _step_rows(enc, params, config, prev, h, c, ctx)
        scores = (cum[:, None] + log_probs).ravel()
        # the stable sort breaks score ties toward the smaller flat index,
        # that is the smaller grapheme sequence; survivors keep flat order
        top = np.sort(np.argsort(-scores, kind="stable")[:beam])
        rows, ys = np.divmod(top, config.vocab_size)
        grown = [(live[r][0] + (y,), live[r][1] + (lp,)) for r, y, lp in
                 zip(rows.tolist(), ys.tolist(), log_probs[rows, ys].tolist())]
        keep = ys != config.eos_id
        mask = keep.tolist()
        finished += [_finish(g[:-1], lps, False) for (g, lps), k in zip(grown, mask) if not k]
        live = [item for item, k in zip(grown, mask) if k]
        if not live:
            break
        prev, cum, rows = ys[keep], scores[top[keep]], rows[keep]
        h, c, ctx = h[rows], c[rows], ctx[rows]
    finished += [_finish(g, lps, True) for g, lps in live]
    finished.sort(key=lambda hyp: (-hyp.normalized_score, hyp.graphemes))
    return finished[0]
