"""Sequence generation: ancestral sampling, greedy decoding, beam search.

Generation stops when eos is emitted or when max_len symbols have been
produced without it (recorded as truncated). Hypothesis scores are length
normalized: total log-prob divided by the grapheme count plus one, counting
the eos step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import (DecoderState, EncoderStates, ModelConfig, decode_step,
                    default_max_len, encode, initial_decoder_state)


@dataclass(frozen=True)
class Hypothesis:
    """One decoded sequence. graphemes excludes eos; step_log_probs includes
    the eos step when the sequence terminated."""

    graphemes: tuple[int, ...]
    step_log_probs: tuple[float, ...]
    total_log_prob: float
    normalized_score: float
    truncated: bool = False
    # tape handles for the picked log-probs, kept when sampling under grad
    lp_nodes: tuple[Tensor, ...] | None = field(default=None, repr=False, compare=False)


def _finish(graphemes: list[int], lps: list[float], truncated: bool,
            nodes: list[Tensor] | None) -> Hypothesis:
    total = 0.0
    for v in lps:
        total += v
    return Hypothesis(
        graphemes=tuple(graphemes),
        step_log_probs=tuple(lps),
        total_log_prob=total,
        normalized_score=total / (len(graphemes) + 1),
        truncated=truncated,
        lp_nodes=tuple(nodes) if nodes is not None else None,
    )


@dataclass(frozen=True)
class SampleBatch:
    """M sampled hypotheses for one utterance with their RNG substream keys."""

    utterance_index: int
    samples: tuple[Hypothesis, ...]
    seeds: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("a sample batch needs at least one sample")
        if len(self.seeds) != len(self.samples):
            raise ValueError("seeds and samples must align")


def _as_seed_sequence(rng) -> np.random.SeedSequence:
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.SeedSequence(int(rng))
    return np.random.SeedSequence([int(v) for v in rng])


def _substream(root: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    # deterministic child derivation, independent of how often the root is used
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (index,))


def _gemv_rows(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w as one vector-matrix product per row.

    A single (R, K) @ (K, N) product would run as a GEMM whose last bits
    depend on R; per-row products give each row exactly the bits of the
    1-D product in ``decode_step``, whatever the number of rows.
    """
    return (rows[:, None, :] @ w)[:, 0]


def _mat_rows(mat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """mat @ row for every row, again one matrix-vector product per row."""
    return (mat @ rows[:, :, None])[:, :, 0]


def _rollout(enc: EncoderStates, params, config: ModelConfig, max_len: int,
             num_rows: int, choose) -> list[Hypothesis]:
    """Decode ``num_rows`` sequences side by side as one taped operation.

    ``choose(log_probs, rows, step)`` gets the (R, V) log-probs of the live
    rows and their row ids and returns each row's next symbol id. A row
    drops out once it emits eos. Every value equals, bit for bit, what a
    loop over ``decode_step`` gives for that row alone. The tape records
    one node whose outputs are the picked log-probs, with a hand-written
    backward (BPTT over the cached per-step arrays).
    """
    hd, emb_dim, eos = config.dec_hidden, config.embed_dim, config.eos_id
    embed = params["dec.embed.w"]
    w_ih, w_hh, b = params["dec.lstm.w_ih"], params["dec.lstm.w_hh"], params["dec.lstm.b"]
    w_out, b_out = params["dec.out.w"], params["dec.out.b"]
    henc = enc.states.data
    inputs = [embed, w_ih, w_hh, b, w_out, b_out, enc.states]
    if config.scorer == "bilinear":
        w_att = params["att.bilinear.w"]
        inputs.append(w_att)
    elif config.scorer == "mlp":
        proj, w_dec, v = enc.mlp_proj, params["att.mlp.w_dec"], params["att.mlp.v"]
        inputs += [proj, w_dec, v]

    live = np.arange(num_rows)
    prev = np.full(num_rows, config.sos_id)
    h = np.zeros((num_rows, hd))
    c = np.zeros((num_rows, hd))
    ctx = np.zeros((num_rows, config.enc_out_dim))
    emitted: list[list[int]] = [[] for _ in range(num_rows)]
    lps: list[list[float]] = [[] for _ in range(num_rows)]
    slots: list[list[int]] = [[] for _ in range(num_rows)]
    truncated = [True] * num_rows
    picked = []
    cache = []
    for step in range(max_len):
        x = np.concatenate([embed.data[prev], ctx], axis=1)
        pre = _gemv_rows(x, w_ih.data) + _gemv_rows(h, w_hh.data) + b.data
        i, f, g, o = ad._lstm_gates(pre, hd)
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc

        att = None  # the scorer's saved intermediate: W h (bilinear) or tanh(pre) (mlp)
        if config.scorer == "dot":
            scores = _mat_rows(henc, h_new)
        elif config.scorer == "bilinear":
            att = _mat_rows(w_att.data, h_new)
            scores = _mat_rows(henc, att)
        else:
            att = np.tanh(proj.data + _gemv_rows(h_new, w_dec.data)[:, None, :])
            scores = att @ v.data
        e = np.exp(scores - np.max(scores, axis=1, keepdims=True))
        align = e / e.sum(axis=1, keepdims=True)
        ctx_new = _gemv_rows(align, henc)

        hc = np.concatenate([h_new, ctx_new], axis=1)
        logits = _gemv_rows(hc, w_out.data) + b_out.data
        shifted = logits - np.max(logits, axis=1, keepdims=True)
        log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))

        y = np.asarray(choose(log_probs, live, step), dtype=np.int64)
        lp = log_probs[np.arange(live.shape[0]), y]
        cache.append((live, prev, x, h, c, i, f, g, o, tc, h_new, att, align, hc,
                      log_probs, y))
        for k, row in enumerate(live.tolist()):
            slots[row].append(len(picked) + k)
            lps[row].append(float(lp[k]))
            if y[k] == eos:
                truncated[row] = False
            else:
                emitted[row].append(int(y[k]))
        picked.extend(lp)
        keep = y != eos
        if not keep.any():
            break
        live, prev, h, c, ctx = live[keep], y[keep], h_new[keep], c_new[keep], ctx_new[keep]

    def bwd(gs, sink):
        g_all = np.array([float(gv) for gv in gs])
        dh = np.zeros((num_rows, hd))
        dc = np.zeros((num_rows, hd))
        dctx = np.zeros((num_rows, config.enc_out_dim))
        d_henc = np.zeros_like(henc)
        d_embed = np.zeros_like(embed.data)
        if config.scorer == "bilinear":
            d_w_att = np.zeros_like(w_att.data)
        elif config.scorer == "mlp":
            d_proj, d_w_dec, d_v = (np.zeros_like(t.data) for t in (proj, w_dec, v))
        xs, hs, das, hcs, dzs = [], [], [], [], []
        end = len(g_all)
        for (rows, prev_ids, x, h_prev, c_prev, i, f, g, o, tc, h_new, att, align,
             hc, log_probs, y) in reversed(cache):
            n = rows.shape[0]
            gl = g_all[end - n:end]
            end -= n
            # log-softmax of the picked entries, then the output layer
            dz = np.exp(log_probs) * -gl[:, None]
            dz[np.arange(n), y] += gl
            hcs.append(hc)
            dzs.append(dz)
            dhc = dz @ w_out.data.T
            dh_t = dhc[:, :hd] + dh[rows]
            dctx_t = dhc[:, hd:] + dctx[rows]
            # context = align @ henc, align = softmax(scores)
            d_align = dctx_t @ henc.T
            d_henc += align.T @ dctx_t
            ds = align * (d_align - np.sum(align * d_align, axis=1, keepdims=True))
            if config.scorer == "dot":
                dh_t += ds @ henc
                d_henc += ds.T @ h_new
            elif config.scorer == "bilinear":
                du = ds @ henc
                d_henc += ds.T @ att
                d_w_att += du.T @ h_new
                dh_t += du @ w_att.data
            else:
                d_v += np.einsum("rs,rsa->a", ds, att)
                d_pre = ds[:, :, None] * v.data * (1.0 - att * att)
                d_proj += d_pre.sum(axis=0)
                dq = d_pre.sum(axis=1)
                d_w_dec += h_new.T @ dq
                dh_t += dq @ w_dec.data.T
            da, dc_t = ad._lstm_grads(dh_t, dc[rows], c_prev, i, f, g, o, tc)
            xs.append(x)
            hs.append(h_prev)
            das.append(da)
            dx = da @ w_ih.data.T
            np.add.at(d_embed, prev_ids, dx[:, :emb_dim])
            dctx[rows] = dx[:, emb_dim:]
            dh[rows] = da @ w_hh.data.T
            dc[rows] = dc_t * f
        da_all = np.concatenate(das)
        dz_all = np.concatenate(dzs)
        sink(embed, d_embed)
        sink(w_ih, np.concatenate(xs).T @ da_all)
        sink(w_hh, np.concatenate(hs).T @ da_all)
        sink(b, da_all.sum(axis=0))
        sink(w_out, np.concatenate(hcs).T @ dz_all)
        sink(b_out, dz_all.sum(axis=0))
        sink(enc.states, d_henc)
        if config.scorer == "bilinear":
            sink(w_att, d_w_att)
        elif config.scorer == "mlp":
            sink(proj, d_proj)
            sink(w_dec, d_w_dec)
            sink(v, d_v)

    nodes = ad._make([np.asarray(value) for value in picked], inputs, bwd)
    return [_finish(emitted[r], lps[r], truncated[r], [nodes[k] for k in slots[r]])
            for r in range(num_rows)]


def sample_sequences(features, params, config: ModelConfig, num_samples: int,
                     max_len: int | None, rng, utterance_index: int = 0,
                     enc: EncoderStates | None = None) -> SampleBatch:
    """Draw num_samples sequences, each conditioned on its own predictions.

    ``rng`` seeds a root stream; sample m uses the deterministic substream
    (root, m), so the batch is reproducible regardless of evaluation order
    and sample m does not depend on num_samples. The samples run as rows of
    one rollout, which records the tape so the picked log-probs stay
    differentiable. A caller that already encoded ``features`` passes the
    result as ``enc``.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    root = _as_seed_sequence(rng)
    if enc is None:
        enc = encode(features, params, config)
    if max_len is None:
        max_len = default_max_len(enc.source_length, config)
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    children = [_substream(root, m) for m in range(num_samples)]
    gens = [np.random.default_rng(child) for child in children]
    last = config.vocab_size - 1

    def draw(log_probs, rows, _step):
        cum = np.cumsum(np.exp(log_probs), axis=1)
        u = np.array([gens[r].random() for r in rows.tolist()]) * cum[:, -1]
        # cum is non-decreasing, so this counts what searchsorted(side="right") finds
        return np.minimum(np.sum(cum <= u[:, None], axis=1), last)

    samples = _rollout(enc, params, config, max_len, num_samples, draw)
    seeds = tuple(tuple(int(k) for k in child.spawn_key) for child in children)
    return SampleBatch(utterance_index=utterance_index, samples=tuple(samples),
                       seeds=seeds)


def forced_decode(features, params, config: ModelConfig, graphemes,
                  terminated: bool = True, enc: EncoderStates | None = None) -> Hypothesis:
    """Score a fixed emission sequence through the sampling path.

    Used by enumeration oracles: the decoder is driven exactly as during
    sampling but the "draws" are prescribed.
    """
    symbols = [int(g) for g in graphemes] + ([config.eos_id] if terminated else [])
    if not symbols:
        raise ValueError("forced_decode needs at least one emission")
    for y in symbols:
        if y < 0 or y >= config.vocab_size:
            raise IndexError(f"symbol id {y} out of range [0, {config.vocab_size})")
    if enc is None:
        enc = encode(features, params, config)
    return _rollout(enc, params, config, len(symbols), 1,
                    lambda _lp, _rows, step: [symbols[step]])[0]


def greedy_decode(features, params, config: ModelConfig,
                  max_len: int | None = None) -> Hypothesis:
    """Pick the argmax symbol at every step (ties to the smaller id)."""
    with ad.no_grad():
        enc = encode(features, params, config)
        if max_len is None:
            max_len = default_max_len(enc.source_length, config)
        return _rollout(enc, params, config, max_len, 1,
                        lambda lp, _rows, _step: np.argmax(lp, axis=1))[0]


def beam_search(features, params, config: ModelConfig, beam: int = 5,
                max_len: int | None = None) -> Hypothesis:
    """Beam search over grapheme expansions, maximizing the normalized score.

    At each step all expansions of the live hypotheses are pooled and ranked
    by cumulative log-prob; the top ``beam`` survive. Survivors ending in eos
    are finalized, as is anything still alive at max_len (truncated). Ties
    break toward the lexicographically smaller grapheme sequence.
    """
    if beam < 1:
        raise ValueError(f"beam width must be at least 1, got {beam}")
    with ad.no_grad():
        enc = encode(features, params, config)
        if max_len is None:
            max_len = default_max_len(enc.source_length, config)

        # live items: (graphemes, lps, cumulative, state, prev_id)
        live = [((), (), 0.0, initial_decoder_state(config), config.sos_id)]
        finished: list[Hypothesis] = []
        for _ in range(max_len):
            pool = []
            for graphemes, lps, cum, state, prev in live:
                log_probs, new_state = decode_step(prev, state, enc, params, config)
                for y in range(config.vocab_size):
                    lp = float(log_probs.data[y])
                    emitted = graphemes + (y,)
                    pool.append((cum + lp, emitted, lps + (lp,), new_state, y))
            pool.sort(key=lambda item: (-item[0], item[1]))
            live = []
            for cum, emitted, lps, state, y in pool[:beam]:
                if y == config.eos_id:
                    finished.append(_finish(list(emitted[:-1]), list(lps), False, None))
                else:
                    live.append((emitted, lps, cum, state, y))
            if not live:
                break
        for graphemes, lps, _cum, _state, _prev in live:
            finished.append(_finish(list(graphemes), list(lps), True, None))
        finished.sort(key=lambda h: (-h.normalized_score, h.graphemes))
        return finished[0]
