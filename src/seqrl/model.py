"""Attention encoder-decoder over frame features and grapheme outputs.

Encoder: linear input projection + LeakyReLU, then stacked bidirectional
LSTM layers; the top layers keep every second output frame, shrinking the
time axis by two each; a batch of utterances runs, both directions of each,
as rows of one recurrence. Decoder: single LSTM whose input is the previous
grapheme embedding concatenated with the previous context vector; MLP
attention (Bahdanau-style: v . tanh(W_enc h_enc + W_dec h_dec)) is computed
from the fresh decoder state and the output layer reads the concatenation of
decoder state and context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, check_field_types


@dataclass(frozen=True)
class ModelConfig:
    """Structural hyperparameters. vocab_size counts graphemes plus eos."""

    vocab_size: int
    feature_dim: int = 16
    enc_hidden: int = 32
    enc_layers: int = 3
    subsample_layers: int = 2
    embed_dim: int = 16
    dec_hidden: int = 64
    mlp_hidden: int = 32

    def __post_init__(self):
        check_field_types(self)
        for name in ("vocab_size", "feature_dim", "enc_hidden", "enc_layers",
                     "embed_dim", "dec_hidden", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must cover at least one grapheme plus eos")
        if self.subsample_layers < 0 or self.subsample_layers > self.enc_layers - 1:
            raise ConfigError(
                f"subsample_layers must lie in [0, enc_layers-1], got "
                f"{self.subsample_layers} with enc_layers={self.enc_layers}")

    @property
    def eos_id(self) -> int:
        return self.vocab_size - 1

    @property
    def sos_id(self) -> int:
        # embedding-table-only id, one past the last legal output
        return self.vocab_size

    @property
    def enc_out_dim(self) -> int:
        return 2 * self.enc_hidden

    def subsampled_length(self, source_length: int) -> int:
        s = source_length
        for _ in range(self.subsample_layers):
            s = (s + 1) // 2
        return s


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes, a pure function of the config."""
    he, hd = config.enc_hidden, config.dec_hidden
    eo = config.enc_out_dim
    shapes: dict[str, tuple[int, ...]] = {
        "enc.proj.w": (config.feature_dim, eo),
        "enc.proj.b": (eo,),
    }
    for layer in range(config.enc_layers):
        for direction in ("fwd", "bwd"):
            prefix = f"enc.l{layer}.{direction}"
            shapes[f"{prefix}.w_ih"] = (eo, 4 * he)
            shapes[f"{prefix}.w_hh"] = (he, 4 * he)
            shapes[f"{prefix}.b"] = (4 * he,)
    shapes["att.mlp.w_enc"] = (eo, config.mlp_hidden)
    shapes["att.mlp.w_dec"] = (hd, config.mlp_hidden)
    shapes["att.mlp.v"] = (config.mlp_hidden,)
    shapes["dec.embed.w"] = (config.vocab_size + 1, config.embed_dim)
    shapes["dec.lstm.w_ih"] = (config.embed_dim + eo, 4 * hd)
    shapes["dec.lstm.w_hh"] = (hd, 4 * hd)
    shapes["dec.lstm.b"] = (4 * hd,)
    shapes["dec.out.w"] = (hd + eo, config.vocab_size)
    shapes["dec.out.b"] = (config.vocab_size,)
    return shapes


def init_params(config: ModelConfig, seed: int, scale: float = 0.08) -> dict[str, Tensor]:
    """Uniform [-scale, scale] weights; LSTM forget-gate bias slices set to 1."""
    rng = np.random.default_rng([int(seed), 0])
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        params[name] = ad.parameter(rng.uniform(-scale, scale, size=shape))
    for name, t in params.items():
        if name.endswith(".b") and (".l" in name or name == "dec.lstm.b"):
            hidden = t.shape[0] // 4
            t.data[hidden:2 * hidden] = 1.0
    return params


@dataclass
class EncoderStates:
    """Per-frame encoder states after subsampling, plus the raw frame count.

    ``mlp_proj`` holds the encoder side of the attention preactivation,
    ``states @ att.mlp.w_enc``, computed once per utterance.
    """

    states: Tensor  # (S', 2 * enc_hidden)
    source_length: int
    mlp_proj: Tensor  # (S', mlp_hidden)


def encode(features, params: dict[str, Tensor], config: ModelConfig) -> list[EncoderStates]:
    """Run the bidirectional pyramid encoder over a batch of utterances.

    ``features`` is a list of (S, feature_dim) frame arrays, one per
    utterance; the result holds each one's ``EncoderStates``, in the same
    order. Both directions of every utterance run, layer by layer, as rows of
    one recurrence, and the tape records the whole batch as one node with a
    hand-written backward. Each utterance gets exactly the bits it gets
    encoded alone: the input projections stay one product per utterance and
    the recurrent product one vector-matrix product per row.
    """
    feats = []
    for x in features:
        x = x.data if isinstance(x, Tensor) else ad.constant(x).data
        if x.ndim != 2 or x.shape[1] != config.feature_dim:
            raise ValueError(f"features must be (S, {config.feature_dim}), got {x.shape}")
        if x.shape[0] < 2 ** config.subsample_layers:
            raise ValueError(
                f"input of {x.shape[0]} frames is too short for "
                f"{config.subsample_layers} subsampling layers")
        feats.append(x)
    if not feats:
        raise ValueError("encode needs at least one utterance")
    # longest first, so the rows still running at any step are a prefix
    order = sorted(range(len(feats)), key=lambda u: -feats[u].shape[0])
    feats = [feats[u] for u in order]
    he, eo, nb = config.enc_hidden, config.enc_out_dim, len(feats)
    first_subsampled = config.enc_layers - config.subsample_layers
    # per layer: the (forward, backward) pair of w_ih, of w_hh and of b
    layers = [[[params[f"enc.l{layer}.{d}.{w}"] for d in ("fwd", "bwd")]
               for w in ("w_ih", "w_hh", "b")] for layer in range(config.enc_layers)]
    w_proj, b_proj = params["enc.proj.w"], params["enc.proj.b"]
    w_enc = params["att.mlp.w_enc"]
    inputs = [w_proj, b_proj] + [t for layer in layers for pair in layer for t in pair] + [w_enc]

    xs = [x @ w_proj.data + b_proj.data for x in feats]
    xs = [np.where(x > 0, x, 0.01 * x) for x in xs]
    saved = []  # each layer's inputs, gates and cell states, kept only for the tape
    for layer, tensors in enumerate(layers):
        outs, gates, cells = _bilstm(xs, *([t.data for t in pair] for pair in tensors))
        if ad._recording():
            saved.append((xs, gates, cells))
        xs = [y[::2].copy() if layer >= first_subsampled else y for y in outs]
    projs = [x @ w_enc.data for x in xs]

    def bwd(gs, sink):
        d_proj = [gs[nb + u] for u in order]
        sink(w_enc, sum(x.T @ g for x, g in zip(xs, d_proj)))
        dx = [gs[u] + g @ w_enc.data.T for u, g in zip(order, d_proj)]
        for layer in reversed(range(config.enc_layers)):
            inputs_l, gates, cells = saved[layer]
            d_out = np.zeros(cells.shape)
            for r, x in enumerate(inputs_l):
                s, d = x.shape[0], dx[r]
                if layer >= first_subsampled:
                    d = np.zeros((s, eo))
                    d[::2] = dx[r]
                d_out[0, r, :s] = d[:, :he]
                d_out[1, r, :s] = d[::-1, he:]
            dx, grads = _bilstm_backward(d_out, inputs_l, gates, cells,
                                         *([t.data for t in pair] for pair in layers[layer][:2]))
            for pair, g in zip(layers[layer], grads):
                sink(pair[0], g[0])
                sink(pair[1], g[1])
        # the leaky ReLU's output is positive exactly where its input is
        d_pre = np.concatenate([d * np.where(x > 0, 1.0, 0.01)
                                for d, x in zip(dx, saved[0][0])])
        sink(w_proj, np.concatenate(feats).T @ d_pre)
        sink(b_proj, d_pre.sum(axis=0))

    rank = np.argsort(order).tolist()  # each utterance's row
    outs = ad._make([xs[r] for r in rank] + [projs[r] for r in rank], inputs, bwd)
    return [EncoderStates(states=outs[u], source_length=feats[r].shape[0], mlp_proj=outs[nb + u])
            for u, r in enumerate(rank)]


def _lstm_gates(pre: np.ndarray, hidden: int, out: np.ndarray | None = None):
    """The four gates of ``pre``, laid out along its last axis as [input,
    forget, cell, output], as views of one array (``out`` if given):
    sigmoids, computed as 0.5 * (1 + tanh(pre / 2)), and tanh for the cell."""
    act = np.multiply(pre, 0.5, out=out)
    np.tanh(act, out=act)
    act += 1.0
    act *= 0.5
    np.tanh(pre[..., 2 * hidden:3 * hidden], out=act[..., 2 * hidden:3 * hidden])
    return tuple(act[..., k * hidden:(k + 1) * hidden] for k in range(4))


def _lstm_grads(dh, dc, c_prev, i, f, g, o, tc):
    """Backward through one LSTM step's gates.

    dh and dc are the gradients reaching the step's new hidden and cell
    states from outside the cell; tc is tanh of the new cell state. Returns
    the gradient of the gate preactivations and the total gradient of the
    new cell state (times f, that is the gradient of the previous one).
    """
    dc = dc + dh * o * (1.0 - tc * tc)
    da = np.concatenate([
        dc * g * i * (1.0 - i),
        dc * c_prev * f * (1.0 - f),
        dc * i * (1.0 - g * g),
        dh * tc * o * (1.0 - o),
    ], axis=-1)
    return da, dc


def _bilstm(xs, w_ih, w_hh, b):
    """One bidirectional LSTM layer over rows sorted longest first.

    ``xs`` holds each row's (S, D) inputs; ``w_ih``, ``w_hh`` and ``b`` each
    hold the forward and the backward direction's array. Returns each row's
    (S, 2H) outputs, and each direction's gates and cell states in the order
    it computed them, (2, B, S, 4H) and (2, B, S, H), zero past each row's
    end.
    """
    lengths = [x.shape[0] for x in xs]
    nb, steps, hidden = len(xs), lengths[0], w_hh[0].shape[0]
    # the input preactivations, each row reversed for the backward direction;
    # every step overwrites its own with its gates
    gates = np.zeros((2, nb, steps, 4 * hidden))
    for r, (x, s) in enumerate(zip(xs, lengths)):
        gates[0, r, :s] = x @ w_ih[0] + b[0]
        gates[1, r, :s] = x[::-1].copy() @ w_ih[1] + b[1]
    w_rec = np.stack(w_hh)[:, None]
    out = np.empty((2, nb, steps, hidden))
    cells = np.zeros((2, nb, steps, hidden))
    h = c = np.zeros((2, nb, hidden))
    n = nb
    for t in range(steps):
        while lengths[n - 1] <= t:
            n -= 1
        act = gates[:, :n, t]
        # (2, n, 1, H) @ (2, 1, H, 4H): one vector-matrix product per row
        i, f, g, o = _lstm_gates(act + (h[:, :n, None, :] @ w_rec)[:, :, 0], hidden, out=act)
        c = np.add(f * c[:, :n], i * g, out=cells[:, :n, t])
        h = np.multiply(o, np.tanh(c), out=out[:, :n, t])
    outs = [np.concatenate([out[0, r, :s], out[1, r, s - 1::-1]], axis=1)
            for r, s in enumerate(lengths)]
    return outs, gates, cells


def _bilstm_backward(d_out, xs, gates, cells, w_ih, w_hh):
    """BPTT through one ``_bilstm`` layer, all rows and both directions at once.

    ``d_out`` holds the gradient of each direction's hidden states in the
    order it computed them, (2, B, S, H). Returns the gradient of each row's
    inputs, and those of w_ih, w_hh and b, each stacked over the directions.
    """
    lengths = [x.shape[0] for x in xs]
    nb, steps, hidden = cells.shape[1:]
    i, f, g, o = np.split(gates, 4, axis=-1)
    tc = np.tanh(cells)
    # each step's gate gradients are these factors times the gradient of its
    # cell state (input, forget and cell gates) or hidden state (output gate)
    k_cell = np.zeros((2, nb, steps, 3, hidden))
    np.multiply(g, i * (1.0 - i), out=k_cell[..., 0, :])
    np.multiply(cells[:, :, :-1], (f * (1.0 - f))[:, :, 1:], out=k_cell[:, :, 1:, 1, :])
    np.multiply(i, 1.0 - g * g, out=k_cell[..., 2, :])
    k_out = tc * o * (1.0 - o)
    k_hc = o * (1.0 - tc * tc)  # from the hidden state's gradient to the cell's
    w_hh_t = np.stack(w_hh).transpose(0, 2, 1)
    d_pre = np.zeros(gates.shape)
    d_gate = d_pre.reshape(2, nb, steps, 4, hidden)
    dh, dc = np.zeros((2, 2, nb, hidden))  # what flows back into each row's h and c
    n = 0
    for t in range(steps - 1, -1, -1):
        while n < nb and lengths[n] > t:
            n += 1
        dh_t = dh[:, :n] + d_out[:, :n, t]
        dc_t = dc[:, :n] + dh_t * k_hc[:, :n, t]
        np.multiply(dc_t[:, :, None], k_cell[:, :n, t], out=d_gate[:, :n, t, :3])
        np.multiply(dh_t, k_out[:, :n, t], out=d_gate[:, :n, t, 3])
        dh[:, :n] = d_pre[:, :n, t] @ w_hh_t
        dc[:, :n] = dc_t * f[:, :n, t]
    # the hidden state each step read: zero at the start, o * tanh(c) after
    h_prev = np.zeros(cells.shape)
    h_prev[:, :, 1:] = o[:, :, :-1] * tc[:, :, :-1]
    d_w_hh = h_prev.reshape(2, -1, hidden).transpose(0, 2, 1) @ d_pre.reshape(2, -1, 4 * hidden)
    # the input side in time order: the backward direction read each row reversed
    x_all = np.concatenate(xs)
    d_fwd = np.concatenate([d_pre[0, r, :s] for r, s in enumerate(lengths)])
    d_bwd = np.concatenate([d_pre[1, r, s - 1::-1] for r, s in enumerate(lengths)])
    d_x = d_fwd @ w_ih[0].T + d_bwd @ w_ih[1].T
    grads = (np.stack([x_all.T @ d_fwd, x_all.T @ d_bwd]), d_w_hh,
             np.stack([d_fwd.sum(axis=0), d_bwd.sum(axis=0)]))
    return np.split(d_x, np.cumsum(lengths)[:-1]), grads


@dataclass
class DecoderState:
    h: np.ndarray
    c: np.ndarray
    prev_context: np.ndarray


def initial_decoder_state(config: ModelConfig) -> DecoderState:
    return DecoderState(h=np.zeros(config.dec_hidden), c=np.zeros(config.dec_hidden),
                        prev_context=np.zeros(config.enc_out_dim))


def attend(enc: EncoderStates, h_dec: np.ndarray, params: dict[str, Tensor],
           config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Softmax alignment over encoder frames and the resulting context vector,
    for one decoder state."""
    henc = enc.states.data
    pre = enc.mlp_proj.data + h_dec @ params["att.mlp.w_dec"].data
    scores = np.tanh(pre) @ params["att.mlp.v"].data
    e = np.exp(scores - np.max(scores))
    alignment = e / e.sum()
    return alignment @ henc, alignment


def decode_step(prev_id: int, state: DecoderState, enc: EncoderStates,
                params: dict[str, Tensor], config: ModelConfig) -> tuple[np.ndarray, DecoderState]:
    """Advance the decoder by one symbol; returns (log_probs, new_state).

    The LSTM consumes [embed(prev_id); previous context]; attention runs on
    the new hidden state; logits read [hidden; context]. This is the
    per-step reference that the tests hold the rollout and beam search to,
    bit for bit: plain numpy, one vector at a time, recording nothing on the
    tape. No library code calls it or ``attend``; the benchmark's tracer
    looks both up by name.
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
    context, _ = attend(enc, h_new, params, config)
    logits = (np.concatenate([h_new, context]) @ params["dec.out.w"].data
              + params["dec.out.b"].data)
    shifted = logits - np.max(logits)
    log_probs = shifted - np.log(np.sum(np.exp(shifted)))
    return log_probs, DecoderState(h=h_new, c=c_new, prev_context=context)


def _gemv_rows(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w as one vector-matrix product per row.

    A single (R, K) @ (K, N) product would run as a GEMM whose last bits
    depend on R; per-row products give each row exactly the bits of the
    1-D product in ``decode_step``, whatever the number of rows.
    """
    return (rows[:, None, :] @ w)[:, 0]


def _step_rows(enc: EncoderStates, params, config: ModelConfig, prev: np.ndarray,
               h: np.ndarray, c: np.ndarray, ctx: np.ndarray):
    """Advance R decoder rows by one symbol in plain numpy, off the tape.

    ``prev`` holds each row's previous symbol id; ``h``, ``c`` and ``ctx``
    its decoder state and previous context, one row each. Returns the (R, V)
    log-probs, the new ``h``, ``c`` and context, and the arrays the
    rollout's backward saves. Each row gets exactly the bits of
    ``decode_step`` for that row alone.
    """
    hd, henc = config.dec_hidden, enc.states.data
    x = np.concatenate([params["dec.embed.w"].data[prev], ctx], axis=1)
    pre = (_gemv_rows(x, params["dec.lstm.w_ih"].data)
           + _gemv_rows(h, params["dec.lstm.w_hh"].data) + params["dec.lstm.b"].data)
    i, f, g, o = _lstm_gates(pre, hd)
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    h_new = o * tc

    q = _gemv_rows(h_new, params["att.mlp.w_dec"].data)
    att = np.tanh(enc.mlp_proj.data + q[:, None, :])
    scores = att @ params["att.mlp.v"].data
    e = np.exp(scores - np.max(scores, axis=1, keepdims=True))
    align = e / e.sum(axis=1, keepdims=True)
    ctx_new = _gemv_rows(align, henc)

    hc = np.concatenate([h_new, ctx_new], axis=1)
    logits = _gemv_rows(hc, params["dec.out.w"].data) + params["dec.out.b"].data
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    return log_probs, h_new, c_new, ctx_new, (x, i, f, g, o, tc, att, align, hc)


def _rollout(enc: EncoderStates, params, config: ModelConfig, caps,
             choose) -> tuple[list[tuple], Tensor]:
    """Decode one sequence per entry of ``caps`` side by side as one taped
    operation.

    ``choose(log_probs, rows, step)`` gets the (R, V) log-probs of the live
    rows and their row ids and returns each row's next symbol id. A row
    drops out once it emits eos or has run ``caps[row]`` steps. Every value
    equals, bit for bit, what a loop over ``decode_step`` gives for that row
    alone.

    Returns each row's plain ``(graphemes, step log-probs, truncated)``, eos
    left out of the graphemes, and one 1-D tensor of every picked log-prob,
    row after row. The tape records that tensor as one node with a
    hand-written backward (BPTT over the cached per-step arrays).
    """
    hd, emb_dim, eos = config.dec_hidden, config.embed_dim, config.eos_id
    embed = params["dec.embed.w"]
    w_ih, w_hh, b = params["dec.lstm.w_ih"], params["dec.lstm.w_hh"], params["dec.lstm.b"]
    w_out, b_out = params["dec.out.w"], params["dec.out.b"]
    henc = enc.states.data
    proj, w_dec, v = enc.mlp_proj, params["att.mlp.w_dec"], params["att.mlp.v"]
    inputs = [embed, w_ih, w_hh, b, w_out, b_out, enc.states, proj, w_dec, v]

    caps = np.asarray(caps, dtype=np.int64)
    num_rows = caps.shape[0]
    live = np.arange(num_rows)
    prev = np.full(num_rows, config.sos_id)
    h = np.zeros((num_rows, hd))
    c = np.zeros((num_rows, hd))
    ctx = np.zeros((num_rows, config.enc_out_dim))
    row_ids, symbols, picked = [], [], []
    cache = []
    for step in range(int(caps.max())):
        log_probs, h_new, c_new, ctx_new, saved = _step_rows(enc, params, config,
                                                             prev, h, c, ctx)
        y = np.asarray(choose(log_probs, live, step), dtype=np.int64)
        cache.append((live, prev, h, c, h_new, log_probs, y) + saved)
        row_ids.extend(live.tolist())
        symbols.extend(y.tolist())
        picked.extend(log_probs[np.arange(live.shape[0]), y])
        keep = (y != eos) & (caps[live] > step + 1)
        if not keep.any():
            break
        live, prev, h, c, ctx = live[keep], y[keep], h_new[keep], c_new[keep], ctx_new[keep]

    # the lists above run step by step; the output runs row by row
    row_ids = np.array(row_ids, dtype=np.int64)
    order = np.argsort(row_ids, kind="stable")
    out = np.array(picked, dtype=np.float64)[order]
    symbols = np.array(symbols, dtype=np.int64)[order].tolist()

    def bwd(gs, sink):
        g_all = np.empty_like(gs[0])
        g_all[order] = gs[0]
        dh = np.zeros((num_rows, hd))
        dc = np.zeros((num_rows, hd))
        dctx = np.zeros((num_rows, config.enc_out_dim))
        d_henc = np.zeros_like(henc)
        d_embed = np.zeros_like(embed.data)
        d_proj, d_w_dec, d_v = (np.zeros_like(t.data) for t in (proj, w_dec, v))
        xs, hs, das, hcs, dzs = [], [], [], [], []
        end = len(g_all)
        for (rows, prev_ids, h_prev, c_prev, h_new, log_probs, y, x, i, f, g, o, tc,
             att, align, hc) in reversed(cache):
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
            # scores = tanh(proj + h_new @ w_dec) @ v
            d_v += np.einsum("rs,rsa->a", ds, att)
            d_pre = ds[:, :, None] * v.data * (1.0 - att * att)
            d_proj += d_pre.sum(axis=0)
            dq = d_pre.sum(axis=1)
            d_w_dec += h_new.T @ dq
            dh_t += dq @ w_dec.data.T
            da, dc_t = _lstm_grads(dh_t, dc[rows], c_prev, i, f, g, o, tc)
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
        sink(proj, d_proj)
        sink(w_dec, d_w_dec)
        sink(v, d_v)

    results, end = [], 0
    for n in np.bincount(row_ids, minlength=num_rows).tolist():
        seq, lps = symbols[end:end + n], tuple(out[end:end + n].tolist())
        truncated = seq[-1:] != [eos]
        results.append((tuple(seq if truncated else seq[:-1]), lps, truncated))
        end += n
    return results, ad._make([out], inputs, bwd)[0]


def _grapheme_ids(graphemes, config: ModelConfig) -> list[int]:
    """``graphemes`` as ints, each checked to be a grapheme id (eos is not)."""
    ids = [int(y) for y in graphemes]
    for y in ids:
        if y < 0 or y >= config.eos_id:
            raise IndexError(f"grapheme id {y} out of range [0, {config.eos_id})")
    return ids


def sequence_log_prob(features, transcript, params: dict[str, Tensor],
                      config: ModelConfig,
                      enc: EncoderStates | None = None) -> tuple[Tensor, Tensor]:
    """Teacher-forced log P(transcript | features).

    The transcript must end with eos; the decoder is forced through it as
    one row of the fused rollout. Returns the total (0-D tensor, summed left
    to right) and the 1-D tensor of per-step picked log-probs. A caller that
    already encoded ``features`` passes the result as ``enc``.
    """
    transcript = [int(y) for y in transcript]
    if not transcript or transcript[-1] != config.eos_id:
        raise ValueError("transcript must be non-empty and end with eos")
    _grapheme_ids(transcript[:-1], config)
    if enc is None:
        enc = encode([features], params, config)[0]
    _, per_step = _rollout(enc, params, config, [len(transcript)],
                           lambda _lp, _rows, step: [transcript[step]])
    return ad.sum_all(per_step), per_step


def default_max_len(source_length: int, config: ModelConfig) -> int:
    """Decode-length cap: twice the subsampled frame count plus five."""
    return 2 * config.subsampled_length(source_length) + 5
