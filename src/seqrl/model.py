"""Attention encoder-decoder over frame features and grapheme outputs.

Encoder: linear input projection + LeakyReLU, then stacked bidirectional
LSTM layers; the top layers keep every second output frame, shrinking the
time axis by two each. Decoder: single LSTM whose input is the previous
grapheme embedding concatenated with the previous context vector; attention
is computed from the fresh decoder state and the output layer reads the
concatenation of decoder state and context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError

SCORERS = ("dot", "bilinear", "mlp")


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
    scorer: str = "mlp"
    mlp_hidden: int = 32

    def __post_init__(self):
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
        if self.scorer not in SCORERS:
            raise ConfigError(f"scorer must be one of {SCORERS}, got {self.scorer!r}")
        if self.scorer == "dot" and 2 * self.enc_hidden != self.dec_hidden:
            raise ConfigError(
                f"dot scorer requires 2*enc_hidden == dec_hidden, got "
                f"{2 * self.enc_hidden} != {self.dec_hidden}")

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
    if config.scorer == "bilinear":
        shapes["att.bilinear.w"] = (eo, hd)
    elif config.scorer == "mlp":
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


def check_params(params: dict[str, Tensor], config: ModelConfig) -> None:
    """Verify the name set and shapes against the config."""
    expected = param_shapes(config)
    missing = sorted(set(expected) - set(params))
    extra = sorted(set(params) - set(expected))
    if missing or extra:
        raise ValueError(f"parameter names do not match config: missing={missing}, extra={extra}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(f"parameter {name} has shape {params[name].shape}, expected {shape}")


@dataclass
class EncoderStates:
    """Per-frame encoder states after subsampling, plus the raw frame count.

    With the mlp scorer, ``mlp_proj`` holds the encoder side of the attention
    preactivation, ``states @ att.mlp.w_enc``, computed once per utterance.
    """

    states: Tensor  # (S', 2 * enc_hidden)
    source_length: int
    mlp_proj: Tensor | None = None  # (S', mlp_hidden), mlp scorer only


@dataclass
class DecoderState:
    h: Tensor
    c: Tensor
    prev_context: Tensor
    step_index: int = 0


def initial_decoder_state(config: ModelConfig) -> DecoderState:
    return DecoderState(
        h=ad.constant(np.zeros(config.dec_hidden)),
        c=ad.constant(np.zeros(config.dec_hidden)),
        prev_context=ad.constant(np.zeros(config.enc_out_dim)),
        step_index=0,
    )


def encode(features, params: dict[str, Tensor], config: ModelConfig) -> EncoderStates:
    """Run the bidirectional pyramid encoder over (S, feature_dim) frames."""
    x = features if isinstance(features, Tensor) else ad.constant(features)
    if x.data.ndim != 2 or x.shape[1] != config.feature_dim:
        raise ValueError(f"features must be (S, {config.feature_dim}), got {x.shape}")
    source_length = x.shape[0]
    if source_length < 2 ** config.subsample_layers:
        raise ValueError(
            f"input of {source_length} frames is too short for "
            f"{config.subsample_layers} subsampling layers")

    x = ad.leaky_relu(ad.add_row(ad.matmul(x, params["enc.proj.w"]), params["enc.proj.b"]))
    first_subsampled = config.enc_layers - config.subsample_layers
    for layer in range(config.enc_layers):
        steps = x.shape[0]
        fwd = f"enc.l{layer}.fwd"
        pre_f = ad.add_row(ad.matmul(x, params[f"{fwd}.w_ih"]), params[f"{fwd}.b"])
        h_f = ad.lstm_sequence(pre_f, params[f"{fwd}.w_hh"])
        rev = list(range(steps - 1, -1, -1))
        bwd = f"enc.l{layer}.bwd"
        x_rev = ad.gather_rows(x, rev)
        pre_b = ad.add_row(ad.matmul(x_rev, params[f"{bwd}.w_ih"]), params[f"{bwd}.b"])
        h_b = ad.gather_rows(ad.lstm_sequence(pre_b, params[f"{bwd}.w_hh"]), rev)
        x = ad.concat([h_f, h_b], axis=1)
        if layer >= first_subsampled:
            x = ad.gather_rows(x, range(0, steps, 2))
    mlp_proj = ad.matmul(x, params["att.mlp.w_enc"]) if config.scorer == "mlp" else None
    return EncoderStates(states=x, source_length=source_length, mlp_proj=mlp_proj)


def attention_score(h_enc: Tensor, h_dec: Tensor, params: dict[str, Tensor],
                    config: ModelConfig) -> Tensor:
    """Relevance score of one encoder state for one decoder state (0-D)."""
    if config.scorer == "dot":
        return ad.matmul(h_enc, h_dec)
    if config.scorer == "bilinear":
        return ad.matmul(h_enc, ad.matmul(params["att.bilinear.w"], h_dec))
    pre = ad.add(ad.matmul(h_enc, params["att.mlp.w_enc"]),
                 ad.matmul(h_dec, params["att.mlp.w_dec"]))
    return ad.matmul(ad.tanh(pre), params["att.mlp.v"])


def attend(enc: EncoderStates, h_dec: Tensor, params: dict[str, Tensor],
           config: ModelConfig) -> tuple[Tensor, Tensor]:
    """Softmax alignment over encoder frames and the resulting context vector."""
    henc = enc.states
    if config.scorer == "dot":
        scores = ad.matmul(henc, h_dec)
    elif config.scorer == "bilinear":
        scores = ad.matmul(henc, ad.matmul(params["att.bilinear.w"], h_dec))
    else:
        pre = ad.add_row(enc.mlp_proj, ad.matmul(h_dec, params["att.mlp.w_dec"]))
        scores = ad.matmul(ad.tanh(pre), params["att.mlp.v"])
    alignment = ad.softmax(scores)
    context = ad.matmul(alignment, henc)
    return context, alignment


def decode_step(prev_id: int, state: DecoderState, enc: EncoderStates,
                params: dict[str, Tensor], config: ModelConfig) -> tuple[Tensor, DecoderState]:
    """Advance the decoder by one symbol; returns (log_probs, new_state).

    The LSTM consumes [embed(prev_id); previous context]; attention runs on
    the new hidden state; logits read [hidden; context].
    """
    prev_id = int(prev_id)
    if prev_id < 0 or prev_id > config.sos_id:
        raise IndexError(f"symbol id {prev_id} out of range [0, {config.sos_id}]")
    emb = ad.reshape(ad.gather_rows(params["dec.embed.w"], [prev_id]), (config.embed_dim,))
    x = ad.concat([emb, state.prev_context])
    h_new, c_new = ad.lstm_cell(x, state.h, state.c, params["dec.lstm.w_ih"],
                                params["dec.lstm.w_hh"], params["dec.lstm.b"])
    context, _ = attend(enc, h_new, params, config)
    logits = ad.add(ad.matmul(ad.concat([h_new, context]), params["dec.out.w"]),
                    params["dec.out.b"])
    log_probs = ad.log_softmax(logits)
    new_state = DecoderState(h=h_new, c=c_new, prev_context=context,
                             step_index=state.step_index + 1)
    return log_probs, new_state


def sequence_log_prob(features, transcript, params: dict[str, Tensor],
                      config: ModelConfig,
                      enc: EncoderStates | None = None) -> tuple[Tensor, list[Tensor]]:
    """Teacher-forced log P(transcript | features).

    The transcript must end with eos. Returns the total (0-D tensor) and the
    per-step picked log-probs, whose values sum to the total. A caller that
    already encoded ``features`` passes the result as ``enc``.
    """
    transcript = [int(y) for y in transcript]
    if not transcript or transcript[-1] != config.eos_id:
        raise ValueError("transcript must be non-empty and end with eos")
    for y in transcript[:-1]:
        if y < 0 or y >= config.eos_id:
            raise IndexError(f"transcript symbol id {y} out of range [0, {config.eos_id})")
    if enc is None:
        enc = encode(features, params, config)
    state = initial_decoder_state(config)
    prev = config.sos_id
    per_step: list[Tensor] = []
    for y in transcript:
        log_probs, state = decode_step(prev, state, enc, params, config)
        per_step.append(ad.pick(log_probs, y))
        prev = y
    return ad.add_n(per_step), per_step


def default_max_len(source_length: int, config: ModelConfig) -> int:
    """Decode-length cap: twice the subsampled frame count plus five."""
    return 2 * config.subsampled_length(source_length) + 5


def count_params(config: ModelConfig) -> int:
    return sum(math.prod(s) for s in param_shapes(config).values())
