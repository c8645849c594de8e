"""Checkpoint files: parameters, optimizer moments, reward statistics.

Text format with 17-significant-digit decimal floats, which round-trip
float64 exactly: save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import _expect_kv, _f17, _LineReader, _write_lines
from .errors import ParseError, SchemaError
from .model import ModelConfig, param_shapes
from .rewards import MovingStats


@dataclass
class Checkpoint:
    """Full training state at one point in time."""

    config: dict  # echo of the training configuration
    phase: str  # "mle" or "rl"
    epoch: int
    best_dev_cer: float
    seed: int  # root of all RNG substreams; with epoch, the resumable RNG state
    adam_t: int
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    stats: MovingStats = field(default_factory=MovingStats)


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    lines = ["checkpoint v1",
             "config " + json.dumps(ckpt.config, sort_keys=True, separators=(",", ":")),
             f"phase {ckpt.phase}",
             f"epoch {ckpt.epoch}",
             f"best_dev_cer {_f17(ckpt.best_dev_cer)}",
             f"seed {ckpt.seed}",
             f"adam_t {ckpt.adam_t}",
             f"stats_decay {_f17(ckpt.stats.decay)}",
             ("stats_mu " + " ".join(_f17(v) for v in ckpt.stats.mu)).rstrip(),
             ("stats_sigma " + " ".join(_f17(v) for v in ckpt.stats.sigma)).rstrip(),
             f"params {len(ckpt.params)}"]
    for name in ckpt.params:
        for tag, table in (("param", ckpt.params), ("adam_m", ckpt.adam_m),
                           ("adam_v", ckpt.adam_v)):
            arr = table[name]
            dims = " ".join(str(d) for d in arr.shape)
            lines.append(f"{tag} {name} {dims}")
            for row in arr.reshape(arr.shape[0], -1) if arr.ndim == 2 else [arr]:
                lines.append(" ".join(_f17(v) for v in row))
    lines.append("end")
    _write_lines(path, lines)


def _floats(text: str, reader: _LineReader) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split()], dtype=np.float64)
    except ValueError:
        raise ParseError("expected a row of decimal floats", reader.line_no) from None


def _read_array(reader: _LineReader, tag: str, name: str) -> np.ndarray:
    head = reader.next(f"'{tag} {name} ...'")
    parts = head.split()
    if len(parts) < 3 or parts[0] != tag or parts[1] != name:
        raise ParseError(f"expected '{tag} {name} <shape>', got {head!r}", reader.line_no)
    try:
        shape = tuple(int(d) for d in parts[2:])
    except ValueError:
        raise ParseError("array shape must be integers", reader.line_no) from None
    if len(shape) == 1:
        row = _floats(reader.next("array values"), reader)
        if row.shape[0] != shape[0]:
            raise ParseError(f"expected {shape[0]} values, got {row.shape[0]}", reader.line_no)
        return row
    if len(shape) == 2:
        rows = []
        for _ in range(shape[0]):
            row = _floats(reader.next("array row"), reader)
            if row.shape[0] != shape[1]:
                raise ParseError(f"expected {shape[1]} values per row, got {row.shape[0]}",
                                 reader.line_no)
            rows.append(row)
        return np.stack(rows) if rows else np.zeros(shape)
    raise ParseError(f"unsupported array rank {len(shape)}", reader.line_no)


def load_checkpoint(path: str) -> Checkpoint:
    reader = _LineReader(path)
    if reader.next("header") != "checkpoint v1":
        raise ParseError("expected header 'checkpoint v1'", reader.line_no)
    try:
        config = json.loads(_expect_kv(reader, "config"))
    except json.JSONDecodeError:
        raise ParseError("config echo is not valid JSON", reader.line_no) from None
    phase = _expect_kv(reader, "phase")
    try:
        epoch = int(_expect_kv(reader, "epoch"))
        best_dev_cer = float(_expect_kv(reader, "best_dev_cer"))
        seed = int(_expect_kv(reader, "seed"))
        adam_t = int(_expect_kv(reader, "adam_t"))
        decay = float(_expect_kv(reader, "stats_decay"))
    except ValueError:
        raise ParseError("malformed numeric header field", reader.line_no) from None
    mu = _floats(_expect_kv(reader, "stats_mu", allow_empty=True), reader)
    sigma = _floats(_expect_kv(reader, "stats_sigma", allow_empty=True), reader)
    if mu.shape != sigma.shape:
        raise SchemaError("stats_mu and stats_sigma lengths differ")
    try:
        n_params = int(_expect_kv(reader, "params"))
    except ValueError:
        raise ParseError("params count must be an integer", reader.line_no) from None
    params: dict[str, np.ndarray] = {}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        head = reader.next("'param <name> <shape>'")
        parts = head.split()
        if len(parts) < 3 or parts[0] != "param":
            raise ParseError(f"expected a 'param' block, got {head!r}", reader.line_no)
        name = parts[1]
        if name in params:
            raise SchemaError(f"duplicate parameter {name}")
        reader.pos -= 1
        params[name] = _read_array(reader, "param", name)
        adam_m[name] = _read_array(reader, "adam_m", name)
        adam_v[name] = _read_array(reader, "adam_v", name)
        if params[name].shape != adam_m[name].shape or params[name].shape != adam_v[name].shape:
            raise SchemaError(f"optimizer moment shapes for {name} do not match the parameter")
    if reader.next("'end'") != "end":
        raise ParseError("expected 'end'", reader.line_no)
    return Checkpoint(config=config, phase=phase, epoch=epoch, best_dev_cer=best_dev_cer,
                      seed=seed, adam_t=adam_t, params=params, adam_m=adam_m, adam_v=adam_v,
                      stats=MovingStats(decay=decay, mu=mu, sigma=sigma))


def validate_checkpoint(ckpt: Checkpoint, config: ModelConfig) -> None:
    """Reject checkpoints whose parameters do not match the model config."""
    expected = param_shapes(config)
    missing = sorted(set(expected) - set(ckpt.params))
    extra = sorted(set(ckpt.params) - set(expected))
    if missing or extra:
        raise SchemaError(
            f"checkpoint parameters do not match the model config: "
            f"missing={missing}, extra={extra}")
    for name, shape in expected.items():
        if ckpt.params[name].shape != shape:
            raise SchemaError(
                f"checkpoint parameter {name} has shape {ckpt.params[name].shape}, "
                f"expected {shape}")
