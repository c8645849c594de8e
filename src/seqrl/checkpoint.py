"""Checkpoint files: a model's parameters and the run that produced them.

Text format with 17-significant-digit decimal floats, which round-trip
float64 exactly: save -> load -> save reproduces the file byte for byte.
Version 1 files also carried the seed, Adam moments and reward statistics;
they still load, and those lines are checked and dropped. Files of either
version written while the model had a choice of attention scorers echo
``"scorer": "mlp"`` in their model config; that key is checked and dropped
too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import _expect_kv, _f17, _LineReader, _write_lines
from .errors import ParseError, SchemaError
from .model import ModelConfig, param_shapes


@dataclass
class Checkpoint:
    """Parameters at one point in training and where they came from."""

    config: dict  # echo of the training configuration
    phase: str  # "mle" or "rl"
    epoch: int
    best_dev_cer: float
    params: dict[str, np.ndarray]


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    lines = ["checkpoint v2",
             "config " + json.dumps(ckpt.config, sort_keys=True, separators=(",", ":")),
             f"phase {ckpt.phase}",
             f"epoch {ckpt.epoch}",
             f"best_dev_cer {_f17(ckpt.best_dev_cer)}",
             f"params {len(ckpt.params)}"]
    for name, arr in ckpt.params.items():
        lines.append(f"param {name} " + " ".join(str(d) for d in arr.shape))
        for row in arr.reshape(arr.shape[0], -1) if arr.ndim == 2 else [arr]:
            lines.append(" ".join(_f17(v) for v in row))
    lines.append("end")
    _write_lines(path, lines)


def _floats(text: str, reader: _LineReader) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split()], dtype=np.float64)
    except ValueError:
        raise ParseError("expected a row of decimal floats", reader.line_no) from None


def _row(reader: _LineReader, what: str) -> np.ndarray:
    row = _floats(reader.next(what), reader)
    if not np.isfinite(row).all():
        raise ParseError("array values must be finite", reader.line_no)
    return row


def _read_array(reader: _LineReader, tag: str, name: str) -> np.ndarray:
    head = reader.next(f"'{tag} {name} ...'")
    parts = head.split()
    if len(parts) < 3 or parts[0] != tag or parts[1] != name:
        raise ParseError(f"expected '{tag} {name} <shape>', got {head!r}", reader.line_no)
    try:
        shape = tuple(int(d) for d in parts[2:])
    except ValueError:
        raise ParseError("array shape must be integers", reader.line_no) from None
    if min(shape) < 0:
        raise ParseError(f"array shape must be non-negative, got {shape}", reader.line_no)
    if len(shape) == 1:
        row = _row(reader, "array values")
        if row.shape[0] != shape[0]:
            raise ParseError(f"expected {shape[0]} values, got {row.shape[0]}", reader.line_no)
        return row
    if len(shape) == 2:
        rows = []
        for _ in range(shape[0]):
            row = _row(reader, "array row")
            if row.shape[0] != shape[1]:
                raise ParseError(f"expected {shape[1]} values per row, got {row.shape[0]}",
                                 reader.line_no)
            rows.append(row)
        return np.stack(rows) if rows else np.zeros(shape)
    raise ParseError(f"unsupported array rank {len(shape)}", reader.line_no)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a v2 checkpoint, or a v1 one whose optimizer and reward lines are dropped."""
    reader = _LineReader(path)
    header = reader.next("header")
    if header not in ("checkpoint v1", "checkpoint v2"):
        raise ParseError("expected header 'checkpoint v2' or 'checkpoint v1'", reader.line_no)
    v1 = header == "checkpoint v1"
    try:
        config = json.loads(_expect_kv(reader, "config"))
    except json.JSONDecodeError:
        raise ParseError("config echo is not valid JSON", reader.line_no) from None
    model = config.get("model") if isinstance(config, dict) else None
    scorer = model.pop("scorer", "mlp") if isinstance(model, dict) else "mlp"
    if scorer != "mlp":
        raise SchemaError(f"checkpoint {path} uses {scorer!r} attention; only 'mlp' attention "
                          f"is supported")
    phase = _expect_kv(reader, "phase")
    try:
        epoch = int(_expect_kv(reader, "epoch"))
        best_dev_cer = float(_expect_kv(reader, "best_dev_cer"))
        if v1:
            int(_expect_kv(reader, "seed"))
            int(_expect_kv(reader, "adam_t"))
            float(_expect_kv(reader, "stats_decay"))
            mu = _floats(_expect_kv(reader, "stats_mu", allow_empty=True), reader)
            sigma = _floats(_expect_kv(reader, "stats_sigma", allow_empty=True), reader)
            if mu.shape != sigma.shape:
                raise SchemaError("stats_mu and stats_sigma lengths differ")
        n_params = int(_expect_kv(reader, "params"))
    except ValueError:
        raise ParseError("malformed numeric header field", reader.line_no) from None
    params: dict[str, np.ndarray] = {}
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
        if v1 and any(_read_array(reader, tag, name).shape != params[name].shape
                      for tag in ("adam_m", "adam_v")):
            raise SchemaError(f"optimizer moment shapes for {name} do not match the parameter")
    if reader.next("'end'") != "end":
        raise ParseError("expected 'end'", reader.line_no)
    if reader.pos != len(reader.lines):
        raise ParseError("trailing content after 'end'", reader.pos + 1)
    return Checkpoint(config=config, phase=phase, epoch=epoch, best_dev_cer=best_dev_cer,
                      params=params)


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
