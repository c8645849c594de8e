"""Synthetic grapheme-to-frames corpus and line-delimited corpus files.

The text-file layer here (line reader, ``key value`` parser, 17-digit float
formatter, atomic line writer) is shared with checkpoints, metrics files and
evaluation reports.

Each grapheme owns a fixed random prototype feature vector; an utterance
emits frames_per_symbol noisy copies of the prototype per transcript symbol.
With zero noise the mapping is exactly invertible by nearest-prototype
lookup, which anchors the data-path tests.
"""

from __future__ import annotations

import os
import string
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError, SchemaError

EOS = "<eos>"
SOS = "<sos>"

# letter graphemes, apostrophe, period, dash, space, noise, eos: 32 symbols
CHAR32_GRAPHEMES = tuple(string.ascii_lowercase) + ("'", ".", "-", "<space>", "<noise>")


@dataclass(frozen=True)
class Vocabulary:
    """Grapheme inventory with eos and sos appended at the end.

    Ids are dense: graphemes take 0..G-1, eos_id == G, sos_id == G+1. The
    model emits ids below sos_id only; sos exists for the embedding table.
    """

    symbols: tuple[str, ...]
    eos_id: int
    sos_id: int

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError("vocabulary symbols must be unique")
        for s in self.symbols:
            if not s or any(ch.isspace() for ch in s):
                raise ConfigError(f"symbol {s!r} must be non-empty and whitespace-free")
        if self.symbols.count(EOS) != 1 or self.symbols.count(SOS) != 1:
            raise ConfigError(f"vocabulary must contain {EOS} and {SOS} exactly once")
        if self.eos_id != len(self.symbols) - 2 or self.symbols[self.eos_id] != EOS:
            raise ConfigError("eos must be the second-to-last symbol")
        if self.sos_id != len(self.symbols) - 1 or self.symbols[self.sos_id] != SOS:
            raise ConfigError("sos must be the last symbol")

    @classmethod
    def from_graphemes(cls, graphemes) -> "Vocabulary":
        graphemes = tuple(graphemes)
        return cls(symbols=graphemes + (EOS, SOS),
                   eos_id=len(graphemes), sos_id=len(graphemes) + 1)

    @property
    def num_graphemes(self) -> int:
        return len(self.symbols) - 2

    @property
    def model_vocab_size(self) -> int:
        """Output ids the model predicts over: graphemes plus eos."""
        return len(self.symbols) - 1

    def to_symbols(self, ids) -> tuple[str, ...]:
        return tuple(self.symbols[int(i)] for i in ids)

    def to_string(self, ids) -> str:
        return "".join(self.to_symbols(ids))

    def ids_of(self, symbols) -> tuple[int, ...]:
        index = {s: i for i, s in enumerate(self.symbols)}
        try:
            return tuple(index[s] for s in symbols)
        except KeyError as exc:
            raise SchemaError(f"symbol {exc.args[0]!r} is not in the vocabulary") from None


def default_vocabulary(num_graphemes: int = 8) -> Vocabulary:
    if not 1 <= num_graphemes <= 26:
        raise ConfigError(f"num_graphemes must lie in [1, 26], got {num_graphemes}")
    return Vocabulary.from_graphemes(string.ascii_lowercase[:num_graphemes])


def char32_vocabulary() -> Vocabulary:
    return Vocabulary.from_graphemes(CHAR32_GRAPHEMES)


@dataclass(frozen=True)
class Utterance:
    uid: str
    features: np.ndarray  # (S, feature_dim), float64
    transcript: tuple[int, ...]  # grapheme ids, no eos

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ConfigError(f"features must be 2-D, got shape {self.features.shape}")
        if len(self.transcript) == 0:
            raise ConfigError(f"utterance {self.uid} has an empty transcript")


@dataclass
class Corpus:
    vocab: Vocabulary
    feature_dim: int
    utterances: list[Utterance] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


def prototype_matrix(vocab: Vocabulary, feature_dim: int, seed: int) -> np.ndarray:
    """Per-symbol prototype feature vectors, one row per vocabulary id."""
    rng = np.random.default_rng([int(seed), 0])
    return rng.standard_normal((len(vocab.symbols), feature_dim))


def generate_corpus(vocab: Vocabulary, n_utts: int, len_range: tuple[int, int],
                    frames_per_symbol: int, noise_sigma: float, seed: int,
                    feature_dim: int = 16) -> Corpus:
    """Sample transcripts uniformly and emit noisy prototype frames.

    Every utterance draws from its own (seed, index) substream, so the corpus
    is reproducible independent of generation order.
    """
    lo, hi = int(len_range[0]), int(len_range[1])
    if not 1 <= lo <= hi <= 50:
        raise ConfigError(f"len_range must satisfy 1 <= lo <= hi <= 50, got ({lo}, {hi})")
    if n_utts < 0:
        raise ConfigError(f"n_utts must be non-negative, got {n_utts}")
    if frames_per_symbol < 1:
        raise ConfigError(f"frames_per_symbol must be positive, got {frames_per_symbol}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ConfigError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    if feature_dim < 1:
        raise ConfigError(f"feature_dim must be positive, got {feature_dim}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    protos = prototype_matrix(vocab, feature_dim, seed)
    utts = []
    for u in range(n_utts):
        rng = np.random.default_rng([int(seed), 1, u])
        length = int(rng.integers(lo, hi + 1))
        ids = rng.integers(0, vocab.num_graphemes, size=length)
        frames = np.repeat(protos[ids], frames_per_symbol, axis=0)
        if noise_sigma > 0:
            frames = frames + rng.normal(0.0, noise_sigma, size=frames.shape)
        utts.append(Utterance(uid=f"u{u:05d}", features=frames,
                              transcript=tuple(int(i) for i in ids)))
    return Corpus(vocab=vocab, feature_dim=feature_dim, utterances=utts)


def generate_splits(vocab: Vocabulary, counts: dict[str, int],
                    len_range: tuple[int, int], frames_per_symbol: int,
                    noise_sigma: float, seed: int,
                    feature_dim: int = 16) -> dict[str, Corpus]:
    """Carve one generated stream into disjoint splits.

    All splits share the prototype matrix (same underlying task) but no
    utterance appears in two splits.
    """
    order = ("train", "dev", "test")
    unknown = sorted(set(counts) - set(order))
    if unknown:
        raise ConfigError(f"unknown split names: {unknown}")
    for name, n in counts.items():
        if n < 0:
            raise ConfigError(f"{name} split size must be non-negative, got {n}")
    total = sum(counts.get(name, 0) for name in order)
    pool = generate_corpus(vocab, total, len_range, frames_per_symbol,
                           noise_sigma, seed, feature_dim=feature_dim)
    out = {}
    start = 0
    for name in order:
        n = counts.get(name, 0)
        if n > 0:
            out[name] = Corpus(vocab=vocab, feature_dim=feature_dim,
                               utterances=pool.utterances[start:start + n])
            start += n
    return out


def _f17(x: float) -> str:
    """17 significant digits, which round-trip float64 exactly."""
    return f"{float(x):.17g}"


@contextmanager
def _atomic_open(path: str):
    """A text file that replaces ``path`` only once the block completes.

    The block writes a temporary file next to ``path``, which is then
    renamed over it. If the block or the rename fails, the temporary file is
    removed and any previous ``path`` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_lines(path: str, lines: list[str]) -> None:
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write the line-delimited corpus file (bit-exact float round trip)."""
    lines = ["corpus v1",
             f"feature_dim {corpus.feature_dim}",
             "symbols " + " ".join(corpus.vocab.symbols),
             f"eos_id {corpus.vocab.eos_id}",
             f"sos_id {corpus.vocab.sos_id}",
             f"utterances {len(corpus.utterances)}"]
    for utt in corpus.utterances:
        words = " ".join(corpus.vocab.to_symbols(utt.transcript))
        lines.append(f"utt {utt.uid} {utt.features.shape[0]} {words}")
        for row in utt.features:
            lines.append(" ".join(_f17(v) for v in row))
    _write_lines(path, lines)


class _LineReader:
    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise ParseError(f"unexpected end of file, expected {what}", self.pos + 1)
        self.pos += 1
        return self.lines[self.pos - 1]

    @property
    def line_no(self) -> int:
        return self.pos


def _expect_kv(reader: _LineReader, key: str, allow_empty: bool = False) -> str:
    """Value of a ``key value`` line; with allow_empty a bare ``key`` gives ""."""
    line = reader.next(f"'{key} ...'")
    parts = line.split(maxsplit=1)
    if parts[:1] != [key] or (len(parts) == 1 and not allow_empty):
        raise ParseError(f"expected '{key} ...', got {line!r}", reader.line_no)
    return parts[1] if len(parts) == 2 else ""


def load_corpus(path: str) -> Corpus:
    """Parse a corpus file; malformed content raises ParseError with its line."""
    reader = _LineReader(path)
    if reader.next("header").strip() != "corpus v1":
        raise ParseError("expected header 'corpus v1'", reader.line_no)
    try:
        feature_dim = int(_expect_kv(reader, "feature_dim"))
    except ValueError:
        raise ParseError("feature_dim must be an integer", reader.line_no) from None
    if feature_dim < 1:
        raise ParseError(f"feature_dim must be positive, got {feature_dim}", reader.line_no)
    symbols = tuple(_expect_kv(reader, "symbols").split())
    try:
        eos_id = int(_expect_kv(reader, "eos_id"))
        sos_id = int(_expect_kv(reader, "sos_id"))
        n_utts = int(_expect_kv(reader, "utterances"))
    except ValueError:
        raise ParseError("expected an integer value", reader.line_no) from None
    if n_utts < 0:
        raise ParseError(f"utterance count must be non-negative, got {n_utts}", reader.line_no)
    try:
        vocab = Vocabulary(symbols=symbols, eos_id=eos_id, sos_id=sos_id)
    except ConfigError as exc:
        raise SchemaError(f"invalid vocabulary in {path}: {exc}") from None

    utts = []
    for _ in range(n_utts):
        header = reader.next("an 'utt' record")
        parts = header.split()
        if len(parts) < 3 or parts[0] != "utt":
            raise ParseError(f"expected 'utt <id> <frames> <symbols...>', got {header!r}",
                             reader.line_no)
        uid = parts[1]
        try:
            n_frames = int(parts[2])
        except ValueError:
            raise ParseError(f"frame count {parts[2]!r} is not an integer", reader.line_no) from None
        if n_frames < 1:
            raise ParseError(f"utterance {uid} must have at least one frame", reader.line_no)
        transcript = vocab.ids_of(parts[3:])
        if not transcript:
            raise ParseError(f"utterance {uid} has an empty transcript", reader.line_no)
        if any(i >= vocab.eos_id for i in transcript):
            raise SchemaError(f"utterance {uid} transcript contains a non-grapheme symbol")
        # rows are read before any array is built, so the header's counts
        # size nothing that the file does not hold
        rows = []
        for r in range(n_frames):
            raw = reader.next(f"feature row {r + 1} of utterance {uid}").split()
            if len(raw) != feature_dim:
                raise ParseError(
                    f"feature row has {len(raw)} values, expected {feature_dim}",
                    reader.line_no)
            try:
                rows.append([float(v) for v in raw])
            except ValueError:
                raise ParseError("feature row contains a non-numeric value",
                                 reader.line_no) from None
        features = np.array(rows)
        bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
        if bad.size:
            raise ParseError("feature values must be finite",
                             reader.line_no - n_frames + 1 + int(bad[0]))
        utts.append(Utterance(uid=uid, features=features, transcript=transcript))
    if reader.pos != len(reader.lines):
        raise ParseError("trailing content after the last utterance", reader.pos + 1)
    return Corpus(vocab=vocab, feature_dim=feature_dim, utterances=utts)


def split_paths(prefix: str) -> dict[str, str]:
    """Conventional file names for the three splits of a corpus family."""
    return {split: f"{prefix}.{split}" for split in ("train", "dev", "test")}
