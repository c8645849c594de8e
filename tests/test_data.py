"""Synthetic corpus generation, CER, and the corpus file format."""

import os

import numpy as np
import pytest

from seqrl.data import (Corpus, Utterance, Vocabulary, _atomic_open, char32_vocabulary,
                        default_vocabulary, generate_corpus, generate_splits, load_corpus,
                        prototype_matrix, save_corpus, split_paths)
from seqrl.errors import ConfigError, ParseError, SchemaError
from seqrl.rewards import edit_distance


def cer(hyp_ids, ref_ids) -> float:
    """Character error rate: edit distance over reference length."""
    ref_ids = list(ref_ids)
    if not ref_ids:
        raise ValueError("CER needs a non-empty reference")
    return edit_distance(hyp_ids, ref_ids) / len(ref_ids)


def corpus_cer(pairs) -> float:
    """Pooled CER: total edit distance over total reference length."""
    dist = 0
    ref_len = 0
    for hyp, ref in pairs:
        ref = list(ref)
        if not ref:
            raise ValueError("CER needs non-empty references")
        dist += edit_distance(hyp, ref)
        ref_len += len(ref)
    if ref_len == 0:
        raise ValueError("corpus CER needs at least one utterance")
    return dist / ref_len


def test_vocabulary_layout():
    vocab = default_vocabulary(4)
    assert vocab.symbols == ("a", "b", "c", "d", "<eos>", "<sos>")
    assert vocab.eos_id == 4
    assert vocab.sos_id == 5
    assert vocab.num_graphemes == 4
    assert vocab.model_vocab_size == 5
    assert vocab.to_string([0, 2, 1]) == "acb"
    assert vocab.ids_of(["b", "a"]) == (1, 0)


def test_vocabulary_validation():
    with pytest.raises(ConfigError, match="unique"):
        Vocabulary.from_graphemes(("a", "a"))
    with pytest.raises(ConfigError, match="whitespace"):
        Vocabulary.from_graphemes(("a", "b c"))
    with pytest.raises(ConfigError, match="eos"):
        Vocabulary(symbols=("a", "<sos>", "<eos>"), eos_id=2, sos_id=1)
    with pytest.raises(ConfigError):
        default_vocabulary(0)
    with pytest.raises(ConfigError):
        default_vocabulary(27)
    with pytest.raises(SchemaError, match="not in the vocabulary"):
        default_vocabulary(3).ids_of(["z"])


def test_char32_vocabulary_size():
    vocab = char32_vocabulary()
    assert vocab.model_vocab_size == 32
    assert "<space>" in vocab.symbols
    assert vocab.symbols[0] == "a"


def test_utterance_contract():
    with pytest.raises(ConfigError, match="2-D"):
        Utterance(uid="x", features=np.zeros(3), transcript=(0,))
    with pytest.raises(ConfigError, match="empty transcript"):
        Utterance(uid="x", features=np.zeros((2, 3)), transcript=())


def test_noiseless_corpus_is_exactly_invertible():
    vocab = default_vocabulary(5)
    corpus = generate_corpus(vocab, 8, (2, 6), frames_per_symbol=3,
                             noise_sigma=0.0, seed=4, feature_dim=6)
    protos = prototype_matrix(vocab, 6, 4)
    for utt in corpus:
        assert utt.features.shape == (3 * len(utt.transcript), 6)
        assert all(2 <= len(utt.transcript) <= 6 for utt in corpus)
        for t, symbol in enumerate(utt.transcript):
            block = utt.features[3 * t:3 * (t + 1)]
            np.testing.assert_array_equal(block, np.tile(protos[symbol], (3, 1)))
        # nearest-prototype readout recovers the transcript
        first_frames = utt.features[::3]
        d = np.linalg.norm(first_frames[:, None, :] - protos[None, :, :], axis=2)
        assert tuple(np.argmin(d, axis=1)) == utt.transcript


def test_generation_is_deterministic_and_order_free():
    vocab = default_vocabulary(3)
    a = generate_corpus(vocab, 5, (1, 4), 2, 0.2, seed=8, feature_dim=4)
    b = generate_corpus(vocab, 5, (1, 4), 2, 0.2, seed=8, feature_dim=4)
    c = generate_corpus(vocab, 3, (1, 4), 2, 0.2, seed=8, feature_dim=4)
    for x, y in zip(a, b):
        assert x.uid == y.uid and x.transcript == y.transcript
        np.testing.assert_array_equal(x.features, y.features)
    # utterance u only depends on (seed, u), not on the corpus size
    for x, y in zip(a.utterances[:3], c.utterances):
        assert x.transcript == y.transcript
        np.testing.assert_array_equal(x.features, y.features)
    d = generate_corpus(vocab, 5, (1, 4), 2, 0.2, seed=9, feature_dim=4)
    assert any(x.transcript != y.transcript
               or not np.array_equal(x.features, y.features)
               for x, y in zip(a, d))


def test_noise_averages_back_to_prototype():
    vocab = default_vocabulary(2)
    fps, sigma = 400, 0.3
    corpus = generate_corpus(vocab, 1, (1, 1), fps, sigma, seed=6, feature_dim=5)
    utt = corpus.utterances[0]
    proto = prototype_matrix(vocab, 5, 6)[utt.transcript[0]]
    mean = utt.features.mean(axis=0)
    assert np.all(np.abs(mean - proto) <= 3 * sigma / np.sqrt(fps))


def test_generate_corpus_validation():
    vocab = default_vocabulary(2)
    with pytest.raises(ConfigError, match="len_range"):
        generate_corpus(vocab, 1, (0, 4), 2, 0.1, seed=1)
    with pytest.raises(ConfigError, match="len_range"):
        generate_corpus(vocab, 1, (5, 4), 2, 0.1, seed=1)
    with pytest.raises(ConfigError, match="n_utts"):
        generate_corpus(vocab, -1, (1, 4), 2, 0.1, seed=1)
    with pytest.raises(ConfigError, match="frames_per_symbol"):
        generate_corpus(vocab, 1, (1, 4), 0, 0.1, seed=1)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise_sigma"):
            generate_corpus(vocab, 1, (1, 4), 2, sigma, seed=1)


def test_splits_are_disjoint_but_share_prototypes():
    vocab = default_vocabulary(3)
    splits = generate_splits(vocab, {"train": 4, "dev": 2, "test": 2}, (1, 3),
                             frames_per_symbol=2, noise_sigma=0.3, seed=12,
                             feature_dim=4)
    assert sorted(splits) == ["dev", "test", "train"]
    uids = [utt.uid for name in ("train", "dev", "test") for utt in splits[name]]
    assert len(set(uids)) == 8
    # continuous noise makes any leaked utterance visible as an identical block
    blocks = [utt.features.tobytes() for name in ("train", "dev", "test")
              for utt in splits[name]]
    assert len(set(blocks)) == 8
    # same prototypes underlie every split: visible once the noise is off
    clean = generate_splits(vocab, {"train": 2, "dev": 2}, (1, 3),
                            frames_per_symbol=2, noise_sigma=0.0, seed=12,
                            feature_dim=4)
    protos = prototype_matrix(vocab, 4, 12)
    for name in clean:
        for utt in clean[name]:
            np.testing.assert_array_equal(utt.features[0], protos[utt.transcript[0]])
    with pytest.raises(ConfigError, match="unknown split"):
        generate_splits(vocab, {"validation": 1}, (1, 3), 2, 0.0, seed=12)
    # a negative count would otherwise shrink the total the other splits draw from
    with pytest.raises(ConfigError, match="dev split size"):
        generate_splits(vocab, {"train": 5, "dev": -2}, (1, 3), 2, 0.0, seed=12)


def test_cer_known_values():
    assert cer([0, 1], [0, 1]) == 0.0
    assert cer([], [0, 1]) == 1.0
    assert cer([1], [0, 1]) == 0.5
    assert cer([2, 0, 1], [0, 1]) == 0.5
    assert cer([0, 1, 2], [2, 1, 0]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="reference"):
        cer([0], [])


def test_cer_is_invariant_under_relabeling():
    rng = np.random.default_rng(13)
    perm = rng.permutation(6)
    for _ in range(50):
        hyp = list(rng.integers(0, 6, size=rng.integers(0, 8)))
        ref = list(rng.integers(0, 6, size=rng.integers(1, 8)))
        assert cer(hyp, ref) == cer([perm[i] for i in hyp], [perm[i] for i in ref])


def test_corpus_cer_pools_distances():
    pairs = [([0], [0]), ([], [0, 1])]
    assert corpus_cer(pairs) == pytest.approx(2 / 3)
    # pooling is not the mean of per-utterance rates
    assert corpus_cer(pairs) != pytest.approx((0.0 + 1.0) / 2)
    with pytest.raises(ValueError):
        corpus_cer([])
    with pytest.raises(ValueError):
        corpus_cer([([0], [])])


def test_corpus_file_round_trip(tmp_path):
    vocab = default_vocabulary(3)
    corpus = generate_corpus(vocab, 4, (1, 3), 2, 0.4, seed=3, feature_dim=4)
    # adversarial float values must survive the text round trip bit for bit
    corpus.utterances[0].features[0, :4] = [1 / 3, -0.0, 1e-300, 12345678901234567.0]
    path = tmp_path / "toy.train"
    save_corpus(corpus, str(path))
    loaded = load_corpus(str(path))
    assert loaded.feature_dim == 4
    assert loaded.vocab == vocab
    for orig, back in zip(corpus, loaded):
        assert orig.uid == back.uid
        assert orig.transcript == back.transcript
        np.testing.assert_array_equal(orig.features, back.features)
    save_corpus(loaded, str(tmp_path / "again.train"))
    assert path.read_bytes() == (tmp_path / "again.train").read_bytes()


def test_empty_corpus_round_trip(tmp_path):
    vocab = default_vocabulary(2)
    path = tmp_path / "empty.train"
    save_corpus(Corpus(vocab=vocab, feature_dim=3), str(path))
    loaded = load_corpus(str(path))
    assert len(loaded) == 0
    assert loaded.vocab == vocab


def corpus_file_lines(tmp_path):
    vocab = default_vocabulary(2)
    corpus = generate_corpus(vocab, 2, (2, 2), 2, 0.1, seed=5, feature_dim=3)
    path = tmp_path / "ok.train"
    save_corpus(corpus, str(path))
    return path, path.read_text().splitlines()


def test_load_rejects_truncated_feature_row(tmp_path):
    path, lines = corpus_file_lines(tmp_path)
    lines[7] = " ".join(lines[7].split()[:-1])  # drop one value from a row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="2 values, expected 3") as excinfo:
        load_corpus(str(path))
    assert excinfo.value.line == 8
    assert "line 8" in str(excinfo.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_feature_values(tmp_path, value):
    path, lines = corpus_file_lines(tmp_path)
    at = 14  # the third feature row of the second utterance
    parts = lines[at].split()
    lines[at] = " ".join(parts[:1] + [value] + parts[2:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="finite") as excinfo:
        load_corpus(str(path))
    assert excinfo.value.line == at + 1


def test_load_rejects_structural_damage(tmp_path):
    path, lines = corpus_file_lines(tmp_path)

    path.write_text("\n".join(["corpus v2"] + lines[1:]) + "\n")
    with pytest.raises(ParseError, match="header"):
        load_corpus(str(path))

    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last feature row
    with pytest.raises(ParseError, match="unexpected end"):
        load_corpus(str(path))

    path.write_text("\n".join(lines) + "\nleftover\n")
    with pytest.raises(ParseError, match="trailing"):
        load_corpus(str(path))

    bad = list(lines)
    bad[7] = bad[7].replace(bad[7].split()[0], "not-a-number", 1)
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError, match="non-numeric"):
        load_corpus(str(path))

    # header counts out of range, each named with its line
    for line_no, damaged, message in ((2, "feature_dim 0", "feature_dim must be positive"),
                                      (2, "feature_dim -3", "feature_dim must be positive"),
                                      (6, "utterances -1", "utterance count")):
        bad = list(lines)
        bad[line_no - 1] = damaged
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ParseError, match=message) as excinfo:
            load_corpus(str(path))
        assert excinfo.value.line == line_no

    # counts far beyond any memory: the first short row, or the end of the
    # file, is the error, before anything of that size is allocated
    huge = 10 ** 12
    bad = list(lines)
    bad[1] = f"feature_dim {huge}"
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError, match=f"3 values, expected {huge}") as excinfo:
        load_corpus(str(path))
    assert excinfo.value.line == 8
    bad = list(lines)
    last = max(i for i, line in enumerate(bad) if line.startswith("utt "))
    parts = bad[last].split()
    bad[last] = " ".join(parts[:2] + [str(huge)] + parts[3:])
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(ParseError, match="unexpected end") as excinfo:
        load_corpus(str(path))
    assert excinfo.value.line == len(bad) + 1


def test_load_rejects_schema_violations(tmp_path):
    path, lines = corpus_file_lines(tmp_path)

    bad = list(lines)
    bad[6] = bad[6].replace(" a ", " q ", 1) if " a " in bad[6] else bad[6]
    if bad != lines:
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(SchemaError, match="not in the vocabulary"):
            load_corpus(str(path))

    bad = list(lines)
    parts = bad[6].split()
    bad[6] = " ".join(parts[:3] + ["<eos>", parts[4]])
    path.write_text("\n".join(bad) + "\n")
    with pytest.raises(SchemaError, match="non-grapheme"):
        load_corpus(str(path))


def test_failed_write_leaves_the_previous_file(tmp_path):
    path, _ = corpus_file_lines(tmp_path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="disk full"):
        with _atomic_open(str(path)) as fh:
            fh.write("corpus v1\nfeature_dim 3\n")
            raise RuntimeError("disk full")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]
    # a rename that fails (here onto a directory) cleans up the same way
    (tmp_path / "sub").mkdir()
    with pytest.raises(OSError):
        save_corpus(load_corpus(str(path)), str(tmp_path / "sub"))
    assert sorted(os.listdir(tmp_path)) == [path.name, "sub"]
    assert os.listdir(tmp_path / "sub") == []


def test_split_paths_convention():
    assert split_paths("data/toy") == {"train": "data/toy.train",
                                       "dev": "data/toy.dev",
                                       "test": "data/toy.test"}
