"""Checkpoint serialization and shape validation."""

import dataclasses
import json

import numpy as np
import pytest

from seqrl.checkpoint import (Checkpoint, load_checkpoint, save_checkpoint,
                              validate_checkpoint)
from seqrl.errors import ParseError, SchemaError
from seqrl.model import ModelConfig, init_params, param_shapes


def make_checkpoint(seed=1, vocab=4):
    config = ModelConfig(vocab_size=vocab, feature_dim=3, enc_hidden=2, enc_layers=1,
                         subsample_layers=0, embed_dim=2, dec_hidden=3, mlp_hidden=2)
    params = {n: p.data for n, p in init_params(config, seed).items()}
    # awkward values to stress the text round trip
    first = next(iter(params))
    params[first].flat[0] = 1 / 3
    params[first].flat[1] = -0.0
    ckpt = Checkpoint(config={"model": {"vocab_size": vocab}, "lr": 5e-4},
                      phase="rl", epoch=3, best_dev_cer=0.12345678901234567,
                      params=params)
    return config, ckpt


def write_v1(ckpt, path, stats_mu="0.10000000000000001 -2", misshapen=None):
    """Write ``ckpt`` in the version 1 layout, which also held the seed, Adam
    moments and reward statistics. The ``adam_m`` block of parameter
    ``misshapen`` gets one value too many."""
    rng = np.random.default_rng(40)

    def block(tag, name, arr):
        rows = arr.reshape(arr.shape[0], -1) if arr.ndim == 2 else [arr]
        return [f"{tag} {name} " + " ".join(str(d) for d in arr.shape)] + [
            " ".join(f"{v:.17g}" for v in row) for row in rows]

    lines = ["checkpoint v1",
             "config " + json.dumps(ckpt.config, sort_keys=True, separators=(",", ":")),
             f"phase {ckpt.phase}", f"epoch {ckpt.epoch}",
             f"best_dev_cer {ckpt.best_dev_cer:.17g}", "seed 1", "adam_t 17",
             "stats_decay 0.98999999999999999", f"stats_mu {stats_mu}", "stats_sigma 1 0.5",
             f"params {len(ckpt.params)}"]
    for name, arr in ckpt.params.items():
        shape = arr.shape[:-1] + (arr.shape[-1] + (name == misshapen),)
        lines += block("param", name, arr)
        lines += block("adam_m", name, rng.normal(size=shape))
        lines += block("adam_v", name, rng.random(size=arr.shape))
    path.write_text("\n".join(lines + ["end"]) + "\n")


def test_round_trip_preserves_everything(tmp_path):
    config, ckpt = make_checkpoint()
    path = tmp_path / "a.ckpt"
    save_checkpoint(ckpt, str(path))
    back = load_checkpoint(str(path))
    assert back.config == ckpt.config
    assert back.phase == "rl"
    assert back.epoch == 3
    assert back.best_dev_cer == ckpt.best_dev_cer
    assert set(back.params) == set(ckpt.params)
    for name in ckpt.params:
        np.testing.assert_array_equal(back.params[name], ckpt.params[name])
    validate_checkpoint(back, config)


def test_save_load_save_is_byte_identical(tmp_path):
    _, ckpt = make_checkpoint(seed=2)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(ckpt, str(first))
    save_checkpoint(load_checkpoint(str(first)), str(second))
    assert first.read_text().startswith("checkpoint v2\n")
    assert first.read_bytes() == second.read_bytes()


def test_v1_file_loads_its_parameters_and_resaves_as_v2(tmp_path):
    config, ckpt = make_checkpoint(seed=3)
    write_v1(ckpt, tmp_path / "old.ckpt")
    back = load_checkpoint(str(tmp_path / "old.ckpt"))
    assert (back.config, back.phase, back.epoch, back.best_dev_cer) == \
        (ckpt.config, ckpt.phase, ckpt.epoch, ckpt.best_dev_cer)
    for name in ckpt.params:
        np.testing.assert_array_equal(back.params[name], ckpt.params[name])
    validate_checkpoint(back, config)
    save_checkpoint(back, str(tmp_path / "resaved.ckpt"))
    save_checkpoint(ckpt, str(tmp_path / "new.ckpt"))
    assert (tmp_path / "resaved.ckpt").read_bytes() == (tmp_path / "new.ckpt").read_bytes()


@pytest.mark.parametrize("damage, error, match", [
    (dict(misshapen="enc.proj.w"), SchemaError, "optimizer moment shapes for enc.proj.w"),
    (dict(misshapen="enc.proj.b"), SchemaError, "optimizer moment shapes for enc.proj.b"),
    (dict(stats_mu="0.5"), SchemaError, "stats_mu and stats_sigma"),
    (dict(stats_mu="0.5 x"), ParseError, "decimal floats"),
])
def test_v1_extra_lines_are_still_checked(tmp_path, damage, error, match):
    _, ckpt = make_checkpoint(seed=4)
    write_v1(ckpt, tmp_path / "old.ckpt", **damage)
    with pytest.raises(error, match=match):
        load_checkpoint(str(tmp_path / "old.ckpt"))


def test_v1_header_fields_must_be_integers(tmp_path):
    _, ckpt = make_checkpoint(seed=4)
    path = tmp_path / "old.ckpt"
    write_v1(ckpt, path)
    for key in ("seed", "adam_t"):
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        path.write_text("\n".join(lines[:at] + [f"{key} 1.5"] + lines[at + 1:]) + "\n")
        with pytest.raises(ParseError, match=f"line {at + 1}: malformed numeric"):
            load_checkpoint(str(path))
        write_v1(ckpt, path)


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_load_rejects_content_after_end(tmp_path, version):
    _, ckpt = make_checkpoint(seed=5)
    path = tmp_path / "a.ckpt"
    if version == "v1":
        write_v1(ckpt, path)
    else:
        save_checkpoint(ckpt, str(path))
    load_checkpoint(str(path))
    end_line = len(path.read_text().splitlines())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("param extra 1\n0.5\n")
    with pytest.raises(ParseError, match=f"line {end_line + 1}: trailing content"):
        load_checkpoint(str(path))


def test_load_rejects_non_finite_values_and_negative_shapes(tmp_path):
    _, ckpt = make_checkpoint(seed=7)
    path = tmp_path / "a.ckpt"
    save_checkpoint(ckpt, str(path))
    lines = path.read_text().splitlines()
    matrix = next(i for i, l in enumerate(lines) if l.startswith("param enc.proj.w "))
    vector = next(i for i, l in enumerate(lines) if l.startswith("param enc.proj.b "))
    for at, value in ((matrix + 2, "nan"), (matrix + 1, "inf"), (vector + 1, "-inf")):
        bad = list(lines)
        parts = bad[at].split()
        bad[at] = " ".join(parts[:1] + [value] + parts[2:])
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ParseError, match="finite") as excinfo:
            load_checkpoint(str(path))
        assert excinfo.value.line == at + 1
    for at, head in ((matrix, "param enc.proj.w -1 4"), (vector, "param enc.proj.b -4")):
        bad = list(lines)
        bad[at] = head
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ParseError, match="non-negative") as excinfo:
            load_checkpoint(str(path))
        assert excinfo.value.line == at + 1


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_scorer_echo_of_older_files_is_checked_and_dropped(tmp_path, version):
    # files written while dot and bilinear attention existed name the scorer
    _, ckpt = make_checkpoint(seed=8)
    path = tmp_path / "old.ckpt"

    def write_old(scorer):
        old = dataclasses.replace(ckpt, config=dict(
            ckpt.config, model=dict(ckpt.config["model"], scorer=scorer)))
        if version == "v1":
            write_v1(old, path)
        else:
            save_checkpoint(old, str(path))

    write_old("mlp")
    back = load_checkpoint(str(path))
    assert back.config == ckpt.config
    save_checkpoint(back, str(tmp_path / "resaved.ckpt"))
    save_checkpoint(ckpt, str(tmp_path / "new.ckpt"))
    assert (tmp_path / "resaved.ckpt").read_bytes() == (tmp_path / "new.ckpt").read_bytes()
    write_old("dot")
    with pytest.raises(SchemaError, match="'dot' attention"):
        load_checkpoint(str(path))


def test_validate_rejects_wrong_model(tmp_path):
    _, ckpt = make_checkpoint(vocab=4)
    other = ModelConfig(vocab_size=5, feature_dim=3, enc_hidden=2, enc_layers=1,
                        subsample_layers=0, embed_dim=2, dec_hidden=3, mlp_hidden=2)
    with pytest.raises(SchemaError, match=r"has shape \(5, 2\), expected \(6, 2\)"):
        validate_checkpoint(ckpt, other)


def test_validate_lists_missing_and_extra_names():
    config, ckpt = make_checkpoint(seed=4)
    moved = ckpt.params.pop("enc.proj.b")
    ckpt.params["enc.proj.bias"] = moved
    with pytest.raises(SchemaError) as excinfo:
        validate_checkpoint(ckpt, config)
    assert "enc.proj.b" in str(excinfo.value)
    assert "enc.proj.bias" in str(excinfo.value)


def test_load_rejects_tampered_shape(tmp_path):
    config, ckpt = make_checkpoint(seed=5)
    path = tmp_path / "a.ckpt"
    save_checkpoint(ckpt, str(path))
    lines = path.read_text().splitlines()
    target = next(i for i, l in enumerate(lines) if l.startswith("param enc.proj.w"))
    parts = lines[target].split()
    parts[-1] = str(int(parts[-1]) + 1)
    lines[target] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="values per row"):
        load_checkpoint(str(path))


def test_load_rejects_structural_damage(tmp_path):
    _, ckpt = make_checkpoint(seed=6)
    path = tmp_path / "a.ckpt"
    save_checkpoint(ckpt, str(path))
    lines = path.read_text().splitlines()

    path.write_text("\n".join(["checkpoint v9"] + lines[1:]) + "\n")
    with pytest.raises(ParseError, match="line 1: expected header"):
        load_checkpoint(str(path))

    path.write_text("\n".join(lines[:-2] + [lines[-1]]) + "\n")
    with pytest.raises(ParseError):
        load_checkpoint(str(path))

    damaged = list(lines)
    damaged[1] = "config {not json"
    path.write_text("\n".join(damaged) + "\n")
    with pytest.raises(ParseError, match="JSON"):
        load_checkpoint(str(path))

    damaged = list(lines)
    row = next(i for i, l in enumerate(damaged) if l.startswith("param ")) + 1
    damaged[row] = damaged[row].replace(damaged[row].split()[0], "oops", 1)
    path.write_text("\n".join(damaged) + "\n")
    with pytest.raises(ParseError, match="decimal floats"):
        load_checkpoint(str(path))
