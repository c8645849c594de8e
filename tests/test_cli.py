"""End-to-end command-line workflows on a toy corpus."""

import csv
import json

import pytest
from click.testing import CliRunner

from seqrl.checkpoint import load_checkpoint
from seqrl.cli import main
from seqrl.data import Corpus, Vocabulary, load_corpus, save_corpus

CONFIG = {
    "model": {"feature_dim": 4, "enc_hidden": 4, "enc_layers": 2,
              "subsample_layers": 1, "embed_dim": 4, "dec_hidden": 6,
              "mlp_hidden": 4},
    "rl": {"mode": "time_reward", "gamma": 0.9, "num_samples": 3,
           "normalization": "timewise"},
    "seed": 1,
    "learning_rate": 0.005,
    "batch_size": 2,
    "mle_max_epochs": 2,
    "rl_max_epochs": 1,
    "patience": 5,
}


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    run_ok(runner, ["gen-data", "--out", str(root / "toy"),
                    "--num-train", "4", "--num-dev", "2", "--num-test", "0",
                    "--vocab-size", "3", "--min-len", "2", "--max-len", "3",
                    "--frames-per-symbol", "2", "--noise-sigma", "0.2",
                    "--feature-dim", "4", "--seed", "5"])
    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    run_ok(runner, ["train-mle", "--config", str(config_path),
                    "--train", str(root / "toy.train"),
                    "--dev", str(root / "toy.dev"),
                    "--out-dir", str(root / "run1")])
    return root, runner, config_path


def test_gen_data_writes_loadable_splits(workspace):
    root, _, _ = workspace
    train = load_corpus(str(root / "toy.train"))
    dev = load_corpus(str(root / "toy.dev"))
    assert len(train) == 4
    assert len(dev) == 2
    assert train.vocab == dev.vocab
    assert not (root / "toy.test").exists()  # zero-count splits are skipped
    assert {u.uid for u in train}.isdisjoint({u.uid for u in dev})


def test_gen_data_rejects_bad_lengths(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["gen-data", "--out", str(tmp_path / "x"),
                                  "--min-len", "0"])
    assert result.exit_code == 2
    assert "error (config)" in result.stderr


@pytest.mark.parametrize("option, value", [
    ("--noise-sigma", "nan"), ("--noise-sigma", "inf"), ("--num-dev", "-2"), ("--seed", "-1")])
def test_gen_data_rejects_bad_numbers(tmp_path, option, value):
    result = CliRunner().invoke(main, ["gen-data", "--out", str(tmp_path / "x"),
                                       "--num-train", "5", option, value])
    assert result.exit_code == 2, result.output
    # click's range check rejects a negative seed before the library sees it
    if option == "--seed":
        assert "Invalid value for '--seed'" in result.stderr
    else:
        assert "error (config)" in result.stderr
    assert not list(tmp_path.iterdir())


def test_train_mle_outputs(workspace):
    root, _, _ = workspace
    metrics = (root / "run1" / "mle_metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,phase,train_loss,mean_reward,dev_cer"
    assert len(metrics) == 1 + CONFIG["mle_max_epochs"]
    ckpt = load_checkpoint(str(root / "run1" / "mle_best.ckpt"))
    assert ckpt.phase == "mle"
    # vocab_size was omitted from the config file and filled from the corpus
    assert ckpt.config["model"]["vocab_size"] == 4


def test_seed_option_overrides_config(workspace):
    root, runner, config_path = workspace
    run_ok(runner, ["train-mle", "--config", str(config_path),
                    "--train", str(root / "toy.train"),
                    "--dev", str(root / "toy.dev"),
                    "--seed", "7", "--out-dir", str(root / "run-seed7")])
    ckpt = load_checkpoint(str(root / "run-seed7" / "mle_best.ckpt"))
    assert ckpt.config["seed"] == 7


@pytest.mark.parametrize("override", [
    {"model": 5}, {"learning_rate": "x"}, {"seed": "x"}, {"rl": 3},
    {"model": {**CONFIG["model"], "enc_hidden": 2.5}},
    {"rl": {**CONFIG["rl"], "num_samples": 2.5}},
    {"seed": -1},
    {"learning_rate": float("nan")},  # json.dumps writes NaN, which json.load reads
    {"out_dir": 5},  # rejected even though --out-dir overrides it
])
def test_train_rejects_mistyped_config_before_training(workspace, tmp_path, override):
    root, runner, _ = workspace
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({**CONFIG, **override}))
    result = runner.invoke(main, ["train-mle", "--config", str(config_path),
                                  "--train", str(root / "toy.train"),
                                  "--dev", str(root / "toy.dev"),
                                  "--out-dir", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert "error (config)" in result.stderr
    assert "epoch" not in result.output
    assert not (tmp_path / "run").exists()


def test_train_rl_from_checkpoint(workspace):
    root, runner, config_path = workspace
    result = run_ok(runner, ["train-rl", "--config", str(config_path),
                             "--train", str(root / "toy.train"),
                             "--dev", str(root / "toy.dev"),
                             "--checkpoint", str(root / "run1" / "mle_best.ckpt"),
                             "--out-dir", str(root / "run1")])
    assert "best dev_cer" in result.output
    rows = (root / "run1" / "rl_metrics.csv").read_text().splitlines()
    assert rows[1].startswith("0,rl,")  # pre-update baseline row
    assert load_checkpoint(str(root / "run1" / "rl_best.ckpt")).phase == "rl"
    # written checkpoints hold the parameters, not the optimizer or reward state
    for name in ("mle_best.ckpt", "rl_best.ckpt"):
        lines = (root / "run1" / name).read_text().splitlines()
        assert lines[0] == "checkpoint v2"
        assert not [l for l in lines if l.startswith(("adam_", "stats_", "seed "))]


def test_evaluate_reports_cer(workspace):
    root, runner, _ = workspace
    report = root / "dev_report.csv"
    result = run_ok(runner, ["evaluate",
                             "--checkpoint", str(root / "run1" / "mle_best.ckpt"),
                             "--corpus", str(root / "toy.dev"),
                             "--beam", "2", "--report", str(report)])
    assert "utterances 2" in result.output
    assert any(line.startswith("cer ") for line in result.output.splitlines())
    lines = report.read_text().splitlines()
    assert lines[0] == "uid,reference,hypothesis,distance"
    assert len(lines) == 3


def test_evaluate_report_quotes_symbols_with_commas(workspace, tmp_path):
    # vocabulary symbols may contain commas and quotes; the report stays valid CSV
    root, runner, _ = workspace
    dev = load_corpus(str(root / "toy.dev"))
    odd = Corpus(vocab=Vocabulary.from_graphemes(["a,b", '"q', "c"]),
                 feature_dim=dev.feature_dim, utterances=dev.utterances)
    save_corpus(odd, str(tmp_path / "odd.dev"))
    report = tmp_path / "odd_report.csv"
    run_ok(runner, ["evaluate",
                    "--checkpoint", str(root / "run1" / "mle_best.ckpt"),
                    "--corpus", str(tmp_path / "odd.dev"),
                    "--beam", "1", "--report", str(report)])
    with open(report, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["uid", "reference", "hypothesis", "distance"]
    assert len(rows) == 1 + len(odd)
    for row, utt in zip(rows[1:], odd):
        assert len(row) == 4
        assert row[0] == utt.uid
        assert row[1] == odd.vocab.to_string(utt.transcript)
        assert int(row[3]) >= 0
    assert any("," in row[1] or '"' in row[1] for row in rows[1:])


def test_evaluate_rejects_mismatched_corpus(workspace, tmp_path):
    root, runner, _ = workspace
    run_ok(runner, ["gen-data", "--out", str(tmp_path / "wide"),
                    "--num-train", "1", "--num-dev", "1", "--vocab-size", "8",
                    "--min-len", "2", "--max-len", "3", "--frames-per-symbol", "2",
                    "--feature-dim", "4", "--seed", "6"])
    result = runner.invoke(main, ["evaluate",
                                  "--checkpoint", str(root / "run1" / "mle_best.ckpt"),
                                  "--corpus", str(tmp_path / "wide.dev")])
    assert result.exit_code == 3
    assert "error (schema)" in result.stderr


@pytest.mark.parametrize("damage", [
    lambda config: {k: v for k, v in config.items() if k != "model"},
    lambda config: dict(config, model=dict(config["model"], dropout=0.1)),
    lambda config: dict(config, model=[config["model"]]),
    lambda config: dict(config, model=dict(config["model"], enc_hidden=2.5)),
    lambda config: dict(config, model=dict(config["model"], scorer="dot")),
], ids=["no-model", "unknown-model-key", "non-object-model", "mistyped-model-field",
        "dot-scorer"])
def test_checkpoint_without_a_valid_model_config_is_a_schema_error(workspace, tmp_path, damage):
    root, runner, _ = workspace
    lines = (root / "run1" / "mle_best.ckpt").read_text().splitlines()
    lines[1] = "config " + json.dumps(damage(json.loads(lines[1][len("config "):])))
    ckpt = tmp_path / "damaged.ckpt"
    ckpt.write_text("\n".join(lines) + "\n")
    for command in ("evaluate", "decode"):
        result = runner.invoke(main, [command, "--checkpoint", str(ckpt),
                                      "--corpus", str(root / "toy.dev")])
        assert result.exit_code == 3, result.output
        assert "error (schema)" in result.stderr
        assert str(ckpt) in result.stderr


def test_checkpoint_echoing_the_mlp_scorer_evaluates_identically(workspace, tmp_path):
    # checkpoints written while the scorer was a config field echo it
    root, runner, _ = workspace
    lines = (root / "run1" / "mle_best.ckpt").read_text().splitlines()
    config = json.loads(lines[1][len("config "):])
    config["model"]["scorer"] = "mlp"
    lines[1] = "config " + json.dumps(config, sort_keys=True, separators=(",", ":"))
    old = tmp_path / "old.ckpt"
    old.write_text("\n".join(lines) + "\n")
    assert "scorer" not in load_checkpoint(str(old)).config["model"]
    for name, ckpt in (("old", old), ("new", root / "run1" / "mle_best.ckpt")):
        run_ok(runner, ["evaluate", "--checkpoint", str(ckpt), "--corpus", str(root / "toy.dev"),
                        "--beam", "2", "--report", str(tmp_path / f"{name}.csv")])
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


def test_non_finite_values_and_negative_shapes_in_files_are_parse_errors(workspace, tmp_path):
    root, runner, config_path = workspace
    lines = (root / "toy.dev").read_text().splitlines()
    lines[8] = " ".join(["nan"] + lines[8].split()[1:])
    corpus = tmp_path / "nan.dev"
    corpus.write_text("\n".join(lines) + "\n")
    checkpoint = ["--checkpoint", str(root / "run1" / "mle_best.ckpt")]
    for args in (["evaluate", *checkpoint, "--corpus", str(corpus)],
                 ["train-mle", "--config", str(config_path), "--train", str(corpus),
                  "--dev", str(root / "toy.dev"), "--out-dir", str(tmp_path / "run")]):
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert "error (parse): line 9: feature values must be finite" in result.stderr
    lines = (root / "run1" / "mle_best.ckpt").read_text().splitlines()
    head = next(i for i, l in enumerate(lines) if l.startswith("param enc.proj.w "))
    for at, damaged, message in ((head + 1, "inf " + " ".join(lines[head + 1].split()[1:]),
                                  "array values must be finite"),
                                 (head, "param enc.proj.w -1 8", "must be non-negative")):
        bad = list(lines)
        bad[at] = damaged
        ckpt = tmp_path / "damaged.ckpt"
        ckpt.write_text("\n".join(bad) + "\n")
        result = runner.invoke(main, ["evaluate", "--checkpoint", str(ckpt),
                                      "--corpus", str(root / "toy.dev")])
        assert result.exit_code == 3, result.output
        assert f"error (parse): line {at + 1}: " in result.stderr
        assert message in result.stderr


def test_evaluate_rejects_a_corpus_sized_beyond_memory(workspace, tmp_path):
    # the header's feature_dim sizes nothing: the first short row is the error
    root, runner, _ = workspace
    lines = (root / "toy.dev").read_text().splitlines()
    lines[1] = f"feature_dim {10 ** 12}"
    corpus = tmp_path / "huge.dev"
    corpus.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["evaluate",
                                  "--checkpoint", str(root / "run1" / "mle_best.ckpt"),
                                  "--corpus", str(corpus)])
    assert result.exit_code == 3, result.output
    assert "error (parse): line 8: feature row has 4 values" in result.stderr


def test_decode_single_utterance(workspace):
    root, runner, _ = workspace
    args = ["decode", "--checkpoint", str(root / "run1" / "mle_best.ckpt"),
            "--corpus", str(root / "toy.dev")]
    result = run_ok(runner, args + ["--uid", "u00004", "--beam", "2"])
    lines = result.output.splitlines()
    assert lines[0] == "uid u00004"
    assert lines[1].startswith("ref ")
    assert lines[2].startswith("hyp ")
    assert lines[3].startswith("log_prob ")
    assert lines[4].startswith("normalized_score ")
    greedy = run_ok(runner, args + ["--beam", "1"])  # defaults to the first utterance
    assert greedy.output.splitlines()[0] == "uid u00004"

    missing = runner.invoke(main, args + ["--uid", "nope"])
    assert missing.exit_code == 4
    assert "error (contract)" in missing.stderr
    out_of_range = runner.invoke(main, args + ["--index", "99"])
    assert out_of_range.exit_code == 4


def test_decode_rejects_index_outside_the_corpus(workspace):
    root, runner, _ = workspace
    args = ["decode", "--checkpoint", str(root / "run1" / "mle_best.ckpt"),
            "--corpus", str(root / "toy.dev"), "--beam", "1"]
    last = run_ok(runner, args + ["--index", "1"])
    second = load_corpus(str(root / "toy.dev")).utterances[1]
    assert last.output.splitlines()[0] == f"uid {second.uid}"
    for index in ("-1", "2"):
        result = runner.invoke(main, args + ["--index", index])
        assert result.exit_code == 4, index
        assert "error (contract)" in result.stderr
        assert "out of range [0, 2)" in result.stderr


@pytest.mark.parametrize("command,option", [
    ("evaluate", "--beam"), ("decode", "--beam"), ("oracle-check", "--pairs"),
    ("oracle-check", "--mc-batches"), ("oracle-check", "--mc-samples")])
def test_count_options_must_be_positive(workspace, command, option):
    root, runner, _ = workspace
    args = [command]
    if command != "oracle-check":
        args += ["--checkpoint", str(root / "run1" / "mle_best.ckpt"),
                 "--corpus", str(root / "toy.dev")]
    result = runner.invoke(main, args + [option, "0"])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.stderr


def test_config_file_errors(workspace, tmp_path):
    root, runner, _ = workspace
    base = ["train-mle", "--train", str(root / "toy.train"),
            "--dev", str(root / "toy.dev")]

    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    result = runner.invoke(main, base + ["--config", str(broken)])
    assert result.exit_code == 3
    assert "error (parse)" in result.stderr

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({**CONFIG, "momentum": 0.9}))
    result = runner.invoke(main, base + ["--config", str(unknown)])
    assert result.exit_code == 2
    assert "error (config)" in result.stderr
    assert "momentum" in result.stderr

    # the attention scorer is no longer a choice; old configs naming it fail loudly
    scorer = tmp_path / "scorer.json"
    scorer.write_text(json.dumps({**CONFIG, "model": {**CONFIG["model"], "scorer": "mlp"}}))
    result = runner.invoke(main, base + ["--config", str(scorer)])
    assert result.exit_code == 2
    assert "unknown model config keys: ['scorer']" in result.stderr

    sectionless = tmp_path / "sectionless.json"
    sectionless.write_text(json.dumps({"learning_rate": 1e-3}))
    result = runner.invoke(main, base + ["--config", str(sectionless)])
    assert result.exit_code == 2

    result = runner.invoke(main, base + ["--config", str(tmp_path / "absent.json")])
    assert result.exit_code == 2  # click's own missing-file handling


def test_oracle_check_rejects_a_negative_seed():
    result = CliRunner().invoke(main, ["oracle-check", "--seed", "-1", "--pairs", "1"])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--seed'" in result.stderr
    assert result.stdout == ""


def test_oracle_check_quick_pass():
    runner = CliRunner()
    result = run_ok(runner, ["oracle-check", "--pairs", "200",
                             "--mc-batches", "200", "--mc-samples", "4"])
    lines = result.output.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 4
    assert lines[-1] == "all checks passed"
