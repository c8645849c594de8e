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
    assert ckpt.seed == 7
    assert ckpt.config["seed"] == 7


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

    sectionless = tmp_path / "sectionless.json"
    sectionless.write_text(json.dumps({"learning_rate": 1e-3}))
    result = runner.invoke(main, base + ["--config", str(sectionless)])
    assert result.exit_code == 2

    result = runner.invoke(main, base + ["--config", str(tmp_path / "absent.json")])
    assert result.exit_code == 2  # click's own missing-file handling


def test_oracle_check_quick_pass():
    runner = CliRunner()
    result = run_ok(runner, ["oracle-check", "--pairs", "200",
                             "--mc-batches", "200", "--mc-samples", "4"])
    lines = result.output.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 4
    assert lines[-1] == "all checks passed"
