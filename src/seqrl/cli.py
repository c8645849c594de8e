"""Command-line interface.

Subcommands cover the full loop: synthetic corpus generation, the two
training phases, evaluation, single-utterance decoding, and the numeric
self-checks. Configuration comes from one JSON file; --seed and --out-dir
override its values. Exit codes: 0 success, 2 config, 3 schema/parse,
4 contract violation, 1 anything else.
"""

from __future__ import annotations

import csv
import functools
import json
import sys

import click

from . import oracles
from .autodiff import Tensor
from .checkpoint import Checkpoint, load_checkpoint, validate_checkpoint
from .data import (char32_vocabulary, default_vocabulary, generate_splits,
                   load_corpus, save_corpus, split_paths)
from .decoding import beam_search, greedy_decode
from .errors import ParseError, ToolkitError
from .model import ModelConfig
from .training import (TrainConfig, _check_corpus, _tensors_from_arrays,
                       evaluate, train_mle, train_rl)


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ToolkitError as exc:
            click.echo(f"error ({exc.category}): {exc}", err=True)
            sys.exit(exc.exit_code)
        except (ValueError, IndexError, RuntimeError) as exc:
            click.echo(f"error (contract): {exc}", err=True)
            sys.exit(4)
        except OSError as exc:
            click.echo(f"error (io): {exc}", err=True)
            sys.exit(1)
    return wrapper


@click.group()
def main():
    """Sequence transcription toolkit: synthetic data, training, decoding."""


@main.command("gen-data")
@click.option("--out", "out_prefix", required=True,
              help="Path prefix; writes <out>.train/.dev/.test.")
@click.option("--num-train", default=1000, show_default=True)
@click.option("--num-dev", default=100, show_default=True)
@click.option("--num-test", default=0, show_default=True)
@click.option("--vocab-size", default=8, show_default=True,
              help="Grapheme count (eos is added on top).")
@click.option("--char32", is_flag=True,
              help="Use the full 32-symbol character inventory instead.")
@click.option("--min-len", default=3, show_default=True)
@click.option("--max-len", default=12, show_default=True)
@click.option("--frames-per-symbol", default=8, show_default=True)
@click.option("--noise-sigma", default=0.3, show_default=True)
@click.option("--feature-dim", default=16, show_default=True)
@click.option("--seed", default=1, show_default=True)
@_cli_errors
def gen_data(out_prefix, num_train, num_dev, num_test, vocab_size, char32,
             min_len, max_len, frames_per_symbol, noise_sigma, feature_dim, seed):
    """Generate disjoint synthetic corpus splits sharing one prototype set."""
    vocab = char32_vocabulary() if char32 else default_vocabulary(vocab_size)
    counts = {"train": num_train, "dev": num_dev, "test": num_test}
    splits = generate_splits(vocab, counts, (min_len, max_len), frames_per_symbol,
                             noise_sigma, seed, feature_dim=feature_dim)
    paths = split_paths(out_prefix)
    for name, corpus in splits.items():
        save_corpus(corpus, paths[name])
        click.echo(f"wrote {paths[name]}: {len(corpus)} utterances, "
                   f"{corpus.vocab.num_graphemes} graphemes, feature_dim {corpus.feature_dim}")


def _load_train_config(config_path: str, train_corpus, seed: int | None,
                       out_dir: str | None) -> tuple[TrainConfig, str]:
    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file {config_path}: {exc.msg}", exc.lineno) from None
    if not isinstance(raw, dict):
        raise ParseError(f"config file {config_path} must hold a JSON object")
    file_out_dir = raw.pop("out_dir", None)
    if isinstance(raw.get("model"), dict) and "vocab_size" not in raw["model"]:
        raw["model"]["vocab_size"] = train_corpus.vocab.model_vocab_size
    config = TrainConfig.from_dict(raw)
    if seed is not None:
        config = TrainConfig.from_dict({**config.to_dict(), "seed": seed})
    return config, (out_dir or file_out_dir or "runs")


@main.command("train-mle")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--train", "train_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--dev", "dev_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None,
              help="Override the output directory (default: runs).")
@_cli_errors
def train_mle_cmd(config_path, train_path, dev_path, seed, out_dir):
    """Teacher-forced training with dev-CER early stopping."""
    train = load_corpus(train_path)
    dev = load_corpus(dev_path)
    config, out_dir = _load_train_config(config_path, train, seed, out_dir)
    result = train_mle(train, dev, config, out_dir=out_dir, log=click.echo)
    click.echo(f"best dev_cer {result.best_dev_cer:.17g}")


@main.command("train-rl")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--train", "train_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--dev", "dev_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--checkpoint", "ckpt_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Starting checkpoint from the teacher-forced phase.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None,
              help="Override the output directory (default: runs).")
@_cli_errors
def train_rl_cmd(config_path, train_path, dev_path, ckpt_path, seed, out_dir):
    """Reward-augmented training continued from a checkpoint."""
    train = load_corpus(train_path)
    dev = load_corpus(dev_path)
    config, out_dir = _load_train_config(config_path, train, seed, out_dir)
    start = load_checkpoint(ckpt_path)
    result = train_rl(train, dev, config, start, out_dir=out_dir, log=click.echo)
    click.echo(f"best dev_cer {result.best_dev_cer:.17g}")


def _model_from_checkpoint(path: str) -> tuple[Checkpoint, ModelConfig, dict[str, Tensor]]:
    ckpt = load_checkpoint(path)
    config = ModelConfig(**ckpt.config["model"])
    validate_checkpoint(ckpt, config)
    return ckpt, config, _tensors_from_arrays(ckpt.params)


@main.command("evaluate")
@click.option("--checkpoint", "ckpt_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--beam", default=5, show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None, help="Write per-utterance results as CSV.")
@_cli_errors
def evaluate_cmd(ckpt_path, corpus_path, beam, report_path):
    """Decode a corpus split and report its pooled character error rate."""
    _, config, params = _model_from_checkpoint(ckpt_path)
    corpus = load_corpus(corpus_path)
    _check_corpus(corpus, config, "evaluation")
    result = evaluate(corpus, params, config, beam=beam)
    if report_path:
        with open(report_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["uid", "reference", "hypothesis", "distance"])
            writer.writerows([r.uid, r.reference, r.hypothesis, r.distance]
                             for r in result.rows)
        click.echo(f"wrote {report_path}")
    click.echo(f"utterances {len(result.rows)}")
    click.echo(f"cer {result.cer:.17g}")


@main.command("decode")
@click.option("--checkpoint", "ckpt_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--uid", default=None, help="Utterance id (default: first utterance).")
@click.option("--index", type=int, default=None, help="Utterance position instead of id.")
@click.option("--beam", default=5, show_default=True)
@_cli_errors
def decode_cmd(ckpt_path, corpus_path, uid, index, beam):
    """Decode one utterance and print its transcript."""
    _, config, params = _model_from_checkpoint(ckpt_path)
    corpus = load_corpus(corpus_path)
    _check_corpus(corpus, config, "decoding")
    if uid is not None:
        matches = [u for u in corpus if u.uid == uid]
        if not matches:
            raise ValueError(f"no utterance with id {uid!r} in {corpus_path}")
        utt = matches[0]
    else:
        utt = corpus.utterances[index if index is not None else 0]
    if beam == 1:
        hyp = greedy_decode(utt.features, params, config)
    else:
        hyp = beam_search(utt.features, params, config, beam=beam)
    click.echo(f"uid {utt.uid}")
    click.echo(f"ref {corpus.vocab.to_string(utt.transcript)}")
    click.echo(f"hyp {corpus.vocab.to_string(hyp.graphemes)}")
    click.echo(f"log_prob {hyp.total_log_prob:.17g}")
    click.echo(f"normalized_score {hyp.normalized_score:.17g}")


@main.command("oracle-check")
@click.option("--seed", default=2024, show_default=True)
@click.option("--pairs", default=1000, show_default=True,
              help="Fuzz pairs for the reward telescoping check.")
@click.option("--mc-batches", default=2000, show_default=True,
              help="Sampled batches for the unbiasedness check.")
@click.option("--mc-samples", default=4, show_default=True)
@_cli_errors
def oracle_check(seed, pairs, mc_batches, mc_samples):
    """Run the independent numeric checks and print one verdict per check."""
    failures = 0

    def verdict(ok: bool, text: str) -> None:
        nonlocal failures
        failures += 0 if ok else 1
        click.echo(("PASS " if ok else "FAIL ") + text)

    bad = oracles.telescoping_mismatches(num_pairs=pairs, seed=seed)
    verdict(bad == 0, f"telescoping: {bad} mismatches in {pairs} pairs")

    grad_task = oracles.gradient_check_task()
    report = oracles.mle_gradient_report(grad_task.config, grad_task.params,
                                         grad_task.features, grad_task.reference)
    worst = max(report.values())
    verdict(worst <= 1e-6,
            f"mle-gradients: max rel err {worst:.3g} over {len(report)} parameters (tol 1e-06)")

    task = oracles.make_tiny_task(seed=seed)
    gap = oracles.causality_gap(task)
    verdict(gap <= 1e-10, f"causality: max estimator gap {gap:.3g} (tol 1e-10)")

    ub = oracles.unbiasedness_report(task, mc_batches, mc_samples, seed)
    verdict(ub.max_z <= 5.0 and ub.frac_within_3se >= 0.99,
            f"unbiasedness: max {ub.max_z:.2f} SE, {100 * ub.frac_within_3se:.1f}% "
            f"within 3 SE over {ub.num_batches} batches of {mc_samples}")

    if failures:
        click.echo(f"{failures} check(s) failed", err=True)
        sys.exit(1)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
