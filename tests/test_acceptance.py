"""Acceptance gate: the eight numeric guarantees this toolkit ships with.

Each test prints one PASS/FAIL line with its measured values and pinned
tolerances. The training criterion is the long one; the whole module is
sized to finish well inside common CI budgets.
"""

import itertools
import math
import time

import numpy as np
import pytest

from seqrl import oracles
from seqrl.data import default_vocabulary, generate_splits
from seqrl.decoding import beam_search, forced_decode, greedy_decode
from seqrl.model import ModelConfig, encode, init_params
from seqrl.objectives import RlConfig
from seqrl.training import TrainConfig, train_mle, train_rl


@pytest.fixture
def verdict(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _verdict(ok: bool, name: str, detail: str) -> None:
        line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)
        assert ok, line

    return _verdict


def test_step_rewards_telescope_to_edit_distance(verdict):
    started = time.perf_counter()
    bad = oracles.telescoping_mismatches(num_pairs=1000, seed=5)
    elapsed = time.perf_counter() - started
    verdict(bad == 0 and elapsed < 1.0,
            "reward telescoping",
            f"{bad} mismatches in 1000 fuzzed pairs [tol 0], {elapsed:.2f}s [budget 1s]")


def test_likelihood_gradients_match_finite_differences(verdict):
    started = time.perf_counter()
    task = oracles.gradient_check_task()
    report = oracles.mle_gradient_report(task.config, task.params, task.features,
                                         task.reference)
    worst = max(report.values())
    elapsed = time.perf_counter() - started
    verdict(worst <= 1e-6 and elapsed < 30.0,
            "likelihood gradients",
            f"max per-parameter rel err {worst:.3g} over {len(report)} parameter "
            f"tensors [tol 1e-06], {elapsed:.1f}s [budget 30s]")


def test_stepwise_estimator_matches_final_estimator_undiscounted(verdict):
    started = time.perf_counter()
    gap = oracles.causality_gap(oracles.make_tiny_task())
    elapsed = time.perf_counter() - started
    verdict(gap <= 1e-10 and elapsed < 10.0,
            "estimator equivalence",
            f"max exact-expectation gap {gap:.3g} between stepwise (gamma=1) and "
            f"final-reward forms [tol 1e-10], {elapsed:.2f}s [budget 10s]")


def test_sampled_estimator_is_unbiased(verdict):
    started = time.perf_counter()
    task = oracles.make_tiny_task()
    ub = oracles.unbiasedness_report(task, num_batches=20000, num_samples=4,
                                     seed=2024)
    elapsed = time.perf_counter() - started
    verdict(ub.max_z <= 5.0 and ub.frac_within_3se >= 0.99 and elapsed < 120.0,
            "estimator unbiasedness",
            f"max |z| {ub.max_z:.2f} [tol 5], {100 * ub.frac_within_3se:.1f}% of "
            f"{ub.num_components} components within 3 SE [tol 99%] over "
            f"{ub.num_batches} batches, {elapsed:.0f}s [budget 120s]")


def test_reward_training_improves_likelihood_trained_models(verdict):
    started = time.perf_counter()
    splits = generate_splits(default_vocabulary(8), {"train": 1000, "dev": 100},
                             (3, 12), frames_per_symbol=8, noise_sigma=0.3,
                             seed=1, feature_dim=16)
    model = ModelConfig(vocab_size=9)
    mle_cers = []
    gains = []
    for seed in (1, 2, 3):
        warm = TrainConfig(model=model, seed=seed, learning_rate=1e-3,
                           batch_size=8, mle_max_epochs=5, patience=5)
        mle = train_mle(splits["train"], splits["dev"], warm)
        tuned = TrainConfig(model=model,
                            rl=RlConfig(mode="time_reward", gamma=0.95,
                                        num_samples=15, normalization="timewise"),
                            seed=seed, learning_rate=5e-4, batch_size=8,
                            rl_max_epochs=2, patience=5)
        rl = train_rl(splits["train"], splits["dev"], tuned, mle.checkpoint)
        mle_cers.append(mle.best_dev_cer)
        gains.append((mle.best_dev_cer - rl.best_dev_cer) / mle.best_dev_cer)
    median_mle = float(np.median(mle_cers))
    median_gain = float(np.median(gains))
    elapsed = time.perf_counter() - started
    verdict(median_mle <= 0.15 and median_gain >= 0.10 and elapsed < 900.0,
            "reward training",
            f"median warmup dev CER {median_mle:.3f} [tol 0.15], median relative "
            f"improvement {median_gain:.2f} [tol 0.10] over seeds 1-3, "
            f"{elapsed:.0f}s [budget 900s]")


def test_every_reward_configuration_trains_cleanly(verdict):
    started = time.perf_counter()
    splits = generate_splits(default_vocabulary(3), {"train": 6, "dev": 3},
                             (2, 4), frames_per_symbol=4, noise_sigma=0.05,
                             seed=9, feature_dim=4)
    model = ModelConfig(vocab_size=4, feature_dim=4, enc_hidden=4, enc_layers=2,
                        subsample_layers=1, embed_dim=4, dec_hidden=6, mlp_hidden=4)
    warm = TrainConfig(model=model, seed=1, learning_rate=5e-3, batch_size=2,
                       mle_max_epochs=2, patience=5)
    mle = train_mle(splits["train"], splits["dev"], warm)
    mean_ref = float(np.mean([len(u.transcript) for u in splits["train"]]))
    scenarios = [("final_reward", "across_samples", 1.0),
                 ("time_reward", "timewise", 0.0),
                 ("time_reward", "timewise", 0.5),
                 ("time_reward", "timewise", 0.95)]
    problems = []
    for mode, normalization, gamma in scenarios:
        config = TrainConfig(model=model,
                             rl=RlConfig(mode=mode, gamma=gamma, num_samples=4,
                                         normalization=normalization),
                             seed=1, learning_rate=1e-3, batch_size=2,
                             rl_max_epochs=1, patience=5)
        result = train_rl(splits["train"], splits["dev"], config, mle.checkpoint)
        row = result.metrics[1]
        label = f"{mode}/gamma={gamma}"
        if not (math.isfinite(row.train_loss) and math.isfinite(row.dev_cer)):
            problems.append(f"{label}: non-finite metrics")
        if not math.isfinite(row.mean_reward) or row.mean_reward > mean_ref:
            problems.append(f"{label}: mean reward {row.mean_reward} exceeds "
                            f"the reference-length bound {mean_ref:.2f}")
    elapsed = time.perf_counter() - started
    verdict(not problems and elapsed < 60.0,
            "reward scenario coverage",
            f"{len(scenarios)} configurations finished with finite losses and "
            f"mean rewards within the length bound"
            + (f"; problems: {problems}" if problems else "")
            + f", {elapsed:.1f}s [budget 60s]")


def test_search_strategies_are_mutually_consistent(verdict):
    started = time.perf_counter()
    config = ModelConfig(vocab_size=4, feature_dim=3, enc_hidden=2, enc_layers=1,
                         subsample_layers=0, embed_dim=2, dec_hidden=3, mlp_hidden=2)
    beam_one_diffs = 0
    beam_losses = 0
    for seed in range(100):
        params = init_params(config, seed, scale=0.8)
        feats = np.random.default_rng([seed, 23]).normal(size=(4, 3))
        greedy = greedy_decode(feats, params, config, max_len=6)
        if beam_search(feats, params, config, beam=1, max_len=6).graphemes \
                != greedy.graphemes:
            beam_one_diffs += 1
        wide = beam_search(feats, params, config, beam=5, max_len=6)
        if wide.normalized_score < greedy.normalized_score - 1e-12:
            beam_losses += 1

    small = ModelConfig(vocab_size=3, feature_dim=3, enc_hidden=2, enc_layers=1,
                        subsample_layers=0, embed_dim=2, dec_hidden=3, mlp_hidden=2)
    exhaustive_diffs = 0
    for seed in range(10):
        params = init_params(small, seed, scale=0.9)
        feats = np.random.default_rng([seed, 29]).normal(size=(3, 3))
        enc = encode([feats], params, small)[0]
        candidates = [forced_decode(feats, params, small, combo, terminated=True,
                                    enc=enc)[0]
                      for length in range(3)
                      for combo in itertools.product(range(2), repeat=length)]
        candidates += [forced_decode(feats, params, small, combo, terminated=False,
                                     enc=enc)[0]
                       for combo in itertools.product(range(2), repeat=3)]
        best = sorted(candidates, key=lambda h: (-h.normalized_score, h.graphemes))[0]
        if beam_search(feats, params, small, beam=32, max_len=3).graphemes \
                != best.graphemes:
            exhaustive_diffs += 1
    elapsed = time.perf_counter() - started
    verdict(beam_one_diffs == 0 and beam_losses == 0 and exhaustive_diffs == 0
            and elapsed < 60.0,
            "search consistency",
            f"beam-1 vs greedy: {beam_one_diffs}/100 mismatches [tol 0]; beam-5 "
            f"below greedy: {beam_losses}/100 [tol 0]; wide beam vs exhaustive: "
            f"{exhaustive_diffs}/10 mismatches [tol 0], {elapsed:.1f}s [budget 60s]")


def test_identical_runs_produce_identical_artifacts(verdict, tmp_path):
    started = time.perf_counter()
    splits = generate_splits(default_vocabulary(3), {"train": 6, "dev": 3},
                             (2, 4), frames_per_symbol=4, noise_sigma=0.05,
                             seed=9, feature_dim=4)
    model = ModelConfig(vocab_size=4, feature_dim=4, enc_hidden=4, enc_layers=2,
                        subsample_layers=1, embed_dim=4, dec_hidden=6, mlp_hidden=4)
    config = TrainConfig(model=model,
                         rl=RlConfig(mode="time_reward", gamma=0.9, num_samples=3,
                                     normalization="timewise"),
                         seed=1, learning_rate=5e-3, batch_size=2,
                         mle_max_epochs=2, rl_max_epochs=1, patience=5)
    outputs = {}
    for run in ("a", "b"):
        out = tmp_path / run
        mle = train_mle(splits["train"], splits["dev"], config, out_dir=str(out))
        train_rl(splits["train"], splits["dev"], config, mle.checkpoint,
                 out_dir=str(out))
        outputs[run] = {name: (out / name).read_bytes()
                        for name in ("mle_metrics.csv", "mle_best.ckpt",
                                     "rl_metrics.csv", "rl_best.ckpt")}
    different = [name for name in outputs["a"]
                 if outputs["a"][name] != outputs["b"][name]]
    elapsed = time.perf_counter() - started
    verdict(not different and elapsed < 120.0,
            "bitwise reproducibility",
            f"4 artifact files byte-identical across two runs [tol: exact]"
            + (f"; differing: {different}" if different else "")
            + f", {elapsed:.1f}s [budget 120s]")
