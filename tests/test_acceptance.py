"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import encodebench as eb
from encodebench.cli import main as cli_main
from encodebench.pipeline import AnalysisConfig
from encodebench.ridge import BandedSearchConfig
from oracles import (
    apply_band_scaling,
    bh_stepup_oracle,
    block_penalty_oracle,
    ridge_normal_eq_oracle,
    single_band_alpha_grid_oracle,
    student_t_cdf_oracle,
)


@contextmanager
def criterion(number, name, budget_seconds=None):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:2d} {name}: FAIL")
        raise
    elapsed = time.time() - started
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
        )
    print(f"[acceptance] {number:2d} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_ridge_oracle_equivalence():
    with criterion(1, "ridge oracle equivalence", budget_seconds=10):
        grid = eb.default_alpha_grid()
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(5, 31))
            p = int(rng.integers(1, 11))
            units = int(rng.integers(1, 6))
            X = rng.standard_normal((n, p))
            Y = rng.standard_normal((n, units))
            Xe = rng.standard_normal((4, p))
            preds = eb.ridge_solve(X, Y, Xe, grid)
            for i, alpha in enumerate(grid):
                if alpha == 0.0 and p >= n:
                    continue  # full-rank requirement applies to the OLS check
                oracle = ridge_normal_eq_oracle(X, Y, Xe, alpha)
                assert np.abs(preds[i] - oracle).max() < 1e-8


def test_criterion_2_banded_penalty_equivalence():
    with criterion(2, "banded-penalty equivalence", budget_seconds=5):
        rng = np.random.default_rng(202)
        grid = eb.default_alpha_grid()
        for _ in range(20):
            Xa = rng.standard_normal((15, 2))
            Xb = rng.standard_normal((15, 3))
            Y = rng.standard_normal((15, 3))
            Ea = rng.standard_normal((5, 2))
            Eb = rng.standard_normal((5, 3))
            raw = rng.uniform(0.2, 0.8, size=2)
            gamma = raw / raw.sum()
            alpha = float(rng.choice(grid[5:25]))
            mine = eb.ridge_solve(
                apply_band_scaling([Xa, Xb], gamma), Y,
                apply_band_scaling([Ea, Eb], gamma), [alpha])[0]
            oracle = block_penalty_oracle([Xa, Xb], Y, [Ea, Eb], alpha, gamma)
            assert np.abs(mine - oracle).max() < 1e-8


def test_criterion_3_metric_identities():
    with criterion(3, "metric identities"):
        y = np.array([0.5, 1.5, -1.0])
        assert eb.r2_oos(y, y, np.zeros(3)) == 1.0
        icpt = np.full(3, y.mean())
        assert eb.r2_oos(y, icpt, icpt) == 0.0
        assert eb.r2_oos([0.0, 2.0], [2.0, 0.0], [1.0, 1.0]) == -3.0
        assert eb.omega([0.02], [0.02], [0.04], [0]).per_unit[0] == 100.0
        assert eb.phi([0.02], [0.02], [0]).per_unit[0] == 0.0


def test_criterion_4_fold_count_replication():
    with criterion(4, "fold-count replication"):
        expectations = {
            "pereira-exp1": (8, 7),
            "pereira-exp2": (6, 5),
        }
        for preset_name, (outer, inner) in expectations.items():
            spec, _ = eb.preset(preset_name, n_units=4)
            plan = eb.plan_pereira(spec.categories, spec.block_ids)
            assert len(plan.outer_folds) == outer
            assert all(len(f.inner_folds) == inner for f in plan.outer_folds)
        spec, _ = eb.preset("fedorenko", n_units=4)
        plan = eb.plan_fedorenko(spec.block_ids)
        assert len(plan.outer_folds) == 13
        assert all(len(f.inner_folds) == 12 for f in plan.outer_folds)
        spec, _ = eb.preset("blank", n_units=4)
        plan = eb.plan_blank(spec.block_ids)
        assert len(plan.outer_folds) == 8
        assert all(len(f.inner_folds) == 7 for f in plan.outer_folds)


def test_criterion_5_shuffled_split_contamination():
    with criterion(5, "shuffled-split contamination demo", budget_seconds=300):
        passes = 0
        for seed in range(20):
            spec, _ = eb.preset("shuffle-demo", seed=seed)
            assert spec.n_units >= 200
            assert np.unique(spec.block_ids).size == 96
            recording, _ = eb.generate(spec)
            oasm = eb.build_oasm(spec.n_samples, spec.block_ids, 2.0)
            plan = eb.plan_pereira(spec.categories, spec.block_ids)
            shuffled = eb.shuffle_plan(plan, seed)
            r2 = {}
            for mode, mode_plan in (("contiguous", plan),
                                    ("shuffled", shuffled)):
                fit = eb.banded_search([oasm], recording.responses, mode_plan)
                r2[mode] = eb.clip_and_average(
                    fit.test_r2(recording.responses),
                    recording.unit_participants).mean
            if r2["shuffled"] > 0.3 and -0.05 <= r2["contiguous"] <= 0.05:
                passes += 1
        assert passes >= 19, f"only {passes}/20 seeds passed"


def test_criterion_6_omega_subsumption():
    with criterion(6, "omega subsumption demo", budget_seconds=600):
        omegas = []
        for seed in range(10):
            spec, extras = eb.preset("subsumption-demo", seed=seed)
            llm = extras[0]
            assert llm.n_dims == 512
            recording, _ = eb.generate(spec)
            plan = eb.plan_pereira(spec.categories, spec.block_ids)
            spsl = [eb.FeatureSpace(fs.name, fs.data, "spsl")
                    for fs in spec.signal_features]
            fits = {
                frozenset(["SPSL"]): eb.banded_search(
                    spsl, recording.responses, plan),
                frozenset(["LLM"]): eb.banded_search(
                    [llm], recording.responses, plan),
                frozenset(["SPSL", "LLM"]): eb.banded_search(
                    spsl + [llm], recording.responses, plan),
            }
            scores = {k: fit.test_r2(recording.responses)
                      for k, fit in fits.items()}
            report = eb.build_comparison_report(
                scores, recording.unit_participants, llm="LLM")
            omegas.append(report.omega.mean)
        assert np.mean(omegas) >= 95.0, f"mean omega {np.mean(omegas):.2f}"


def test_criterion_7_statistics_oracles():
    with criterion(7, "statistics oracles"):
        assert eb.bh_fdr([0.01, 0.02, 0.04], [0, 0, 0], level=0.05).all()
        np.testing.assert_array_equal(
            eb.bh_fdr([0.01, 0.02, 0.04], [0, 0, 0], 0.05),
            bh_stepup_oracle([0.01, 0.02, 0.04], 0.05))

        for n in (3, 30, 300):
            rng = np.random.default_rng(n)
            y = rng.standard_normal((n, 8))
            a = y + 0.4 * rng.standard_normal((n, 8))
            b = y + 0.5 * rng.standard_normal((n, 8))
            t, p = eb.paired_squared_error_ttest(y, a, b)
            for unit in range(8):
                assert abs(p[unit] - student_t_cdf_oracle(t[unit], n - 1)) < 1e-10

        total_units = 0
        raw_rejections = 0
        fdr_rejections = 0
        blocks = np.repeat(np.arange(24), 4)
        plan = eb.plan_grouped(blocks, 8, 7)
        for seed in range(20):
            rng = np.random.default_rng((seed, 55))
            features = eb.FeatureSpace(
                "RAND", rng.standard_normal((96, 16)), "rand")
            spec = eb.SynthSpec(
                n_samples=96, n_units=100, block_ids=blocks, signal_scale=0.0,
                noise_scale=1.0, autocorr_sigma=0.0, seed=seed,
                participants=np.arange(100) % 5)
            recording, _ = eb.generate(spec)
            fit = eb.banded_search([features], recording.responses, plan)
            result = eb.chance_level_test(
                recording.responses, fit.test_predictions,
                fit.intercept_predictions, recording.unit_participants)
            total_units += result.p.size
            raw_rejections += int((result.p < 0.05).sum())
            fdr_rejections += int(result.rejected.sum())
        assert raw_rejections / total_units <= 0.07
        assert fdr_rejections / total_units <= 0.005


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "report determinism across thread counts",
                   budget_seconds=300):
        assert cli_main(["synth", "--preset", "shuffle-demo", "--seed", "7",
                         "--units", "24", "--participants", "4",
                         "--output", str(tmp_path / "data")]) == 0
        config = {
            "manifest": str(tmp_path / "data" / "manifest.json"),
            "split": {"scheme": "pereira", "mode": "both", "shuffle_seed": 7},
            "oasm_sigma": 2.0,
            "spaces": [{"name": "OASM", "members": ["OASM"], "band": "oasm"}],
            "families": [{"name": "main", "spaces": ["OASM"]}],
            "tests": [{"name": "oasm-vs-chance",
                       "model_a": {"spaces": ["OASM"]},
                       "model_b": "intercept"}],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))

        def run(threads, name):
            out = tmp_path / name
            assert cli_main(["compare", "--config", str(cfg_path),
                             "--threads", str(threads),
                             "--output", str(out)]) == 0
            tree = {}
            for p in sorted(out.rglob("*")):
                if p.is_file() and p.name != "provenance.json":
                    tree[str(p.relative_to(out))] = hashlib.sha256(
                        p.read_bytes()).hexdigest()
            return tree

        assert run(1, "run1") == run(8, "run2")


def test_criterion_9_oasm_structural_checks():
    with criterion(9, "OASM structural checks"):
        fs = eb.build_oasm(8, [0, 0, 0, 1, 1, 1, 2, 2], 1.7)
        blocks = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        for i in range(8):
            for j in range(8):
                if blocks[i] != blocks[j]:
                    assert float(fs.data[i] @ fs.data[j]) == 0.0
        tiny = eb.build_oasm(4, [0, 0, 0, 0], 1e-6)
        assert np.abs(tiny.data - np.eye(4)).max() < 1e-9
        grid = eb.oasm_sigma_grid()
        assert grid.size == 50
        assert grid[0] == 0.1 and grid[-1] == 5.0
        np.testing.assert_allclose(np.diff(grid), 0.1, atol=1e-12)


def test_criterion_10_search_sanity():
    with criterion(10, "search sanity"):
        rng = np.random.default_rng(10)
        blocks = np.repeat(np.arange(24), 4)
        plan = eb.plan_grouped(blocks, 6, 5)
        X = rng.standard_normal((96, 5))
        Y = X @ rng.standard_normal((5, 15)) + 0.5 * rng.standard_normal((96, 15))
        features = eb.FeatureSpace("X", X, "x")

        fit = eb.banded_search([features], Y, plan)
        oracle_pred, oracle_alpha, oracle_val = single_band_alpha_grid_oracle(
            X, Y, plan, fit.alphas)
        np.testing.assert_array_equal(fit.chosen_alpha, oracle_alpha)
        np.testing.assert_allclose(fit.test_predictions, oracle_pred,
                                   atol=1e-10)
        assert fit.n_random_iterations == [0] * len(plan.outer_folds)

        # plateau: a duplicated band means no random draw can improve on the
        # mask phase, so the 1e-4 / 50-iteration rule must trigger
        copy = eb.FeatureSpace("C", X.copy(), "c")
        noiseless = X @ rng.standard_normal((5, 15))
        fit = eb.banded_search([features, copy], noiseless, plan,
                               search_cfg=BandedSearchConfig(seed=3))
        assert all(n == 50 for n in fit.n_random_iterations)
        assert all(fit.early_stopped)
        assert all(n <= 1000 for n in fit.n_random_iterations)
