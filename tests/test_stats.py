import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import encodebench as eb
from encodebench.errors import DataError
from encodebench.stats import _student_t_cdf
from oracles import bh_stepup_oracle, student_t_cdf_oracle

CDF_DFS = [2, 3, 10, 47, 191, 215, 1316, 5000]
# where a difference of two lgamma values loses digits; stdtr only: the
# oracle forms its normaliser that way
LARGE_DFS = [100_000, 1_000_000]
CDF_TS = [0.0, 1e-12, -1e-12, 0.5, -0.5, 3.0, -3.0, 30.0, -30.0, 300.0, -300.0,
          np.inf, -np.inf]


def _assert_close_to(p, expected):
    """Relative error <= 1e-10 where the expected p is >= 1e-300, and both
    below 1e-300 elsewhere."""
    p, expected = np.asarray(p), np.asarray(expected)
    normal = expected >= 1e-300
    np.testing.assert_allclose(p[normal], expected[normal], rtol=1e-10, atol=0)
    assert (p[~normal] < 1e-300).all()


class TestStudentTCdf:
    @pytest.mark.parametrize("df", CDF_DFS + LARGE_DFS)
    def test_matches_stdtr_on_the_grid(self, df):
        from scipy.special import stdtr  # the reference, in this test only
        t = np.array(CDF_TS)
        _assert_close_to(_student_t_cdf(t, df), stdtr(df, t))

    @pytest.mark.parametrize("df", CDF_DFS + LARGE_DFS)
    def test_matches_stdtr_on_random_draws(self, df):
        from scipy.special import stdtr
        rng = np.random.default_rng(df)
        t = rng.standard_normal(400) * rng.choice([0.01, 1.0, 5.0, 40.0], 400)
        _assert_close_to(_student_t_cdf(t, df), stdtr(df, t))

    @pytest.mark.parametrize("df", CDF_DFS)
    def test_matches_incomplete_beta_oracle(self, df):
        t = [v for v in CDF_TS if np.isfinite(v)]
        _assert_close_to(_student_t_cdf(t, df),
                         [student_t_cdf_oracle(v, df) for v in t])

    @pytest.mark.parametrize("df", CDF_DFS + LARGE_DFS)
    def test_tails_sum_to_one(self, df):
        rng = np.random.default_rng(df + 1)
        t = np.concatenate([CDF_TS, rng.standard_normal(200) * 10])
        total = _student_t_cdf(t, df) + _student_t_cdf(-t, df)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-15)

    def test_exact_edge_values(self):
        p = _student_t_cdf([0.0, -0.0, np.inf, -np.inf, np.nan], 7)
        assert p[0] == p[1] == 0.5
        assert p[2] == 1.0 and p[3] == 0.0
        assert np.isnan(p[4])

    def test_keeps_the_input_shape(self):
        t = np.linspace(-4, 4, 12).reshape(3, 4)
        p = _student_t_cdf(t, 9)
        assert p.shape == (3, 4)
        assert (np.diff(p.ravel()) > 0).all()
        assert _student_t_cdf(np.array([]), 9).shape == (0,)



class TestPairedTtest:
    def test_identical_models_give_half(self, rng):
        y = rng.standard_normal((10, 3))
        pred = rng.standard_normal((10, 3))
        t, p = eb.paired_squared_error_ttest(y, pred, pred)
        np.testing.assert_array_equal(p, np.full(3, 0.5))
        np.testing.assert_array_equal(t, np.zeros(3))

    def test_true_predictions_beat_noisy_ones(self):
        rng = np.random.default_rng(77)
        y = rng.standard_normal((243, 4))
        noisy = y + rng.standard_normal((243, 4))
        t, p = eb.paired_squared_error_ttest(y, y, noisy)
        assert (p < 0.05).all()
        for unit in range(4):
            assert abs(p[unit] - student_t_cdf_oracle(t[unit], 242)) < 1e-10

    def test_swapped_arguments_negate_t(self, rng):
        y = rng.standard_normal((30, 5))
        a = rng.standard_normal((30, 5))
        b = rng.standard_normal((30, 5))
        t_ab, _ = eb.paired_squared_error_ttest(y, a, b)
        t_ba, _ = eb.paired_squared_error_ttest(y, b, a)
        np.testing.assert_array_equal(t_ab, -t_ba)

    def test_common_shift_invariance(self, rng):
        y = rng.standard_normal((25, 2))
        a = rng.standard_normal((25, 2))
        b = rng.standard_normal((25, 2))
        t1, p1 = eb.paired_squared_error_ttest(y, a, b)
        t2, p2 = eb.paired_squared_error_ttest(y + 3.7, a + 3.7, b + 3.7)
        np.testing.assert_allclose(t1, t2, atol=1e-9)
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_degenerate_variance_raises(self):
        y = np.zeros((5, 1))
        a = np.zeros((5, 1))
        b = np.ones((5, 1))  # d constant and nonzero
        with pytest.raises(DataError):
            eb.paired_squared_error_ttest(y, a, b)

    def test_too_few_samples_rejected(self, rng):
        y = rng.standard_normal((2, 1))
        with pytest.raises(DataError):
            eb.paired_squared_error_ttest(y, y, y + 1)

    @pytest.mark.parametrize("n", [3, 30, 300])
    def test_p_matches_incomplete_beta_oracle(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 6))
        a = y + 0.5 * rng.standard_normal((n, 6))
        b = y + 0.6 * rng.standard_normal((n, 6))
        t, p = eb.paired_squared_error_ttest(y, a, b)
        for unit in range(6):
            assert abs(p[unit] - student_t_cdf_oracle(t[unit], n - 1)) < 1e-10


class TestBhFdr:
    def test_textbook_example(self):
        rejected = eb.bh_fdr([0.01, 0.02, 0.04], [0, 0, 0], level=0.05)
        assert rejected.all()  # 0.04 <= 3 * 0.05 / 3

    def test_all_ones_no_rejections(self):
        assert not eb.bh_fdr([1.0, 1.0, 1.0], [0, 0, 0]).any()

    def test_single_p_reduces_to_raw_threshold(self):
        assert eb.bh_fdr([0.04], [0]).all()
        assert not eb.bh_fdr([0.06], [0]).any()

    def test_matches_direct_stepup_oracle(self, rng):
        p = rng.uniform(size=40) ** 2
        mine = eb.bh_fdr(p, np.zeros(40, dtype=int), level=0.05)
        np.testing.assert_array_equal(mine, bh_stepup_oracle(p, 0.05))

    def test_within_participant_isolation(self, rng):
        # participant 1's huge p-values must not affect participant 0
        p0 = np.array([0.001, 0.002, 0.003])
        p1 = np.array([0.9, 0.95, 0.99])
        combined = eb.bh_fdr(np.concatenate([p0, p1]),
                             np.repeat([0, 1], 3))
        alone = eb.bh_fdr(p0, np.zeros(3, dtype=int))
        np.testing.assert_array_equal(combined[:3], alone)
        assert not combined[3:].any()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25),
           st.integers(1, 3))
    def test_rejections_are_monotone_in_p(self, p_values, n_participants):
        p = np.asarray(p_values)
        participants = np.arange(p.size) % n_participants
        rejected = eb.bh_fdr(p, participants)
        for pid in range(n_participants):
            mask = participants == pid
            if rejected[mask].any():
                threshold = p[mask][rejected[mask]].max()
                assert rejected[mask][p[mask] <= threshold].all()

    def test_invalid_p_rejected(self):
        with pytest.raises(DataError):
            eb.bh_fdr([1.5], [0])


class TestChanceLevelTest:
    def test_model_equal_to_intercept(self, rng):
        y = rng.standard_normal((20, 4))
        icpt = np.tile(y.mean(0), (20, 1))
        result = eb.chance_level_test(y, icpt, icpt, [0, 0, 1, 1])
        np.testing.assert_array_equal(result.p, np.full(4, 0.5))
        assert not result.rejected.any()

    def test_signal_units_rejected(self):
        rng = np.random.default_rng(3)
        n = 100
        y = rng.standard_normal((n, 6))
        preds = np.tile(y.mean(0), (n, 1))
        model = preds.copy()
        model[:, :3] = y[:, :3] + 0.2 * rng.standard_normal((n, 3))
        result = eb.chance_level_test(y, model, preds, [0, 0, 0, 1, 1, 1])
        assert result.rejected[:3].all()
        assert not result.rejected[3:].any()

    def test_blank_scale_accepted(self, rng):
        y = rng.standard_normal((1317, 2))
        model = y + rng.standard_normal((1317, 2))
        icpt = np.tile(y.mean(0), (1317, 1))
        result = eb.chance_level_test(y, model, icpt, [0, 1])
        assert result.p.shape == (2,) and np.isfinite(result.t).all()


def test_import_leaves_scipy_special_unloaded():
    # it is slow to load, and no module of the package uses it
    src = os.path.dirname(os.path.dirname(eb.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, encodebench; print('scipy.special' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _compare_code(tmp_path):
    """Python source that runs a small two-space ``compare`` (SP beside
    OASM, with a chance-level t-test) and prints its exit code."""
    blocks = np.repeat(np.arange(8), 3)
    sp = eb.build_sentence_position([3] * 8, band_group="sp")
    spec = eb.SynthSpec(n_samples=24, n_units=4, block_ids=blocks,
                        signal_features=[sp], noise_scale=1.0, seed=3,
                        participants=np.arange(4) % 2,
                        categories=np.repeat(np.arange(8) // 2, 3))
    manifest = eb.write_dataset(spec, tmp_path / "data", dataset_name="small")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "manifest": str(manifest), "oasm_sigma": 1.0,
        "split": {"scheme": "pereira", "mode": "contiguous"},
        "spaces": [{"name": "OASM", "members": ["OASM"]},
                   {"name": "SP", "members": ["SP"]}],
        "families": [{"name": "main", "spaces": ["OASM", "SP"], "llm": "SP"}],
        "tests": [{"name": "sp-vs-chance", "model_a": {"spaces": ["SP"]},
                   "model_b": "intercept"}],
        "search": {"max_iters": 2, "patience": 1},
    }))
    out = tmp_path / "out"
    return ("from encodebench.cli import main; "
            f"code = main(['compare', '--config', {str(config)!r}, "
            f"'--output', {str(out)!r}]); print(code)")


def _run_python(code):
    src = os.path.dirname(os.path.dirname(eb.__file__))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_compare_leaves_scipy_special_unloaded(tmp_path):
    # the t-tests use their own Student-t CDF: scipy.special would load
    # scipy's own BLAS and special-function libraries
    lines = _run_python("import sys; " + _compare_code(tmp_path)
                        + "; print('scipy.special' in sys.modules)")
    assert lines[-2:] == ["0", "False"]
    assert (tmp_path / "out" / "tables" / "contiguous__main__tests.csv").exists()


def test_import_and_compare_leave_scipy_unloaded(tmp_path):
    # scipy is a test dependency only: no module of the package imports it
    lines = _run_python("import sys, encodebench; "
                        "print('scipy' in sys.modules); "
                        + _compare_code(tmp_path)
                        + "; print('scipy' in sys.modules)")
    assert lines[0] == "False" and lines[-2:] == ["0", "False"]
