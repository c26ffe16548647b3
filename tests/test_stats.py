import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import encodebench as eb
from encodebench.errors import DataError
from oracles import bh_stepup_oracle, student_t_cdf_oracle


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
