import numpy as np
import pytest

import encodebench as eb
from encodebench.errors import DataError
from encodebench.metrics import best_subset
from oracles import submodel_max_oracle


class TestR2Oos:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert eb.r2_oos(y, y, np.full(3, 2.0)) == 1.0

    def test_intercept_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        icpt = np.full(3, 2.0)
        assert eb.r2_oos(y, icpt, icpt) == 0.0

    def test_hand_computed_example(self):
        assert eb.r2_oos([0.0, 2.0], [2.0, 0.0], [1.0, 1.0]) == -3.0

    def test_matrix_input_per_unit(self, rng):
        y = rng.standard_normal((10, 3))
        pred = rng.standard_normal((10, 3))
        icpt = np.tile(y.mean(0), (10, 1))
        out = eb.r2_oos(y, pred, icpt)
        assert out.shape == (3,)
        for unit in range(3):
            assert abs(out[unit] - eb.r2_oos(y[:, unit], pred[:, unit],
                                             icpt[:, unit])) < 1e-12

    def test_constant_target_rejected(self):
        with pytest.raises(DataError):
            eb.r2_oos([1.0, 1.0], [0.5, 0.5], [1.0, 1.0])

    def test_reorder_invariance(self, rng):
        y = rng.standard_normal(20)
        pred = rng.standard_normal(20)
        icpt = rng.standard_normal(20)
        perm = rng.permutation(20)
        assert abs(eb.r2_oos(y, pred, icpt)
                   - eb.r2_oos(y[perm], pred[perm], icpt[perm])) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            eb.r2_oos([1.0, 2.0], [1.0], [0.0, 0.0])


class TestClipAndAverage:
    def test_clipping_rule(self):
        summary = eb.clip_and_average([-0.5, 0.5], [0, 0])
        assert summary.participant_values[0] == 0.25

    def test_non_negative_scores_unchanged(self, rng):
        scores = np.abs(rng.standard_normal(12))
        participants = np.repeat([0, 1, 2], 4)
        summary = eb.clip_and_average(scores, participants)
        for i, p in enumerate(summary.participant_ids):
            assert abs(summary.participant_values[i]
                       - scores[participants == p].mean()) < 1e-12

    def test_sem_example(self):
        summary = eb.clip_and_average([0.2, 0.4], [0, 1])
        assert abs(summary.mean - 0.3) < 1e-12
        assert abs(summary.sem - 0.1) < 1e-12

    def test_clipped_units_contribute_exactly_zero(self):
        with_negative = eb.clip_and_average([0.4, -0.7], [0, 0])
        with_zero = eb.clip_and_average([0.4, 0.0], [0, 0])
        assert with_negative.participant_values[0] == \
            with_zero.participant_values[0]

    def test_single_participant_sem_is_nan(self):
        summary = eb.clip_and_average([0.1, 0.2], [0, 0])
        assert np.isnan(summary.sem)


def _corrected(table, required=None):
    """The per-unit max over a whole subset family, as
    ``build_comparison_report`` takes it with ``best_subset``."""
    table = {frozenset(k): np.asarray(v, dtype=np.float64)
             for k, v in table.items()}
    return best_subset(table, sorted(frozenset().union(*table)), required)[1]


class TestSubmodelMax:
    def test_basic_max(self):
        table = {("A",): [0.1], ("B",): [0.2], ("A", "B"): [0.15]}
        np.testing.assert_allclose(_corrected(table), [0.2])

    def test_required_restricts_family(self):
        table = {("A",): [0.1], ("B",): [0.2], ("A", "B"): [0.15]}
        np.testing.assert_allclose(_corrected(table, required="A"), [0.15])

    def test_matches_brute_force(self, rng):
        spaces = ["A", "B", "C"]
        table = {}
        import itertools
        for size in range(1, 4):
            for combo in itertools.combinations(spaces, size):
                table[frozenset(combo)] = rng.standard_normal(16)
        np.testing.assert_allclose(
            _corrected(table), submodel_max_oracle(table))
        np.testing.assert_allclose(
            _corrected(table, required="B"),
            submodel_max_oracle(table, required="B"))

    def test_required_never_exceeds_unrestricted(self, rng):
        import itertools
        table = {
            frozenset(c): rng.standard_normal(10)
            for size in range(1, 4)
            for c in itertools.combinations("ABC", size)
        }
        unrestricted = _corrected(table)
        restricted = _corrected(table, required="A")
        assert (restricted <= unrestricted + 1e-15).all()

    def test_missing_subset_rejected(self):
        with pytest.raises(DataError):
            _corrected({("A",): [0.1], ("A", "B"): [0.2]})


class TestBestSubset:
    def test_ties_go_to_the_first_enumerated_subset(self):
        table = {frozenset("A"): np.array([1.0, 0.0, 0.2]),
                 frozenset("B"): np.array([1.0, 2.0, 0.1]),
                 frozenset("AB"): np.array([0.5, 2.0, 0.2])}
        keys, best, index = best_subset(table, ["B", "A"])
        assert keys == [frozenset("B"), frozenset("A"), frozenset("AB")]
        np.testing.assert_array_equal(best, [1.0, 2.0, 0.2])
        np.testing.assert_array_equal(index, [0, 0, 1])  # B, B, A
        keys, _, index = best_subset(table, ["B", "A"], required="A")
        np.testing.assert_array_equal(index, [0, 1, 0])  # A, AB, A

    def test_missing_or_no_subset_rejected(self):
        table = {frozenset("A"): np.array([0.1])}
        with pytest.raises(DataError, match="missing subset"):
            best_subset(table, ["A", "B"])
        with pytest.raises(DataError, match="no subset"):
            best_subset(table, ["A"], required="B")


class TestOmega:
    def test_tie_gives_hundred(self):
        out = eb.omega([0.02], [0.02], [0.04], [0])
        assert out.per_unit[0] == 100.0
        assert out.mean == 100.0

    def test_full_gap_gives_zero(self):
        out = eb.omega([0.0], [0.04], [0.04], [0])
        assert out.per_unit[0] == 0.0

    def test_hand_computed(self):
        out = eb.omega([0.02], [0.03], [0.04], [0])
        assert abs(out.per_unit[0] - 75.0) < 1e-12

    def test_units_with_nonpositive_denominator_excluded(self):
        out = eb.omega([0.1, 0.1], [0.2, 0.2], [0.2, -0.1], [0, 0])
        assert out.n_excluded == 1
        assert np.isnan(out.per_unit[1])
        assert out.participant_values[0] == 50.0

    def test_participant_average_clipped_at_100(self):
        # best LLM-free model beats the forced-LLM model -> omega > 100
        out = eb.omega([0.05], [0.03], [0.04], [0])
        assert out.participant_values[0] == 100.0

    def test_all_excluded_is_nan(self):
        out = eb.omega([0.1, 0.1], [0.1, 0.1], [-0.5, 0.0], [0, 1])
        assert np.isnan(out.participant_values).all()
        assert np.isnan(out.mean) and np.isnan(out.sem)
        assert out.n_excluded == 2

    def test_undefined_participant_left_out_of_summary(self):
        # participant 1 has every unit excluded; 0 and 2 are defined
        out = eb.omega([0.1, 0.1, 0.1, 0.0], [0.2, 0.2, 0.2, 0.04],
                       [0.2, -0.1, 0.0, 0.04], [0, 1, 1, 2])
        np.testing.assert_array_equal(out.participant_values[[0, 2]], [50.0, 0.0])
        assert np.isnan(out.participant_values[1])
        assert out.mean == 25.0
        assert abs(out.sem - 25.0) < 1e-12
        assert out.n_excluded == 2
        phi = eb.phi([0.4, 0.4], [0.2, -0.2], [0, 1])
        assert phi.participant_values[0] == 100.0
        assert np.isnan(phi.participant_values[1])
        assert phi.mean == 100.0 and np.isnan(phi.sem)

    def test_decreases_with_gap(self):
        gaps = [0.0, 0.01, 0.02]
        values = [eb.omega([0.02], [0.02 + g], [0.04], [0]).per_unit[0]
                  for g in gaps]
        assert values[0] > values[1] > values[2]


class TestPhi:
    def test_tie_gives_zero(self):
        out = eb.phi([0.02], [0.02], [0])
        assert out.per_unit[0] == 0.0

    def test_doubling_gives_hundred(self):
        out = eb.phi([0.04], [0.02], [0])
        assert abs(out.per_unit[0] - 100.0) < 1e-12

    def test_hand_computed(self):
        out = eb.phi([0.03], [0.02], [0])
        assert abs(out.per_unit[0] - 50.0) < 1e-12

    def test_no_clipping(self):
        out = eb.phi([0.1], [0.02], [0])
        assert out.participant_values[0] > 100.0

    def test_exclusion(self):
        out = eb.phi([0.1, 0.1], [0.05, 0.0], [0, 0])
        assert out.n_excluded == 1

    def test_denominators_are_included_oasm_means(self):
        out = eb.phi([0.1, 0.1, 0.3, 0.2, 0.1], [0.05, 0.0, 0.02, 0.04, -0.1],
                     [0, 0, 1, 1, 2])
        np.testing.assert_allclose(out.denominators[:2], [0.05, 0.03],
                                   rtol=1e-15)
        assert np.isnan(out.denominators[2])
        assert eb.omega([0.1], [0.2], [0.2], [0]).denominators is None


class TestComparisonReport:
    def _table(self, rng):
        import itertools
        table = {}
        for size in range(1, 4):
            for combo in itertools.combinations(("M", "W", "LLM"), size):
                table[frozenset(combo)] = rng.standard_normal(12) * 0.05 + 0.05
        return table

    def test_structure_and_invariant(self, rng):
        table = self._table(rng)
        participants = np.repeat([0, 1, 2], 4)
        report = eb.build_comparison_report(table, participants, llm="LLM")
        assert (report.r2_corrected >= report.r2_corrected_with_llm - 1e-15).all()
        assert (report.r2_corrected >= report.r2_corrected_without_llm - 1e-15).all()
        assert report.omega is not None
        assert report.phi is None
        assert len(report.submodel_table) == 7

    def test_phi_needs_oasm(self, rng):
        import itertools
        table = {}
        for size in range(1, 3):
            for combo in itertools.combinations(("OASM", "LLM"), size):
                table[frozenset(combo)] = np.abs(rng.standard_normal(6)) + 0.01
        participants = np.repeat([0, 1], 3)
        report = eb.build_comparison_report(table, participants,
                                            llm="LLM", oasm="OASM")
        assert report.phi is not None
        expected = eb.phi(
            np.maximum(table[frozenset(["LLM"])],
                       table[frozenset(["OASM", "LLM"])]),
            table[frozenset(["OASM"])], participants)
        np.testing.assert_allclose(report.phi.per_unit, expected.per_unit)
