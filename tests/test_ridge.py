import hashlib
import multiprocessing
import os
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import encodebench as eb
from encodebench.errors import DataError
from encodebench import ridge, synthgen
from encodebench.pipeline import SplitSpec, build_plan
from encodebench.splits import OuterFold
from encodebench.ridge import (
    BandedSearchConfig,
    RidgeConfig,
    _band_blocks,
    _FoldData,
    _Scratch,
    _train_sets,
)
from oracles import (
    apply_band_scaling,
    block_penalty_oracle,
    min_norm_ridge_oracle,
    ridge_normal_eq_oracle,
    single_band_alpha_grid_oracle,
)


class TestAlphaGrid:
    def test_shape_and_endpoints(self):
        grid = eb.default_alpha_grid()
        assert len(grid) == 41
        assert grid[0] == 0.0
        assert grid[1] == 2.0 ** -5
        assert grid[-1] == 2.0 ** 34
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_config_validation(self):
        with pytest.raises(DataError):
            RidgeConfig(alphas=(1.0, 2.0))  # must start at 0
        with pytest.raises(DataError):
            RidgeConfig(alphas=(0.0, 2.0, 1.0))


class TestRidgeSolve:
    def test_exact_line_through_origin(self):
        preds = eb.ridge_solve([[1.0], [2.0]], [2.0, 4.0], [[3.0]], [0.0])
        assert abs(preds[0, 0] - 6.0) < 1e-12

    def test_infinite_shrinkage_predicts_training_mean(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        preds = eb.ridge_solve(X, y, rng.standard_normal((4, 3)),
                               [eb.default_alpha_grid()[-1]])
        assert np.abs(preds[0] - y.mean()).max() < 1e-3

    def test_matches_normal_equation_oracle(self, rng):
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 3))
        Xe = rng.standard_normal((6, 5))
        mine = eb.ridge_solve(X, Y, Xe, [2.0])[0]
        np.testing.assert_allclose(
            mine, ridge_normal_eq_oracle(X, Y, Xe, 2.0), atol=1e-8)

    def test_alpha_zero_reproduces_ols(self, rng):
        X = rng.standard_normal((25, 4))
        Y = rng.standard_normal((25, 2))
        Xe = rng.standard_normal((5, 4))
        mine = eb.ridge_solve(X, Y, Xe, [0.0])[0]
        np.testing.assert_allclose(
            mine, ridge_normal_eq_oracle(X, Y, Xe, 0.0), atol=1e-8)

    def test_wide_problem_matches_oracle(self, rng):
        X = rng.standard_normal((10, 40))
        Y = rng.standard_normal((10, 2))
        Xe = rng.standard_normal((3, 40))
        mine = eb.ridge_solve(X, Y, Xe, [3.5, 0.0])
        for pos, alpha in enumerate([3.5, 0.0]):  # 0.0: min-norm lstsq
            np.testing.assert_allclose(
                mine[pos], ridge_normal_eq_oracle(X, Y, Xe, alpha), atol=1e-8)

    def test_rank_deficient_gram_matches_oracle(self, rng):
        # 144 x 512 of rank 5: the Gram path must drop eigh's noise
        # eigenvalues at every alpha rather than invert them at alpha = 0 or
        # add them to a small alpha
        _assert_rank_deficient_matches_oracle(rng, 512)

    def test_rank_deficient_design_matches_oracle(self, rng):
        # 144 x 40 of rank 5: the primal Gram X^T X drops its noise
        # eigenvalues by the same rule
        _assert_rank_deficient_matches_oracle(rng, 40)

    def test_tall_problem_takes_no_svd(self, rng, monkeypatch):
        # a design no wider than tall factors its primal Gram X^T X by eigh
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 3))
        Xe = rng.standard_normal((6, 5))
        monkeypatch.setattr(np.linalg, "svd", _no_svd)
        mine = eb.ridge_solve(X, Y, Xe, [0.0, 2.0])
        monkeypatch.undo()
        for pos, alpha in enumerate([0.0, 2.0]):
            np.testing.assert_allclose(
                mine[pos], ridge_normal_eq_oracle(X, Y, Xe, alpha), atol=1e-8)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            eb.ridge_solve([[1.0], [float("inf")]], [1.0, 2.0], [[1.0]], [1.0])

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        # a NaN alpha used to be filtered as the pseudo-inverse
        with pytest.raises(DataError, match="finite"):
            eb.ridge_solve([[1.0], [2.0]], [1.0, 2.0], [[1.0]], [0.0, alpha])

    def test_monotone_shrinkage(self, rng):
        for n, p in ((30, 6), (10, 25)):  # tall, then wide (Gram path)
            X = rng.standard_normal((n, p))
            Y = rng.standard_normal((n, 4))
            fitted = eb.ridge_solve(X, Y, X, eb.default_alpha_grid())
            norms = np.linalg.norm(fitted - Y.mean(axis=0), axis=1)
            assert (np.diff(norms, axis=0) <= 1e-12).all()  # (n_alphas, units)


def _no_svd(*args, **kwargs):
    raise AssertionError("np.linalg.svd called")


def _assert_rank_deficient_matches_oracle(rng, width):
    """ridge_solve on 144 rows of rank 5 and ``width`` columns: the pseudo-
    inverse at alpha 0, ``ridge_normal_eq_oracle`` at alpha > 0."""
    basis = rng.standard_normal((5, width))
    X = rng.standard_normal((144, 5)) @ basis
    Xe = rng.standard_normal((12, 5)) @ basis
    Y = rng.standard_normal((144, 3))
    x_mean, y_mean = X.mean(axis=0), Y.mean(axis=0)
    expected = (Xe - x_mean) @ np.linalg.pinv(X - x_mean) @ (Y - y_mean) + y_mean
    alphas = [0.0, 2.0 ** -5, 1.0, 32.0]
    mine = eb.ridge_solve(X, Y, Xe, alphas)
    np.testing.assert_allclose(mine[0], expected, atol=1e-8)
    for pos, alpha in enumerate(alphas[1:], 1):
        want = ridge_normal_eq_oracle(X, Y, Xe, alpha)
        assert np.abs(mine[pos] - want).max() <= 1e-12 * np.abs(want).max()


class TestBandScaling:
    def test_equivalent_to_block_penalty(self, rng):
        for _ in range(5):
            Xa = rng.standard_normal((15, 2))
            Xb = rng.standard_normal((15, 3))
            Y = rng.standard_normal((15, 4))
            Ea = rng.standard_normal((6, 2))
            Eb = rng.standard_normal((6, 3))
            gamma = np.array([0.7, 0.3])
            alpha = 4.0
            scaled_tr = apply_band_scaling([Xa, Xb], gamma)
            scaled_ev = apply_band_scaling([Ea, Eb], gamma)
            mine = eb.ridge_solve(scaled_tr, Y, scaled_ev, [alpha])[0]
            oracle = block_penalty_oracle([Xa, Xb], Y, [Ea, Eb], alpha, gamma)
            np.testing.assert_allclose(mine, oracle, atol=1e-8)
        # wide: 2 bands, 28 columns on 12 rows take the Gram path
        Xa, Xb = rng.standard_normal((12, 4)), rng.standard_normal((12, 24))
        Ea, Eb = rng.standard_normal((6, 4)), rng.standard_normal((6, 24))
        Y = rng.standard_normal((12, 3))
        gamma = np.array([0.8, 0.2])
        mine = eb.ridge_solve(apply_band_scaling([Xa, Xb], gamma), Y,
                              apply_band_scaling([Ea, Eb], gamma), [2.0])[0]
        oracle = block_penalty_oracle([Xa, Xb], Y, [Ea, Eb], 2.0, gamma)
        np.testing.assert_allclose(mine, oracle, atol=1e-8)


class TestEnumerateMasks:
    def test_single_band(self):
        masks = eb.enumerate_masks(1)
        assert len(masks) == 1
        np.testing.assert_array_equal(masks[0], [1.0])

    def test_two_bands(self):
        masks = eb.enumerate_masks(2)
        np.testing.assert_array_equal(masks[0], [1.0, 0.0])
        np.testing.assert_array_equal(masks[1], [0.0, 1.0])
        np.testing.assert_array_equal(masks[2], [0.5, 0.5])

    def test_three_bands(self):
        masks = eb.enumerate_masks(3)
        assert len(masks) == 7
        for mask in masks:
            assert abs(mask.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(masks[-1], [1 / 3] * 3)

    def test_range_checks(self):
        with pytest.raises(DataError):
            eb.enumerate_masks(0)
        with pytest.raises(DataError):
            eb.enumerate_masks(17)


class TestBandedSearch:
    def test_single_band_equals_alpha_grid_oracle(self, tiny_recording,
                                                  small_plan):
        features, Y, _ = tiny_recording
        fit = eb.banded_search([features], Y, small_plan)
        oracle_pred, oracle_alpha, oracle_val = single_band_alpha_grid_oracle(
            features.data, Y, small_plan, fit.alphas)
        np.testing.assert_array_equal(fit.chosen_alpha, oracle_alpha)
        np.testing.assert_array_equal(
            fit.chosen_gamma, np.ones_like(fit.chosen_gamma))
        np.testing.assert_allclose(fit.test_predictions, oracle_pred,
                                   atol=1e-10)
        np.testing.assert_allclose(fit.validation_r2, oracle_val, atol=1e-10)
        assert fit.n_random_iterations == [0] * len(small_plan.outer_folds)
        # 15 distinct inner training sets and 6 refits, each factored once
        assert fit.train_sets == 15
        assert fit.solver_paths == {"block": 0, "gram": 0,
                                   "design": 21, "update": 0}

    def test_narrow_bands_take_no_svd(self, rng, small_plan, monkeypatch):
        # every scaling of narrow bands takes the design path, an eigh of
        # the primal Gram X^T X
        bands = [eb.FeatureSpace(name, rng.standard_normal((96, 3)), name)
                 for name in ("a", "b")]
        Y = rng.standard_normal((96, 4))
        monkeypatch.setattr(np.linalg, "svd", _no_svd)
        fit = eb.banded_search(bands, Y, small_plan,
                               search_cfg=BandedSearchConfig(max_iters=2,
                                                             patience=2))
        assert fit.solver_paths["design"] == sum(fit.solver_paths.values())

    def test_signal_band_dominates(self, rng, small_blocks, small_plan):
        sig = eb.FeatureSpace("SIG", rng.standard_normal((96, 6)), "sig")
        noise = eb.FeatureSpace("NOI", rng.standard_normal((96, 6)), "noi")
        W = rng.standard_normal((6, 30))
        Y = sig.data @ W + 0.4 * rng.standard_normal((96, 30))
        cfg = BandedSearchConfig(max_iters=120, patience=50, seed=5)
        fit = eb.banded_search([sig, noise], Y, small_plan, search_cfg=cfg)
        dominant = (fit.chosen_gamma[:, :, 0] > 0.5).mean()
        assert dominant >= 0.9

    def test_same_seed_bitwise_identical(self, tiny_recording, small_plan, rng):
        features, Y, _ = tiny_recording
        other = eb.FeatureSpace("OTH", rng.standard_normal((96, 3)), "oth")
        cfg = BandedSearchConfig(max_iters=60, patience=50, seed=9)
        a = eb.banded_search([features, other], Y, small_plan, search_cfg=cfg)
        interval = sys.getswitchinterval()
        try:
            # more workers than training sets (capped at one per set) and
            # uneven set ownership (3 workers, 15 sets) exercise the per-set
            # state that each worker keeps
            sys.setswitchinterval(1e-5)
            runs = [eb.banded_search([features, other], Y, small_plan,
                                     search_cfg=cfg, threads=threads)
                    for threads in (2, 3, 16)]
        finally:
            sys.setswitchinterval(interval)
        assert multiprocessing.active_children() == []
        for b in runs:
            np.testing.assert_array_equal(a.test_predictions,
                                          b.test_predictions)
            np.testing.assert_array_equal(a.chosen_gamma, b.chosen_gamma)
            np.testing.assert_array_equal(a.chosen_alpha, b.chosen_alpha)
            np.testing.assert_array_equal(a.validation_r2, b.validation_r2)

    def test_pinned_trajectory(self, tiny_recording, small_plan, rng):
        """Iteration counts, early stops and chosen (gamma, alpha) are pinned:
        a change to the candidate sequence, the tie rule or the early-stop
        rule moves them. The digest hashes the choices at 9 significant
        digits, so it ignores ulp-level drift across BLAS thread counts. The
        trajectory is the same whether outer folds run serially or two at a
        time."""
        features, Y, _ = tiny_recording
        other = eb.FeatureSpace("OTH", rng.standard_normal((96, 3)), "oth")
        cfg = BandedSearchConfig(max_iters=20, patience=8, seed=9,
                                 min_improvement=1e-8)
        for threads in (1, 2):
            fit = eb.banded_search([features, other], Y, small_plan,
                                   search_cfg=cfg, threads=threads)
            assert fit.n_random_iterations == [17, 16, 12, 16, 12, 20]
            assert fit.early_stopped == [True] * 5 + [False]
            text = ";".join("%.9g|" % alpha + ",".join("%.9g" % g for g in gamma)
                            for gammas, alphas in zip(fit.chosen_gamma,
                                                      fit.chosen_alpha)
                            for gamma, alpha in zip(gammas, alphas))
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            assert digest == "6e59c76e633e35e2"

    def test_outer_fold_order_only_permutes_rows(self, tiny_recording,
                                                 small_plan, rng):
        # the outer folds stop at different steps, so some training sets
        # serve one fold for part of the search
        features, Y, _ = tiny_recording
        other = eb.FeatureSpace("OTH", rng.standard_normal((96, 3)), "oth")
        cfg = BandedSearchConfig(max_iters=20, patience=8, seed=9,
                                 min_improvement=1e-8)
        order = [3, 0, 5, 1, 4, 2]
        permuted = eb.SplitPlan([small_plan.outer_folds[o] for o in order],
                                small_plan.mode, small_plan.scheme,
                                small_plan.n_samples)
        a = eb.banded_search([features, other], Y, small_plan, search_cfg=cfg)
        b = eb.banded_search([features, other], Y, permuted, search_cfg=cfg,
                             threads=2)
        for key in ("chosen_gamma", "chosen_alpha", "validation_r2"):
            assert getattr(b, key).tobytes() == getattr(a, key)[order].tobytes()
        for key in ("n_random_iterations", "early_stopped"):
            assert getattr(b, key) == [getattr(a, key)[o] for o in order]
        for key in ("test_predictions", "intercept_predictions"):
            assert getattr(b, key).tobytes() == getattr(a, key).tobytes()
        assert b.solver_paths == a.solver_paths
        assert b.train_sets == a.train_sets == 15

    def test_gram_path_safe_across_threads(self, rng):
        class SlowMatmul(np.ndarray):
            # widens any window between building a band Gram and its cross Gram
            def __matmul__(self, other):
                time.sleep(0.2)
                return np.asarray(self) @ other

        Y = rng.standard_normal((40, 5))
        train, evals = np.arange(24), [np.arange(24, 31), np.arange(31, 40)]
        # 4 narrow columns beside the 30-dim band take the dense Gram path, 3
        # take the update path
        for width, path in ((4, "gram"), (3, "update")):
            bands = [rng.standard_normal((40, width)),
                     rng.standard_normal((40, 30))]
            fold = _FoldData(bands, Y, train, evals)
            assert sum(fold.widths) > fold.n_train
            assert fold.path(np.array([0.6, 0.4])) == path
            # the 30-dim band is wider than the 24 training rows: Grams only
            assert fold.Ztr[1] is None and fold.Zev[1] is None
            eval_sides = fold.cross[1] if path == "gram" else fold.update.G
            assert len(fold.Zev[0]) == len(eval_sides) == 2
            fold.Zev = [Z if Z is None else [z.view(SlowMatmul) for z in Z]
                        for Z in fold.Zev]
            alphas = [0.0, 1.0, 100.0]
            for gamma in (np.array([0.6, 0.4]), np.array([1.0, 0.0])):
                def predict(job):
                    delay, order = job
                    time.sleep(delay)
                    return [p.copy() for p in fold.predict_grid(
                        gamma, alphas, order, _Scratch())]

                # the second call starts while a lazy cache would be
                # mid-build, and asks for the eval sets in the other order
                with ThreadPoolExecutor(max_workers=2) as pool:
                    first, second = pool.map(predict,
                                             [(0.0, [0, 1]), (0.05, [1, 0])])
                for e, ev in enumerate(evals):
                    # each eval set's predictions are those of a split that
                    # holds it alone, bit for bit
                    (alone,) = _FoldData(bands, Y, train, [ev]).predict_grid(
                        gamma, alphas, [0], _Scratch())
                    np.testing.assert_array_equal(first[e], alone)
                    np.testing.assert_array_equal(second[1 - e], alone)

    def test_never_worse_than_best_single_band(self, rng, small_plan):
        bands = [
            eb.FeatureSpace("A", rng.standard_normal((96, 4)), "a"),
            eb.FeatureSpace("B", rng.standard_normal((96, 4)), "b"),
        ]
        W = rng.standard_normal((4, 12))
        Y = bands[0].data @ W + rng.standard_normal((96, 12))
        cfg = BandedSearchConfig(max_iters=50, patience=50, seed=2)
        joint = eb.banded_search(bands, Y, small_plan, search_cfg=cfg)
        for band in bands:
            solo = eb.banded_search([band], Y, small_plan, search_cfg=cfg)
            assert (joint.validation_r2 >= solo.validation_r2 - 1e-12).all()

    def test_random_phase_capped(self, tiny_recording, small_plan, rng):
        features, Y, _ = tiny_recording
        other = eb.FeatureSpace("OTH", rng.standard_normal((96, 3)), "oth")
        cfg = BandedSearchConfig(max_iters=5, patience=5, seed=0)
        fit = eb.banded_search([features, other], Y, small_plan, search_cfg=cfg)
        assert all(n <= 5 for n in fit.n_random_iterations)

    def test_early_stop_on_plateau(self, rng, small_plan):
        sig = eb.FeatureSpace("SIG", rng.standard_normal((96, 4)), "sig")
        copy = eb.FeatureSpace("CPY", sig.data.copy(), "cpy")
        W = rng.standard_normal((4, 10))
        Y = sig.data @ W  # noiseless: the mask phase already fits perfectly
        fit = eb.banded_search([sig, copy], Y, small_plan,
                               search_cfg=BandedSearchConfig(seed=1))
        assert fit.n_random_iterations == [50] * len(small_plan.outer_folds)
        assert all(fit.early_stopped)

    def test_chosen_gamma_is_simplex(self, tiny_recording, small_plan, rng):
        features, Y, _ = tiny_recording
        other = eb.FeatureSpace("OTH", rng.standard_normal((96, 3)), "oth")
        cfg = BandedSearchConfig(max_iters=30, patience=30, seed=4)
        fit = eb.banded_search([features, other], Y, small_plan, search_cfg=cfg)
        np.testing.assert_allclose(fit.chosen_gamma.sum(axis=2), 1.0,
                                   atol=1e-12)
        assert all(a in fit.alphas for a in np.unique(fit.chosen_alpha))

    def test_constant_validation_target_rejected(self, tiny_recording,
                                                 small_plan):
        features, Y, _ = tiny_recording
        Y = Y.copy()
        Y[:, 3] = 1.5
        with pytest.raises(DataError,
                           match=r"constant validation target for units \[3\]"):
            eb.banded_search([features], Y, small_plan)

    def test_overflowing_validation_target_rejected(self, tiny_recording,
                                                    small_plan, monkeypatch):
        # squares of 1e200 overflow: the search used to run every candidate
        # on an infinite intercept SSE and return NaN scores
        features, Y, _ = tiny_recording
        Y = Y.copy()
        Y[:, 2] *= 1e200
        built = []
        monkeypatch.setattr(ridge._FoldData, "__init__",
                            lambda *args: built.append(1))
        with pytest.raises(DataError, match=r"overflowing validation "
                                            r"target for units \[2\]"):
            eb.banded_search([features], Y, small_plan)
        assert not built

    def test_fit_holds_no_copy_of_every_folds_targets(self):
        """At its traced peak a many-unit single-band fit holds one eval set's
        two prediction buffers, its outputs, one training set's working
        arrays and the validation SSE of the outer folds still open: a step
        reduces an outer fold's inner-fold SSE as soon as the last of them
        is scored, in the order the training sets are. Neither the SSE of
        every (outer, inner) fold until the step ends nor the centered
        validation targets of every fold at once fit beside them."""
        spec, _ = eb.preset("pereira-exp2", seed=0, n_units=600)
        recording, _ = eb.generate(spec)
        plan = eb.shuffle_plan(build_plan(SplitSpec("pereira"), recording), 7)
        oasm = eb.build_oasm(recording.n_samples, recording.block_ids, 1.0)
        Y = recording.responses
        tracemalloc.start()
        try:
            eb.banded_search([oasm], Y, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        inner = [i for fold in plan.outer_folds for i in fold.inner_folds]
        open_folds, held = {}, 0
        for _, users in _train_sets(plan):
            for o, j in users:
                open_folds.setdefault(o, set()).add(j)
                held = max(held, sum(map(len, open_folds.values())))
                if len(open_folds[o]) == len(plan.outer_folds[o].inner_folds):
                    del open_folds[o]
        assert held < len(inner)
        n_eval = max(len(i.validation) for i in inner)
        per_row = len(eb.default_alpha_grid()) * Y.shape[1] * 8
        bound = (2 * n_eval * per_row  # prediction and E_Y buffers
                 + held * per_row      # SSE of the open outer folds
                 + 2 * Y.nbytes        # test and intercept predictions
                 + 4 * Y.nbytes)       # one training set's working arrays
        assert peak <= bound

    def test_block_fit_frees_each_gather_before_the_next(self):
        """A Blank-shaped OASM fit (eight stories, one row group each, about
        140 training rows per group) gathers ``R[T]``, eval rows x group
        rows x units, once per eval set. Each gather is freed before the
        next is built, so the traced peak stays below two of the largest
        gathers beside the two prediction buffers."""
        spec, _ = eb.preset("blank", seed=3, n_units=200)
        recording, _ = eb.generate(spec)
        plan = eb.shuffle_plan(build_plan(SplitSpec("blank"), recording), 7)
        oasm = eb.build_oasm(recording.n_samples, recording.block_ids, 1.5)
        Y = recording.responses
        tracemalloc.start()
        try:
            eb.banded_search([oasm], Y, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        group = _band_blocks(oasm.data).group
        pairs = [(train, plan.outer_folds[o].inner_folds[j].validation)
                 for train, users in _train_sets(plan) for o, j in users]
        pairs += [(np.setdiff1d(np.arange(plan.n_samples), fold.test),
                   fold.test) for fold in plan.outer_folds]
        rows = [np.bincount(group[train], minlength=group.max() + 1)
                for train, _ in pairs]  # training rows per group
        gather = max(len(ev) * k[group[ev]].max()
                     for k, (_, ev) in zip(rows, pairs)) * (Y.shape[1] + 1) * 8
        n_eval = max(len(ev) for _, ev in pairs[:-len(plan.outer_folds)])
        per_row = len(eb.default_alpha_grid()) * Y.shape[1] * 8
        assert peak < 2 * gather + 2 * n_eval * per_row

    def test_block_scoring_copies_no_eigen_coordinates(self):
        """A warm scoring of a single-band block fit scores from the set's
        one ``U^T [Yc | 1]`` array. At its traced peak it holds per-alpha
        arrays only: the centering's two per-unit rows per alpha, up to four
        temporaries of that size, and filter-sized arrays. A copy of the
        eigen-coordinates, training rows x units, does not fit beside
        them."""
        spec, _ = eb.preset("pereira-exp2", seed=0, n_units=600)
        recording, _ = eb.generate(spec)
        plan = eb.shuffle_plan(build_plan(SplitSpec("pereira"), recording), 7)
        oasm = eb.build_oasm(recording.n_samples, recording.block_ids, 1.0)
        Y, alphas = recording.responses, eb.default_alpha_grid()
        (train, users), *_ = _train_sets(plan)
        evals = [plan.outer_folds[o].inner_folds[j].validation
                 for o, j in users]
        fold = _FoldData([oasm.data], Y, train, evals,
                         [_band_blocks(oasm.data)])
        assert isinstance(fold.update, ridge._BlockUpdate)
        scratch = _Scratch()

        def scoring():
            for _ in fold.predict_grid(np.ones(1), alphas, range(len(evals)),
                                       scratch):
                pass

        scoring()  # the scratch buffers grow to size here
        tracemalloc.start()
        try:
            scoring()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_unit = len(alphas) * Y.shape[1] * 8
        per_row = len(alphas) * len(train) * 8
        copy = len(train) * (Y.shape[1] + 1) * 8
        assert copy > per_unit + 4 * per_row  # the bound has no room for it
        assert peak < 6 * per_unit + 4 * per_row

    def test_pool_raises_serial_error_and_restores_blas(
            self, tiny_recording, small_plan, monkeypatch):
        # without numpy's bundled OpenBLAS the pin does nothing: only the
        # error is checked then
        blas = ridge._openblas() or (lambda n: None, lambda: None)
        set_threads, get_threads = blas
        features, Y, _ = tiny_recording
        seen = []

        class Failing(_FoldData):
            # a worker's error: every training set without sample 0 fails,
            # each with its own message
            def __init__(self, band_mats, Y, train_idx, *args):
                seen.append(get_threads())
                if 0 not in train_idx:
                    raise DataError(f"set from row {train_idx[0]} fails")
                super().__init__(band_mats, Y, train_idx, *args)

        monkeypatch.setattr(ridge, "_FoldData", Failing)
        original = get_threads()
        set_threads(2)
        try:
            before = get_threads()
            errors = []
            for threads in (1, 2):
                with pytest.raises(DataError) as info:
                    eb.banded_search([features], Y, small_plan, threads=threads)
                errors.append(str(info.value))
                assert get_threads() == before
        finally:
            set_threads(original)
        assert errors[0] == errors[1]
        # the first failing set in the order of the plan's inner folds
        first = next(f.train[0] for o in small_plan.outer_folds
                     for f in o.inner_folds if 0 not in f.train)
        assert errors[0] == f"set from row {first} fails"
        assert set(seen) == {ridge.fit_blas_threads()}

    def test_worker_errors_raise_in_set_order(self, tiny_recording,
                                              small_plan, monkeypatch):
        features, Y, _ = tiny_recording
        caller = os.getpid()

        class FailingInWorkers(_FoldData):
            # every set that a forked worker owns fails, with its own message
            def __init__(self, band_mats, Y, train_idx, *args):
                if os.getpid() != caller:
                    raise DataError(f"set from row {train_idx[0]} fails")
                super().__init__(band_mats, Y, train_idx, *args)

        monkeypatch.setattr(ridge, "_FoldData", FailingInWorkers)
        # set 1 is worker 1's; with 3 workers, worker 2's set 2 fails too
        first = _train_sets(small_plan)[1][0][0]
        for threads in (2, 3):
            with pytest.raises(DataError,
                               match=f"^set from row {first} fails$"):
                eb.banded_search([features], Y, small_plan, threads=threads)
            assert multiprocessing.active_children() == []

    def test_dead_worker_raises_and_leaves_no_process(
            self, tiny_recording, small_plan, monkeypatch):
        features, Y, _ = tiny_recording
        caller = os.getpid()

        class Dying(_FoldData):
            # a worker that dies outright, before it sends anything
            def __init__(self, *args):
                if os.getpid() != caller:
                    os._exit(3)
                super().__init__(*args)

        def hung(signum, frame):
            raise TimeoutError("the fit waits on a dead worker")

        monkeypatch.setattr(ridge, "_FoldData", Dying)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            # set 1 is worker 1's; the caller scores set 0 and then waits
            with pytest.raises(DataError, match=r"^search worker 1 \(pid \d+\)"
                                                r" died with exit code 3$"):
                eb.banded_search([features], Y, small_plan, threads=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @staticmethod
    def _failing_refits(monkeypatch, caller, n_samples, fail):
        """``_FoldData`` that calls ``fail(eval rows)`` where a forked worker
        builds an outer fold's refit: one eval set, and training rows that
        cover every other sample."""

        class FailingRefits(_FoldData):
            def __init__(self, band_mats, Y, train_idx, eval_idxs, *args):
                if (os.getpid() != caller and len(eval_idxs) == 1
                        and len(train_idx) + len(eval_idxs[0]) == n_samples):
                    fail(eval_idxs[0])
                super().__init__(band_mats, Y, train_idx, eval_idxs, *args)

        monkeypatch.setattr(ridge, "_FoldData", FailingRefits)

    def test_worker_refit_errors_raise_in_fold_order(
            self, tiny_recording, small_plan, monkeypatch):
        features, Y, _ = tiny_recording

        def fail(test):
            raise DataError(f"refit testing row {test[0]} fails")

        self._failing_refits(monkeypatch, os.getpid(), len(Y), fail)
        # fold 1 is worker 1's; with 3 workers, worker 2's fold 2 fails too
        first = small_plan.outer_folds[1].test[0]
        for threads in (2, 3):
            with pytest.raises(DataError,
                               match=f"^refit testing row {first} fails$"):
                eb.banded_search([features], Y, small_plan, threads=threads)
            assert multiprocessing.active_children() == []

    def test_worker_dying_in_its_refit_raises(self, tiny_recording,
                                             small_plan, monkeypatch):
        features, Y, _ = tiny_recording

        def hung(signum, frame):
            raise TimeoutError("the fit waits on a dead worker")

        self._failing_refits(monkeypatch, os.getpid(), len(Y),
                             lambda test: os._exit(4))
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(DataError, match=r"^search worker 1 \(pid \d+\)"
                                                r" died with exit code 4$"):
                eb.banded_search([features], Y, small_plan, threads=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_workers_never_outnumber_training_sets(
            self, tiny_recording, small_plan, monkeypatch):
        features, Y, _ = tiny_recording
        seen = []

        workers = ridge._workers

        def counted(n, *fns):
            seen.append(n)
            return workers(1, *fns)  # the caller alone: no process

        monkeypatch.setattr(ridge, "_workers", counted)
        for threads in (2, 64):
            fit = eb.banded_search([features], Y, small_plan, threads=threads)
        assert seen == [2, fit.train_sets]

    def test_fit_without_fork_runs_in_the_caller(self, tiny_recording,
                                                 small_plan, monkeypatch):
        features, Y, _ = tiny_recording
        serial = eb.banded_search([features], Y, small_plan)

        def no_context(method=None):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_context)
        fit = eb.banded_search([features], Y, small_plan, threads=2)
        assert fit.test_predictions.tobytes() == \
            serial.test_predictions.tobytes()

    def test_overlapping_pins_restore_once(self, monkeypatch):
        count = {"threads": 2}  # stands in for OpenBLAS's global count

        def set_threads(n):
            count["threads"] = n

        def get_threads():
            return count["threads"]

        monkeypatch.setattr(ridge, "_openblas", lambda: (set_threads,
                                                         get_threads))
        inside = []

        def pin():
            for _ in range(200):
                with ridge._blas_pinned():
                    inside.append(get_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=pin) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(interval)
        assert len(inside) == 8 * 200
        assert set(inside) == {1}
        assert get_threads() == 2

    def test_threads_below_one_rejected(self, tiny_recording, small_plan):
        features, Y, _ = tiny_recording
        with pytest.raises(DataError, match="threads must be >= 1"):
            eb.banded_search([features], Y, small_plan, threads=0)

    def test_plan_without_outer_folds_rejected(self, tiny_recording):
        features, Y, _ = tiny_recording
        plan = eb.SplitPlan([], "contiguous", "generic-grouped", Y.shape[0])
        with pytest.raises(DataError, match="no outer folds"):
            eb.banded_search([features], Y, plan)

    def test_save(self, tiny_recording, small_plan, tmp_path):
        features, Y, _ = tiny_recording
        fit = eb.banded_search([features], Y, small_plan)
        fit.save(tmp_path / "fit")
        assert (tmp_path / "fit" / "fit.json").exists()
        loaded = eb.load_matrix(tmp_path / "fit" / "test_predictions.bbsm")
        np.testing.assert_array_equal(loaded, fit.test_predictions)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(st.integers(3, 5), min_size=6, max_size=9),
       st.sampled_from([0.1, 1.0, 2.5]), st.integers(0, 3), st.integers(1, 4),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_fit_does_not_depend_on_threads(block_rows, sigma, narrow, n_units,
                                        shuffled, seed):
    """An OASM fit, beside 0-3 narrow columns, gives the same bytes at
    ``threads`` 1, 2 and 3, and leaves no process behind."""
    rng = np.random.default_rng(seed)
    blocks = np.repeat(np.arange(len(block_rows)), block_rows)
    n = len(blocks)
    features = [eb.build_oasm(n, blocks, sigma)]
    if narrow:
        features.append(eb.FeatureSpace("N", rng.standard_normal((n, narrow)),
                                        "narrow"))
    Y = rng.standard_normal((n, n_units))
    plan = eb.plan_grouped(blocks, n_outer=3, n_inner=2)
    if shuffled:
        plan = eb.shuffle_plan(plan, seed)
    fits = [eb.banded_search(features, Y, plan, threads=threads)
            for threads in (1, 2, 3)]
    assert multiprocessing.active_children() == []
    for fit in fits[1:]:
        for name in ("test_predictions", "intercept_predictions",
                     "chosen_gamma", "chosen_alpha", "validation_r2"):
            assert getattr(fit, name).tobytes() == \
                getattr(fits[0], name).tobytes()
        for name in ("n_random_iterations", "early_stopped", "solver_paths"):
            assert getattr(fit, name) == getattr(fits[0], name)


class TestTrainSetSharing:
    @pytest.mark.parametrize("mode", ["contiguous", "shuffled"])
    @pytest.mark.parametrize("name,scheme", [("pereira-exp2", "pereira"),
                                             ("fedorenko", "fedorenko"),
                                             ("blank", "blank")])
    def test_every_set_serves_two_outer_folds(self, name, scheme, mode):
        # inner fold (test i, validation j) trains on the rows of (j, i)
        spec, _ = eb.preset(name, seed=0, n_units=2)
        recording, _ = eb.generate(spec)
        plan = build_plan(SplitSpec(scheme), recording)
        if mode == "shuffled":
            plan = eb.shuffle_plan(plan, 7)
        sets = _train_sets(plan)
        assert 2 * len(sets) == sum(len(f.inner_folds)
                                    for f in plan.outer_folds)
        for train, users in sets:
            assert len({o for o, _ in users}) == len(users) == 2
            for o, j in users:
                assert np.array_equal(
                    plan.outer_folds[o].inner_folds[j].train, train)


# every preset block layout: passages of 3 and 4 sentences, sentences of 8
# words, stories of 150-180 samples; each with a smoothing width near the
# widest at which every split's B keeps its smallest eigenvalue above twice
# the Gram cutoff, so that alpha = 0 drops no direction of B
BLOCK_LAYOUTS = [("pereira-exp2", "pereira", 2.1),
                 ("pereira-exp1", "pereira", 2.1),
                 ("fedorenko", "fedorenko", 2.1), ("blank", "blank", 1.5)]


def _oasm_case(name, scheme, mode, sigma, n_inner=None):
    """A preset's responses (6 units), its OASM band at ``sigma`` and its
    plan under ``mode``, cut to the first outer fold (and its first
    ``n_inner`` inner folds) to keep the dense comparisons cheap."""
    spec, _ = eb.preset(name, seed=0, n_units=6)
    recording, _ = eb.generate(spec)
    plan = build_plan(SplitSpec(scheme), recording)
    if mode == "shuffled":
        plan = eb.shuffle_plan(plan, 7)
    fold = plan.outer_folds[0]
    plan = eb.SplitPlan([OuterFold(fold.test, fold.inner_folds[:n_inner])],
                        plan.mode, plan.scheme, plan.n_samples)
    oasm = eb.build_oasm(recording.n_samples, recording.block_ids, sigma)
    return oasm, recording.responses, plan


def _block_diagonal(rng, sizes):
    """A band of dense square blocks, and each row's block."""
    n = sum(sizes)
    X = np.zeros((n, n))
    start = 0
    for size in sizes:
        X[start:start + size, start:start + size] = rng.uniform(
            0.5, 1.5, (size, size))
        start += size
    return X, np.repeat(np.arange(len(sizes)), sizes)


def _tied_groups(rng, tie):
    """Ten dense 6 x 6 blocks whose first four rows, the training rows, are
    tied by ``tie`` (it edits a block's rows in place); the last two rows of
    each block are evaluation rows."""
    X, _ = _block_diagonal(rng, [6] * 10)
    for g in range(10):
        tie(X[6 * g:6 * g + 6])
    train = np.flatnonzero(np.arange(60) % 6 < 4)
    return X, train, np.setdiff1d(np.arange(60), train)


def _same_partition(a, b):
    pairs = set(zip(np.asarray(a).tolist(), np.asarray(b).tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


class TestBlockPath:
    @pytest.mark.parametrize("mode", ["contiguous", "shuffled"])
    @pytest.mark.parametrize("name,scheme,sigma", BLOCK_LAYOUTS)
    def test_split_matches_dense_path(self, name, scheme, sigma, mode):
        oasm, Y, plan = _oasm_case(name, scheme, mode, sigma, n_inner=1)
        blocks = _band_blocks(oasm.data)
        assert blocks is not None
        fold = plan.outer_folds[0]
        trval = np.setdiff1d(np.arange(plan.n_samples), fold.test)
        alphas = eb.default_alpha_grid()
        eps = np.finfo(float).eps
        for train, ev in ((fold.inner_folds[0].train,
                           fold.inner_folds[0].validation), (trval, fold.test)):
            block = _FoldData([oasm.data], Y, train, [ev], [blocks])
            dense = _FoldData([oasm.data], Y, train, [ev])
            (got,) = block.predict_grid([1.0], alphas, [0], _Scratch())
            (want,) = dense.predict_grid([1.0], alphas, [0], _Scratch())
            assert block.path([1.0]) == "block"
            assert dense.path([1.0]) == "gram"
            scale = np.abs(want).max()
            spectrum = block.update.spectrum
            cond = spectrum.max() / spectrum.min()
            # the dense path's own rounding at alpha = 0 grows with cond(B)
            bound = 1e-10 if cond <= 1e4 else 10 * len(train) * eps * cond
            assert np.abs(got[0] - want[0]).max() <= bound * scale
            assert np.abs(got[1:] - want[1:]).max() <= 1e-10 * scale

    @pytest.mark.parametrize("mode", ["contiguous", "shuffled"])
    @pytest.mark.parametrize("name,scheme,sigma", BLOCK_LAYOUTS)
    def test_search_matches_alpha_grid_oracle(self, name, scheme, sigma, mode):
        oasm, Y, plan = _oasm_case(name, scheme, mode, 1.0, n_inner=2)
        fit = eb.banded_search([oasm], Y, plan)
        assert fit.solver_paths == {"block": 3, "gram": 0,
                                   "design": 0, "update": 0}
        oracle_pred, oracle_alpha, oracle_val = single_band_alpha_grid_oracle(
            oasm.data, Y, plan, fit.alphas)
        np.testing.assert_array_equal(fit.chosen_alpha, oracle_alpha)
        np.testing.assert_allclose(fit.test_predictions, oracle_pred,
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(fit.validation_r2, oracle_val, atol=1e-10)

    def test_singular_smoothing_takes_block_path(self, monkeypatch):
        # at sigma 4.1 B on fedorenko's 8-word blocks is numerically singular
        oasm, Y, plan = _oasm_case("fedorenko", "fedorenko", "shuffled", 4.1,
                                   n_inner=2)
        fit = eb.banded_search([oasm], Y, plan)
        assert fit.solver_paths == {"block": 3, "gram": 0,
                                   "design": 0, "update": 0}
        inner = plan.outer_folds[0].inner_folds[0]
        alphas = eb.default_alpha_grid()
        block = _FoldData([oasm.data], Y, inner.train, [inner.validation],
                          [_band_blocks(oasm.data)])
        assert (block.update.spectrum <= block.update.cutoff).any()
        (got,) = block.predict_grid([1.0], alphas, [0], _Scratch())
        want = (min_norm_ridge_oracle(oasm.data, Y, inner.train,
                                      inner.validation, alphas[1:])
                - Y[inner.train].mean(0))
        assert np.isfinite(got).all()
        assert np.abs(got[1:] - want).max() <= 1e-10 * np.abs(want).max()
        monkeypatch.setattr(ridge, "_band_blocks", lambda X: None)
        dense = eb.banded_search([oasm], Y, plan)
        assert dense.solver_paths == {"block": 0, "gram": 3,
                                     "design": 0, "update": 0}
        np.testing.assert_array_equal(fit.chosen_alpha, dense.chosen_alpha)
        assert (fit.chosen_alpha > 0).all()
        np.testing.assert_allclose(fit.test_predictions,
                                   dense.test_predictions, rtol=1e-10,
                                   atol=1e-10 * np.abs(Y).max())
        np.testing.assert_allclose(fit.validation_r2, dense.validation_r2,
                                   rtol=0, atol=1e-10)

    # each group's third training row is a combination of its first two: its
    # null vector (1, 1, -1, 0) has weight on the ones vector, (1, 1, -2, 0)
    # has none
    @pytest.mark.parametrize("weight", [1.0, 0.5])
    def test_exact_null_groups_match_min_norm_oracle(self, rng, weight):
        def tie(rows):
            rows[2] = weight * (rows[0] + rows[1])
        X, train, ev = _tied_groups(rng, tie)
        Y = rng.standard_normal((X.shape[0], 3))
        alphas = eb.default_alpha_grid()
        block = _FoldData([X], Y, train, [ev], [_band_blocks(X)])
        assert block.path([1.0]) == "block"
        base = block.update
        assert (base.spectrum <= base.cutoff).sum() == 10
        (got,) = block.predict_grid([1.0], alphas, [0], _Scratch())
        want = min_norm_ridge_oracle(X, Y, train, ev, alphas) - Y[train].mean(0)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_ones_in_null_space_of_every_group(self, rng):
        # training rows in +- pairs: each group's ones vector is a null vector
        # of B, so at alpha = 0 every term of 1^T R 1 is on dropped directions
        def pairs(rows):
            rows[1], rows[3] = -rows[0], -rows[2]
        X, train, ev = _tied_groups(rng, pairs)
        Y = rng.standard_normal((X.shape[0], 2))
        alphas = eb.default_alpha_grid()
        block = _FoldData([X], Y, train, [ev], [_band_blocks(X)])
        assert block.path([1.0]) == "block"
        base = block.update
        kept = base.spectrum > base.cutoff
        np.testing.assert_allclose(base.ones[kept], 0.0, atol=1e-12)
        (got,) = block.predict_grid([1.0], alphas, [0], _Scratch())
        (want,) = _FoldData([X], Y, train, [ev]).predict_grid(
            [1.0], alphas, [0], _Scratch())
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["contiguous", "shuffled"])
    @pytest.mark.parametrize("sigma", [0.1, 2.5, 5.0])
    @pytest.mark.parametrize("name", sorted(synthgen.PRESETS))
    def test_every_preset_layout_takes_block_path(self, name, sigma, mode):
        scheme = name if name in ("fedorenko", "blank") else "pereira"
        oasm, Y, plan = _oasm_case(name, scheme, mode, sigma, n_inner=2)
        fit = eb.banded_search([oasm], Y, plan)
        assert fit.solver_paths["gram"] == fit.solver_paths["design"] == 0

    def test_noncontiguous_groups(self, rng):
        X, groups = _block_diagonal(rng, [3, 5, 4, 6])
        rows, cols = rng.permutation(X.shape[0]), rng.permutation(X.shape[1])
        X, groups = X[rows][:, cols], groups[rows]
        blocks = _band_blocks(X)
        assert blocks.n_groups == 4
        assert _same_partition(blocks.group, groups)
        # the block path needs no contiguous rows: it matches the dense path
        Y = rng.standard_normal((X.shape[0], 3))
        train, ev = np.arange(12), np.arange(12, 18)
        alphas = [0.0, 0.5, 8.0]
        block = _FoldData([X], Y, train, [ev], [blocks])
        assert block.path([1.0]) == "block"
        (got,) = block.predict_grid([1.0], alphas, [0], _Scratch())
        (want,) = _FoldData([X], Y, train, [ev]).predict_grid([1.0], alphas, [0],
                                                              _Scratch())
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_linking_column_joins_two_groups(self, rng):
        X, groups = _block_diagonal(rng, [3, 4, 5])
        link = np.zeros((X.shape[0], 1))
        link[[0, 10]] = 1.0  # a row of the first block and one of the last
        blocks = _band_blocks(np.hstack([X, link]))
        assert blocks.n_groups == 2
        assert _same_partition(blocks.group, np.where(groups == 2, 0, groups))

    def test_dense_band_has_no_blocks(self, rng):
        X = rng.standard_normal((300, 500))
        tracemalloc.start()
        try:
            assert _band_blocks(X) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the nonzero pattern is n * p bytes; one index array of it would
        # be n * p * 8
        assert peak < 4 * X.size

    def test_one_path_per_band(self, rng):
        # one 4 x 3 group beside five 4 x 4 groups: the first group's block
        # of B is singular on every split that trains on all four of its rows
        X, _ = _block_diagonal(rng, [4] * 6)
        X = np.delete(X, 3, axis=1)
        Y = rng.standard_normal((24, 3))
        plan = eb.plan_grouped(np.repeat(np.arange(6), 4), 3, 2)
        fit = eb.banded_search([eb.FeatureSpace("M", X, "m")], Y, plan)
        # 3 distinct inner training sets and 3 refits, all on one path
        assert fit.solver_paths == {"block": 0, "gram": 6,
                                   "design": 0, "update": 0}
        assert _band_blocks(X) is None

    def test_multiband_fit_counts_oasm_only_mask_as_block(
            self, tiny_recording, small_plan, rng):
        features, Y, _ = tiny_recording
        oasm = eb.build_oasm(96, np.repeat(np.arange(24), 4), 1.0)
        cfg = BandedSearchConfig(max_iters=5, patience=5)
        fit = eb.banded_search([oasm, features], Y, small_plan, search_cfg=cfg)
        # the OASM-only mask, once per distinct training set, is scored by
        # the block factorization alone; every other candidate with OASM
        # by a rank-4 update
        assert fit.solver_paths["block"] >= fit.train_sets
        assert fit.solver_paths["gram"] == 0
        solo = eb.banded_search([oasm], Y, small_plan)
        # 15 distinct inner training sets and 6 refits, each factored once
        assert solo.train_sets == 15
        assert solo.solver_paths == {"block": 21, "gram": 0,
                                    "design": 0, "update": 0}


def _update_case(rng, narrow_widths, tied_rows=False, wide_rank=None):
    """Narrow bands beside one 80-column band; 40 training rows of 60. With
    ``tied_rows`` two training rows of the wide band repeat others, which
    gives its train Gram two exact null directions besides the ones vector,
    and the narrow bands weight on them. With ``wide_rank`` the wide band
    has that rank, as subsumption-demo's LLM has rank 4."""
    wide = rng.standard_normal((60, 80))
    if wide_rank is not None:
        wide = rng.standard_normal((60, wide_rank)) @ wide[:wide_rank]
    if tied_rows:
        wide[1] = wide[0]
        wide[5] = 0.5 * (wide[2] + wide[3])
    bands = [rng.standard_normal((60, w)) for w in narrow_widths] + [wide]
    Y = rng.standard_normal((60, 4))
    return bands, Y, np.arange(40), np.arange(40, 60)


def _update_predictions(bands, Y, train, ev, gamma):
    """The update path's centered predictions per default alpha."""
    fold = _FoldData(bands, Y, train, [ev])
    assert fold.path(gamma) == "update"
    (got,) = fold.predict_grid(gamma, eb.default_alpha_grid(), [0], _Scratch())
    return got.copy()


def _block_penalty_want(bands, Y, train, ev, gamma):
    """``block_penalty_oracle`` per positive default alpha on the bands
    z-scored on the training rows, centered; bands with gamma 0 left out."""
    on = np.flatnonzero(gamma > 0)
    z = [eb.zscore_fit_apply(bands[b][train], [bands[b][ev]]) for b in on]
    return np.array([
        block_penalty_oracle([ztr for ztr, _, _, _ in z], Y[train],
                             [zev for _, (zev,), _, _ in z], alpha, gamma[on])
        for alpha in eb.default_alpha_grid()[1:]]) - Y[train].mean(0)


def _min_norm_want(bands, Y, train, ev, gamma):
    """``min_norm_ridge_oracle`` at alpha 0 on the bands z-scored on the
    training rows and scaled by gamma, centered."""
    Z = [eb.zscore_fit_apply(B[train], [B])[1][0] for B in bands]
    (want,) = min_norm_ridge_oracle(apply_band_scaling(Z, gamma), Y, train, ev,
                                    [0.0], standardize=False)
    return want - Y[train].mean(0)


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def _block_update_case(rng, layout, tie=None):
    """Three narrow columns beside a band of twelve dense 4 x 4 blocks, an
    OASM-like band; 4 units. ``layout`` "contiguous" trains on whole groups,
    so three eval groups have no training rows; "shuffled" trains on 1, 2 or
    3 rows of each group; "mixed" trains on 2, 3 or 3 rows of each of the
    first nine groups and on no row of the last three, so some eval rows'
    groups hold training rows and some do not. With ``tie`` the third
    training row of group 2 is ``tie`` times the sum of its first two: the
    group's block of B is exactly singular, and the narrow columns weigh on
    its null direction, which has weight on the ones vector for ``tie`` 1
    and none for 0.5."""
    wide, groups = _block_diagonal(rng, [4] * 12)
    if layout == "contiguous":
        train = np.flatnonzero(groups < 9)
    else:
        per_group = np.resize([1, 2, 3], 12)
        if layout == "mixed":
            per_group = np.resize([2, 3, 3], 12) * (np.arange(12) < 9)
        train = np.flatnonzero(np.arange(48) % 4 < per_group[groups])
    if tie is not None:
        wide[10] = tie * (wide[8] + wide[9])
    bands = [wide, rng.standard_normal((48, 3))]
    Y = rng.standard_normal((48, 4))
    return bands, Y, train, np.setdiff1d(np.arange(48), train)


def _held_arrays(*objs):
    """The arrays that objects hold, directly or in (nested) lists."""
    for obj in objs:
        for value in vars(obj).values():
            for item in value if isinstance(value, (list, tuple)) else [value]:
                for a in item if isinstance(item, (list, tuple)) else [item]:
                    if isinstance(a, np.ndarray):
                        yield a


def _assert_block_base(fold):
    """The fold's update path works on a block factorization of the wide
    band and holds no n x n array, such as its dense Gram."""
    assert isinstance(fold.update, ridge._BlockUpdate)
    assert fold.grams is None and fold.Ztr[fold.wide] is None
    held = _held_arrays(fold, fold.update)
    assert max(a.size for a in held) < fold.n_train ** 2


# (layout, tie) of _block_update_case
BLOCK_UPDATE_CASES = [
    ("contiguous", None), ("shuffled", None), ("shuffled", 1.0),
    ("shuffled", 0.5), ("mixed", None),
]


def _block_update_predictions(monkeypatch, layout, tie, gamma, rng):
    """A block-base update fold of ``_block_update_case`` (asserted so, and
    factored by stacked ``eigh``s of one group each), its case, and its
    centered predictions per default alpha; the OASM-like band is first, as
    in an [OASM, SPSL] family."""
    bands, Y, train, ev = _block_update_case(rng, layout, tie)
    blocks = [_band_blocks(X) for X in bands]
    assert blocks[0] is not None and blocks[1] is None
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: shapes.append(a.shape) or eigh(a))
    fold = _FoldData(bands, Y, train, [ev], blocks)
    assert shapes and all(s[-1] <= 4 for s in shapes)
    _assert_block_base(fold)
    base = fold.update
    # the contiguous eval set's groups hold no training row: it skips the
    # gathers
    assert (base.evals[0][0].shape[1] == 0) == (layout == "contiguous")
    if tie is not None:
        assert (base.spectrum <= base.cutoff).sum() == 1
        assert base.limit == (tie == 1.0)
    assert fold.path(gamma) == "update"
    (got,) = fold.predict_grid(gamma, eb.default_alpha_grid(), [0],
                               _Scratch())
    return (bands, Y, train, ev), got.copy()


# one narrow band (1e-6 at either edge of the simplex) and two narrow bands,
# one of them off
UPDATE_CASES = [
    ((3,), [0.3, 0.7]),
    ((3,), [1e-6, 1 - 1e-6]),
    ((3,), [1 - 1e-6, 1e-6]),
    ((3, 2), [0.2, 0.3, 0.5]),
    ((3, 2), [1e-6, 0.5, 0.5 - 1e-6]),
    ((3, 2), [0.0, 0.4, 0.6]),
]


class TestUpdatePath:
    @pytest.mark.parametrize("narrow, gamma", UPDATE_CASES)
    def test_matches_block_penalty_oracle(self, rng, narrow, gamma):
        bands, Y, train, ev = _update_case(rng, narrow)
        gamma = np.array(gamma)
        got = _update_predictions(bands, Y, train, ev, gamma)
        _assert_close(got[1:], _block_penalty_want(bands, Y, train, ev, gamma))

    @pytest.mark.parametrize("narrow, gamma", UPDATE_CASES)
    def test_alpha_zero_matches_min_norm_oracle(self, rng, narrow, gamma):
        bands, Y, train, ev = _update_case(rng, narrow)
        gamma = np.array(gamma)
        got = _update_predictions(bands, Y, train, ev, gamma)
        _assert_close(got[0], _min_norm_want(bands, Y, train, ev, gamma))

    @pytest.mark.parametrize("wide_rank", [3, None])
    @pytest.mark.parametrize("gamma", [[0.3, 0.7], [0.7, 0.3]])
    def test_low_and_full_wide_rank_match_oracles(self, rng, wide_rank,
                                                  gamma):
        """The dense base's kept rank is below the eval rows (rank 3 here)
        or above them (rank 39); either way its scoring matches the
        oracles."""
        bands, Y, train, ev = _update_case(rng, (3,), wide_rank=wide_rank)
        update = _FoldData(bands, Y, train, [ev]).update
        assert (update.spectrum.size <= len(ev)) == (wide_rank is not None)
        gamma = np.array(gamma)
        got = _update_predictions(bands, Y, train, ev, gamma)
        _assert_close(got[0], _min_norm_want(bands, Y, train, ev, gamma))
        _assert_close(got[1:], _block_penalty_want(bands, Y, train, ev, gamma))

    @pytest.mark.parametrize("gamma", [[0.3, 0.7], [0.7, 0.3]])
    def test_null_directions_with_narrow_weight(self, rng, gamma):
        bands, Y, train, ev = _update_case(rng, (3,), tied_rows=True)
        update = _FoldData(bands, Y, train, [ev]).update
        # the ones vector and the two tied rows' directions are dropped; the
        # ones vector has no narrow weight
        assert len(update.null_W) == 3
        assert len(update._null_weight(np.ones(3, dtype=bool))[0]) == 2
        gamma = np.array(gamma)
        got = _update_predictions(bands, Y, train, ev, gamma)
        _assert_close(got[0], _min_norm_want(bands, Y, train, ev, gamma))
        _assert_close(got[1:], _block_penalty_want(bands, Y, train, ev, gamma))

    def test_wide_band_alone_matches_oracles(self, rng):
        bands, Y, train, ev = _update_case(rng, (3, 2))
        gamma = np.array([0.0, 0.0, 1.0])
        fold = _FoldData(bands, Y, train, [ev])
        # no narrow column is active: the dense base alone predicts it
        assert fold.update is not None and fold.path(gamma) == "gram"
        (got,) = fold.predict_grid(gamma, eb.default_alpha_grid(), [0],
                                   _Scratch())
        _assert_close(got[0], _min_norm_want(bands, Y, train, ev, gamma))
        _assert_close(got[1:], _block_penalty_want(bands, Y, train, ev, gamma))

    def test_two_rank_deficient_wide_bands_match_oracle(self, rng):
        """Two wide bands of rank 6 and 3 take the dense Gram path, the
        rank-0 update of their mixed Gram: the mixed Gram's eigenvalues at
        or below the cutoff are rounding, dropped at every alpha."""
        bands = [rng.standard_normal((100, rank)) @ rng.standard_normal(
            (rank, width)) for rank, width in ((6, 70), (3, 90))]
        Y = rng.standard_normal((100, 4))
        train, ev = np.arange(72), np.arange(72, 100)
        gamma, alphas = np.array([0.4, 0.6]), eb.default_alpha_grid()
        fold = _FoldData(bands, Y, train, [ev])
        assert fold.update is None and fold.path(gamma) == "gram"
        (got,) = fold.predict_grid(gamma, alphas, [0], _Scratch())
        Z = [eb.zscore_fit_apply(B[train], [B])[1][0] for B in bands]
        want = min_norm_ridge_oracle(apply_band_scaling(Z, gamma), Y, train,
                                     ev, alphas, standardize=False)
        want -= Y[train].mean(0)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_path_choice(self, rng):
        bands, Y, train, ev = _update_case(rng, (3, 2))
        fold = _FoldData(bands, Y, train, [ev])
        assert fold.grams is None and fold.cross is None
        assert fold.path(np.array([0.5, 0.5, 0.0])) == "design"
        assert fold.path(np.array([0.0, 0.5, 0.5])) == "update"
        # past the crossover the narrow columns join a dense Gram
        bands, Y, train, ev = _update_case(rng, (3, 3))
        fold = _FoldData(bands, Y, train, [ev])
        assert fold.update is None
        assert fold.path(np.array([0.0, 0.5, 0.5])) == "gram"
        # two wide bands keep the dense Gram
        bands = [rng.standard_normal((60, 50)), rng.standard_normal((60, 80))]
        fold = _FoldData(bands, Y, train, [ev])
        assert fold.update is None
        assert fold.path(np.array([0.5, 0.5])) == "gram"

    def test_search_counts_update_factorizations(self, rng, small_plan):
        bands = [eb.FeatureSpace("N", rng.standard_normal((96, 3)), "n"),
                 eb.FeatureSpace("W", rng.standard_normal((96, 120)), "w")]
        Y = rng.standard_normal((96, 4))
        cfg = BandedSearchConfig(max_iters=2, patience=2)
        fit = eb.banded_search(bands, Y, small_plan, search_cfg=cfg)
        # per distinct training set, the narrow-only mask takes the design
        # path, the wide-only mask the update path's dense base alone
        # (counted as gram), and the full mask and 2 random draws the update
        # path; each refit takes the path of its winner
        sets = fit.train_sets
        assert fit.solver_paths["block"] == 0
        assert fit.solver_paths["design"] >= sets
        assert fit.solver_paths["gram"] >= sets
        assert fit.solver_paths["update"] >= 3 * sets
        assert sum(fit.solver_paths.values()) >= 5 * sets + 6

    @pytest.mark.parametrize("gamma", [[0.3, 0.7], [0.7, 0.3]])
    @pytest.mark.parametrize("layout, tie", BLOCK_UPDATE_CASES)
    def test_block_base_matches_oracles(self, rng, monkeypatch, layout, tie,
                                        gamma):
        gamma = np.array(gamma)
        case, got = _block_update_predictions(monkeypatch, layout, tie, gamma,
                                              rng)
        _assert_close(got[1:], _block_penalty_want(*case, gamma))
        _assert_close(got[0], _min_norm_want(*case, gamma))

    # at alpha = 0 a band scaled by 1e-6 leaves the min-norm problem too
    # ill-conditioned for the oracle's pinv at 1e-10 (up to 2.6e-5 apart on
    # either base); the two bases agree there
    @pytest.mark.parametrize("gamma", [[1 - 1e-6, 1e-6], [1e-6, 1 - 1e-6]])
    @pytest.mark.parametrize("layout, tie", BLOCK_UPDATE_CASES)
    def test_block_base_simplex_edges(self, rng, monkeypatch, layout, tie,
                                      gamma):
        gamma = np.array(gamma)
        case, got = _block_update_predictions(monkeypatch, layout, tie, gamma,
                                              rng)
        _assert_close(got[1:], _block_penalty_want(*case, gamma))
        (dense,) = _FoldData(*case[:3], [case[3]]).predict_grid(
            gamma, [0.0], [0], _Scratch())
        _assert_close(got[0], dense[0])

    @pytest.mark.parametrize("base", ["dense", "contiguous", "shuffled"])
    def test_unit_subset_matches_oracles(self, rng, base):
        """A refit predicts an index array of units; on either base the
        fused scoring gives those units' columns of the oracles."""
        units = np.array([0, 2, 3])
        gamma = np.array([0.4, 0.6])
        if base == "dense":
            bands, Y, train, ev = _update_case(rng, (3,))
            fold = _FoldData(bands, Y, train, [ev])
            assert type(fold.update) is ridge._Update
        else:
            bands, Y, train, ev = _block_update_case(rng, base)
            fold = _FoldData(bands, Y, train, [ev],
                             [_band_blocks(X) for X in bands])
            _assert_block_base(fold)
        assert fold.path(gamma) == "update"
        (got,) = fold.predict_grid(gamma, eb.default_alpha_grid(), [0],
                                   _Scratch(), units)
        case = bands, Y, train, ev
        _assert_close(got[1:], _block_penalty_want(*case, gamma)[:, :, units])
        _assert_close(got[0], _min_norm_want(*case, gamma)[:, units])

    # a wide-only mask is the fused scoring's r = 0 case, named by its base
    @pytest.mark.parametrize("gamma, path", [([.5, .5], "update"),
                                             ([1.0, 0.0], "block")],
                             ids=["update", "block"])
    def test_block_eval_holds_two_prediction_buffers(self, gamma, path):
        """A scoring on a block base, with narrow columns active or none,
        keeps two prediction-sized buffers, the predictions and the gathered
        ``E_Y``; the centering and the Woodbury correction take none of
        their own."""
        spec, _ = eb.preset("pereira-exp2", seed=0, n_units=200)
        recording, _ = eb.generate(spec)
        plan = eb.shuffle_plan(build_plan(SplitSpec("pereira"), recording), 7)
        oasm = eb.build_oasm(recording.n_samples, recording.block_ids, 1.0)
        bands = [oasm.data, np.hstack([fs.data
                                       for fs in spec.signal_features])]
        train, users = _train_sets(plan)[0]
        evals = [plan.outer_folds[o].inner_folds[j].validation
                 for o, j in users]
        Y, alphas = recording.responses, eb.default_alpha_grid()
        fold = _FoldData(bands, Y, train, evals,
                         [_band_blocks(X) for X in bands])
        assert isinstance(fold.update, ridge._BlockUpdate)
        assert fold.path(np.array(gamma)) == path
        assert min(F.shape[1] for F, _ in fold.update.evals) > 0
        tracemalloc.start()
        try:
            scratch = _Scratch()
            for _ in fold.predict_grid(np.array(gamma), alphas,
                                       range(len(evals)), scratch):
                pass
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        size = min(map(len, evals)) * len(alphas) * Y.shape[1] * 8
        assert len([t for t in snapshot.traces if t.size >= size]) == 2

    @pytest.mark.parametrize("mode", ["contiguous", "shuffled"])
    def test_oasm_only_mask_matches_block_path(self, rng, mode):
        oasm, Y, plan = _oasm_case("pereira-exp2", "pereira", mode, 1.0,
                                   n_inner=1)
        blocks = _band_blocks(oasm.data)
        narrow = rng.standard_normal((plan.n_samples, 3))
        fold = plan.outer_folds[0]
        trval = np.setdiff1d(np.arange(plan.n_samples), fold.test)
        alphas = eb.default_alpha_grid()
        for train, ev in ((fold.inner_folds[0].train,
                           fold.inner_folds[0].validation), (trval, fold.test)):
            pair = _FoldData([oasm.data, narrow], Y, train, [ev],
                             [blocks, None])
            _assert_block_base(pair)
            (got,) = pair.predict_grid(np.array([1.0, 0.0]), alphas, [0],
                                       _Scratch())
            alone = _FoldData([oasm.data], Y, train, [ev], [blocks])
            assert alone.path([1.0]) == "block"
            (want,) = alone.predict_grid([1.0], alphas, [0], _Scratch())
            _assert_close(got, want)

    def test_block_base_eval_sets_predict_as_if_alone(self, rng):
        bands, Y, train, _ = _block_update_case(rng, "shuffled")
        evals = [np.arange(3, 48, 4), np.arange(2, 48, 8)]
        blocks = [_band_blocks(X) for X in bands]
        gamma = np.array([0.6, 0.4])
        fold = _FoldData(bands, Y, train, evals, blocks)
        got = [p.copy() for p in fold.predict_grid(
            gamma, [0.0, 1.0, 100.0], [1, 0], _Scratch())]
        for e, ev in zip([1, 0], got):
            (alone,) = _FoldData(bands, Y, train, [evals[e]], blocks
                                 ).predict_grid(gamma, [0.0, 1.0, 100.0], [0],
                                                _Scratch())
            np.testing.assert_array_equal(ev, alone)


def _mask_and_alone(bands, blocks, b, Y, train, ev, units):
    """Band ``b``'s mask of a fit of ``bands`` and the single-band fit of
    ``b``: each fold's path and centered predictions per default alpha."""
    gamma = np.eye(len(bands))[b]
    out = []
    for fold, g in ((_FoldData(bands, Y, train, [ev], blocks), gamma),
                    (_FoldData([bands[b]], Y, train, [ev], [blocks[b]]),
                     np.ones(1))):
        (preds,) = fold.predict_grid(g, eb.default_alpha_grid(), [0],
                                     _Scratch(), units)
        out.append((fold.path(g), preds.copy()))
    return out


@pytest.mark.parametrize("units", [slice(None), np.array([0, 2, 5])])
@pytest.mark.parametrize("case", ["oasm-contiguous", "oasm-shuffled", "llm"])
def test_mask_predicts_as_the_single_band_fit_of_its_band(rng, case, units):
    """A wide band's mask in a fit beside narrow bands and the fit of that
    band alone take one rule, the update path's factorization of it alone,
    and give the same bits. Its scorings count by that factorization, block
    or gram, not as update scorings."""
    if case == "llm":  # LLM of rank 4 beside SP+SL: its Gram has null directions
        spec, extras = eb.preset("subsumption-demo", seed=3)
        recording, _ = eb.generate(spec)
        plan = build_plan(SplitSpec("pereira"), recording)
        sp, sl = (fs.data for fs in spec.signal_features)
        (llm,) = (fs.data for fs in extras if fs.name == "LLM")
        bands, blocks, b = [np.hstack([sp, sl]), llm], [None, None], 1
        Y, path = recording.responses, "gram"
    else:
        oasm, Y, plan = _oasm_case("pereira-exp2", "pereira",
                                   case.split("-")[1], 1.0, n_inner=1)
        bands = [oasm.data, rng.standard_normal((plan.n_samples, 3))]
        blocks, b, path = [_band_blocks(oasm.data), None], 0, "block"
    fold = plan.outer_folds[0]
    trval = np.setdiff1d(np.arange(plan.n_samples), fold.test)
    for train, ev in ((fold.inner_folds[0].train,
                       fold.inner_folds[0].validation), (trval, fold.test)):
        (mask_path, got), (alone_path, want) = _mask_and_alone(
            bands, blocks, b, Y, train, ev, units)
        assert mask_path == alone_path == path
        np.testing.assert_array_equal(got, want)


def test_rank0_scoring_solves_nothing(rng, small_plan, monkeypatch):
    """A scaling with no narrow column active solves no r x r system: a
    narrow-only fit (the design path) and a single-wide-band fit (the dense
    base) run with ``np.linalg.inv`` refused. Their outputs are the bits
    the solver gave when it still inverted the empty ``S`` (numpy's bundled
    OpenBLAS on one thread)."""
    sig = eb.FeatureSpace("SIG", rng.standard_normal((96, 4)), "sig")
    oth = eb.FeatureSpace("OTH", rng.standard_normal((96, 3)), "oth")
    wide = eb.FeatureSpace("WID", rng.standard_normal((96, 100)), "wid")
    Y = (sig.data @ rng.standard_normal((4, 20))
         + 0.3 * rng.standard_normal((96, 20)))
    cfg = BandedSearchConfig(max_iters=20, patience=8, seed=9)

    def refused(*args):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refused)
    for spaces, path, digest in (([sig, oth], "design", "841fed169f714879"),
                                 ([wide], "gram", "b9367c74c461336d")):
        fit = eb.banded_search(spaces, Y, small_plan, search_cfg=cfg)
        assert fit.solver_paths[path] == sum(fit.solver_paths.values())
        h = hashlib.sha256()
        for key in ("test_predictions", "intercept_predictions",
                    "validation_r2", "chosen_alpha", "chosen_gamma"):
            h.update(getattr(fit, key).tobytes())
        if ridge.fit_blas_threads() == 1:
            assert h.hexdigest()[:16] == digest


def test_paths_that_round_differently_choose_alike(monkeypatch):
    """Exact ties go to the earlier candidate on every solver path. On
    subsumption-demo the LLM band spans the SP+SL columns, so at alpha = 0
    every gamma that uses LLM gives the same fit in exact arithmetic; the
    update path and the dense Gram path round those fits differently."""
    spec, extras = eb.preset("subsumption-demo", seed=3)
    recording, _ = eb.generate(spec)
    features = list(spec.signal_features) + list(extras)
    plan = build_plan(SplitSpec("pereira"), recording)
    cfg = BandedSearchConfig(max_iters=5, patience=5)
    update = eb.banded_search(features, recording.responses, plan,
                              search_cfg=cfg)
    monkeypatch.setattr(ridge, "_uses_update", lambda *args: False)
    dense = eb.banded_search(features, recording.responses, plan,
                             search_cfg=cfg)
    assert update.solver_paths["update"] > 0
    assert dense.solver_paths["update"] == 0
    np.testing.assert_array_equal(update.chosen_gamma, dense.chosen_gamma)
    np.testing.assert_array_equal(update.chosen_alpha, dense.chosen_alpha)


@pytest.mark.parametrize("mode", ["contiguous", "shuffled"])
def test_block_and_dense_bases_choose_alike(monkeypatch, mode):
    """The update path on a block base and on a dense ``eigh`` of the same
    OASM band round differently; on pereira-exp2 they choose alike."""
    spec, _ = eb.preset("pereira-exp2", seed=3)
    recording, _ = eb.generate(spec)
    plan = build_plan(SplitSpec("pereira"), recording)
    if mode == "shuffled":
        plan = eb.shuffle_plan(plan, 7)
    oasm = eb.build_oasm(recording.n_samples, recording.block_ids, 1.0)
    features = [oasm, *spec.signal_features]  # OASM beside SP+SL
    cfg = BandedSearchConfig(max_iters=5, patience=5)
    built = []
    real = ridge._BlockUpdate.__init__
    monkeypatch.setattr(ridge._BlockUpdate, "__init__",
                        lambda self, *args: built.append(1) or real(self, *args))
    block = eb.banded_search(features, recording.responses, plan,
                             search_cfg=cfg)
    assert block.solver_paths["update"] > 0 and len(built) > 0
    monkeypatch.setattr(ridge, "_band_blocks", lambda X: None)
    dense = eb.banded_search(features, recording.responses, plan,
                             search_cfg=cfg)
    # the OASM-only mask counts by its factorization: block, then dense
    assert block.solver_paths["block"] > 0 and block.solver_paths["gram"] == 0
    assert dense.solver_paths == dict(block.solver_paths, block=0,
                                      gram=block.solver_paths["block"])
    assert len(built) == block.train_sets + len(plan.outer_folds)
    np.testing.assert_array_equal(block.chosen_gamma, dense.chosen_gamma)
    np.testing.assert_array_equal(block.chosen_alpha, dense.chosen_alpha)
