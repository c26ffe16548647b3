import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import encodebench as eb
from encodebench.errors import DataError
from encodebench.pipeline import SplitSpec, build_plan
from oracles import gaussian_kernel_oracle, smooth_matrix_oracle


class TestGaussianKernel:
    def test_matches_oracle(self):
        for sigma in (0.3, 1.0, 2.2):
            np.testing.assert_allclose(
                eb.features.gaussian_kernel(sigma),
                gaussian_kernel_oracle(sigma), atol=1e-15)

    def test_far_tails_are_zero(self):
        # exp(-50) at sigma 0.1 is below eps: the kernel is the identity tap
        assert eb.features.gaussian_kernel(0.1).tolist() == [0.0, 1.0, 0.0]
        assert (eb.features.gaussian_kernel(0.3) > 0).all()

    def test_normalized_and_symmetric(self):
        k = eb.features.gaussian_kernel(1.7)
        assert k.size == 2 * 7 + 1  # ceil(4 * 1.7) = 7
        assert abs(k.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(k, k[::-1])


class TestOasm:
    def test_sigma_to_zero_is_identity(self):
        fs = eb.build_oasm(4, [0, 0, 0, 0], 1e-6)
        assert np.abs(fs.data - np.eye(4)).max() < 1e-9

    def test_block_orthogonality_exact(self):
        fs = eb.build_oasm(4, [0, 0, 1, 1], 1.3)
        assert np.all(fs.data[:2, 2:] == 0.0)
        assert np.all(fs.data[2:, :2] == 0.0)
        # dot products of cross-block feature rows are exactly zero
        for i in (0, 1):
            for j in (2, 3):
                assert float(fs.data[i] @ fs.data[j]) == 0.0

    def test_matches_convolution_oracle(self):
        fs = eb.build_oasm(3, [0, 0, 0], 1.0)
        np.testing.assert_allclose(
            fs.data, smooth_matrix_oracle(np.eye(3), [0, 0, 0], 1.0),
            atol=1e-14)

    def test_multi_block_matches_oracle(self):
        blocks = [0, 0, 0, 0, 0, 1, 1, 1]
        fs = eb.build_oasm(8, blocks, 0.8)
        np.testing.assert_allclose(
            fs.data, smooth_matrix_oracle(np.eye(8), blocks, 0.8), atol=1e-14)

    @pytest.mark.parametrize("name", ["shuffle-demo", "subsumption-demo",
                                      "pereira-exp1", "pereira-exp2",
                                      "fedorenko", "blank"])
    def test_identical_to_smoothing_the_identity(self, name):
        # build_oasm writes each block's kernel Toeplitz directly; smoothing
        # the identity column by column gives the same bytes
        blocks = eb.preset(name)[0].block_ids
        for sigma in (0.1, 2.1, 5.0):
            fs = eb.build_oasm(blocks.size, blocks, sigma)
            smoothed = eb.features.smooth_within_blocks(np.eye(blocks.size),
                                                        blocks, sigma)
            assert fs.data.tobytes() == smoothed.tobytes()

    def test_mixed_block_sizes_match_oracle(self):
        # blocks of 1, 3, 4, 8 and 17 rows, some shorter than the kernel
        blocks = np.repeat(np.arange(5), [1, 3, 4, 8, 17])
        for sigma in (0.1, 2.1, 5.0):
            fs = eb.build_oasm(blocks.size, blocks, sigma)
            np.testing.assert_allclose(
                fs.data, smooth_matrix_oracle(np.eye(blocks.size), blocks,
                                              sigma), rtol=1e-14, atol=1e-16)

    def test_noncontiguous_blocks_rejected(self):
        with pytest.raises(DataError):
            eb.build_oasm(3, [0, 1, 0], 1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(DataError):
            eb.build_oasm(3, [0, 0, 0], 0.0)

    def test_unbuildable_sigma_rejected(self, tiny_recording, small_blocks,
                                        small_plan):
        # the kernel is built whole: at 1e300 np.arange raised ValueError,
        # and below that its memory grew with sigma
        assert eb.features.gaussian_kernel(1e4).size == 80001
        with pytest.raises(DataError, match="<= 1e4"):
            eb.features.gaussian_kernel(1e300)
        with pytest.raises(DataError, match="autocorr_sigma"):
            eb.SynthSpec(n_samples=4, n_units=1, block_ids=[0, 0, 1, 1],
                         autocorr_sigma=1e5)
        _, responses, _ = tiny_recording
        with pytest.raises(DataError, match="<= 1e4"):  # before any fit
            eb.sweep_oasm_sigma(responses, small_blocks, small_plan,
                                sigmas=[1.0, 1e300])


class TestSigmaSweep:
    def test_grid_shape(self):
        grid = eb.oasm_sigma_grid()
        assert grid.size == 50
        assert grid[0] == 0.1
        assert grid[-1] == 5.0
        np.testing.assert_allclose(np.diff(grid), 0.1, atol=1e-12)

    def test_recovers_generating_sigma(self):
        blocks = np.repeat(np.arange(6), 32)
        oasm_true = eb.build_oasm(192, blocks, 2.0)
        spec = eb.SynthSpec(
            n_samples=192, n_units=60, block_ids=blocks,
            signal_features=[oasm_true], signal_scale=1.0, noise_scale=0.0,
            seed=11, participants=np.arange(60) % 4)
        recording, _ = eb.generate(spec)
        plan = eb.shuffle_plan(eb.plan_grouped(blocks, 6, 5), 2)
        sweep = eb.sweep_oasm_sigma(recording, blocks, plan)
        assert abs(sweep.best_sigma - 2.0) <= 0.3
        assert sweep.scores.size == 50

    def test_narrow_width_keeps_validation_r2_bounded(self):
        # kernel tails of 1.9e-22 that z-scoring scaled to unit variance made
        # this fit choose alpha 2^34 everywhere and score R^2 down to -1e28
        spec, _ = eb.preset("fedorenko", seed=3)
        recording, _ = eb.generate(spec)
        plan = eb.shuffle_plan(
            build_plan(SplitSpec("fedorenko"), recording), 7)
        oasm = eb.build_oasm(recording.n_samples, recording.block_ids, 0.1)
        fit = eb.banded_search([oasm], recording.responses, plan)
        assert fit.validation_r2.min() >= -1.0

    def test_tie_breaks_to_smaller_sigma(self, tiny_recording, small_blocks,
                                         small_plan):
        _, responses, _ = tiny_recording
        sweep = eb.sweep_oasm_sigma(responses, small_blocks, small_plan,
                                    sigmas=[2.0, 2.0])
        assert sweep.scores[0] == sweep.scores[1]
        assert sweep.best_sigma == 2.0
        assert np.argmax(sweep.scores) == 0

    def test_fits_through_the_ridge_module_attribute(
            self, tiny_recording, small_blocks, small_plan, monkeypatch):
        # a benchmark stamps the first call to ridge.banded_search by
        # patching that attribute, so the sweep must look it up there
        from encodebench import ridge

        _, responses, _ = tiny_recording
        calls = []
        original = ridge.banded_search

        def counting(*args, **kwargs):
            calls.append(args[0][0].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(ridge, "banded_search", counting)
        eb.sweep_oasm_sigma(responses, small_blocks, small_plan,
                            sigmas=[1.0, 2.0])
        assert calls == ["OASM", "OASM"]


class TestSentencePosition:
    def test_single_passage_of_four(self):
        fs = eb.build_sentence_position([4])
        np.testing.assert_array_equal(fs.data, np.eye(4))

    def test_three_sentence_passages_leave_last_column_empty(self):
        fs = eb.build_sentence_position([3, 3])
        assert fs.data.shape == (6, 4)
        assert np.all(fs.data[:, 3] == 0.0)

    def test_rows_sum_to_one(self):
        fs = eb.build_sentence_position([4, 2, 3, 1])
        np.testing.assert_array_equal(fs.data.sum(axis=1), np.ones(10))

    def test_overlong_passage_rejected(self):
        with pytest.raises(DataError):
            eb.build_sentence_position([5])


class TestSentenceLength:
    def test_basic(self):
        fs = eb.build_sentence_length([7, 12])
        np.testing.assert_array_equal(fs.data, [[7.0], [12.0]])

    def test_single(self):
        np.testing.assert_array_equal(
            eb.build_sentence_length([1]).data, [[1.0]])

    def test_non_negative(self):
        fs = eb.build_sentence_length([3, 9, 1])
        assert (fs.data >= 0).all()

    def test_zero_count_rejected(self):
        with pytest.raises(DataError):
            eb.build_sentence_length([0])


class TestWordPosition:
    def test_ramp_endpoints(self):
        fs = eb.build_word_position(1)
        assert fs.data[0, 0] == 0.0
        assert fs.data[7, 0] == 1.0

    def test_interior_symmetry(self):
        fs = eb.build_word_position(1)
        onehot = fs.data[:, 1:]
        assert abs(onehot[3].sum() - onehot[4].sum()) < 1e-12

    def test_block_matches_convolution_oracle(self):
        fs = eb.build_word_position(1)
        expected = smooth_matrix_oracle(np.eye(8), np.zeros(8, int), 1.0)
        np.testing.assert_allclose(fs.data[:, 1:], expected, atol=1e-14)

    def test_pattern_repeats_per_sentence(self):
        fs = eb.build_word_position(3)
        assert fs.data.shape == (24, 9)
        np.testing.assert_array_equal(fs.data[:8], fs.data[8:16])
        np.testing.assert_array_equal(fs.data[:8], fs.data[16:24])


class TestSumPool:
    def test_two_tokens_one_sample(self):
        np.testing.assert_array_equal(
            eb.sum_pool([[1.0, 1.0], [2.0, 2.0]], [0, 0]), [[3.0, 3.0]])

    def test_identity_map(self):
        tokens = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(eb.sum_pool(tokens, [0, 1, 2]), tokens)

    def test_matches_group_sum_oracle(self, rng):
        tokens = rng.standard_normal((5, 3))
        pooled = eb.sum_pool(tokens, [0, 0, 1, 1, 1])
        np.testing.assert_allclose(pooled[0], tokens[:2].sum(axis=0))
        np.testing.assert_allclose(pooled[1], tokens[2:].sum(axis=0))

    def test_empty_group_rejected(self):
        with pytest.raises(DataError):
            eb.sum_pool(np.ones((4, 2)), [0, 0, 2, 2])

    def test_decreasing_map_rejected(self):
        with pytest.raises(DataError):
            eb.sum_pool(np.ones((3, 2)), [0, 1, 0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_linearity(self, seed):
        r = np.random.default_rng(seed)
        n_tokens = int(r.integers(2, 12))
        token_map = np.sort(r.integers(0, 3, size=n_tokens))
        token_map[0] = 0
        token_map = np.maximum.accumulate(token_map)
        # make the map cover 0..max
        for s in range(token_map.max() + 1):
            if s not in token_map:
                token_map[token_map > s] = token_map[token_map > s] - 1
        a = r.standard_normal((n_tokens, 3))
        b = r.standard_normal((n_tokens, 3))
        np.testing.assert_allclose(
            eb.sum_pool(a + b, token_map),
            eb.sum_pool(a, token_map) + eb.sum_pool(b, token_map),
            atol=1e-12)


class TestZscore:
    def test_two_point_column(self):
        train_z, _, mean, std = eb.zscore_fit_apply(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(train_z, [[-1.0], [1.0]])
        assert mean[0] == 2.0 and std[0] == 1.0  # population std

    def test_constant_column_maps_to_zero(self):
        train_z, (test_z,), _, _ = eb.zscore_fit_apply(
            np.array([[5.0], [5.0], [5.0]]), [np.array([[7.0]])])
        assert np.all(train_z == 0.0)
        assert np.all(test_z == 0.0)

    def test_test_uses_train_statistics(self, rng):
        train = rng.standard_normal((10, 4)) * 3 + 1
        test = rng.standard_normal((5, 4))
        _, (test_z,), mean, std = eb.zscore_fit_apply(train, [test])
        np.testing.assert_allclose(test_z, (test - train.mean(0)) / train.std(0),
                                   atol=1e-12)
        np.testing.assert_allclose(mean, train.mean(0))
        np.testing.assert_allclose(std, train.std(0))

    def test_train_is_standardized(self, rng):
        train_z, _, _, _ = eb.zscore_fit_apply(rng.standard_normal((50, 6)))
        assert np.abs(train_z.mean(axis=0)).max() < 1e-12
        assert np.abs(train_z.std(axis=0) - 1.0).max() < 1e-12

    def test_short_train_rejected(self):
        with pytest.raises(DataError):
            eb.zscore_fit_apply(np.ones((1, 2)))
