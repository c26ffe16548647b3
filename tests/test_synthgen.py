import numpy as np
import pytest

import encodebench as eb
from encodebench.errors import DataError


def _spec(rng, **overrides):
    blocks = np.repeat(np.arange(24), 4)
    sp = eb.build_sentence_position([4] * 24, band_group="spsl")
    sl = eb.build_sentence_length(rng.integers(4, 13, size=96),
                                  band_group="spsl")
    defaults = dict(
        n_samples=96, n_units=20, block_ids=blocks,
        signal_features=[sp, sl], signal_scale=1.0, noise_scale=0.5,
        autocorr_sigma=0.0, seed=7, participants=np.arange(20) % 4,
    )
    defaults.update(overrides)
    return eb.SynthSpec(**defaults)


class TestGenerate:
    def test_same_seed_bitwise_identical(self, rng):
        spec = _spec(rng)
        a, _ = eb.generate(spec)
        b, _ = eb.generate(spec)
        np.testing.assert_array_equal(a.responses, b.responses)

    def test_different_seed_differs(self, rng):
        a, _ = eb.generate(_spec(rng, seed=1))
        b, _ = eb.generate(_spec(rng, seed=2))
        assert not np.array_equal(a.responses, b.responses)

    def test_noiseless_recovery(self, rng):
        spec = _spec(rng, noise_scale=0.0)
        recording, _ = eb.generate(spec)
        plan = eb.plan_grouped(spec.block_ids, 6, 5)
        fit = eb.banded_search(spec.signal_features, recording.responses, plan)
        r2 = fit.test_r2(recording.responses)
        assert np.maximum(r2, 0).mean() > 0.99

    def test_returned_weights_generate_the_signal(self, rng):
        spec = _spec(rng, noise_scale=0.0)
        recording, truth = eb.generate(spec)
        signal = sum(fs.data @ w
                     for fs, w in zip(spec.signal_features, truth.weights))
        np.testing.assert_allclose(recording.responses, signal, atol=1e-12)

    def test_contamination_under_shuffled_splits(self):
        spec, _ = eb.preset("shuffle-demo", seed=0, n_units=120,
                            n_participants=4)
        recording, _ = eb.generate(spec)
        oasm = eb.build_oasm(spec.n_samples, spec.block_ids, 2.0)
        plan = eb.plan_pereira(spec.categories, spec.block_ids)
        shuffled = eb.shuffle_plan(plan, 0)
        contiguous_fit = eb.banded_search([oasm], recording.responses, plan)
        shuffled_fit = eb.banded_search([oasm], recording.responses, shuffled)
        r2_contiguous = eb.clip_and_average(
            contiguous_fit.test_r2(recording.responses),
            recording.unit_participants).mean
        r2_shuffled = eb.clip_and_average(
            shuffled_fit.test_r2(recording.responses),
            recording.unit_participants).mean
        assert r2_shuffled > 0.3
        assert -0.05 <= r2_contiguous <= 0.05

    def test_cross_block_correlation_is_small(self):
        blocks = np.repeat(np.arange(12), 8)
        spec = eb.SynthSpec(
            n_samples=96, n_units=250, block_ids=blocks, signal_scale=0.0,
            noise_scale=1.0, autocorr_sigma=2.0, seed=5,
            participants=np.zeros(250, dtype=int))
        recording, _ = eb.generate(spec)
        responses = recording.responses
        rng = np.random.default_rng(0)
        correlations = []
        for _ in range(300):
            i, j = rng.integers(0, 96, size=2)
            if blocks[i] == blocks[j]:
                continue
            correlations.append(np.corrcoef(responses[i], responses[j])[0, 1])
        assert abs(np.mean(correlations)) < 0.05

    def test_true_features_beat_random_features(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng((seed, 17))
            spec = _spec(rng, seed=seed, n_units=10, noise_scale=1.0,
                         participants=np.arange(10) % 2)
            recording, _ = eb.generate(spec)
            plan = eb.plan_grouped(spec.block_ids, 4, 3)
            true_fit = eb.banded_search(spec.signal_features,
                                        recording.responses, plan)
            dims = sum(fs.n_dims for fs in spec.signal_features)
            random_features = eb.FeatureSpace(
                "RAND", rng.standard_normal((96, dims)), "rand")
            rand_fit = eb.banded_search([random_features],
                                        recording.responses, plan)
            true_score = np.maximum(
                true_fit.test_r2(recording.responses), 0).mean()
            rand_score = np.maximum(
                rand_fit.test_r2(recording.responses), 0).mean()
            wins += true_score > rand_score
        assert wins >= 16  # sign test, p < 0.01

    def test_feature_row_mismatch_rejected(self, rng):
        with pytest.raises(DataError):
            _spec(rng, n_samples=95, block_ids=np.repeat(np.arange(19), 5))


class TestWriteDataset:
    def test_round_trips_through_manifest(self, rng, tmp_path):
        spec = _spec(rng)
        manifest = eb.write_dataset(spec, tmp_path, "toy")
        dataset = eb.load_manifest(manifest)
        assert dataset.recording.n_samples == 96
        assert dataset.recording.n_units == 20
        assert {fs.name for fs in dataset.features} == {"SP", "SL"}
        recording, _ = eb.generate(spec)
        np.testing.assert_array_equal(dataset.recording.responses,
                                      recording.responses)

    def test_extra_features_included(self, rng, tmp_path):
        spec = _spec(rng)
        extra = eb.FeatureSpace("LLM", rng.standard_normal((96, 8)), "llm")
        manifest = eb.write_dataset(spec, tmp_path, "toy",
                                    extra_features=[extra])
        dataset = eb.load_manifest(manifest)
        by_name = {fs.name: fs for fs in dataset.features}
        np.testing.assert_array_equal(by_name["LLM"].data, extra.data)


# preset -> (samples, blocks, has categories, extra feature spaces)
SHAPES = {
    "shuffle-demo": (384, 96, True, 0),
    "subsumption-demo": (192, 48, True, 1),
    "pereira-exp1": (384, 96, True, 0),
    "pereira-exp2": (216, 72, True, 0),
    "fedorenko": (416, 52, False, 0),
    "blank": (1317, 8, False, 0),
}


class TestPresets:
    @pytest.mark.parametrize("name", eb.synthgen.PRESETS, ids=lambda name: (
        "-".join(map(str, (name, *SHAPES.get(name, ())[:2])))))
    def test_shapes(self, name):
        n_samples, n_blocks, has_categories, n_extras = SHAPES[name]
        spec, extras = eb.preset(name, seed=0)
        assert spec.n_samples == n_samples
        assert np.unique(spec.block_ids).size == n_blocks
        assert (spec.categories is not None) == has_categories
        assert len(extras) == n_extras

    def test_subsumption_demo_llm_contains_signal(self):
        spec, extras = eb.preset("subsumption-demo", seed=0)
        assert len(extras) == 1
        llm = extras[0]
        assert llm.n_dims == 512
        base = np.hstack([fs.data for fs in spec.signal_features])
        # every LLM column is a linear combination of the base columns
        coeffs, residuals, *_ = np.linalg.lstsq(base, llm.data, rcond=None)
        reconstruction = base @ coeffs
        assert np.abs(reconstruction - llm.data).max() < 1e-8

    def test_unknown_preset_rejected(self):
        with pytest.raises(DataError):
            eb.preset("nope")
