"""Synthetic response generators with known structure.

Responses are a seeded linear read-out of declared feature spaces plus
Gaussian noise that is smoothed within blocks (and exactly uncorrelated
between blocks), mimicking the contamination mechanism that shuffled
train/test splits expose. Ground-truth weights come back with the data so
recovery can be checked, not just prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, check_int
from .features import (
    FeatureSpace,
    build_sentence_length,
    build_sentence_position,
    build_word_position,
    block_runs,
    smooth_within_blocks,
)
from .matrixio import NeuralRecording, save_manifest, save_matrix


@dataclass
class SynthSpec:
    n_samples: int
    n_units: int
    block_ids: np.ndarray
    signal_features: list[FeatureSpace] = field(default_factory=list)
    autocorr_sigma: float = 0.0
    noise_scale: float = 1.0
    signal_scale: float = 1.0
    participants: Optional[np.ndarray] = None
    categories: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        self.block_ids = np.asarray(self.block_ids, dtype=np.int64)
        if self.block_ids.size != self.n_samples:
            raise DataError("block_ids length must equal n_samples")
        block_runs(self.block_ids)
        scales = (self.noise_scale, self.signal_scale, self.autocorr_sigma)
        if not all(math.isfinite(s) and s >= 0 for s in scales):
            raise DataError("scales must be finite and non-negative")
        for fs in self.signal_features:
            if fs.n_samples != self.n_samples:
                raise DataError(f"signal feature {fs.name!r} row count mismatch")
        if self.participants is None:
            self.participants = np.zeros(self.n_units, dtype=np.int64)
        else:
            self.participants = np.asarray(self.participants, dtype=np.int64)
            if self.participants.size != self.n_units:
                raise DataError("participants length must equal n_units")


@dataclass
class SynthTruth:
    weights: list[np.ndarray]  # per signal feature: dims x units


def generate(spec: SynthSpec) -> tuple[NeuralRecording, SynthTruth]:
    rng = np.random.default_rng(spec.seed)

    signal = np.zeros((spec.n_samples, spec.n_units))
    weights = []
    for fs in spec.signal_features:
        W = rng.standard_normal((fs.n_dims, spec.n_units))
        weights.append(W)
        signal += fs.data @ W

    noise = rng.standard_normal((spec.n_samples, spec.n_units))
    if spec.autocorr_sigma > 0:
        noise = smooth_within_blocks(noise, spec.block_ids, spec.autocorr_sigma)

    responses = spec.signal_scale * signal + spec.noise_scale * noise
    recording = NeuralRecording(
        responses=responses,
        unit_participants=spec.participants.copy(),
        block_ids=spec.block_ids.copy(),
        categories=None if spec.categories is None else np.asarray(
            spec.categories, dtype=np.int64),
    )
    return recording, SynthTruth(weights=weights)


def write_dataset(spec: SynthSpec, out_dir, dataset_name: str,
                  extra_features: Sequence[FeatureSpace] = ()) -> Path:
    """Generate and dump a dataset through the standard I/O path.

    Signal features and any extra (non-generating) feature spaces land as
    matrix files next to a manifest. Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    recording, _ = generate(spec)
    save_matrix(out / "responses.bbsm", recording.responses)
    specs = []
    for fs in list(spec.signal_features) + list(extra_features):
        fname = f"{fs.name.lower()}.bbsm"
        save_matrix(out / fname, fs.data)
        specs.append({"name": fs.name, "path": fname, "band_group": fs.band_group})
    manifest_path = out / "manifest.json"
    save_manifest(
        manifest_path,
        dataset_name=dataset_name,
        feature_specs=specs,
        responses_path="responses.bbsm",
        sample_blocks=recording.block_ids,
        unit_participants=recording.unit_participants,
        sample_categories=spec.categories,
    )
    return manifest_path


def _passage_layout(n_categories: int, passages_per_category: int,
                    sentences_per_passage: int):
    n_passages = n_categories * passages_per_category
    lengths = [sentences_per_passage] * n_passages
    blocks = np.repeat(np.arange(n_passages), sentences_per_passage)
    categories = np.repeat(np.arange(n_passages) // passages_per_category,
                           sentences_per_passage)
    return lengths, blocks, categories


def _spread_participants(n_units: int, n_participants: int) -> np.ndarray:
    check_int("units", n_units, 1)
    check_int("participants", n_participants, 1)
    return np.arange(n_units) % n_participants


def preset(name: str, seed: int = 0, n_units: Optional[int] = None,
           n_participants: Optional[int] = None,
           noise_scale: Optional[float] = None,
           signal_scale: Optional[float] = None,
           autocorr_sigma: Optional[float] = None):
    """Named desk-scale dataset shapes. Returns (SynthSpec, extra_features).

    shuffle-demo      96 blocks of 4 samples, autocorrelated noise only
    subsumption-demo  position+length signal plus a 512-dim projection of it
    pereira-exp1      24 categories x 4 passages x 4 sentences
    pereira-exp2      24 categories x 3 passages x 3 sentences
    fedorenko         52 sentences x 8 words
    blank             8 stories, 1317 samples total
    """

    def pick(value, default):
        return default if value is None else value

    if name == "shuffle-demo":
        lengths, blocks, categories = _passage_layout(24, 4, 4)
        units = pick(n_units, 200)
        spec = SynthSpec(
            n_samples=blocks.size, n_units=units, block_ids=blocks,
            signal_features=[], autocorr_sigma=pick(autocorr_sigma, 2.0),
            noise_scale=pick(noise_scale, 1.0),
            signal_scale=pick(signal_scale, 0.0),
            participants=_spread_participants(units, pick(n_participants, 5)),
            categories=categories, seed=seed,
        )
        return spec, []

    if name == "subsumption-demo":
        lengths, blocks, categories = _passage_layout(12, 4, 4)
        units = pick(n_units, 48)
        rng = np.random.default_rng((seed, 9001))
        sp = build_sentence_position(lengths, band_group="spsl")
        sl = build_sentence_length(
            rng.integers(4, 13, size=blocks.size), band_group="spsl")
        base = np.hstack([sp.data, sl.data])
        proj = rng.standard_normal((base.shape[1], 512))
        llm = FeatureSpace("LLM", base @ proj, band_group="llm")
        spec = SynthSpec(
            n_samples=blocks.size, n_units=units, block_ids=blocks,
            signal_features=[sp, sl], autocorr_sigma=pick(autocorr_sigma, 0.0),
            noise_scale=pick(noise_scale, 0.6),
            signal_scale=pick(signal_scale, 1.0),
            participants=_spread_participants(units, pick(n_participants, 3)),
            categories=categories, seed=seed,
        )
        return spec, [llm]

    if name in ("pereira-exp1", "pereira-exp2"):
        per_cat = 4 if name == "pereira-exp1" else 3
        sent = 4 if name == "pereira-exp1" else 3
        lengths, blocks, categories = _passage_layout(24, per_cat, sent)
        units = pick(n_units, 60)
        rng = np.random.default_rng((seed, 9002))
        sp = build_sentence_position(lengths, band_group="spsl")
        sl = build_sentence_length(
            rng.integers(4, 13, size=blocks.size), band_group="spsl")
        spec = SynthSpec(
            n_samples=blocks.size, n_units=units, block_ids=blocks,
            signal_features=[sp, sl], autocorr_sigma=pick(autocorr_sigma, 1.0),
            noise_scale=pick(noise_scale, 1.0),
            signal_scale=pick(signal_scale, 0.5),
            participants=_spread_participants(
                units, pick(n_participants, 9 if per_cat == 4 else 6)),
            categories=categories, seed=seed,
        )
        return spec, []

    if name == "fedorenko":
        n_sentences = 52
        blocks = np.repeat(np.arange(n_sentences), 8)
        units = pick(n_units, 97)
        wp = build_word_position(n_sentences)
        spec = SynthSpec(
            n_samples=blocks.size, n_units=units, block_ids=blocks,
            signal_features=[wp], autocorr_sigma=pick(autocorr_sigma, 1.0),
            noise_scale=pick(noise_scale, 1.0),
            signal_scale=pick(signal_scale, 0.5),
            participants=_spread_participants(units, pick(n_participants, 5)),
            seed=seed,
        )
        return spec, []

    if name == "blank":
        story_lengths = [150, 160, 170, 155, 165, 175, 180, 162]  # sums to 1317
        blocks = np.repeat(np.arange(len(story_lengths)), story_lengths)
        units = pick(n_units, 60)
        spec = SynthSpec(
            n_samples=blocks.size, n_units=units, block_ids=blocks,
            signal_features=[], autocorr_sigma=pick(autocorr_sigma, 1.5),
            noise_scale=pick(noise_scale, 1.0),
            signal_scale=pick(signal_scale, 0.0),
            participants=_spread_participants(units, pick(n_participants, 5)),
            seed=seed,
        )
        return spec, []

    raise DataError(f"unknown preset {name!r}")
