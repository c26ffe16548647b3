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
    check_sigma,
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
        if self.autocorr_sigma > 0:
            check_sigma("autocorr_sigma", self.autocorr_sigma)
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


def _passages(n_categories: int, per_category: int, sentences: int,
              stream: Optional[int] = None, llm_dims: int = 0):
    """Layout of n_categories x per_category passages of ``sentences``
    sentences. With an RNG ``stream``, SP and SL carry the signal (word counts
    from ``(seed, stream)``), and ``llm_dims`` adds an LLM space projecting
    them, drawn next from the same stream."""

    def build(seed: int):
        n_passages = n_categories * per_category
        blocks = np.repeat(np.arange(n_passages), sentences)
        categories = blocks // per_category
        if stream is None:
            return blocks, categories, [], []
        rng = np.random.default_rng((seed, stream))
        sp = build_sentence_position([sentences] * n_passages, band_group="spsl")
        sl = build_sentence_length(
            rng.integers(4, 13, size=blocks.size), band_group="spsl")
        if not llm_dims:
            return blocks, categories, [sp, sl], []
        base = np.hstack([sp.data, sl.data])
        proj = rng.standard_normal((base.shape[1], llm_dims))
        return blocks, categories, [sp, sl], [
            FeatureSpace("LLM", base @ proj, band_group="llm")]

    return build


def _fedorenko(seed: int):
    """52 sentences of 8 words, word position as the signal."""
    return np.repeat(np.arange(52), 8), None, [build_word_position(52)], []


def _blank(seed: int):
    """8 stories, 1317 samples in all, no signal."""
    story_lengths = [150, 160, 170, 155, 165, 175, 180, 162]
    return np.repeat(np.arange(len(story_lengths)), story_lengths), None, [], []


# name -> (layout builder, defaults of (units, participants, autocorr_sigma,
# noise_scale, signal_scale)). A layout builder takes the seed and returns
# (block_ids, categories, signal_features, extra_features).
PRESETS = {
    "shuffle-demo": (_passages(24, 4, 4), (200, 5, 2.0, 1.0, 0.0)),
    "subsumption-demo": (_passages(12, 4, 4, stream=9001, llm_dims=512),
                         (48, 3, 0.0, 0.6, 1.0)),
    "pereira-exp1": (_passages(24, 4, 4, stream=9002), (60, 9, 1.0, 1.0, 0.5)),
    "pereira-exp2": (_passages(24, 3, 3, stream=9002), (60, 6, 1.0, 1.0, 0.5)),
    "fedorenko": (_fedorenko, (97, 5, 1.0, 1.0, 0.5)),
    "blank": (_blank, (60, 5, 1.5, 1.0, 0.0)),
}


def preset(name: str, seed: int = 0, n_units: Optional[int] = None,
           n_participants: Optional[int] = None,
           noise_scale: Optional[float] = None,
           signal_scale: Optional[float] = None,
           autocorr_sigma: Optional[float] = None):
    """The dataset shape ``PRESETS[name]``, with each option left ``None``
    taken from the row's defaults. Returns (SynthSpec, extra_features)."""
    if name not in PRESETS:
        raise DataError(f"unknown preset {name!r}")
    layout, defaults = PRESETS[name]
    given = (n_units, n_participants, autocorr_sigma, noise_scale, signal_scale)
    units, participants, autocorr, noise, signal = (
        default if value is None else value
        for value, default in zip(given, defaults))
    check_int("units", units, 1)
    check_int("participants", participants, 1)
    blocks, categories, signal_features, extras = layout(seed)
    spec = SynthSpec(
        n_samples=blocks.size, n_units=units, block_ids=blocks,
        signal_features=signal_features, autocorr_sigma=autocorr,
        noise_scale=noise, signal_scale=signal,
        participants=np.arange(units) % participants,
        categories=categories, seed=seed,
    )
    return spec, extras
