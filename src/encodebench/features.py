"""Hand-built feature spaces and feature-level transforms.

Gaussian smoothing throughout uses a truncated discrete kernel (radius
``ceil(4*sigma)``) normalized to sum to one, applied with zero padding at
block edges. Zero padding keeps samples in different blocks exactly
orthogonal, which is what the within-block autocorrelation model is for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError


@dataclass
class FeatureSpace:
    """A named sample x dimension design matrix with a band-group label."""

    name: str
    data: np.ndarray
    band_group: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[1] < 1:
            raise DataError(
                f"feature space {self.name!r} must be 2-D with >= 1 column, "
                f"got shape {self.data.shape}"
            )
        if not np.isfinite(self.data).all():
            raise DataError(f"feature space {self.name!r} contains non-finite values")
        if not self.band_group:
            self.band_group = self.name.lower()

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_dims(self) -> int:
        return self.data.shape[1]


def block_runs(block_ids) -> list[tuple[int, int]]:
    """(start, stop) pairs for each contiguous run of equal block ids.

    Raises if any block id appears in more than one run.
    """
    ids = np.asarray(block_ids)
    if ids.ndim != 1 or ids.size == 0:
        raise DataError("block ids must be a non-empty 1-D sequence")
    change = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    starts = np.concatenate(([0], change))
    stops = np.concatenate((change, [ids.size]))
    run_ids = ids[starts]
    if np.unique(run_ids).size != run_ids.size:
        raise DataError("block ids must label contiguous runs of samples")
    return list(zip(starts.tolist(), stops.tolist()))


def check_sigma(what: str, sigma: float) -> None:
    """Raise ``DataError`` unless ``0 < sigma <= 1e4`` samples: the kernel is
    built whole, ``2 ceil(4 sigma) + 1`` taps, whatever the block lengths."""
    if not (math.isfinite(sigma) and 0 < sigma <= 1e4):
        raise DataError(f"{what} must be finite, > 0 and <= 1e4, got {sigma!r}")


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Truncated, sum-normalized discrete Gaussian (radius ceil(4*sigma)).
    Taps below eps times the peak are zero: z-scoring would blow a column
    made of such far tails up to unit variance."""
    check_sigma("sigma", sigma)
    radius = math.ceil(4.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)  # peak 1
    kernel[kernel < np.finfo(np.float64).eps] = 0.0
    return kernel / kernel.sum()


def smooth_within_blocks(data, block_ids, sigma: float) -> np.ndarray:
    """Filter each column along the sample axis, independently per block.

    Zero padding at run boundaries; samples never mix across blocks.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError("smooth_within_blocks expects a 2-D matrix")
    kernel = gaussian_kernel(sigma)
    radius = (kernel.size - 1) // 2
    out = np.empty_like(data)
    for start, stop in block_runs(block_ids):
        seg = data[start:stop]
        sm = np.empty_like(seg)
        for j in range(seg.shape[1]):
            # centered slice of the full convolution == zero-padded smoothing,
            # valid even when the kernel is longer than the block
            sm[:, j] = np.convolve(seg[:, j], kernel)[radius:radius + seg.shape[0]]
        out[start:stop] = sm
    return out


def build_oasm(n_samples: int, block_ids, sigma: float) -> FeatureSpace:
    """n x n identity smoothed within blocks: within-block autocorrelated
    sequences, exactly orthogonal between blocks. Its band is ``oasm``."""
    block_ids = np.asarray(block_ids, dtype=np.int64)
    if block_ids.size != n_samples:
        raise DataError(
            f"expected {n_samples} block ids, got {block_ids.size}"
        )
    kernel = gaussian_kernel(sigma)
    radius = (kernel.size - 1) // 2
    data = np.zeros((n_samples, n_samples))
    for start, stop in block_runs(block_ids):
        # smoothing the identity column by column writes the kernel Toeplitz:
        # entry (i, j) is kernel[i - j + radius] within reach, else 0
        lag = np.subtract.outer(np.arange(stop - start), np.arange(stop - start))
        lag += radius
        reach = (lag >= 0) & (lag < kernel.size)
        data[start:stop, start:stop] = np.where(
            reach, kernel[np.clip(lag, 0, kernel.size - 1)], 0.0)
    return FeatureSpace("OASM", data)


def oasm_sigma_grid() -> np.ndarray:
    """The canonical sweep grid: 50 evenly spaced values from 0.1 to 5.0."""
    return np.linspace(0.1, 5.0, 50)


@dataclass
class SigmaSweepResult:
    best_sigma: float
    sigmas: np.ndarray
    scores: np.ndarray  # mean clipped validation R^2 per sigma


def sweep_oasm_sigma(recording, block_ids, plan, sigmas=None,
                     threads: int = 1) -> SigmaSweepResult:
    """Pick the smoothing width that maximizes validation performance.

    Each candidate sigma gets a full alpha-grid fit on the plan's inner
    folds (``threads`` as in ``banded_search``); a unit's score is its
    best-alpha validation R^2 averaged over outer folds, clipped at zero
    before averaging across units. Exact ties resolve to the smaller sigma.
    Each fit also refits every outer fold and predicts its test rows; the
    sweep discards those predictions.
    """
    from .ridge import banded_search  # deferred: features is imported by ridge

    responses = getattr(recording, "responses", recording)
    sigmas = oasm_sigma_grid() if sigmas is None else np.asarray(sigmas, float)
    for sigma in sigmas:  # before the first fit
        check_sigma("sigma", sigma)
    scores = np.empty(sigmas.size)
    for i, sigma in enumerate(sigmas):
        oasm = build_oasm(responses.shape[0], block_ids, float(sigma))
        fit = banded_search([oasm], responses, plan, threads=threads)
        per_unit = fit.validation_r2.mean(axis=0)
        scores[i] = np.maximum(per_unit, 0.0).mean()
    best = int(np.argmax(scores))  # first max -> smallest sigma on ties
    return SigmaSweepResult(float(sigmas[best]), sigmas, scores)


def build_sentence_position(passage_lengths: Sequence[int],
                            band_group: str = "sp") -> FeatureSpace:
    """4-D one-hot of each sentence's within-passage position (0-based)."""
    rows = []
    for length in passage_lengths:
        if not 1 <= length <= 4:
            raise DataError(
                f"passages must have 1-4 sentences, got {length}"
            )
        rows.extend(np.eye(4)[i] for i in range(length))
    return FeatureSpace("SP", np.array(rows), band_group)


def build_sentence_length(word_counts: Sequence[int],
                          band_group: str = "sl") -> FeatureSpace:
    """Column vector of per-sentence word counts."""
    counts = np.asarray(word_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise DataError("word_counts must be a non-empty 1-D sequence")
    if (counts < 1).any():
        raise DataError("word counts must be >= 1")
    return FeatureSpace("SL", counts[:, None], band_group)


def build_word_position(n_sentences: int, band_group: str = "wp") -> FeatureSpace:
    """Per-word 9-D position code for 8-word sentences: a [0, 1] linear ramp
    plus an 8-D one-hot smoothed along the position axis (sigma=1)."""
    if n_sentences < 1:
        raise DataError("need at least one sentence")
    ramp = np.arange(8, dtype=np.float64) / 7.0
    onehot = smooth_within_blocks(np.eye(8), np.zeros(8, dtype=np.int64), 1.0)
    block = np.column_stack([ramp, onehot])
    return FeatureSpace("WP", np.tile(block, (n_sentences, 1)), band_group)


def sum_pool(token_matrix, token_map) -> np.ndarray:
    """Sum token rows into sample rows following a non-decreasing group map."""
    tokens = np.asarray(token_matrix, dtype=np.float64)
    groups = np.asarray(token_map, dtype=np.int64)
    if tokens.ndim != 2:
        raise DataError("token matrix must be 2-D")
    if groups.shape != (tokens.shape[0],):
        raise DataError("token map length must match token rows")
    if (np.diff(groups) < 0).any():
        raise DataError("token map must be non-decreasing")
    if groups[0] != 0:
        raise DataError("token map must start at sample 0")
    n_samples = int(groups[-1]) + 1
    present = np.unique(groups)
    if present.size != n_samples:
        missing = sorted(set(range(n_samples)) - set(present.tolist()))
        raise DataError(f"samples with no tokens: {missing}")
    out = np.zeros((n_samples, tokens.shape[1]))
    np.add.at(out, groups, tokens)
    return out


def zscore_fit_apply(train, others=()):
    """Standardize with training-row statistics (population std).

    Returns ``(train_z, [others_z...], mean, std)``. Zero-variance columns
    map to all-zeros in every split.
    """
    train = np.asarray(train, dtype=np.float64)
    if train.ndim != 2 or train.shape[0] < 2:
        raise DataError("z-scoring needs a 2-D training matrix with >= 2 rows")
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    degenerate = std == 0.0
    scale = np.where(degenerate, 1.0, std)

    def apply(mat):
        mat = np.asarray(mat, dtype=np.float64)
        z = (mat - mean) / scale
        if degenerate.any():
            z[:, degenerate] = 0.0
        return z

    return apply(train), [apply(m) for m in others], mean, std
