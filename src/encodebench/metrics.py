"""Out-of-sample R^2 and the variance-partitioning quantities built on it.

A model's predictive score is ``R2_oos = 1 - MSE_model / MSE_intercept``
per unit, computed on predictions pooled across cross-validation folds; the
intercept baseline is each fold's training-mean prediction, pooled in the
same order. Sub-model correction takes the per-unit max over a family of
feature subsets; ``best_subset`` is the one rule behind every such
selection. From corrected scores, ``omega`` measures the percentage of a
designated space's explained variance that a simpler model also captures,
and ``phi`` the unique variance the designated space adds over the
autocorrelation-only baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DataError

TIE = 1e-12  # R^2 margin within which two scores tie


def _as_2d(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return (arr[:, None], True) if arr.ndim == 1 else (arr, False)


def r2_oos(y_true, y_pred, y_intercept_pred):
    """1 - MSE_model / MSE_intercept per unit; float for 1-D inputs."""
    yt, was_1d = _as_2d(y_true)
    yp, _ = _as_2d(y_pred)
    yi, _ = _as_2d(y_intercept_pred)
    if not (yt.shape == yp.shape == yi.shape):
        raise DataError(
            f"shape mismatch: {yt.shape}, {yp.shape}, {yi.shape}"
        )
    mse_m = ((yt - yp) ** 2).mean(axis=0)
    mse_i = ((yt - yi) ** 2).mean(axis=0)
    if (mse_i == 0).any():
        bad = np.flatnonzero(mse_i == 0).tolist()
        raise DataError(f"undefined score: constant target for units {bad}")
    out = 1.0 - mse_m / mse_i
    return float(out[0]) if was_1d else out


def _sem(values: np.ndarray) -> float:
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / np.sqrt(values.size))


def _normalize_key(key) -> frozenset:
    if isinstance(key, str):
        return frozenset([key])
    return frozenset(key)


def _score_table(subset_scores: Mapping) -> tuple[dict, list[str]]:
    """The scores keyed by frozensets, and the sorted spaces they name."""
    table = {_normalize_key(k): np.asarray(v, dtype=np.float64)
             for k, v in subset_scores.items()}
    return table, sorted(frozenset().union(*table))


def subsets(spaces, required: Optional[str] = None) -> list[tuple]:
    """Every nonempty subset of ``spaces``, smallest first, then in the given
    order; with ``required``, only the subsets that contain it."""
    return [combo for size in range(1, len(spaces) + 1)
            for combo in itertools.combinations(spaces, size)
            if required is None or required in combo]


def best_subset(table: Mapping, spaces, required: Optional[str] = None):
    """Per unit, the best-scoring ``subsets(spaces, required)`` in ``table``
    (keyed by frozensets, scoring every one of them): the subsets, each
    unit's chosen score, and per unit the index of the chosen subset. A
    subset within ``TIE`` of the unit's maximum ties with it, and ties go
    to the subset enumerated first (the smaller, then the one listed
    first), so rounding cannot swap two subsets whose fits are equal in
    exact arithmetic."""
    keys = [frozenset(combo) for combo in subsets(spaces, required)]
    if not keys:
        raise DataError(f"no subset of {list(spaces)} to choose from "
                        f"(required: {required!r})")
    for key in keys:
        if key not in table:
            raise DataError(f"missing subset {sorted(key)} in score table")
    scores = np.stack([table[key] for key in keys])
    best = np.argmax(scores >= scores.max(axis=0) - TIE, axis=0)
    return keys, np.take_along_axis(scores, best[None], axis=0)[0], best


def layered_best(subset_scores: Mapping, complexity_order: Sequence[str]):
    """Per-tier best score: for each space, the best subset holding it and
    nothing ranked above it. Ties go to the smaller subset, then to the
    alphabetically first; the subset is named in complexity order."""
    table, universe = _score_table(subset_scores)
    if set(complexity_order) != set(universe):
        raise DataError("complexity order must cover exactly the scored spaces")
    entries = []
    for i, space in enumerate(complexity_order):
        keys, score, best = best_subset(
            table, sorted(complexity_order[:i + 1]), required=space)
        entries.append({
            "space": space,
            "score": float(score),
            "subset": "+".join(sorted(keys[best], key=complexity_order.index)),
        })
    return entries


@dataclass
class PartitionResult:
    per_unit: np.ndarray          # percent, or clipped R^2; NaN where excluded
    participant_ids: np.ndarray
    participant_values: np.ndarray  # NaN for a participant with every unit excluded
    mean: float                   # over the defined participants; NaN if none
    sem: float
    n_excluded: int
    denominators: Optional[np.ndarray] = None  # phi: per-participant mean R2_OASM


def _partition(per_unit, included, participants, clip_at=None) -> PartitionResult:
    """Per-participant means of the included units, and their summary."""
    participants = np.asarray(participants)
    ids = np.unique(participants)
    values = np.full(ids.size, np.nan)
    for i, p in enumerate(ids):
        mask = (participants == p) & included
        if mask.any():
            values[i] = per_unit[mask].mean()
    if clip_at is not None:
        values = np.minimum(values, clip_at)
    defined = values[~np.isnan(values)]
    mean = float(defined.mean()) if defined.size else float("nan")
    return PartitionResult(per_unit, ids, values, mean, _sem(defined),
                           int((~included).sum()))


def clip_and_average(scores, participants) -> PartitionResult:
    """Floor unit scores at 0, average within participant, then summarize
    across participants (SEM uses n-1)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != np.shape(participants):
        raise DataError("scores and participant ids must align")
    return _partition(np.maximum(scores, 0.0), np.ones(scores.shape, dtype=bool),
                      participants)


def omega(r2_m_star, r2_m_llm_star, r2_llm, participants) -> PartitionResult:
    """Percentage of the designated space's explained variance captured by
    the simpler model: ``(1 - (R2_{M+LLM}* - R2_M*) / R2_LLM) * 100``.

    Units whose denominator is <= 0 are excluded; within-participant
    averages are clipped at 100%.
    """
    r2_m_star = np.asarray(r2_m_star, dtype=np.float64)
    r2_m_llm_star = np.asarray(r2_m_llm_star, dtype=np.float64)
    r2_llm = np.asarray(r2_llm, dtype=np.float64)
    included = r2_llm > 0
    per_unit = np.full(r2_llm.shape, np.nan)
    per_unit[included] = (
        1.0 - (r2_m_llm_star[included] - r2_m_star[included]) / r2_llm[included]
    ) * 100.0
    return _partition(per_unit, included, participants, clip_at=100.0)


def phi(r2_oasm_llm_star, r2_oasm, participants) -> PartitionResult:
    """Unique variance over the autocorrelation-only model:
    ``(R2_{OASM+LLM}* / R2_OASM - 1) * 100``; no clipping. ``denominators``
    holds each participant's mean R2_OASM over its included units."""
    r2_oasm_llm_star = np.asarray(r2_oasm_llm_star, dtype=np.float64)
    r2_oasm = np.asarray(r2_oasm, dtype=np.float64)
    included = r2_oasm > 0
    per_unit = np.full(r2_oasm.shape, np.nan)
    per_unit[included] = (
        r2_oasm_llm_star[included] / r2_oasm[included] - 1.0
    ) * 100.0
    result = _partition(per_unit, included, participants)
    result.denominators = _partition(r2_oasm, included,
                                     participants).participant_values
    return result


@dataclass
class ComparisonReport:
    r2_corrected: np.ndarray                      # max over all subsets
    r2_corrected_with_llm: Optional[np.ndarray]   # max over LLM-containing subsets
    r2_corrected_without_llm: Optional[np.ndarray]
    omega: Optional[PartitionResult]
    phi: Optional[PartitionResult]
    submodel_table: dict[frozenset, PartitionResult]  # clip_and_average per subset


def build_comparison_report(subset_scores: Mapping, participants,
                            llm: Optional[str] = None,
                            oasm: Optional[str] = None) -> ComparisonReport:
    """Assemble corrected scores and the omega/phi summaries for one family."""
    table, universe = _score_table(subset_scores)
    participants = np.asarray(participants)
    corrected = best_subset(table, universe)[1]

    with_llm = without_llm = None
    omega_result = phi_result = None
    if llm is not None:
        with_llm = best_subset(table, universe, required=llm)[1]
        without_llm = best_subset(table, [s for s in universe if s != llm])[1]
        omega_result = omega(without_llm, with_llm,
                             table[frozenset([llm])], participants)
        if oasm is not None:
            oasm_llm_star = best_subset(table, sorted([oasm, llm]),
                                        required=llm)[1]
            phi_result = phi(oasm_llm_star, table[frozenset([oasm])],
                             participants)

    summaries = {key: clip_and_average(values, participants)
                 for key, values in table.items()}

    return ComparisonReport(
        r2_corrected=corrected,
        r2_corrected_with_llm=with_llm,
        r2_corrected_without_llm=without_llm,
        omega=omega_result,
        phi=phi_result,
        submodel_table=summaries,
    )
