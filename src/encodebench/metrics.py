"""Out-of-sample R^2 and the variance-partitioning quantities built on it.

A model's predictive score is ``R2_oos = 1 - MSE_model / MSE_intercept``
per unit, computed on predictions pooled across cross-validation folds; the
intercept baseline is each fold's training-mean prediction, pooled in the
same order. Sub-model correction takes the per-unit max over a family of
feature subsets. From corrected scores, ``omega`` measures the percentage
of a designated space's explained variance that a simpler model also
captures, and ``phi`` the unique variance the designated space adds over
the autocorrelation-only baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import DataError


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


@dataclass
class ParticipantSummary:
    participant_ids: np.ndarray
    participant_means: np.ndarray
    mean: float
    sem: float


def clip_and_average(scores, participants) -> ParticipantSummary:
    """Floor unit scores at 0, average within participant, then summarize
    across participants (SEM uses n-1)."""
    scores = np.asarray(scores, dtype=np.float64)
    participants = np.asarray(participants)
    if scores.shape != participants.shape:
        raise DataError("scores and participant ids must align")
    clipped = np.maximum(scores, 0.0)
    ids = np.unique(participants)
    means = np.array([clipped[participants == p].mean() for p in ids])
    return ParticipantSummary(ids, means, float(means.mean()), _sem(means))


def _normalize_key(key) -> frozenset:
    if isinstance(key, str):
        return frozenset([key])
    return frozenset(key)


def subsets(spaces, required: Optional[str] = None) -> list[tuple]:
    """Every nonempty subset of ``spaces``, smallest first, then in the given
    order; with ``required``, only the subsets that contain it."""
    return [combo for size in range(1, len(spaces) + 1)
            for combo in itertools.combinations(spaces, size)
            if required is None or required in combo]


def submodel_max(subset_scores: Mapping, required: Optional[str] = None):
    """Per-unit max of R^2 over a subset family (Eq.-style correction).

    With ``required``, the max is restricted to subsets containing that
    feature space. The family must cover every needed subset.
    """
    table = {_normalize_key(k): np.asarray(v, dtype=np.float64)
             for k, v in subset_scores.items()}
    if not table:
        raise DataError("empty subset score table")
    universe = frozenset().union(*table.keys())
    if required is not None and required not in universe:
        raise DataError(f"required space {required!r} not present in any subset")
    stack = []
    for combo in subsets(sorted(universe), required):
        if frozenset(combo) not in table:
            raise DataError(f"missing subset {list(combo)} in score table")
        stack.append(table[frozenset(combo)])
    return np.max(np.stack(stack), axis=0)


@dataclass
class PartitionResult:
    per_unit: np.ndarray          # percent per unit; NaN where excluded
    participant_ids: np.ndarray
    participant_values: np.ndarray  # NaN for a participant with every unit excluded
    mean: float                   # over the defined participants; NaN if none
    sem: float
    n_excluded: int


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
    ``(R2_{OASM+LLM}* / R2_OASM - 1) * 100``; no clipping."""
    r2_oasm_llm_star = np.asarray(r2_oasm_llm_star, dtype=np.float64)
    r2_oasm = np.asarray(r2_oasm, dtype=np.float64)
    included = r2_oasm > 0
    per_unit = np.full(r2_oasm.shape, np.nan)
    per_unit[included] = (
        r2_oasm_llm_star[included] / r2_oasm[included] - 1.0
    ) * 100.0
    return _partition(per_unit, included, participants)


@dataclass
class ComparisonReport:
    r2_corrected: np.ndarray                      # max over all subsets
    r2_corrected_with_llm: Optional[np.ndarray]   # max over LLM-containing subsets
    r2_corrected_without_llm: Optional[np.ndarray]
    omega: Optional[PartitionResult]
    phi: Optional[PartitionResult]
    submodel_table: dict[frozenset, ParticipantSummary]


def build_comparison_report(subset_scores: Mapping, participants,
                            llm: Optional[str] = None,
                            oasm: Optional[str] = None) -> ComparisonReport:
    """Assemble corrected scores and the omega/phi summaries for one family."""
    table = {_normalize_key(k): np.asarray(v, dtype=np.float64)
             for k, v in subset_scores.items()}
    participants = np.asarray(participants)
    corrected = submodel_max(table)

    with_llm = without_llm = None
    omega_result = phi_result = None
    if llm is not None:
        with_llm = submodel_max(table, required=llm)
        llm_free = {k: v for k, v in table.items() if llm not in k}
        if not llm_free:
            raise DataError("no LLM-free subsets to correct against")
        without_llm = submodel_max(llm_free)
        omega_result = omega(without_llm, with_llm,
                             table[frozenset([llm])], participants)
        if oasm is not None:
            pair_family = {k: v for k, v in table.items()
                           if k <= frozenset([oasm, llm])}
            oasm_llm_star = submodel_max(
                {k: v for k, v in pair_family.items() if llm in k}, required=llm
            )
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
