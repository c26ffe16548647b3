"""Paired model comparisons on squared errors, with within-participant FDR.

The test statistic for units is built from per-sample squared-error
differences ``d_i = (y_i - a_i)^2 - (y_i - b_i)^2`` and tests the one-sided
alternative ``mean(d) < 0`` (model A better) against a Student-t null with
n-1 degrees of freedom. Squared errors from a model are correlated across
samples, which biases this test toward false positives; it is provided as
the standard procedure, not a corrected one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


def _as_matrix(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    return arr[:, None] if arr.ndim == 1 else arr


def paired_squared_error_ttest(y_true, pred_a, pred_b):
    """Per-unit (t, p) for H1: model A has lower squared error than model B.

    Degenerate difference variance yields p = 0.5 when the differences are
    identically zero and raises otherwise.
    """
    # imported here: it is slow to load, and most commands run no t-test
    from scipy.special import stdtr

    yt = _as_matrix(y_true)
    pa = _as_matrix(pred_a)
    pb = _as_matrix(pred_b)
    if not (yt.shape == pa.shape == pb.shape):
        raise DataError(f"shape mismatch: {yt.shape}, {pa.shape}, {pb.shape}")
    n = yt.shape[0]
    if n < 3:
        raise DataError("need at least 3 samples for a paired t-test")
    d = (yt - pa) ** 2 - (yt - pb) ** 2
    mean = d.mean(axis=0)
    sd = d.std(axis=0, ddof=1)
    zero_var = sd == 0
    if zero_var.any():
        if (mean[zero_var] != 0).any():
            bad = np.flatnonzero(zero_var & (mean != 0)).tolist()
            raise DataError(f"degenerate difference variance for units {bad}")
    t = np.zeros(yt.shape[1])
    nz = ~zero_var
    t[nz] = mean[nz] / (sd[nz] / np.sqrt(n))
    p = stdtr(n - 1, t)  # left tail: small when A is better
    p[zero_var] = 0.5
    return t, p


def bh_fdr(p_values, participant_ids, level: float = 0.05) -> np.ndarray:
    """Benjamini-Hochberg step-up, applied separately within each participant.

    Ties in p sort stably by unit index. Returns a boolean rejection mask
    aligned with the input order.
    """
    p = np.asarray(p_values, dtype=np.float64)
    participants = np.asarray(participant_ids)
    if p.shape != participants.shape:
        raise DataError("p-values and participant ids must align")
    if ((p < 0) | (p > 1)).any():
        raise DataError("p-values must lie in [0, 1]")
    rejected = np.zeros(p.shape, dtype=bool)
    for pid in np.unique(participants):
        idx = np.flatnonzero(participants == pid)
        order = idx[np.argsort(p[idx], kind="stable")]
        m = order.size
        thresholds = (np.arange(1, m + 1) / m) * level
        passing = np.flatnonzero(p[order] <= thresholds)
        if passing.size:
            k = passing[-1] + 1
            rejected[order[:k]] = True
    return rejected


@dataclass
class TestResult:
    t: np.ndarray
    p: np.ndarray
    rejected: np.ndarray
    level: float


def chance_level_test(y_true, pred_model, intercept_preds, participant_ids,
                      level: float = 0.05) -> TestResult:
    """Per unit, does the model beat the baseline model? The baseline is the
    per-fold training means for a chance-level test, or any other model."""
    t, p = paired_squared_error_ttest(y_true, pred_model, intercept_preds)
    return TestResult(t, p, bh_fdr(p, participant_ids, level), level)
