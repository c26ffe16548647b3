"""Paired model comparisons on squared errors, with within-participant FDR.

The test statistic for units is built from per-sample squared-error
differences ``d_i = (y_i - a_i)^2 - (y_i - b_i)^2`` and tests the one-sided
alternative ``mean(d) < 0`` (model A better) against a Student-t null with
n-1 degrees of freedom. Squared errors from a model are correlated across
samples, which biases this test toward false positives; it is provided as
the standard procedure, not a corrected one.

The Student-t CDF is evaluated here, in numpy, through the regularized
incomplete beta function: for ``x = df / (df + t^2)`` the tail beyond
``|t|`` is ``I_x(df/2, 1/2) / 2``. ``I_x`` comes from Lentz's continued
fraction, taken on ``I_{1-x}(b, a)`` where ``x`` lies past the mean of the
beta distribution, with ``1 - x = t^2 / (df + t^2)`` formed directly.
The normaliser takes ``log(Gamma(a + 1/2) / Gamma(a))`` from its asymptotic
series for large ``a``, where a difference of two ``math.lgamma`` values
would lose the digits of their magnitude, and ``a log x`` as
``-a log1p(t^2 / df)``. For df up to 1e6 it agrees with
``scipy.special.stdtr`` to 1e-11 relative. Importing ``stdtr`` would load
scipy's own BLAS and special-function libraries to evaluate this one CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


def _as_matrix(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    return arr[:, None] if arr.ndim == 1 else arr


_TINY = 1e-300
_TOL = 1e-15  # a few ulp: past convergence the factors wander by that much


def _nonzero(v):
    """Lentz's guard: a denominator of zero becomes a tiny one."""
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _beta_fraction(a, b, x):
    """The continued fraction of ``I_x(a, b)``, elementwise, by Lentz's method;
    it converges fast where ``x < (a + 1) / (a + b + 2)``."""
    c = np.ones_like(x)
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for m in range(1, 10_000):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / _nonzero(1.0 + coef * d)
            c = _nonzero(1.0 + coef / c)
            h = np.where(done, h, h * d * c)
        done |= np.abs(d * c - 1.0) < _TOL
        if done.all():
            return h
    raise RuntimeError("the incomplete beta continued fraction did not converge")


def _log_gamma_ratio(a: float) -> float:
    """``log(Gamma(a + 1/2) / Gamma(a))``, to about 1e-16 relative."""
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    s = 1.0 / (a * a)
    series = 1 / 8 - s * (1 / 192 - s * (1 / 640 - s * 17 / 14336))
    return 0.5 * math.log(a) - series / a


def _student_t_cdf(t, df: int) -> np.ndarray:
    """P(T <= t) for Student-t with ``df`` degrees of freedom, elementwise:
    exactly 0.5 at t = 0 and 0 or 1 at -inf or +inf."""
    t = np.asarray(t, dtype=np.float64)
    tail = np.full(t.shape, np.nan)  # P(T > |t|); stays NaN for NaN t
    tail[t == 0] = 0.5
    tail[np.isinf(t)] = 0.0
    inner = np.isfinite(t) & (t != 0)
    tt = np.square(t[inner])
    x, xc = df / (df + tt), tt / (df + tt)
    a, b = df / 2.0, 0.5
    front = np.exp(-a * np.log1p(tt / df) + b * np.log(xc)
                   + _log_gamma_ratio(a) - math.lgamma(b))
    direct = x < (a + 1.0) / (a + b + 2.0)
    # the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) where x is past the mean
    fraction = _beta_fraction(np.where(direct, a, b), np.where(direct, b, a),
                              np.where(direct, x, xc))
    tail[inner] = 0.5 * np.where(direct, front * fraction / a,
                                 1.0 - front * fraction / b)
    return np.where(t < 0, tail, 1.0 - tail)


def paired_squared_error_ttest(y_true, pred_a, pred_b):
    """Per-unit (t, p) for H1: model A has lower squared error than model B.

    Degenerate difference variance yields p = 0.5 when the differences are
    identically zero and raises otherwise.
    """
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
    p = _student_t_cdf(t, n - 1)  # left tail: small when A is better
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
