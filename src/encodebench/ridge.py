"""Closed-form ridge regression over an alpha grid, banded scaling, and
per-unit hyperparameter search.

Solver notes
------------
Every solve goes through one spectral core, ``_Spectral``: it factors a
centered problem once and filters the spectrum per alpha. One rule,
``_uses_gram``, picks the factorization: an economy SVD of the design X
while X has no more columns than rows, else ``eigh`` of the smaller Gram
matrix K = X X^T, which gives identical predictions through the
push-through identity ``X_ev (X^T X + aI)^-1 X^T Y = K_ev (K + aI)^-1 Y``.
``alpha = 0`` is the pseudo-inverse (minimum-norm least squares) limit,
with numpy's pinv rank cutoff on the matrix factored; on the Gram path it
resolves singular values of X down to about ``sqrt(n * eps) * smax``.
The intercept is never penalized: features and targets are centered on
training rows and the training target mean is added back to predictions.

In the banded search a scaled Gram is the gamma^2-weighted sum of band
Grams. Each split builds every band's train Gram and eval-by-train Gram up
front whenever the bands together are wider than its training set, and then
drops the standardized matrices of any band wider than its training set:
every scaling vector that uses such a band takes the Gram path.

A single-band fit whose rows fall into groups that share no nonzero column
(OASM: one group per block) can take the block path instead. With ``S`` the
training-column std and ``P`` the centering projection, the standardized
train Gram is ``P B P`` with ``B = X_tr S^-2 X_tr^T`` block-diagonal over the
groups. Each split factors ``B`` group by group (one stacked ``eigh`` per
training-row count), solves on the complement of the ones vector,
``x = R Yc - R 1 (1^T R Yc) / (1^T R 1)`` with ``R = (B + aI)^-1``, and
predicts through the block-sparse eval-by-train Gram; it never forms the
standardized matrices or any dense Gram. A split takes the block path only
when ``lambda_min(B) > 2 * lambda_max(B) * n_train * eps``: then the Gram
path's pseudo-inverse keeps every direction but the ones vector, so
``alpha = 0`` means the same on both paths. Any other split, and every
multi-band fit, takes the dense path.

Search notes
------------
Each outer fold is searched and refit on its own, and the outer folds are
the unit of parallel work: ``banded_search(..., threads=n)`` runs up to n of
them at once. When numpy's bundled OpenBLAS is found, it runs on one thread
while a search is in progress, so results do not depend on ``threads`` or on
the machine's core count; otherwise BLAS keeps its own thread count and
results can differ at ulp level between thread counts.

Candidate scaling vectors come first from the subset-mask enumeration (every
way of zeroing out feature spaces), then from Dirichlet draws whose RNG
streams depend only on (seed, iteration index). Per unit, the best (gamma,
alpha) by pooled inner-validation R^2 wins; strict improvement is required,
so earlier candidates and smaller alphas win ties. The random phase stops
early once the across-unit mean of running-best validation scores fails to
improve by more than ``min_improvement`` for ``patience`` consecutive
iterations.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .errors import DataError, check_int
from .features import FeatureSpace, zscore_fit_apply
from .matrixio import save_matrix, write_json
from .splits import SplitPlan

_RCOND = np.finfo(np.float64).eps
_DIRICHLET_CONCENTRATION = 1.0  # uniform draws over the scaling simplex


def default_alpha_grid() -> tuple[float, ...]:
    """{0} plus 40 exponentially spaced penalties from 2^-5 to 2^34."""
    exponents = np.linspace(-5.0, 34.0, 40)
    return (0.0,) + tuple(float(2.0 ** e) for e in exponents)


@dataclass(frozen=True)
class RidgeConfig:
    alphas: tuple[float, ...] = field(default_factory=default_alpha_grid)

    def __post_init__(self):
        if not all(isinstance(a, numbers.Real) and not isinstance(a, bool)
                   for a in self.alphas):
            raise DataError(f"alpha grid must hold numbers, got {self.alphas!r}")
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas or alphas[0] != 0.0:
            raise DataError("alpha grid must start at 0")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise DataError("alpha grid must be strictly ascending")
        object.__setattr__(self, "alphas", alphas)


@dataclass(frozen=True)
class BandedSearchConfig:
    max_iters: int = 1000
    patience: int = 50
    min_improvement: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_int("search max_iters", self.max_iters, 1)
        check_int("search patience", self.patience, 1)
        check_int("search seed", self.seed, 0)
        if self.max_iters < self.patience:
            raise DataError("search max_iters must be >= patience")
        if not self.min_improvement > 0:
            raise DataError("min_improvement must be > 0")


def _check_finite(name, arr):
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite values")


@functools.lru_cache(maxsize=None)
def _openblas():
    """(set, get) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


def fit_blas_threads() -> Optional[int]:
    """OpenBLAS threads while a search runs: 1, or None if it cannot be pinned."""
    return None if _openblas() is None else 1


_pin_lock = threading.Lock()
_pin = {"depth": 0, "saved": None}


@contextlib.contextmanager
def _blas_pinned():
    """OpenBLAS on one thread inside the block. The count is process-global,
    so overlapping blocks share one pin and the last to leave restores the
    count found by the first, also when the block raises."""
    blas = _openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    with _pin_lock:
        if _pin["depth"] == 0:
            _pin["saved"] = get_threads()
            set_threads(1)
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["depth"] -= 1
            if _pin["depth"] == 0:
                set_threads(_pin["saved"])


def _map_ordered(fn, items, threads):
    """``[fn(item) for item in items]``, run on up to ``threads`` threads."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _uses_gram(n_dims: int, n_rows: int) -> bool:
    """The solver-path rule: factor the Gram once the design is wider than tall."""
    return n_dims > n_rows


class _Spectral:
    """One factorization of a centered ridge problem, from its design (eval
    rows are design rows) or its Gram (eval rows are eval-by-train Gram rows)."""

    def __init__(self, Yc, design=None, gram=None):
        self.design = None
        if gram is None and _uses_gram(design.shape[1], design.shape[0]):
            self.design, gram = design, design @ design.T
        if gram is None:
            U, s, Vt = np.linalg.svd(design, full_matrices=False)
            self.spectrum, self.numerator, self.denominator = s, s, s ** 2
            factored = design
            self.right = Vt.T
        else:
            lam, U = np.linalg.eigh(gram)
            lam = np.maximum(lam, 0.0)
            self.spectrum, self.numerator, self.denominator = lam, 1.0, lam
            factored = gram
            self.right = U
        # numpy's pinv rule, applied to the matrix actually factored
        self.cutoff = self.spectrum.max(initial=0.0) * max(factored.shape) * _RCOND
        self.UTY = U.T @ Yc

    def filter(self, alphas) -> np.ndarray:
        """(n_alphas, rank) filter factors; ``alpha = 0`` is the pseudo-inverse."""
        D = np.empty((len(alphas), self.spectrum.size))
        for i, a in enumerate(alphas):
            if a == 0.0:
                keep = self.spectrum > self.cutoff
                D[i] = np.where(keep, 1.0 / np.where(keep, self.spectrum, 1.0), 0.0)
            else:
                D[i] = self.numerator / (self.denominator + a)
        return D

    def predict(self, eval_side, alphas) -> np.ndarray:
        """Centered predictions per alpha: (n_alphas, n_eval, n_units)."""
        if self.design is not None:
            eval_side = eval_side @ self.design.T
        G = eval_side @ self.right
        scaled = G[None, :, :] * self.filter(alphas)[:, None, :]
        preds = scaled.reshape(-1, self.spectrum.size) @ self.UTY
        return preds.reshape(len(alphas), G.shape[0], self.UTY.shape[1])


class _BlockSpectral(_Spectral):
    """The Gram path of one split of a single band, factored block by block
    (``_factor_blocks``): eigenpairs of ``B = X_tr S^-2 X_tr^T`` in which
    every centered solve happens (see the module notes)."""

    def __init__(self, spectrum, ones, UTY, F, T):
        self.spectrum, self.numerator, self.denominator = spectrum, 1.0, spectrum
        self.cutoff = spectrum.max() * spectrum.size * _RCOND  # the Gram rule
        self.n = spectrum.size
        self.ones = ones  # U^T 1
        self.UTY = UTY
        self.F, self.T = F, T  # eval-by-train Gram times U, and its columns

    def predict(self, alphas, units=slice(None)) -> np.ndarray:
        """Centered predictions per alpha: (n_alphas, n_eval, n_units)."""
        UTY = self.UTY[:, units]
        D = self.filter(alphas)
        Du = D * self.ones                                  # R 1
        c = (Du @ UTY) / (Du @ self.ones)[:, None]          # 1^T R Yc / 1^T R 1
        # x = R Yc - R 1 c is predicted as E x - 1 (1^T B x) / n
        Bx = ((Du * self.spectrum) @ UTY
              - (Du @ (self.spectrum * self.ones))[:, None] * c)
        preds = np.matmul(D.T[self.T].transpose(0, 2, 1) * self.F[:, None, :],
                          UTY[self.T])                      # E R Yc, eval-major
        preds -= (Du.T[self.T] * self.F[:, :, None]).sum(axis=1)[:, :, None] * c
        preds -= Bx / self.n
        return preds.transpose(1, 0, 2)


def _factor_blocks(X, blocks, train_idx, eval_idx, Yc):
    """One split's ``_BlockSpectral``, or None when it fails the rank check.
    Groups with equal training-row counts share one stacked ``eigh``."""
    n = len(train_idx)
    k_of = np.bincount(blocks.group[train_idx], minlength=blocks.n_groups)
    if (k_of > blocks.n_cols).any():
        return None  # a group with more training rows than columns is singular
    tr_order, tr_start = _group_order(blocks.group[train_idx], k_of)
    g_ev = blocks.group[eval_idx]
    ev_count = np.bincount(g_ev, minlength=blocks.n_groups)
    ev_order, ev_start = _group_order(g_ev, ev_count)
    spectrum, ones = np.empty(n), np.empty(n)
    UTY = np.empty((n, Yc.shape[1]))
    width = k_of[g_ev].max(initial=0)
    F = np.zeros((len(eval_idx), width))
    T = np.zeros((len(eval_idx), width), dtype=np.intp)
    for k in np.unique(k_of[k_of > 0]):
        gs = np.flatnonzero(k_of == k)
        slots = tr_start[gs][:, None] + np.arange(k)  # eigen-coordinates
        cols, mask = blocks.columns(gs)
        rows = train_idx[tr_order[slots]]
        Xtr = X[rows[:, :, None], cols[:, None, :]] * mask[:, None, :]
        mean = Xtr.sum(axis=1) / n  # the other training rows are 0 here
        var = (((Xtr - mean[:, None, :]) ** 2).sum(axis=1)
               + (n - k) * mean ** 2) / n
        std = np.sqrt(var)
        scale = np.divide(1.0, std, out=np.zeros_like(std), where=std > 0)
        A = Xtr * scale[:, None, :]
        lam, U = np.linalg.eigh(A @ A.transpose(0, 2, 1))
        if not _passes_check(lam, n):
            return None  # then so does the whole spectrum
        spectrum[slots] = lam
        ones[slots] = U.sum(axis=1)
        UTY[slots] = U.transpose(0, 2, 1) @ Yc[tr_order[slots]]
        n_ev = ev_count[gs].max()
        if n_ev == 0:
            continue
        at = np.minimum(ev_start[gs][:, None] + np.arange(n_ev),
                        len(eval_idx) - 1)
        valid = np.arange(n_ev) < ev_count[gs][:, None]
        Xev = (X[eval_idx[ev_order[at]][:, :, None], cols[:, None, :]]
               * (valid[:, :, None] * mask[:, None, :]))
        FU = (Xev * scale[:, None, :]) @ (A.transpose(0, 2, 1) @ U)
        rows_ev = ev_order[at][valid]
        F[rows_ev, :k] = FU[valid]
        T[rows_ev, :k] = np.broadcast_to(slots[:, None, :], FU.shape)[valid]
    if not _passes_check(spectrum, n):
        return None
    return _BlockSpectral(spectrum, ones, UTY, F, T)


def _passes_check(spectrum, n_train) -> bool:
    """The block path's rank check: every eigenvalue of B clears the Gram
    path's pseudo-inverse cutoff twice over."""
    return bool(spectrum.min() > 2.0 * spectrum.max() * n_train * _RCOND)


def _group_order(groups, counts):
    """Positions sorted by group, and where each group starts among them."""
    return np.argsort(groups, kind="stable"), np.cumsum(counts) - counts


@dataclass
class _Blocks:
    """Row groups of a band that share no nonzero column between groups."""

    group: np.ndarray     # group per row
    n_cols: np.ndarray    # nonzero columns per group
    cols: np.ndarray      # those columns, group by group
    col_start: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.n_cols.size

    def columns(self, gs):
        """(len(gs), widest) column indices of groups ``gs``, each with at
        least one column, and a mask of the real ones (padding repeats a
        real column)."""
        width = self.n_cols[gs].max()
        at = self.col_start[gs][:, None] + np.arange(width)
        mask = np.arange(width) < self.n_cols[gs][:, None]
        return self.cols[np.minimum(at, self.cols.size - 1)], mask


def _band_blocks(X) -> Optional[_Blocks]:
    """The groups of rows of X that share no nonzero column, found one group
    at a time by breadth-first search over the nonzero pattern; None when
    all rows form one group."""
    nz = np.asarray(X) != 0
    n, p = nz.shape
    group = np.full(n, -1)
    col_group = np.full(p, -1)
    n_groups = 0
    for first in range(n):
        if group[first] >= 0:
            continue
        rows = np.array([first])
        group[first] = n_groups
        while rows.size:
            cols = np.flatnonzero(nz[rows].any(axis=0) & (col_group < 0))
            col_group[cols] = n_groups
            rows = np.flatnonzero(nz[:, cols].any(axis=1) & (group < 0))
            group[rows] = n_groups
        n_groups += 1
        if n_groups == 1 and group.min() >= 0:
            return None
    used = np.flatnonzero(col_group >= 0)
    n_cols = np.bincount(col_group[used], minlength=n_groups)
    order, start = _group_order(col_group[used], n_cols)
    return _Blocks(group, n_cols, used[order], start)


def ridge_solve(X_train, Y_train, X_eval, alphas) -> np.ndarray:
    """Predict X_eval for every alpha; returns (n_alphas, n_eval, n_units).

    A 1-D target collapses the unit axis: the result is (n_alphas, n_eval).
    """
    X = np.asarray(X_train, dtype=np.float64)
    Y = np.asarray(Y_train, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2:
        raise DataError("X_train must be 2-D")
    if X.shape[0] != Y.shape[0]:
        raise DataError("X_train and Y_train row counts differ")
    if X.shape[0] < 2:
        raise DataError("need at least 2 training rows")
    _check_finite("X_train", X)
    _check_finite("Y_train", Y)
    alphas = [float(a) for a in alphas]
    if any(a < 0 for a in alphas):
        raise DataError("alphas must be non-negative")
    Xe = np.asarray(X_eval, dtype=np.float64)
    if Xe.ndim != 2 or Xe.shape[1] != X.shape[1]:
        raise DataError("X_train and X_eval must be 2-D with equal column counts")
    _check_finite("X_eval", Xe)
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    preds = _Spectral(Y - y_mean, design=X - x_mean).predict(Xe - x_mean, alphas)
    preds += y_mean
    return preds[:, :, 0] if np.ndim(Y_train) == 1 else preds


def group_bands(spaces: Sequence[FeatureSpace]):
    """Concatenate feature spaces sharing a band_group, in first-seen order."""
    if not spaces:
        raise DataError("need at least one feature space")
    n = spaces[0].n_samples
    order: list[str] = []
    members: dict[str, list[np.ndarray]] = {}
    for fs in spaces:
        if fs.n_samples != n:
            raise DataError(
                f"feature space {fs.name!r} has {fs.n_samples} rows, expected {n}"
            )
        if fs.band_group not in members:
            order.append(fs.band_group)
            members[fs.band_group] = []
        members[fs.band_group].append(fs.data)
    mats = [np.hstack(members[g]) if len(members[g]) > 1 else members[g][0]
            for g in order]
    return order, mats


def enumerate_masks(n_bands: int) -> list[np.ndarray]:
    """Uniform sub-simplex vectors for every nonempty band subset.

    Ordered by subset size then lexicographically; the full set comes last.
    """
    if not 1 <= n_bands <= 16:
        raise DataError("n_bands must be between 1 and 16")
    masks = []
    for subset in metrics.subsets(range(n_bands)):
        gamma = np.zeros(n_bands)
        gamma[list(subset)] = 1.0 / len(subset)
        masks.append(gamma)
    return masks


@dataclass
class FitResult:
    band_names: list[str]
    alphas: tuple[float, ...]
    test_predictions: np.ndarray       # samples x units, pooled over outer folds
    intercept_predictions: np.ndarray  # samples x units, per-fold training means
    chosen_gamma: np.ndarray           # outer folds x units x bands
    chosen_alpha: np.ndarray           # outer folds x units
    validation_r2: np.ndarray          # outer folds x units (best per unit)
    n_random_iterations: list[int]
    early_stopped: list[bool]
    solver_paths: dict                 # factorizations per solver path

    def test_r2(self, responses) -> np.ndarray:
        Y = np.asarray(responses, dtype=np.float64)
        return metrics.r2_oos(Y, self.test_predictions, self.intercept_predictions)

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_matrix(out / "test_predictions.bbsm", self.test_predictions)
        save_matrix(out / "intercept_predictions.bbsm", self.intercept_predictions)
        doc = {
            "band_names": self.band_names,
            "alphas": list(self.alphas),
            "chosen_gamma": self.chosen_gamma.tolist(),
            "chosen_alpha": self.chosen_alpha.tolist(),
            "validation_r2": self.validation_r2.tolist(),
            "n_random_iterations": self.n_random_iterations,
            "early_stopped": self.early_stopped,
        }
        write_json(out / "fit.json", doc)


class _FoldData:
    """One train/eval split: the block factorization of a single band that
    passes its check, else standardized per-band matrices and, whenever some
    scaling vector can take the Gram path, band Grams. A band wider than the
    training set keeps only its Grams. ``paths`` counts factorizations."""

    def __init__(self, band_mats, Y, train_idx, eval_idx, blocks=None):
        self.eval_idx = eval_idx
        self.n_train = len(train_idx)
        self.widths = [X.shape[1] for X in band_mats]
        self.y_mean = Y[train_idx].mean(axis=0)
        self.Yc = Y[train_idx] - self.y_mean
        self.paths = collections.Counter()
        self.block = None
        if blocks is not None:
            self.block = _factor_blocks(band_mats[0], blocks, train_idx,
                                        eval_idx, self.Yc)
        if self.block is not None:
            self.paths["block"] += 1
            return
        self.Ztr = []
        self.Zev = []
        for X in band_mats:
            ztr, (zev,), _, _ = zscore_fit_apply(X[train_idx], [X[eval_idx]])
            self.Ztr.append(ztr)
            self.Zev.append(zev)
        self.grams = self.cross = None
        if _uses_gram(sum(self.widths), self.n_train):
            self.grams = [Z @ Z.T for Z in self.Ztr]
            self.cross = [Ze @ Z.T for Z, Ze in zip(self.Ztr, self.Zev)]
            for b, width in enumerate(self.widths):
                if _uses_gram(width, self.n_train):
                    self.Ztr[b] = self.Zev[b] = None

    def predict_grid(self, gamma, alphas, unit_slice=None):
        """(n_alphas, n_eval, n_units) predictions for one scaling vector."""
        units = slice(None) if unit_slice is None else unit_slice
        if self.block is not None:
            # scaling the band by g is the same as dividing alpha by g^2
            g2 = gamma[0] ** 2
            preds = self.block.predict([a / g2 for a in alphas], units)
            return preds + self.y_mean[units]
        Yc = self.Yc[:, units]
        active = np.flatnonzero(np.asarray(gamma) > 0)
        dims = sum(self.widths[b] for b in active)
        if _uses_gram(dims, self.n_train):
            self.paths["gram"] += 1
            K = np.zeros((self.n_train, self.n_train))
            C = np.zeros((len(self.eval_idx), self.n_train))
            for b in active:
                g2 = gamma[b] ** 2
                K += g2 * self.grams[b]
                C += g2 * self.cross[b]
            preds = _Spectral(Yc, gram=K).predict(C, alphas)
        else:
            self.paths["design"] += 1
            Xtr = np.hstack([gamma[b] * self.Ztr[b] for b in active])
            Xev = np.hstack([gamma[b] * self.Zev[b] for b in active])
            preds = _Spectral(Yc, design=Xtr).predict(Xev, alphas)
        return preds + self.y_mean[units]


def _random_gamma(seed: int, iteration: int, n_bands: int) -> np.ndarray:
    rng = np.random.default_rng((seed, iteration))
    return rng.dirichlet(np.full(n_bands, _DIRICHLET_CONCENTRATION))


def _as_response_matrix(responses) -> np.ndarray:
    Y = getattr(responses, "responses", responses)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise DataError("responses must be a samples x units matrix")
    _check_finite("responses", Y)
    return Y


def _fit_outer_fold(fold, band_mats, Y, alphas, search_cfg, blocks=None):
    """Search (gamma, alpha) per unit on one outer fold's inner folds, then
    refit each unit's winner on train+validation and predict the test rows.

    Returns the fold's rows of the result: (test predictions, training
    target means, chosen gamma, chosen alpha, best validation R^2, random
    iterations, early stopped, factorizations per solver path).
    """
    n_units = Y.shape[1]
    inner = [_FoldData(band_mats, Y, f.train, f.validation, blocks)
             for f in fold.inner_folds]
    y_val = Y[np.concatenate([f.eval_idx for f in inner])]
    icpt_val = np.concatenate(
        [np.broadcast_to(f.y_mean, (len(f.eval_idx), n_units)) for f in inner]
    )
    mse_icpt = ((y_val - icpt_val) ** 2).mean(axis=0)
    if (mse_icpt == 0).any():
        bad = np.flatnonzero(mse_icpt == 0).tolist()
        raise DataError(f"constant validation target for units {bad}")

    best_score = np.full(n_units, -np.inf)
    best_cand = np.zeros(n_units, dtype=np.int64)
    best_alpha_idx = np.zeros(n_units, dtype=np.int64)
    candidates: list[np.ndarray] = []
    pooled = np.empty((len(alphas), len(y_val), n_units))
    bounds = np.cumsum([0] + [len(f.eval_idx) for f in inner])

    def try_candidate(gamma):
        for f, lo, hi in zip(inner, bounds, bounds[1:]):
            pooled[:, lo:hi] = f.predict_grid(gamma, alphas)
        np.subtract(pooled, y_val, out=pooled)
        mse = np.square(pooled, out=pooled).mean(axis=1)
        r2 = 1.0 - mse / mse_icpt[None, :]
        alpha_idx = np.argmax(r2, axis=0)  # first max -> smallest alpha
        scores = r2[alpha_idx, np.arange(n_units)]
        improved = scores > best_score  # strict: earlier candidates win ties
        best_score[improved] = scores[improved]
        best_cand[improved] = len(candidates)
        best_alpha_idx[improved] = alpha_idx[improved]
        candidates.append(gamma)

    n_bands = len(band_mats)
    for gamma in enumerate_masks(n_bands):
        try_candidate(gamma)

    i = 0
    stopped = False
    if n_bands > 1:
        prev_mean = best_score.mean()
        stall = 0
        while i < search_cfg.max_iters and not stopped:
            try_candidate(_random_gamma(search_cfg.seed, i, n_bands))
            i += 1
            cur_mean = best_score.mean()
            gain = cur_mean - prev_mean
            prev_mean = cur_mean
            stall = stall + 1 if gain < search_cfg.min_improvement else 0
            stopped = stall >= search_cfg.patience

    trval = np.setdiff1d(np.arange(Y.shape[0]), fold.test)
    refit = _FoldData(band_mats, Y, trval, fold.test, blocks)
    test_pred = np.zeros((len(fold.test), n_units))
    for cand_id in np.unique(best_cand):
        units = np.flatnonzero(best_cand == cand_id)
        unit_alpha_idx = best_alpha_idx[units]
        uniq = np.unique(unit_alpha_idx)
        preds = refit.predict_grid(candidates[cand_id], [alphas[a] for a in uniq],
                                   unit_slice=units)
        for pos, ai in enumerate(uniq):
            sel = unit_alpha_idx == ai
            test_pred[:, units[sel]] = preds[pos][:, sel]
    chosen_gamma = np.stack([candidates[c] for c in best_cand])
    chosen_alpha = np.asarray(alphas)[best_alpha_idx]
    paths = sum((f.paths for f in inner), refit.paths)
    return (test_pred, refit.y_mean, chosen_gamma, chosen_alpha, best_score,
            i, stopped, paths)


def banded_search(features: Sequence[FeatureSpace], responses, plan: SplitPlan,
                  ridge_cfg: Optional[RidgeConfig] = None,
                  search_cfg: Optional[BandedSearchConfig] = None,
                  threads: int = 1) -> FitResult:
    """Nested-CV banded ridge fit with per-unit hyperparameter selection.

    Up to ``threads`` outer folds are fitted at once; while BLAS is pinned
    (``fit_blas_threads() == 1``) the result does not depend on it. A single
    band is searched for row groups once, for the block path.
    """
    check_int("threads", threads, 1)
    ridge_cfg = ridge_cfg or RidgeConfig()
    search_cfg = search_cfg or BandedSearchConfig()
    Y = _as_response_matrix(responses)
    band_names, band_mats = group_bands(list(features))
    if band_mats[0].shape[0] != Y.shape[0]:
        raise DataError("feature and response row counts differ")
    if not plan.outer_folds:
        raise DataError("the split plan has no outer folds")

    blocks = _band_blocks(band_mats[0]) if len(band_mats) == 1 else None

    def fit_fold(fold):
        return _fit_outer_fold(fold, band_mats, Y, ridge_cfg.alphas, search_cfg,
                               blocks)

    with _blas_pinned():
        folds = _map_ordered(fit_fold, plan.outer_folds, threads)
    (preds, means, gammas, chosen_alpha, scores, n_random, stopped,
     paths) = zip(*folds)
    paths = sum(paths, collections.Counter())
    test_pred = np.zeros(Y.shape)
    intercept_pred = np.zeros(Y.shape)
    for fold, pred, mean in zip(plan.outer_folds, preds, means):
        test_pred[fold.test] = pred
        intercept_pred[fold.test] = mean
    return FitResult(
        band_names=band_names,
        alphas=ridge_cfg.alphas,
        test_predictions=test_pred,
        intercept_predictions=intercept_pred,
        chosen_gamma=np.stack(gammas),
        chosen_alpha=np.stack(chosen_alpha),
        validation_r2=np.stack(scores),
        n_random_iterations=list(n_random),
        early_stopped=list(stopped),
        solver_paths={path: paths[path] for path in ("block", "gram", "design")},
    )
