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

The update path replaces that when exactly one band is wider than the
training set and the other, narrow bands have r columns in all with
``8 r <= n`` (``_uses_update``; past that a dense ``eigh`` of the n x n
mixed Gram is cheaper than the rank-r terms per eval row). Each split
factors the wide band's Gram once, ``K_w = U diag(lam) U^T``, and keeps
``U^T Yc``, ``U^T W`` (``W`` the standardized narrow columns, n x r), the
narrow eval rows and ``K_w,ev U``. A scaling vector that uses the wide band
then needs no factorization: with ``W' = W diag(gamma_n)`` the mixed Gram is
``A + W' W'^T``, ``A = gamma_w^2 K_w + aI`` is diagonal in U, and by
Woodbury with ``S = I + W'^T A^-1 W'`` and ``x = S^-1 W'^T A^-1 Yc`` the
predictions are ``gamma_w^2 K_w,ev A^-1 (Yc - W' x) + W'_ev x``: per eval
set one GEMM of ``gamma_w^2 K_w,ev U`` scaled per alpha against ``U^T Yc``
and ``U^T W'``, then r columns of correction; per alpha an r x r ``S``.
Eigenvalues of ``K_w`` at or below its Gram cutoff are taken as exact zeros
for every alpha, so their columns of ``K_w,ev U`` vanish and only the
r x r Gram terms of ``W^T U`` there enter ``S`` (with ``A^-1 = 1/a``).
``alpha = 0`` is the limit ``alpha -> 0+``: where the narrow columns' weight
``M`` on those directions clears the cutoff, it constrains ``M x`` to the
targets' part there, and ``x`` minimizes the kept-direction problem under
that constraint; without such weight (always so on the ones vector, as the
columns are centered) ``x`` is the kept-direction solve. Narrow-only scaling
vectors keep the design path, and two or more wide bands keep the dense
Gram.

A single-band fit whose rows fall into groups that share no nonzero column
(OASM: one group per block) takes the block path instead on every split, or
on none if a group has more rows than columns (a narrow one-hot band, cheaper
on the design path). With ``S`` the training-column std and ``P`` the
centering projection, the standardized train Gram is ``P B P`` with
``B = X_tr S^-2 X_tr^T`` block-diagonal over the groups. Each split
factors ``B`` group by group (one stacked ``eigh`` per training-row count),
solves on the complement of the ones vector, ``x = R Yc - R 1 c`` with
``R = (B + aI)^-1`` and ``c = 1^T R Yc / 1^T R 1``, and predicts through the
block-sparse eval-by-train Gram; it never forms the standardized matrices
or any dense Gram. ``alpha = 0`` is the limit ``alpha -> 0+``, eigenvalues
of ``B`` at or below the Gram cutoff taken as exact zeros: if the ones
vector has weight ``w`` on them, ``c = w^T (U^T Yc)_dropped / w^T w``. That
is the dense path's minimum-norm solution in exact arithmetic; ``w`` counts
only when ``w^T w / 1^T R 1``, the eigenvalue it adds to ``P B P``, clears
the cutoff too. On a numerically singular split ``alpha = 0`` is dominated
by rounding on either path.

Search notes
------------
Inner fold (test i, validation j) trains on the same rows as inner fold
(test j, validation i), so a training set serves two outer folds. The outer
folds step through one candidate sequence together. At each step every
distinct training set that an unstopped outer fold uses is one task, the
unit of parallel work (``threads=n`` runs up to n at once): it is factored
once and predicts each of its inner folds' validation rows with the array
shapes of a split of its own. Multi-band fits keep a set's training side
while a fold uses it. When numpy's bundled OpenBLAS is found, it runs on one
thread during a search, so results do not depend on ``threads`` or on the
core count; otherwise they can differ at ulp level.

Candidate scaling vectors come first from the subset-mask enumeration (every
way of zeroing out feature spaces), then from Dirichlet draws whose RNG
streams depend only on (seed, iteration index). Per unit, the best (gamma,
alpha) by inner-validation R^2 wins, with squared residuals summed per inner
fold and added in inner-fold order; strict improvement is required, so
earlier candidates and smaller alphas win ties. An outer fold stops its
random phase once the across-unit mean of its running-best scores fails to
improve by more than ``min_improvement`` for ``patience`` consecutive
iterations.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .errors import DataError, check_int, check_real
from .features import FeatureSpace, zscore_fit_apply
from .matrixio import save_matrix, write_json
from .splits import SplitPlan

_RCOND = np.finfo(np.float64).eps
_DIRICHLET_CONCENTRATION = 1.0  # uniform draws over the scaling simplex
_UPDATE_RATIO = 8  # training rows per narrow column at the update crossover


def default_alpha_grid() -> tuple[float, ...]:
    """{0} plus 40 exponentially spaced penalties from 2^-5 to 2^34."""
    exponents = np.linspace(-5.0, 34.0, 40)
    return (0.0,) + tuple(float(2.0 ** e) for e in exponents)


@dataclass(frozen=True)
class RidgeConfig:
    alphas: tuple[float, ...] = field(default_factory=default_alpha_grid)

    def __post_init__(self):
        for a in self.alphas:
            check_real("alpha grid entry", a)
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
        check_real("search min_improvement", self.min_improvement)
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


def _uses_gram(n_dims: int, n_rows: int) -> bool:
    """The solver-path rule: factor the Gram once the design is wider than tall."""
    return n_dims > n_rows


def _uses_update(narrow_dims: int, n_rows: int) -> bool:
    """The update path's crossover: beside one wide band, narrow bands of
    ``narrow_dims`` columns in all are cheaper to fold in per candidate by a
    rank-``narrow_dims`` update than by a dense ``eigh`` of the mixed Gram."""
    return 0 < _UPDATE_RATIO * narrow_dims <= n_rows


class _Spectral:
    """One factorization of a centered ridge problem, from its design (eval
    rows are design rows) or its Gram (eval rows are eval-by-train Gram rows)."""

    def __init__(self, Yc, design=None, gram=None):
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
        alphas = np.asarray(alphas, dtype=np.float64)
        D = np.empty((alphas.size, self.spectrum.size))
        pos = alphas > 0.0
        D[pos] = self.numerator / (self.denominator + alphas[pos, None])
        keep = self.spectrum > self.cutoff
        D[~pos] = np.where(keep, 1.0 / np.where(keep, self.spectrum, 1.0), 0.0)
        return D

    def predict(self, eval_sides, alphas, scratch):
        """Centered predictions per alpha, (n_alphas, n_eval, n_units), for
        each eval side in turn, from one filter: each a view into ``scratch``
        that the next one overwrites."""
        D = self.filter(alphas)
        rank, n_units = self.spectrum.size, self.UTY.shape[1]
        for eval_side in eval_sides:
            G = eval_side @ self.right
            scaled = scratch.take("scaled", (len(D), len(G), rank))
            np.multiply(G[None, :, :], D[:, None, :], out=scaled)
            preds = scratch.take("preds", (len(D) * len(G), n_units))
            np.matmul(scaled.reshape(-1, rank), self.UTY, out=preds)
            yield preds.reshape(len(D), len(G), n_units)


class _Update(_Spectral):
    """The update path of one training set (see the module notes): the wide
    band's Gram ``K_w = U diag(lam) U^T``, factored once. On the directions
    whose eigenvalue clears the cutoff it keeps the spectrum, ``U^T Yc``,
    ``U^T W`` (``W`` the narrow bands' standardized columns) and, per eval
    set, ``K_w,ev U``; on the others, exact zeros of ``K_w``, it keeps
    ``U^T [Yc | W]`` and the Gram terms of its ``W`` part."""

    def __init__(self, Yc, narrow, gram, cross, narrow_evs):
        super().__init__(np.hstack([Yc, narrow]), gram=gram)
        keep = self.spectrum > self.cutoff
        self.G = [C @ self.right[:, keep] for C in cross]
        self.right = None  # the eval sides above were all it served
        self.spectrum = self.denominator = self.spectrum[keep]
        n_units = Yc.shape[1]
        self.null_Y = self.UTY[~keep, :n_units]
        self.null_W = self.UTY[~keep, n_units:]
        self.null_WW = self.null_W.T @ self.null_W
        self.null_WY = self.null_W.T @ self.null_Y
        self.UTW = self.UTY[keep, n_units:]
        self.UTY = self.UTY[keep, :n_units]
        self.narrow_evs = narrow_evs

    def _null_weight(self, active):
        """``(B, y)`` for the limit ``alpha -> 0+``: the active narrow
        columns' weight on the dropped directions, and the targets', in an
        orthonormal basis of the part those columns span that clears the
        cutoff."""
        M = self.null_W * active
        if np.square(M).sum() <= self.cutoff:  # no singular value clears it
            return M[:0], self.null_Y[:0]
        Q, sv, _ = np.linalg.svd(M, full_matrices=False)
        Q = Q[:, sv ** 2 > self.cutoff]
        return Q.T @ self.null_W, Q.T @ self.null_Y

    def predict(self, gamma_w, gamma_n, alphas, evals, scratch, units):
        """Centered predictions per alpha for wide-band scale ``gamma_w`` and
        narrow-column scales ``gamma_n``, yielded as ``_Spectral.predict``
        yields them."""
        alphas = np.asarray(alphas, dtype=np.float64)
        D = self.filter(alphas / gamma_w ** 2)     # gamma_w^2 A^-1, kept
        Y_hat, W_hat = self.UTY[:, units], self.UTW * gamma_n
        AW = W_hat.T[None, :, :] * (D / gamma_w ** 2)[:, None, :]  # W'^T A^-1
        S, V = AW @ W_hat, AW @ Y_hat
        # A^-1 is 1/alpha on the dropped directions
        pos = np.flatnonzero(alphas > 0.0)
        inv = 1.0 / alphas[pos, None, None]
        S[pos] += inv * (gamma_n[:, None] * self.null_WW * gamma_n)
        V[pos] += inv * (gamma_n[:, None] * self.null_WY[:, units])
        S[:, np.arange(len(gamma_n)), np.arange(len(gamma_n))] += 1.0
        # S_a^-1 V_a per alpha; S_a is r x r, V_a has a column per unit
        x = np.linalg.inv(S) @ V
        B, y0 = self._null_weight(gamma_n > 0)
        B, y0 = B * gamma_n, y0[:, units]
        if len(B):
            for a in np.flatnonzero(alphas == 0.0):
                SB = np.linalg.solve(S[a], B.T)
                x[a] += SB @ np.linalg.solve(B @ SB, y0 - B @ x[a])
        n_alphas, rank, n_units = len(D), D.shape[1], Y_hat.shape[1]
        for e in evals:
            G = self.G[e]
            scaled = scratch.take("scaled", (n_alphas, len(G), rank))
            np.multiply(G[None, :, :], D[:, None, :], out=scaled)
            scaled = scaled.reshape(-1, rank)       # gamma_w^2 K_w,ev U A^-1
            preds = scratch.take("preds", (n_alphas * len(G), n_units))
            np.matmul(scaled, Y_hat, out=preds)
            rest = scratch.take("rest", (n_alphas * len(G), len(gamma_n)))
            np.matmul(scaled, W_hat, out=rest)
            rest = rest.reshape(n_alphas, len(G), -1)    # W'_ev minus that
            np.subtract(self.narrow_evs[e] * gamma_n, rest, out=rest)
            fix = scratch.take("fix", (n_alphas, len(G), n_units))
            np.matmul(rest, x, out=fix)
            preds = preds.reshape(n_alphas, len(G), n_units)
            preds += fix
            yield preds


class _BlockSpectral(_Spectral):
    """The Gram path of one training set of a single band, factored block by
    block (``_factor_blocks``): eigenpairs of ``B = X_tr S^-2 X_tr^T`` in
    which every centered solve happens (see the module notes)."""

    def __init__(self, spectrum, ones, UTY, parts, k_of):
        self.spectrum, self.numerator, self.denominator = spectrum, 1.0, spectrum
        self.cutoff = spectrum.max() * spectrum.size * _RCOND  # the Gram rule
        self.ones = ones  # U^T 1
        self.UTY = UTY
        self.parts, self.k_of = parts, k_of  # see _factor_blocks

    def eval_side(self, X, group, eval_idx):
        """(F, T) of the eval rows: the block-sparse eval-by-train Gram times
        U, and the eigen-coordinates of its columns."""
        g_ev = group[eval_idx]
        ev_count = np.bincount(g_ev, minlength=self.k_of.size)
        ev_order, ev_start = _group_order(g_ev, ev_count)
        width = self.k_of[g_ev].max(initial=0)
        F = np.zeros((len(eval_idx), width))
        T = np.zeros((len(eval_idx), width), dtype=np.intp)
        for gs, slots, cols, mask, scale, AU in self.parts:
            n_ev = ev_count[gs].max()
            if n_ev == 0:
                continue
            at = np.minimum(ev_start[gs][:, None] + np.arange(n_ev),
                            len(eval_idx) - 1)
            valid = np.arange(n_ev) < ev_count[gs][:, None]
            Xev = (X[eval_idx[ev_order[at]][:, :, None], cols[:, None, :]]
                   * (valid[:, :, None] * mask[:, None, :]))
            FU = (Xev * scale[:, None, :]) @ AU
            rows_ev = ev_order[at][valid]
            F[rows_ev, :slots.shape[1]] = FU[valid]
            T[rows_ev, :slots.shape[1]] = np.broadcast_to(
                slots[:, None, :], FU.shape)[valid]
        return F, T

    def predict(self, eval_sides, alphas, units, scratch):
        """Centered predictions per alpha, (n_alphas, n_eval, n_units), for
        each (F, T) eval side in turn, as ``_Spectral.predict`` yields them."""
        UTY = self.UTY[:, units]
        D = self.filter(alphas)
        Du = D * self.ones                                  # R 1
        num, den = Du @ UTY, Du @ self.ones                 # 1^T R Yc, 1^T R 1
        drop = self.spectrum <= self.cutoff  # alpha = 0: see the module notes
        w = self.ones[drop]
        limit = (np.asarray(alphas) == 0.0) & (w @ w > self.cutoff * den)
        num[limit], den[limit] = w @ UTY[drop], w @ w
        c = num / den[:, None]
        # x = R Yc - R 1 c is predicted as E x - 1 (1^T B x) / n
        Bx = ((Du * self.spectrum) @ UTY
              - (Du @ (self.spectrum * self.ones))[:, None] * c) / D.shape[1]
        for F, T in eval_sides:
            preds = scratch.take("preds", (len(F), len(D), UTY.shape[1]))
            np.matmul(D.T[T].transpose(0, 2, 1) * F[:, None, :], UTY[T],
                      out=preds)                            # E R Yc, eval-major
            preds -= (Du.T[T] * F[:, :, None]).sum(axis=1)[:, :, None] * c
            preds -= Bx
            yield preds.transpose(1, 0, 2)


class _Scratch(threading.local):
    """Per-thread buffers, grown to the largest request and reused. A fresh
    prediction-sized array per eval set would make the C allocator hand the
    memory back to the system and page it in again, set after set."""

    def take(self, name, shape):
        size = int(np.prod(shape))
        if getattr(self, name, np.empty(0)).size < size:
            setattr(self, name, np.empty(size))
        return getattr(self, name)[:size].reshape(shape)


def _factor_blocks(X, blocks, train_idx, Yc):
    """One training set's ``_BlockSpectral``. Groups with equal training-row
    counts share one stacked ``eigh``."""
    n = len(train_idx)
    k_of = np.bincount(blocks.group[train_idx], minlength=blocks.n_groups)
    tr_order, tr_start = _group_order(blocks.group[train_idx], k_of)
    spectrum, ones = np.empty(n), np.empty(n)
    UTY = np.empty((n, Yc.shape[1]))
    parts = []
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
        spectrum[slots] = np.maximum(lam, 0.0)
        ones[slots] = U.sum(axis=1)
        UTY[slots] = U.transpose(0, 2, 1) @ Yc[tr_order[slots]]
        # what _BlockSpectral.eval_side needs of this training-row count
        parts.append((gs, slots, cols, mask, scale, A.transpose(0, 2, 1) @ U))
    return _BlockSpectral(spectrum, ones, UTY, parts, k_of)


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
    all rows form one group or a group has more rows than columns."""
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
    if (np.bincount(group, minlength=n_groups) > n_cols).any():
        return None  # its block of B is singular on a split that trains on it all
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
    Xc, Xe = X - x_mean, Xe - x_mean
    if _uses_gram(X.shape[1], X.shape[0]):
        spectral, eval_side = _Spectral(Y - y_mean, gram=Xc @ Xc.T), Xe @ Xc.T
    else:
        spectral, eval_side = _Spectral(Y - y_mean, design=Xc), Xe
    (preds,) = spectral.predict([eval_side], alphas, _Scratch())
    preds += y_mean
    return preds[:, :, 0] if np.ndim(Y_train) == 1 else preds


def group_bands(spaces: Sequence[FeatureSpace]):
    """Concatenate feature spaces sharing a band_group, in first-seen order."""
    if not spaces:
        raise DataError("need at least one feature space")
    n = spaces[0].n_samples
    members: dict[str, list[np.ndarray]] = {}  # in first-seen order
    for fs in spaces:
        if fs.n_samples != n:
            raise DataError(
                f"feature space {fs.name!r} has {fs.n_samples} rows, expected {n}"
            )
        members.setdefault(fs.band_group, []).append(fs.data)
    return list(members), [np.hstack(m) if len(m) > 1 else m[0]
                           for m in members.values()]


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
    train_sets: int                    # distinct inner training sets factored

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
    """One training set and the eval sets predicted from it: the block
    factorization of a single band that splits into row groups, else
    standardized per-band matrices and, whenever some scaling vector can take
    the Gram path, either the update path's factorization of the one wide
    band or band Grams and eval-by-train Grams. A band wider than the
    training set keeps no standardized matrices."""

    def __init__(self, band_mats, Y, train_idx, eval_idxs, blocks=None):
        self.n_train = len(train_idx)
        self.widths = [X.shape[1] for X in band_mats]
        self.y_mean = Y[train_idx].mean(axis=0)
        self.Yc = Y[train_idx] - self.y_mean
        self.block = self.update = None
        if blocks is not None:
            self.block = _factor_blocks(band_mats[0], blocks, train_idx, self.Yc)
            self.evals = [self.block.eval_side(band_mats[0], blocks.group, idx)
                          for idx in eval_idxs]
            return
        z = [zscore_fit_apply(X[train_idx], [X[idx] for idx in eval_idxs])
             for X in band_mats]
        self.Ztr = [ztr for ztr, _, _, _ in z]
        self.Zev = [zev for _, zev, _, _ in z]  # per band, one per eval set
        self.grams = self.cross = None
        wide = [b for b, w in enumerate(self.widths)
                if _uses_gram(w, self.n_train)]
        self.narrow = [b for b in range(len(band_mats)) if b not in wide]
        if len(wide) == 1 and _uses_update(
                sum(self.widths[b] for b in self.narrow), self.n_train):
            (self.wide,) = wide
            Z, Zev = self.Ztr[self.wide], self.Zev[self.wide]
            self.update = _Update(
                self.Yc, np.hstack([self.Ztr[b] for b in self.narrow]),
                Z @ Z.T, [Ze @ Z.T for Ze in Zev],
                [np.hstack([self.Zev[b][e] for b in self.narrow])
                 for e in range(len(eval_idxs))])
        elif _uses_gram(sum(self.widths), self.n_train):
            self.grams = [Z @ Z.T for Z in self.Ztr]
            self.cross = [[Ze @ Z.T for Ze in zev]
                          for Z, zev in zip(self.Ztr, self.Zev)]
        for b in wide:
            self.Ztr[b] = self.Zev[b] = None

    def path(self, gamma) -> str:
        """The solver path that ``predict_grid`` takes for ``gamma``."""
        if self.block is not None:
            return "block"
        if self.update is not None and gamma[self.wide] > 0:
            return "update"
        dims = sum(w for w, g in zip(self.widths, gamma) if g > 0)
        return "gram" if _uses_gram(dims, self.n_train) else "design"

    def predict_grid(self, gamma, alphas, evals, scratch, units=slice(None)):
        """Centered (n_alphas, n_eval, n_units) predictions for one scaling
        vector, one factorization (or update), yielded per eval set in
        ``evals``. ``units`` is ``slice(None)`` or an index array."""
        path = self.path(gamma)
        if path == "block":  # a single band: its one candidate is [1.0]
            return self.block.predict([self.evals[e] for e in evals], alphas,
                                      units, scratch)
        if path == "update":
            gamma_n = np.repeat([gamma[b] for b in self.narrow],
                                [self.widths[b] for b in self.narrow])
            return self.update.predict(gamma[self.wide], gamma_n, alphas,
                                       evals, scratch, units)
        Yc = self.Yc[:, units]
        active = np.flatnonzero(np.asarray(gamma) > 0)
        if path == "gram":
            def mix(mats):  # the gamma^2-weighted sum, band by band
                out = np.zeros_like(mats[0])
                for b in active:
                    out += gamma[b] ** 2 * mats[b]
                return out
            Cs = [mix([cross[e] for cross in self.cross]) for e in evals]
            return _Spectral(Yc, gram=mix(self.grams)).predict(Cs, alphas,
                                                                scratch)
        Xtr = np.hstack([gamma[b] * self.Ztr[b] for b in active])
        Xevs = [np.hstack([gamma[b] * self.Zev[b][e] for b in active])
                for e in evals]
        return _Spectral(Yc, design=Xtr).predict(Xevs, alphas, scratch)


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


def _train_sets(plan: SplitPlan) -> list:
    """The plan's distinct inner training sets (equal row arrays, byte for
    byte) in order of first use: (rows, (outer, inner) folds training on it)."""
    sets = {}
    for o, fold in enumerate(plan.outer_folds):
        for j, inner in enumerate(fold.inner_folds):
            key = inner.train.tobytes()
            sets.setdefault(key, (inner.train, []))[1].append((o, j))
    return list(sets.values())


def banded_search(features: Sequence[FeatureSpace], responses, plan: SplitPlan,
                  ridge_cfg: Optional[RidgeConfig] = None,
                  search_cfg: Optional[BandedSearchConfig] = None,
                  threads: int = 1) -> FitResult:
    """Nested-CV banded ridge fit with per-unit hyperparameter selection.

    Up to ``threads`` distinct inner training sets are factored at once (see
    the module notes); while BLAS is pinned (``fit_blas_threads() == 1``)
    the result does not depend on it. A single band that ``_band_blocks``
    splits into row groups takes the block path on every split, any other
    band on none.
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
    alphas = ridge_cfg.alphas
    folds = plan.outer_folds
    n_outer, n_units, n_bands = len(folds), Y.shape[1], len(band_mats)
    sets = _train_sets(plan)
    # validation targets centered on their training mean
    yc = {(o, j): Y[folds[o].inner_folds[j].validation] - Y[train].mean(axis=0)
          for train, users in sets for o, j in users}
    sse_icpt = [sum((yc[o, j] ** 2).sum(axis=0)
                    for j in range(len(fold.inner_folds)))
                for o, fold in enumerate(folds)]
    for icpt in sse_icpt:
        if (icpt == 0).any():
            bad = np.flatnonzero(icpt == 0).tolist()
            raise DataError(f"constant validation target for units {bad}")

    best_score = np.full((n_outer, n_units), -np.inf)
    best_cand = np.zeros((n_outer, n_units), dtype=np.int64)
    best_alpha_idx = np.zeros((n_outer, n_units), dtype=np.int64)
    candidates = enumerate_masks(n_bands)
    n_masks = len(candidates)
    stopped = [False] * n_outer
    n_random, stall, prev_mean = [0] * n_outer, [0] * n_outer, [0.0] * n_outer
    kept = [None] * len(sets)  # training sides that multi-band fits reuse
    scratch = _Scratch()
    paths = collections.Counter()
    test_pred, intercept_pred = np.zeros(Y.shape), np.zeros(Y.shape)

    def score(s, gamma):
        """Set s's solver path, and per (outer, inner) fold that it serves
        and that still searches, the (n_alphas, n_units) validation SSE."""
        train, users = sets[s]
        fold = kept[s]
        if fold is None:
            fold = _FoldData(band_mats, Y, train, [
                folds[o].inner_folds[j].validation for o, j in users], blocks)
            if n_bands > 1:
                kept[s] = fold  # written by this set's task alone
        live = [u for u, (o, _) in enumerate(users) if not stopped[o]]
        sse = {}
        for u, preds in zip(live, fold.predict_grid(gamma, alphas, live,
                                                    scratch)):
            preds -= yc[users[u]]
            sse[users[u]] = np.square(preds, out=preds).sum(axis=1)
        return fold.path(gamma), sse

    def step(run, cand_id):
        live = [not all(stopped[o] for o, _ in users) for _, users in sets]
        kept[:] = [fold if used else None for fold, used in zip(kept, live)]
        tasks = [s for s, used in enumerate(live) if used]
        sse = {}
        for path, part in run(lambda s: score(s, candidates[cand_id]), tasks):
            paths[path] += 1
            sse.update(part)
        for o, fold in enumerate(folds):
            if stopped[o]:
                continue
            total = sum(sse[o, j] for j in range(len(fold.inner_folds)))
            r2 = 1.0 - total / sse_icpt[o]
            alpha_idx = np.argmax(r2, axis=0)  # first max -> smallest alpha
            scores = r2[alpha_idx, np.arange(n_units)]
            improved = scores > best_score[o]  # strict: earlier candidates win
            best_score[o, improved] = scores[improved]
            best_cand[o, improved] = cand_id
            best_alpha_idx[o, improved] = alpha_idx[improved]
            cur_mean = best_score[o].mean()
            if cand_id >= n_masks:
                n_random[o] += 1
                gain = cur_mean - prev_mean[o]
                stall[o] = stall[o] + 1 if gain < search_cfg.min_improvement else 0
                stopped[o] = stall[o] >= search_cfg.patience
            prev_mean[o] = cur_mean

    def refit(o):
        """Refit each unit's winner on train+validation to predict the test."""
        fold = folds[o]
        trval = np.setdiff1d(np.arange(Y.shape[0]), fold.test)
        data = _FoldData(band_mats, Y, trval, [fold.test], blocks)
        fold_pred = np.zeros((len(fold.test), n_units))
        for cand_id in np.unique(best_cand[o]):
            units = np.flatnonzero(best_cand[o] == cand_id)
            unit_alpha_idx = best_alpha_idx[o, units]
            uniq = np.unique(unit_alpha_idx)
            (preds,) = data.predict_grid(candidates[cand_id],
                                         [alphas[a] for a in uniq], [0],
                                         scratch, units)
            for pos, ai in enumerate(uniq):
                sel = unit_alpha_idx == ai
                fold_pred[:, units[sel]] = (preds[pos][:, sel]
                                            + data.y_mean[units[sel]])
        test_pred[fold.test] = fold_pred
        intercept_pred[fold.test] = data.y_mean
        return [data.path(candidates[c]) for c in np.unique(best_cand[o])]

    n_random_max = search_cfg.max_iters if n_bands > 1 else 0
    # one pool per fit; threads=1 runs every task on this thread
    with _blas_pinned(), ThreadPoolExecutor(max_workers=threads) as pool:
        run = pool.map if threads > 1 else map
        for cand_id in range(n_masks + n_random_max):
            if all(stopped):
                break
            if cand_id >= n_masks:
                candidates.append(
                    _random_gamma(search_cfg.seed, cand_id - n_masks, n_bands))
            step(run, cand_id)
        kept.clear()
        for fold_paths in run(refit, range(n_outer)):
            paths.update(fold_paths)
    return FitResult(
        band_names=band_names,
        alphas=alphas,
        test_predictions=test_pred,
        intercept_predictions=intercept_pred,
        chosen_gamma=np.asarray(candidates)[best_cand],
        chosen_alpha=np.asarray(alphas)[best_alpha_idx],
        validation_r2=best_score,
        n_random_iterations=n_random,
        early_stopped=stopped,
        solver_paths={path: paths[path]
                      for path in ("block", "gram", "design", "update")},
        train_sets=len(sets),
    )
