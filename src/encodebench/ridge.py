"""Closed-form ridge regression over an alpha grid, banded scaling, and
per-unit hyperparameter search.

Solver notes
------------
Every solve factors a centered problem once, by ``eigh`` of the smaller
Gram of the design X, and filters its spectrum per alpha through one
function, ``_filter``. One rule, ``_uses_gram``, picks the Gram: X^T X while
X has no more columns than rows (the design path), else K = X X^T. By the
push-through identity ``X_ev (X^T X + aI)^-1 X^T Y = K_ev (K + aI)^-1 Y``
the first takes ``X^T Yc`` as its targets and ``X_ev`` as its eval side.
Either is factored by ``_Update`` as its rank-0 case (``_gram_predict``).
``alpha = 0`` is the pseudo-inverse (minimum-norm least squares) limit. One
drop rule serves every Gram at every alpha: eigenvalues at or below numpy's
pinv cutoff on a Gram of order m are exact zeros, so a solve resolves
singular values of X down to about ``sqrt(m * eps) * smax`` (m = p on the
design path, n on the Gram path). The rule keeps the dense base's GEMMs as
wide as the band's rank; at alpha 2^-5 it keeps a rank-5 144 x 512 design
within 2e-15 relative of the oracle (2e-9 if those eigenvalues are kept).
Where they are real it costs up to 3e-7 there (5e-11 if kept): OASM at
sigma 4.1 beside a rank-3 band of 500 columns, more beside a wider one.
The intercept is never penalized: features and targets are centered on
training rows and the training target mean is added back to predictions.

In the banded search a scaled Gram is the gamma^2-weighted sum of band
Grams. One rule picks a training set's solvers (``_FoldData``). When exactly
one band is wider than the training set and the other, narrow bands have
r >= 0 columns in all with ``8 r <= n`` (``_uses_update``; past that a dense
``eigh`` of the n x n mixed Gram is cheaper than the rank-r terms per eval
row), the set takes the update path: it factors the wide band once, and a
scaling vector that uses the wide band needs no factorization of its own.
Scaling vectors without it take the design path. Any other set builds every
band's train Gram and eval-by-train Gram up front whenever the bands together
are wider than its training set, and then drops the standardized matrices of
any band wider than its training set: every scaling vector that uses such a
band takes the dense Gram path, the rank-0 update of its mixed Grams.

The update path's dense base factors the wide band's Gram,
``K_w = U diag(lam) U^T``, and keeps ``U^T Yc``, ``U^T W`` (``W`` the
standardized narrow columns, n x r), the narrow eval rows and ``K_w,ev U``.
With ``W' = W diag(gamma_n)`` the mixed Gram is ``A + W' W'^T``,
``A = gamma_w^2 K_w + aI`` is diagonal in U, and by Woodbury with
``S = I + W'^T A^-1 W'`` and ``x = S^-1 W'^T A^-1 Yc`` the predictions are
``gamma_w^2 K_w,ev A^-1 (Yc - W' x) + W'_ev x``: per alpha an r x r ``S``,
and per eval set one GEMM batched over alphas gives ``G D_a U^T Yc``,
with ``G D_a`` the rows ``gamma_w^2 K_w,ev U A^-1``; another carries the
Woodbury correction, ``(W'_ev - G D_a U^T W') x_a``, which is added to it
as ``E_Y`` is on the block base. With no narrow column active (a
single-band fit, a wide-only mask, or a Gram alone) the scoring is the
same with r = 0: the narrow side is taken as empty prefix slices, ``S`` is
0 x 0, there is no correction to compute, and a wide-only mask runs the
code, and gives the bits, of the fit of its band alone.
Eigenvalues of ``K_w`` at or below its Gram cutoff are taken as exact zeros
for every alpha, so their columns of ``K_w,ev U`` vanish and only the r x r
Gram terms of ``W^T U`` there enter ``S`` (with ``A^-1 = 1/a``).
``alpha = 0`` is the limit ``alpha -> 0+``: where the narrow columns' weight
``M`` on those directions clears the cutoff, it constrains ``M x`` to the
targets' part there, and ``x`` minimizes the kept-direction problem under
that constraint; without such weight (always so on the ones vector, as the
columns are centered) ``x`` is the kept-direction solve.

The update path takes a block base instead when the wide band's rows fall
into groups that share no nonzero column (OASM: one group per block;
``_band_blocks``, evaluated once per band per fit, finds none when a group
has more rows than columns). With ``S`` the training-column std and ``P``
the centering projection, the band's standardized train Gram is ``P B P``
with ``B = X_tr S^-2 X_tr^T`` block-diagonal over the groups. Each split
factors ``B`` group by group (one stacked ``eigh`` per training-row count)
and keeps ``U^T [Yc | W | 1]`` in one array; it never forms the band's
standardized matrices or any dense Gram. On centered vectors ``A^-1`` is
``Q_a = R - R 1 1^T R / 1^T R 1`` with ``R = (gamma_w^2 B + aI)^-1``, so
``u^T Q_a v = (u - 1 c_u)^T R (v - 1 c_v)`` with the centering
``c_v = 1^T R v / 1^T R 1``: ``S`` and ``W'^T A^-1 Yc`` take that form over
every direction of ``B``, and ``gamma_w^2 K_w,ev A^-1`` of ``Yc`` and of
``W'`` goes through the block-sparse eval-by-train Gram ``E``, k
eigen-coordinates per eval row: an eval row predicts a centered column
``v`` as ``E_v - z c_v - 1^T B x_v / n``, with ``E_v`` its row of ``E`` times
``R v``, ``z = E_1`` and ``x_v = R (v - 1 c_v)``. So ``[E_W' | z]`` comes
from one gathered matmul and ``E_Y`` from another, and the Woodbury step
and the centering fold into one GEMM batched over alphas,
``[E_W', z, 1, W'_ev] [-x_a ; c_W' x_a - c_Y ; Bx_W' x_a - Bx_Y ; x_a]``
(``Bx`` the ``1^T B x / n`` terms), which ``E_Y`` is added to; with r = 0
it is the centering alone, ``[z, 1] [-c_Y ; -Bx_Y]``. An eval set
whose rows' groups hold no training row has ``E = 0`` and skips both
gathers. At ``alpha > 0`` this base keeps every direction of ``B``.
``alpha = 0`` is the limit ``alpha -> 0+`` here too, eigenvalues of ``B`` at
or below the Gram cutoff taken as exact zeros: if the ones vector has weight
``w`` on them, ``c_v = w^T (U^T v)_dropped / w^T w``. That is the dense
base's minimum-norm solution in exact arithmetic; ``w`` counts only when
``w^T w / 1^T R 1``, the eigenvalue it adds to ``P B P``, clears the cutoff
too. The dropped directions constrain ``x`` as on the dense base, less the
ones vector's part there when ``w`` counts (that part is no null direction
of ``P B P``). On a numerically singular split ``alpha = 0`` is dominated by
rounding on either base.

On either base, update-path predictions are written eval-major,
(n_eval, n_alphas, n_units), so the search's sum of squared residuals over
eval rows reduces the outer axis; they are yielded as (n_alphas, n_eval,
n_units) views like every other path's.

Search notes
------------
Inner fold (test i, validation j) trains on the same rows as inner fold
(test j, validation i), so a training set serves two outer folds. The outer
folds step through one candidate sequence together. At each step every
distinct training set that an unstopped outer fold uses is one task: it is
factored once and predicts each of its inner folds' validation rows with the
array shapes of a split of its own. A set is the unit of parallel work, and
one process owns it for the whole fit (``_workers``): of ``n`` workers,
worker w owns the sets s and the outer-fold refits o with ``s mod n = w``
and ``o mod n = w``. Worker 0 is the calling process; the others are forked
from it once the fit's data are known, and each keeps its own sets'
training sides (multi-band fits keep a set's training side while a fold
uses it). The caller reduces every step's results in set order, whichever
process computed them, so a fit's outputs do not depend on ``threads``. When numpy's
bundled OpenBLAS is found, it runs on one thread during a search, so results
do not depend on the core count either; otherwise they can differ at ulp
level.

Candidate scaling vectors come first from the subset-mask enumeration (every
way of zeroing out feature spaces), then from Dirichlet draws whose RNG
streams depend only on (seed, iteration index). Per unit, the best (gamma,
alpha) by inner-validation R^2 wins, with squared residuals summed per inner
fold and added in inner-fold order, each outer fold's as soon as all of its
inner folds are scored. A later candidate must beat the best so far by more
than ``metrics.TIE`` (1e-12 in R^2), so earlier candidates win ties that the
solver paths would round either way; within a candidate the smaller alpha
wins an exact tie. An outer fold stops its random phase once the across-unit
mean of its running-best scores fails to improve by more than
``min_improvement`` for ``patience`` consecutive iterations.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import math
import threading
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
    rank-``narrow_dims`` update than by a dense ``eigh`` of the mixed Gram;
    ``narrow_dims = 0``, the wide band alone, is the rank-0 case."""
    return _UPDATE_RATIO * narrow_dims <= n_rows


def _filter(alphas, spectrum, cutoff) -> np.ndarray:
    """(n_alphas, rank) filter factors ``1 / (lam + alpha)`` of an eigenvalue
    ``spectrum``; ``alpha = 0`` is the pseudo-inverse, eigenvalues at or below
    ``cutoff`` taken as exact zeros (``_Update`` drops a dense Gram's for
    every alpha first)."""
    alphas = np.asarray(alphas, dtype=np.float64)[:, None]
    with np.errstate(divide="ignore", over="ignore"):  # 1/0 zeroed below
        D = 1.0 / (spectrum + alphas)
    D[(alphas == 0.0) & (spectrum <= cutoff)] = 0.0
    return D


def _gram_predict(targets, gram, cross, alphas, scratch):
    """Centered predictions per alpha, (n_alphas, n_eval, n_units), per eval
    side in ``cross``, from one ``eigh`` of ``gram``: the update path's rank-0
    case. ``targets`` are ``Yc`` beside X X^T and ``X^T Yc`` beside X^T X;
    each yield is a view into ``scratch`` that the next overwrites."""
    update = _Update(targets, targets[:, :0], gram, cross,
                     [C[:, :0] for C in cross])
    return update.predict(1.0, np.zeros(0), alphas, range(len(cross)),
                          scratch, slice(None))


class _Update:
    """The update path of one training set (see the module notes): a rank-r
    Woodbury step over one factorization of the wide band alone. This base
    is a dense ``eigh`` of its Gram, ``K_w = U diag(lam) U^T``. On the
    directions whose eigenvalue clears the cutoff it keeps the spectrum,
    ``U^T Yc``, ``U^T W`` (``W`` the narrow bands' standardized columns) and,
    per eval set, ``K_w,ev U``; on the others, exact zeros of ``K_w``, it
    keeps ``U^T [Yc | W]`` and the Gram terms of its ``W`` part."""

    def __init__(self, Yc, narrow, gram, cross, narrow_evs):
        lam, U = np.linalg.eigh(gram)
        lam = np.maximum(lam, 0.0)
        self.cutoff = lam.max(initial=0.0) * len(lam) * _RCOND  # pinv rule
        keep = lam > self.cutoff
        self.spectrum = lam[keep]
        self.G = [C @ U[:, keep] for C in cross]
        n_units = Yc.shape[1]
        UTR = U.T @ (np.hstack([Yc, narrow]) if narrow.shape[1] else Yc)
        self.null_Y, self.null_W = UTR[~keep, :n_units], UTR[~keep, n_units:]
        self.null_WW = self.null_W.T @ self.null_W
        self.null_WY = self.null_W.T @ self.null_Y
        self.UTY, self.UTW = UTR[keep, :n_units], UTR[keep, n_units:]
        self.narrow_evs = narrow_evs

    def _null_weight(self, active):
        """``(B, y)`` for the limit ``alpha -> 0+``: the active narrow
        columns' weight on the dropped directions, and the targets', in an
        orthonormal basis of the part those columns span that clears the
        cutoff: ``Q = M V lam^-1/2`` from the eigenpairs of their r x r
        Gram ``M^T M``."""
        W = self.null_W[:, :len(active)]
        M = W * active
        if np.square(M).sum() <= self.cutoff:  # no eigenvalue clears it
            return M[:0], self.null_Y[:0]
        lam, V = np.linalg.eigh(M.T @ M)
        keep = lam > self.cutoff
        Q = M @ V[:, keep] / np.sqrt(lam[keep])
        return Q.T @ W, Q.T @ self.null_Y

    def _terms(self, D, Y_hat, W_hat, alphas, gamma_w, gamma_n, units,
               scratch):
        """``W'^T A^-1 W'`` and ``W'^T A^-1 Yc`` per alpha, and the terms
        that ``_Update._fused`` takes."""
        r, terms = len(gamma_n), (D, Y_hat, W_hat)
        if not r:  # no narrow column: S and V are empty
            return None, np.empty((len(D), 0, Y_hat.shape[1])), terms
        AW = W_hat.T[None, :, :] * (D / gamma_w ** 2)[:, None, :]  # W'^T A^-1
        S, V = AW @ W_hat, AW @ Y_hat
        # A^-1 is 1/alpha on the dropped directions (0 at alpha = 0)
        inv = np.divide(1.0, alphas, out=np.zeros_like(alphas),
                        where=alphas > 0.0)[:, None, None]
        S += inv * (gamma_n[:, None] * self.null_WW[:r, :r] * gamma_n)
        V += inv * (gamma_n[:, None] * self.null_WY[:r, units])
        return S, V, terms

    def _fused(self, terms, x, evals, gamma_n, scratch):
        """Per eval set in ``evals``, its predictions for every alpha:
        ``G D_a U^T Yc`` plus, with r > 0, the correction from ``x``
        (n_alphas, r, units), each one GEMM batched over alphas (see the
        module notes), eval-major in ``scratch``: the next set overwrites
        them."""
        D, Y_hat, W_hat = terms
        k, (n_alphas, r, n_units) = D.shape[1], x.shape
        for e in evals:
            G = self.G[e]
            scaled = scratch.take("scaled", (len(G), n_alphas, k))
            np.multiply(G[:, None, :], D, out=scaled)  # G D_a, eval-major
            preds = scratch.take("preds", (len(G), n_alphas, n_units))
            np.matmul(scaled.reshape(-1, k), Y_hat,
                      out=preds.reshape(-1, n_units))  # G D_a U^T Yc
            if r:
                left = scratch.take("left", (len(G), n_alphas, r))
                np.matmul(scaled.reshape(-1, k), W_hat,
                          out=left.reshape(-1, r))
                np.subtract(self.narrow_evs[e][:, None, :r] * gamma_n, left,
                            out=left)               # W'_ev - G D_a U^T W'
                term = scratch.take("gemm", preds.shape)
                np.matmul(left.transpose(1, 0, 2), x,
                          out=term.transpose(1, 0, 2))
                preds += term
            yield preds.transpose(1, 0, 2)

    def predict(self, gamma_w, gamma_n, alphas, evals, scratch, units):
        """Centered predictions per alpha for wide-band scale ``gamma_w`` and
        narrow-column scales ``gamma_n``, yielded as ``_gram_predict``
        yields them. With no narrow column active the scoring has r = 0, no
        correction columns, and runs as the fit of the wide band alone."""
        alphas = np.asarray(alphas, dtype=np.float64)
        # prefix slices of the narrow side: r = 0 or all of it
        r = len(gamma_n) if gamma_n.any() else 0
        gamma_n = gamma_n[:r]
        # gamma_w^2 A^-1
        D = _filter(alphas / gamma_w ** 2, self.spectrum, self.cutoff)
        Y_hat, W_hat = self.UTY[:, units], self.UTW[:, :r] * gamma_n
        S, x, terms = self._terms(D, Y_hat, W_hat, alphas, gamma_w, gamma_n,
                                  units, scratch)
        if r:  # with r = 0, x is empty and there is no S to solve
            S[:, np.arange(r), np.arange(r)] += 1.0
            # S_a^-1 V_a per alpha; S_a is r x r, V_a has a column per unit
            x = np.linalg.inv(S) @ x
            B, y0 = self._null_weight(gamma_n > 0)
            B, y0 = B * gamma_n, y0[:, units]
            if len(B):
                for a in np.flatnonzero(alphas == 0.0):
                    SB = np.linalg.solve(S[a], B.T)
                    x[a] += SB @ np.linalg.solve(B @ SB, y0 - B @ x[a])
        yield from self._fused(terms, x, evals, gamma_n, scratch)


class _BlockUpdate(_Update):
    """The update path on a block base (see the module notes): the wide band
    factored by ``_factor_blocks`` into eigenpairs of
    ``B = X_tr S^-2 X_tr^T``, in which every centered solve happens, and
    predicted through its block-sparse eval side, so no dense Gram is
    formed."""

    def __init__(self, X, blocks, train_idx, eval_idxs, Yc, narrow,
                 narrow_evs):
        self.spectrum, self.UTR, self.evals = _factor_blocks(
            X, blocks, train_idx, eval_idxs, np.hstack([Yc, narrow]))
        self.ones = self.UTR[:, -1].copy()
        self.cutoff = self.spectrum.max() * len(self.spectrum) * _RCOND  # pinv rule
        # alpha = 0: the ones vector's weight w on the dropped directions, and
        # whether it counts (see the module notes)
        self.drop = self.spectrum <= self.cutoff
        self.w = self.ones[self.drop]
        R1 = _filter([0.0], self.spectrum, self.cutoff) * self.ones @ self.ones
        self.limit = self.w @ self.w > self.cutoff * R1[0]
        null, n_units = self.UTR[self.drop, :-1], Yc.shape[1]
        if self.limit:  # the ones vector's part there is no null direction
            null -= np.outer(self.w, self.w @ null) / (self.w @ self.w)
        self.null_Y, self.null_W = null[:, :n_units], null[:, n_units:]
        self.UTY = self.UTR[:, :n_units]
        self.UTW = self.UTR[:, n_units:-1].copy()  # a scoring writes W' there
        # [1 | W_ev] per eval set: the constant and narrow columns of the
        # correction's left side
        self.ones_evs = [np.hstack([np.ones((len(W), 1)), W])
                         for W in narrow_evs]

    def _center(self, D, R, alphas):
        """Per alpha, the centering ``c`` and ``1^T B x / n`` of each column
        ``v`` of ``R`` (eigen-coordinates), stacked as (n_alphas, 2, R's
        columns): ``x = R (v - 1 c)`` solves ``(P B P + aI) x = v`` on the
        complement of the ones vector."""
        Du = D * self.ones                                  # R 1
        num, den = Du @ R, Du @ self.ones                   # 1^T R v, 1^T R 1
        limit = (np.asarray(alphas) == 0.0) & self.limit
        num[limit], den[limit] = self.w @ R[self.drop], self.w @ self.w
        cB = np.empty((len(D), 2, R.shape[1]))
        c = np.divide(num, den[:, None], out=cB[:, 0])
        np.subtract((Du * self.spectrum) @ R,
                    (Du @ (self.spectrum * self.ones))[:, None] * c,
                    out=cB[:, 1])
        cB[:, 1] /= D.shape[1]
        return cB

    def _terms(self, D, Y_hat, W_hat, alphas, gamma_w, gamma_n, units,
               scratch):
        """As ``_Update._terms``, with ``A^-1`` on centered vectors the
        block base's ``Q_a = R - R 1 1^T R / 1^T R 1``: ``u^T Q_a v`` is
        ``(u - 1 c_u)^T R (v - 1 c_v)``, over every direction of ``B``."""
        (n, n_units), r, ones = Y_hat.shape, W_hat.shape[1], self.ones
        # [Yc | W' | 1] in eigen-coordinates, the set's own array but for r = 0
        # beside narrow bands or a unit subset; the ones column's eval side
        # is each eval row's centering weight z
        full = isinstance(units, slice) and r == self.UTW.shape[1]
        R = self.UTR if full else np.hstack([Y_hat, W_hat, ones[:, None]])
        R[:, n_units:-1] = W_hat
        cB = self._center(D, R[:, :-1], alphas)
        c = cB[:, 0]
        # (W' - 1 c_W)^T R per alpha, then times [Yc | W'] minus 1 c
        AW = scratch.take("AW", (len(D), r, n))
        np.multiply(c[:, n_units:, None], ones, out=AW)
        np.subtract(W_hat.T, AW, out=AW)
        AW *= (D / gamma_w ** 2)[:, None, :]
        VS = (AW.reshape(-1, n) @ R[:, :-1]).reshape(len(D), r, n_units + r)
        VS -= (AW @ ones)[:, :, None] * c[:, None, :]
        return VS[:, :, n_units:], VS[:, :, :n_units], (D, R, cB)

    def _fused(self, terms, x, evals, gamma_n, scratch):
        """As ``_Update._fused``, through the block-sparse eval side. The
        gather of ``E_Y`` has a buffer of its own, so the add of it reads
        contiguous rows."""
        D, R, cB = terms
        (n_alphas, r, n_units), width = x.shape, 2 * x.shape[1] + 2
        right = scratch.take("right", (n_alphas, width, n_units))
        np.negative(x, out=right[:, :r])
        np.matmul(cB[:, :, n_units:], x, out=right[:, r:r + 2])
        right[:, r:r + 2] -= cB[:, :, :n_units]
        right[:, r + 2:] = x
        scale = np.concatenate([[1.0], gamma_n])
        for e in evals:
            F, T = self.evals[e]
            left = scratch.take("left", (len(F), n_alphas, width))
            left[:, :, r + 1:] = (self.ones_evs[e][:, :r + 1]
                                  * scale)[:, None, :]
            preds = scratch.take("preds", (len(F), n_alphas, n_units))
            if F.shape[1] == 0:  # E = 0 and z = 0
                np.matmul(left[:, :, r + 1:].transpose(1, 0, 2),
                          right[:, r + 1:], out=preds.transpose(1, 0, 2))
            else:
                FD, RT = D.T[T].transpose(0, 2, 1) * F[:, None, :], R[T]
                np.matmul(FD, RT[:, :, n_units:], out=left[:, :, :r + 1])
                np.matmul(left.transpose(1, 0, 2), right,
                          out=preds.transpose(1, 0, 2))
                term = scratch.take("gemm", preds.shape)
                np.matmul(FD, RT[:, :, :n_units], out=term)  # E_Y
                preds += term
                del FD, RT  # before the next eval set gathers its own
            yield preds.transpose(1, 0, 2)


class _Scratch:
    """One process's buffers, grown to the largest request and reused. A
    fresh prediction-sized array per eval set would make the C allocator
    hand the memory back to the system and page it in again, set after set.
    Prediction-sized are ``preds``, every path's predictions, and ``gemm``,
    the term that ``_Update._fused`` adds to them: the Woodbury correction
    on the dense base (none with r = 0) or ``E_Y`` on a block base.
    ``scaled``, ``left``, ``right`` and ``AW`` hold GEMM operands."""

    def take(self, name, shape):
        size = math.prod(shape)
        buf = getattr(self, name, None)
        if buf is None or buf.size < size:
            buf = np.empty(size)
            setattr(self, name, buf)
        return buf[:size].reshape(shape)


def _factor_blocks(X, blocks, train_idx, eval_idxs, Yc):
    """One training set's wide band factored by blocks: the eigenvalues of
    ``B = X_tr S^-2 X_tr^T``, ``U^T [Yc | 1]`` over its eigen-coordinates,
    and per eval set its (F, T): the block-sparse eval-by-train Gram times
    U, and the eigen-coordinates of its columns. Groups with equal
    training-row counts share one stacked ``eigh``."""
    n = len(train_idx)
    k_of = np.bincount(blocks.group[train_idx], minlength=blocks.n_groups)
    tr_order, tr_start = _group_order(blocks.group[train_idx], k_of)
    spectrum, UTR = np.empty(n), np.empty((n, Yc.shape[1] + 1))
    ev_groups = [blocks.group[idx] for idx in eval_idxs]
    ev_counts = [np.bincount(g, minlength=blocks.n_groups) for g in ev_groups]
    ev_orders = [_group_order(g, c) for g, c in zip(ev_groups, ev_counts)]
    F = [np.zeros((len(g), k_of[g].max(initial=0))) for g in ev_groups]
    T = [np.zeros(f.shape, dtype=np.intp) for f in F]
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
        UTR[slots, -1] = U.sum(axis=1)
        UTR[slots, :-1] = U.transpose(0, 2, 1) @ Yc[tr_order[slots]]
        AU = A.transpose(0, 2, 1) @ U
        for e, idx in enumerate(eval_idxs):
            (ev_order, ev_start), count = ev_orders[e], ev_counts[e][gs]
            n_ev = count.max()
            if n_ev == 0:
                continue
            at = ev_order[np.minimum(ev_start[gs][:, None] + np.arange(n_ev),
                                     len(idx) - 1)]
            valid = np.arange(n_ev) < count[:, None]
            Xev = (X[idx[at][:, :, None], cols[:, None, :]]
                   * (valid[:, :, None] * mask[:, None, :]))
            FU = (Xev * scale[:, None, :]) @ AU
            F[e][at[valid], :k] = FU[valid]
            T[e][at[valid], :k] = np.broadcast_to(slots[:, None, :],
                                                  FU.shape)[valid]
    return spectrum, UTR, list(zip(F, T))


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
    if not all(0 <= a < math.inf for a in alphas):
        raise DataError("alphas must be finite and non-negative")
    Xe = np.asarray(X_eval, dtype=np.float64)
    if Xe.ndim != 2 or Xe.shape[1] != X.shape[1]:
        raise DataError("X_train and X_eval must be 2-D with equal column counts")
    _check_finite("X_eval", Xe)
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc, Xe, Yc = X - x_mean, Xe - x_mean, Y - y_mean
    if _uses_gram(X.shape[1], X.shape[0]):
        targets, gram, cross = Yc, Xc @ Xc.T, Xe @ Xc.T
    else:
        targets, gram, cross = Xc.T @ Yc, Xc.T @ Xc, Xe
    (preds,) = _gram_predict(targets, gram, [cross], alphas, _Scratch())
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
    solver_paths: dict  # factorizations and update-path scorings per path
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
    """One training set and the eval sets predicted from it (see the module
    notes): standardized per-band matrices and, whenever some scaling vector
    can take the Gram path, either the update path's factorization of the one
    wide band (by blocks when it splits into row groups) or band Grams and
    eval-by-train Grams, each scaling vector's mix of them factored by
    ``_gram_predict``. A band wider than the training set keeps no
    standardized matrices. ``blocks`` holds each band's row groups or None."""

    def __init__(self, band_mats, Y, train_idx, eval_idxs, blocks=None):
        blocks = blocks or [None] * len(band_mats)
        self.n_train = len(train_idx)
        self.widths = [X.shape[1] for X in band_mats]
        self.y_mean = Y[train_idx].mean(axis=0)
        self.Yc = Y[train_idx] - self.y_mean
        wide = [b for b, w in enumerate(self.widths)
                if _uses_gram(w, self.n_train)]
        self.narrow = [b for b in range(len(band_mats)) if b not in wide]
        update = len(wide) == 1 and _uses_update(
            sum(self.widths[b] for b in self.narrow), self.n_train)
        on_blocks = update and blocks[wide[0]] is not None
        z = [(None, None) if on_blocks and b in wide else
             zscore_fit_apply(X[train_idx], [X[idx] for idx in eval_idxs])
             for b, X in enumerate(band_mats)]
        self.Ztr = [ztr for ztr, *_ in z]
        self.Zev = [zev for _, zev, *_ in z]  # per band, one per eval set
        self.update = self.grams = self.cross = None
        if update:
            (self.wide,) = wide
            # the empty first blocks give r = 0 its (rows, 0) narrow sides
            W = np.hstack([self.Yc[:, :0]]
                          + [self.Ztr[b] for b in self.narrow])
            W_evs = [np.hstack([Y[idx, :0]]
                               + [self.Zev[b][e] for b in self.narrow])
                     for e, idx in enumerate(eval_idxs)]
            if on_blocks:
                self.update = _BlockUpdate(band_mats[self.wide],
                                           blocks[self.wide], train_idx,
                                           eval_idxs, self.Yc, W, W_evs)
            else:
                Z, Zev = self.Ztr[self.wide], self.Zev[self.wide]
                self.update = _Update(self.Yc, W, Z @ Z.T,
                                      [Ze @ Z.T for Ze in Zev], W_evs)
        elif _uses_gram(sum(self.widths), self.n_train):
            self.grams = [Z @ Z.T for Z in self.Ztr]
            self.cross = [[Ze @ Z.T for Ze in zev]
                          for Z, zev in zip(self.Ztr, self.Zev)]
        for b in wide:
            self.Ztr[b] = self.Zev[b] = None

    def path(self, gamma) -> str:
        """The solver path that ``predict_grid`` takes for ``gamma``; the
        update path with no narrow band active is named by its base."""
        if self.update is not None and gamma[self.wide] > 0:
            if any(gamma[b] > 0 for b in self.narrow):
                return "update"
            return "block" if isinstance(self.update, _BlockUpdate) else "gram"
        dims = sum(w for w, g in zip(self.widths, gamma) if g > 0)
        return "gram" if _uses_gram(dims, self.n_train) else "design"

    def predict_grid(self, gamma, alphas, evals, scratch, units=slice(None)):
        """Centered (n_alphas, n_eval, n_units) predictions for one scaling
        vector, one factorization (or update), yielded per eval set in
        ``evals``. ``units`` is ``slice(None)`` or an index array."""
        path = self.path(gamma)
        if path != "design" and self.update is not None:
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
            return _gram_predict(Yc, mix(self.grams), Cs, alphas, scratch)
        Xtr = np.hstack([gamma[b] * self.Ztr[b] for b in active])
        Xevs = [np.hstack([gamma[b] * self.Zev[b][e] for b in active])
                for e in evals]
        return _gram_predict(Xtr.T @ Yc, Xtr.T @ Xtr, Xevs, alphas, scratch)


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


@contextlib.contextmanager
def _workers(n, *fns):
    """The n processes of one search (see the module notes) as
    ``run(fn, lister, *args)``: each process calls ``lister(*args)`` to bring
    its copy of the search state up to date and get the items, and item i
    runs ``fn(i)`` in process ``i mod n``, results and errors coming back in
    item order. The caller is process 0 and forks the others, so only
    names of ``fns``, arguments and ``(result, error)`` pairs are pickled.
    Without the ``fork`` start method n is 1. Every worker is killed on
    leaving: one still running computes results that nobody reads."""
    if n > 1:
        import multiprocessing.connection  # only a fit that forks loads it
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:
            n = 1
    by_name, conns, procs = {fn.__name__: fn for fn in fns}, [], []

    def work(w, conn):  # up to its first error per item list
        for ours in conns:  # the caller's ends, its own included
            ours.close()
        with contextlib.suppress(EOFError, OSError):  # the caller hung up
            while True:
                fn, lister, args = conn.recv()
                for i in by_name[lister](*args):
                    if i % n == w:
                        try:
                            message = (by_name[fn](i), None)
                        except Exception as exc:  # the caller raises it
                            message = (None, exc)
                        conn.send(message)
                        if message[1] is not None:
                            break

    def receive(w):
        conn, proc = conns[w - 1], procs[w - 1]
        if conn in multiprocessing.connection.wait([conn, proc.sentinel]):
            with contextlib.suppress(EOFError):
                result, error = conn.recv()
                if error is not None:
                    raise error
                return result
        proc.join()
        raise DataError(f"search worker {w} (pid {proc.pid}) died with exit "
                        f"code {proc.exitcode}")

    def run(fn, lister, *args):
        for conn in conns:
            conn.send((fn.__name__, lister.__name__, args))
        return (fn(i) if i % n == 0 else receive(i % n)
                for i in lister(*args))

    try:
        for w in range(1, n):
            ours, theirs = context.Pipe()
            conns.append(ours)
            proc = context.Process(target=work, args=(w, theirs),
                                   daemon=True)
            proc.start()
            theirs.close()
            procs.append(proc)
        yield run
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.kill()
            proc.join()


def banded_search(features: Sequence[FeatureSpace], responses, plan: SplitPlan,
                  ridge_cfg: Optional[RidgeConfig] = None,
                  search_cfg: Optional[BandedSearchConfig] = None,
                  threads: int = 1) -> FitResult:
    """Nested-CV banded ridge fit with per-unit hyperparameter selection.

    ``threads`` processes search at once (``_workers``), each owning its
    distinct inner training sets and outer-fold refits (see the module
    notes), never more processes than the fit has training sets; the caller
    is one of them, and the others are forked, so without the ``fork`` start
    method the fit runs in the caller alone. Results are reduced in set
    order, so while BLAS is pinned (``fit_blas_threads() == 1``) the result
    does not depend on ``threads``. Every worker is stopped before the fit
    returns or raises; one that dies makes the fit raise ``DataError``.
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

    blocks = [_band_blocks(X) for X in band_mats]
    alphas = ridge_cfg.alphas
    folds = plan.outer_folds
    n_outer, n_units, n_bands = len(folds), Y.shape[1], len(band_mats)
    sets = _train_sets(plan)
    # validation targets centered on their training mean, in inner-fold order
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        sse_icpt = [sum(np.square(Y[inner.validation]
                                  - Y[inner.train].mean(axis=0)).sum(axis=0)
                        for inner in fold.inner_folds) for fold in folds]
    for icpt in sse_icpt:
        for bad, what in ((icpt == 0, "constant"),
                          (~np.isfinite(icpt), "overflowing")):
            if bad.any():
                raise DataError(f"{what} validation target for units "
                                f"{np.flatnonzero(bad).tolist()}")

    best_score = np.full((n_outer, n_units), -np.inf)
    best_cand = np.zeros((n_outer, n_units), dtype=np.int64)
    best_alpha_idx = np.zeros((n_outer, n_units), dtype=np.int64)
    candidates = enumerate_masks(n_bands)
    n_masks = len(candidates)
    stopped = [False] * n_outer
    n_random, stall, prev_mean = [0] * n_outer, [0] * n_outer, [0.0] * n_outer
    kept = [None] * len(sets)  # training sides that multi-band fits reuse
    step_gamma = None  # the candidate that live_sets last took
    scratch = _Scratch()
    paths = collections.Counter()
    test_pred, intercept_pred = np.zeros(Y.shape), np.zeros(Y.shape)

    def live_sets(gamma, now_stopped):
        """Take a step's candidate and stopped folds; return the sets an
        unstopped outer fold uses, dropping the others' training sides."""
        nonlocal step_gamma
        step_gamma, stopped[:] = gamma, now_stopped
        live = [not all(stopped[o] for o, _ in users) for _, users in sets]
        kept[:] = [fold if used else None for fold, used in zip(kept, live)]
        return [s for s, used in enumerate(live) if used]

    def score(s):
        """Set s's solver path, and per (outer, inner) fold that it serves
        and that still searches, the (n_alphas, n_units) validation SSE."""
        train, users = sets[s]
        fold = kept[s]
        if fold is None:
            fold = _FoldData(band_mats, Y, train, [
                folds[o].inner_folds[j].validation for o, j in users], blocks)
            if n_bands > 1:
                kept[s] = fold
        live = [u for u, (o, _) in enumerate(users) if not stopped[o]]
        sse = {}
        for u, preds in zip(live, fold.predict_grid(step_gamma, alphas, live,
                                                    scratch)):
            o, j = users[u]
            preds -= Y[folds[o].inner_folds[j].validation] - fold.y_mean
            sse[o, j] = np.square(preds, out=preds).sum(axis=1)
        return fold.path(step_gamma), sse

    def step(run, cand_id):
        pending = collections.defaultdict(dict)  # outer fold -> inner -> SSE
        for path, part in run(score, live_sets, candidates[cand_id], stopped):
            paths[path] += 1
            for (o, j), sse in part.items():
                pending[o][j] = sse
                if len(pending[o]) == len(folds[o].inner_folds):
                    # every task serving o is done, so none reads stopped[o]
                    reduce(o, pending.pop(o), cand_id)

    def reduce(o, sse, cand_id):
        """Take outer fold o's inner-fold SSE, added in inner-fold order, as
        one candidate's score."""
        total = sum(sse[j] for j in range(len(sse)))
        r2 = 1.0 - total / sse_icpt[o]
        alpha_idx = np.argmax(r2, axis=0)  # first max -> smallest alpha
        scores = r2[alpha_idx, np.arange(n_units)]
        improved = scores > best_score[o] + metrics.TIE  # earlier ones win ties
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

    def winners(all_candidates, cand, alpha_idx):
        """Take every candidate and each unit's winner per outer fold, keep
        no training side, and return the outer folds to refit."""
        kept.clear()
        candidates[:], best_cand[:], best_alpha_idx[:] = (
            all_candidates, cand, alpha_idx)
        return range(n_outer)

    def refit(o):
        """Refit each unit's winner on train+validation to predict the test:
        the test rows' predictions, the training mean and the solver paths."""
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
        return (fold_pred, data.y_mean,
                [data.path(candidates[c]) for c in np.unique(best_cand[o])])

    n_random_max = search_cfg.max_iters if n_bands > 1 else 0
    with _blas_pinned(), _workers(min(threads, len(sets)), score, live_sets,
                                  refit, winners) as run:
        for cand_id in range(n_masks + n_random_max):
            if all(stopped):
                break
            if cand_id >= n_masks:
                candidates.append(
                    _random_gamma(search_cfg.seed, cand_id - n_masks, n_bands))
            step(run, cand_id)
        refits = run(refit, winners, candidates, best_cand, best_alpha_idx)
        for fold, (fold_pred, y_mean, fold_paths) in zip(folds, refits):
            test_pred[fold.test] = fold_pred
            intercept_pred[fold.test] = y_mean
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
