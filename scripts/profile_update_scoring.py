"""Time each step of one update-path scoring: one (candidate, training set).

A scoring is what one search task does for one candidate: the update path's
predictions of every eval set of one inner training set, then each set's
validation SSE, as ``ridge.banded_search`` computes it. The script builds the
first distinct inner training set of a preset's split plan, with the
preset's signal spaces as one band beside OASM (``--oasm-sigma``) or beside
the preset's extra spaces (subsumption-demo's LLM), and scores the full mask
(every band at equal scale) at the default alpha grid, with BLAS pinned to
one thread as a search pins it.

It prints the median wall time of a whole scoring, untraced, then the median
self time of each source line of ``ridge.py`` that the scoring runs, and of
the residual and square-and-sum steps of ``score``, from a line-traced run.
Tracing adds about a microsecond per line, so traced times are upper bounds.

    PYTHONPATH=src python scripts/profile_update_scoring.py \\
        --preset pereira-exp2 --oasm-sigma 1.0 --mode shuffled
    PYTHONPATH=src python scripts/profile_update_scoring.py \\
        --preset subsumption-demo --mode contiguous
"""

import argparse
import collections
import linecache
import statistics
import sys
import time

import numpy as np

import encodebench as eb
from encodebench import ridge
from encodebench.pipeline import SplitSpec, build_plan


def training_set(args):
    """The first distinct inner training set's fold data, its eval rows,
    the targets and the candidate scored."""
    spec, extras = eb.preset(args.preset, seed=args.seed)
    recording, _ = eb.generate(spec)
    plan = build_plan(SplitSpec("pereira"), recording)
    if args.mode == "shuffled":
        plan = eb.shuffle_plan(plan, args.shuffle_seed)
    spaces = list(spec.signal_features) + list(extras)
    if args.oasm_sigma is not None:
        spaces = [eb.build_oasm(recording.n_samples, recording.block_ids,
                                args.oasm_sigma)] + list(spec.signal_features)
    names, mats = ridge.group_bands(spaces)
    train, users = ridge._train_sets(plan)[0]
    evals = [plan.outer_folds[o].inner_folds[j].validation for o, j in users]
    Y = recording.responses
    fold = ridge._FoldData(mats, Y, train, evals,
                           [ridge._band_blocks(X) for X in mats])
    gamma = ridge.enumerate_masks(len(mats))[-1]
    print(f"{args.preset} {args.mode}: bands {names} of widths {fold.widths}, "
          f"{len(train)} training rows, eval sets of {[len(e) for e in evals]} "
          f"rows, {Y.shape[1]} units; path {fold.path(gamma)!r} on "
          f"{type(fold.update).__name__}")
    return fold, evals, Y, gamma


def scoring(fold, evals, Y, gamma, alphas, scratch, mark=lambda name: None):
    """One scoring, as ``banded_search``'s ``score`` makes it; ``mark`` is
    called before each of its own steps."""
    for e, preds in enumerate(fold.predict_grid(gamma, alphas,
                                                range(len(evals)), scratch)):
        mark("score: residual")
        preds -= Y[evals[e]] - fold.y_mean
        mark("score: square and sum")
        np.square(preds, out=preds).sum(axis=1)
        mark(None)


class LineTimer:
    """Self time per source line of ``ridge.py``, from ``sys.settrace``:
    the time from one line event of a frame to the next, less the time
    spent in traced frames it calls."""

    def __init__(self):
        self.totals = collections.Counter()
        self.current = {}  # frame -> (key, start)
        self.stack = []

    def _stop(self, frame, now):
        key, start = self.current.get(frame, (None, None))
        if start is not None:
            self.totals[key] += now - start
            self.current[frame] = (key, None)

    def _start(self, frame, key):
        self.current[frame] = (key, time.perf_counter())

    def trace(self, frame, event, arg):
        if frame.f_code.co_filename != ridge.__file__:
            return None
        now = time.perf_counter()
        if event == "call":
            if self.stack:
                self._stop(self.stack[-1], now)
            self.stack.append(frame)
        elif event == "line":
            self._stop(frame, now)
            self._start(frame, (frame.f_code.co_name, frame.f_lineno))
        elif event == "return":
            self._stop(frame, now)
            self.stack.pop()
            if self.stack:  # the caller's line resumes
                caller = self.stack[-1]
                self._start(caller, self.current[caller][0])
        return self.trace

    def mark(self, name):
        """Open the script's own step ``name`` (None closes it)."""
        self._stop("script", time.perf_counter())
        if name is not None:
            self._start("script", name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="pereira-exp2")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--mode", choices=("contiguous", "shuffled"),
                        default="shuffled")
    parser.add_argument("--shuffle-seed", type=int, default=7)
    parser.add_argument("--oasm-sigma", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=500)
    args = parser.parse_args()

    fold, evals, Y, gamma = training_set(args)
    alphas = eb.default_alpha_grid()
    scratch = ridge._Scratch()
    with ridge._blas_pinned():
        for _ in range(20):  # buffers grown, caches warm
            scoring(fold, evals, Y, gamma, alphas, scratch)
        walls = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            scoring(fold, evals, Y, gamma, alphas, scratch)
            walls.append(time.perf_counter() - t0)
        per_line = collections.defaultdict(list)
        for _ in range(args.repeats):
            timer = LineTimer()
            sys.settrace(timer.trace)
            try:
                scoring(fold, evals, Y, gamma, alphas, scratch, timer.mark)
            finally:
                sys.settrace(None)
            for key in set(per_line) | set(timer.totals):
                per_line[key].append(timer.totals.get(key, 0.0))
    print(f"BLAS threads while timed: {ridge.fit_blas_threads() or 'not pinned'}"
          f"; {args.repeats} repeats")
    print(f"scoring, untraced: median {statistics.median(walls) * 1e3:.3f} ms")
    rows = sorted(per_line.items(), key=lambda kv: -statistics.median(kv[1]))
    total = sum(statistics.median(times) for _, times in rows)
    print(f"traced steps, median self time in us (sum {total * 1e6:.0f}):")
    for key, times in rows:
        med = statistics.median(times) * 1e6
        if med < 1.0:
            continue
        if isinstance(key, tuple):
            func, line = key
            text = linecache.getline(ridge.__file__, line).strip()
            label = f"ridge.py:{line} {func}: {text}"
        else:
            label = key
        print(f"{med:9.1f}  {label[:110]}")


if __name__ == "__main__":
    main()
