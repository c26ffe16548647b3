"""Outside-in span recorder for the traced benchmark run.

The recorder replaces each public encodebench function at every module
attribute that holds it (where its callers look it up), plus
``numpy.linalg.eigh`` and ``numpy.linalg.svd``, with a wrapper that records
a span: name, lookup site, start, end, parent and thread. Parents are the
innermost open span on the same thread, so spans nest per thread. Spans stay
in memory; ``summary`` turns them into per-layer metrics and ``restore``
puts every original attribute back.

Self time of a span is its duration minus the part covered by its children.
Per-layer times are summed over threads, so on a workload that runs jobs in
parallel they can exceed the wall time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
import zlib

# span name -> (defining module, attribute); the layer is the part before the
# first dot. build_plan lives in pipeline but is split planning.
TRACED = {
    "ridge.banded_search": ("encodebench.ridge", "banded_search"),
    "features.zscore_fit_apply": ("encodebench.features", "zscore_fit_apply"),
    "features.build_oasm": ("encodebench.features", "build_oasm"),
    "features.sweep_oasm_sigma": ("encodebench.features", "sweep_oasm_sigma"),
    "matrixio.load_manifest": ("encodebench.matrixio", "load_manifest"),
    "matrixio.load_matrix": ("encodebench.matrixio", "load_matrix"),
    "splits.build_plan": ("encodebench.pipeline", "build_plan"),
    "splits.shuffle_plan": ("encodebench.splits", "shuffle_plan"),
    "splits.plan_pereira": ("encodebench.splits", "plan_pereira"),
    "splits.plan_fedorenko": ("encodebench.splits", "plan_fedorenko"),
    "metrics.r2_oos": ("encodebench.metrics", "r2_oos"),
    "metrics.build_comparison_report":
        ("encodebench.metrics", "build_comparison_report"),
    "metrics.clip_and_average": ("encodebench.metrics", "clip_and_average"),
    "stats.paired_squared_error_ttest":
        ("encodebench.stats", "paired_squared_error_ttest"),
    "stats.bh_fdr": ("encodebench.stats", "bh_fdr"),
    "pipeline.run_analysis": ("encodebench.pipeline", "run_analysis"),
}
LAPACK = ("eigh", "svd")
SPLITS = {n for n in TRACED if n.startswith("splits.")}
METRICS = {n for n in TRACED if n.startswith("metrics.")}
STATS = {n for n in TRACED if n.startswith("stats.")}
LOADS = {"matrixio.load_manifest", "matrixio.load_matrix"}

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-_"


def lookup_sites(func):
    """Every (module, attribute) of the loaded encodebench modules bound to func."""
    sites = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "encodebench"
                                  or name.startswith("encodebench.")):
            continue
        for attr, value in sorted(vars(module).items()):
            if value is func:
                sites.append((module, attr))
    return sites


def fit_key(args, kwargs, fit) -> str:
    """Names one banded_search call by split mode, bands and band widths."""
    plan = kwargs["plan"] if "plan" in kwargs else args[2]
    features = kwargs["features"] if "features" in kwargs else args[0]
    dims = ",".join(str(fs.n_dims) for fs in features)
    return f"{plan.mode}|{'+'.join(fit.band_names)}|{dims}"


def choice_digests(fit) -> list[str]:
    """Per outer fold, two characters per unit naming its chosen (gamma, alpha).

    The digest is 12 bits of a CRC of both values at 9 significant digits, so
    it ignores ulp-level drift and misses a real change with odds 1 in 4096.
    """
    out = []
    for gammas, alphas in zip(fit.chosen_gamma, fit.chosen_alpha):
        chars = []
        for gamma, alpha in zip(gammas, alphas):
            text = "%.9g|" % alpha + ",".join("%.9g" % g for g in gamma)
            h = zlib.crc32(text.encode()) & 0xFFF
            chars.append(_DIGITS[h >> 6] + _DIGITS[h & 63])
        out.append("".join(chars))
    return out


def fit_record(args, kwargs, fit) -> dict:
    """Search statistics and choice digests of one FitResult."""
    n_outer = len(fit.n_random_iterations)
    n_masks = 2 ** len(fit.band_names) - 1
    winners = sum(len({tuple(g) for g in fold}) for fold in fit.chosen_gamma)
    return {
        "key": fit_key(args, kwargs, fit),
        "candidates": n_outer * n_masks + sum(fit.n_random_iterations),
        "random_iters": sum(fit.n_random_iterations),
        "random_folds": n_outer if len(fit.band_names) > 1 else 0,
        "early_stopped": sum(fit.early_stopped),
        "winners": winners,
        "choices": choice_digests(fit),
    }


def _inner_folds(plan) -> int:
    return sum(len(fold.inner_folds) for fold in plan.outer_folds)


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


class Span:
    __slots__ = ("name", "site", "parent", "thread", "start", "end", "info")

    def __init__(self, name, site, parent, thread):
        self.name = name
        self.site = site
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.info = None

    def as_dict(self, index) -> dict:
        return {"id": index, "name": self.name, "site": self.site,
                "parent": self.parent, "thread": self.thread,
                "start": self.start, "end": self.end, "info": self.info}


class Recorder:
    """Thread-safe in-memory span list plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original)
        self._seen_keys: dict[str, int] = {}

    def _open(self, name, site):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, site, stack[-1] if stack else None,
                    threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return span, stack

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a whole execution."""
        span, stack = self._open(name, "perfbench")
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def _wrap(self, owner, attr, name, site, info=None):
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span, stack = recorder._open(name, site)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _fit_info(self, args, kwargs, fit):
        record = fit_record(args, kwargs, fit)
        with self._lock:
            n = self._seen_keys.get(record["key"], 0)
            self._seen_keys[record["key"]] = n + 1
        record["key"] += f"#{n}"
        return record

    def install(self):
        """Wrap every traced function at each site that holds it."""
        import numpy
        from encodebench.pipeline import RunReport

        infos = {
            "ridge.banded_search": self._fit_info,
            "matrixio.load_matrix":
                lambda a, k, r: {"bytes": os.path.getsize(a[0])},
            "matrixio.load_manifest":
                lambda a, k, r: {"bytes": os.path.getsize(a[0])},
        }
        for name in SPLITS:
            infos[name] = lambda a, k, plan: {"inner_folds": _inner_folds(plan)}
        for name, (module_name, attr) in TRACED.items():
            func = getattr(sys.modules[module_name], attr)
            for owner, owner_attr in lookup_sites(func):
                self._wrap(owner, owner_attr, name, owner.__name__,
                           infos.get(name))
        self._wrap(RunReport, "save", "pipeline.RunReport.save",
                   "encodebench.pipeline",
                   lambda a, k, r: {"bytes": _dir_bytes(a[1])})
        for attr in LAPACK:
            self._wrap(numpy.linalg, attr, f"numpy.linalg.{attr}",
                       "numpy.linalg",
                       lambda a, k, r: {"n": int(numpy.shape(a[0])[-1])})

    def restore(self) -> tuple[int, bool]:
        """Put every original attribute back.

        Returns the number of patched sites and whether all of them now hold
        their original object again.
        """
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(getattr(owner, attr) is original
                 for owner, attr, original in self._patches)
        count = len(self._patches)
        self._patches.clear()
        return count, ok


def self_check(spans, root: int) -> dict:
    """Checks that spans nest per thread and that the root's tree adds up.

    On the root's thread the self times of the root's descendants plus the
    root's own self time (the untraced remainder) must equal its duration.
    """
    children: dict[int, list[int]] = {}
    nested = True
    for i, s in enumerate(spans):
        if s.parent is not None:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append(i)
            nested &= (p.thread == s.thread and p.start <= s.start
                       and s.end <= p.end)
    disjoint = True
    for kids in children.values():
        kids = sorted(kids, key=lambda k: spans[k].start)
        disjoint &= all(spans[a].end <= spans[b].start
                        for a, b in zip(kids, kids[1:]))
    self_time = [s.end - s.start for s in spans]
    for parent, kids in children.items():
        self_time[parent] -= sum(spans[k].end - spans[k].start for k in kids)
    tree = [root]
    for i in tree:
        tree.extend(children.get(i, []))
    wall = spans[root].end - spans[root].start
    remainder = self_time[root]
    spans_self = sum(self_time[i] for i in tree if i != root)
    return {
        "nested": bool(nested),
        "siblings_disjoint": bool(disjoint),
        "root_wall_s": wall,
        "spans_self_s": spans_self,
        "untraced_remainder_s": remainder,
        "adds_up": abs(spans_self + remainder - wall) <= 1e-6 * max(1.0, wall),
        "self_time": self_time,
    }


def summary(spans, self_time) -> dict:
    """Per-layer metrics from the recorded spans (see BENCHMARK.json)."""

    def ancestors(i):
        p = spans[i].parent
        while p is not None:
            yield p
            p = spans[p].parent

    def outermost(names):
        return [i for i, s in enumerate(spans) if s.name in names
                and not any(spans[a].name in names for a in ancestors(i))]

    def dur(i):
        return spans[i].end - spans[i].start

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def inside_search(name):
        return [i for i in named(name)
                if any(spans[a].name == "ridge.banded_search"
                       for a in ancestors(i))]

    search = named("ridge.banded_search")
    eigh = inside_search("numpy.linalg.eigh")
    svd = inside_search("numpy.linalg.svd")
    fits = [spans[i].info for i in search]
    candidates = sum(f["candidates"] for f in fits)
    random_folds = sum(f["random_folds"] for f in fits)
    search_s = sum(dur(i) for i in search)
    jobs = [i for i in search if spans[i].site == "encodebench.pipeline"]
    job_busy = sum(dur(i) for i in jobs)
    fit_phase = (max(spans[i].end for i in jobs)
                 - min(spans[i].start for i in jobs)) if jobs else 0.0
    saves = named("pipeline.RunReport.save")
    zscore = named("features.zscore_fit_apply")
    oasm = named("features.build_oasm")
    loads = outermost(LOADS)
    plans = outermost(SPLITS)
    return {
        # 9 n^3 flops per symmetric eigendecomposition with vectors (Golub
        # and Van Loan), computed from the matrix size, not counted.
        "ridge.eigh_calls": len(eigh),
        "ridge.eigh_s": sum(dur(i) for i in eigh),
        "ridge.eigh_gflop_computed":
            sum(9 * spans[i].info["n"] ** 3 for i in eigh) / 1e9,
        "ridge.svd_calls": len(svd),
        "ridge.svd_s": sum(dur(i) for i in svd),
        "ridge.fits": len(fits),
        "ridge.candidates": candidates,
        "ridge.random_iters": sum(f["random_iters"] for f in fits),
        "ridge.s_per_candidate": search_s / candidates if candidates else 0.0,
        "ridge.early_stop_ratio":
            sum(f["early_stopped"] for f in fits) / random_folds
            if random_folds else 0.0,
        "ridge.winner_ratio":
            sum(f["winners"] for f in fits) / candidates if candidates else 0.0,
        "ridge.search_self_s": sum(self_time[i] for i in search),
        "pipeline.jobs": len(jobs),
        "pipeline.fit_phase_s": fit_phase,
        "pipeline.job_busy_s": job_busy,
        "pipeline.job_parallelism": job_busy / fit_phase if fit_phase else 0.0,
        "pipeline.critical_job_s": max((dur(i) for i in jobs), default=0.0),
        "pipeline.save_s": sum(dur(i) for i in saves),
        "pipeline.bytes_written": sum(spans[i].info["bytes"] for i in saves),
        "metrics.score_s": sum(dur(i) for i in outermost(METRICS)),
        "stats.test_s": sum(dur(i) for i in outermost(STATS)),
        "stats.test_pairs": len(named("stats.paired_squared_error_ttest")),
        "features.zscore_s": sum(dur(i) for i in zscore),
        "features.zscore_calls": len(zscore),
        "features.oasm_s": sum(dur(i) for i in oasm),
        "features.oasm_calls": len(oasm),
        "matrixio.load_s": sum(dur(i) for i in loads),
        "matrixio.bytes_read": sum(
            s.info["bytes"] for s in spans
            if s.name in LOADS and s.info is not None),
        "splits.plan_s": sum(dur(i) for i in plans),
        "splits.inner_folds": sum(spans[i].info["inner_folds"] for i in plans),
    }
