"""One workload execution in a fresh process, started by perfbench/run.py.

    python3 child.py run --kind compare|sweep --config CFG --out DIR --threads N
                         [--stamp FILE [--probe]] [--trace FILE]
    python3 child.py env --out FILE

``run`` executes a compare workload through ``encodebench.cli.main`` or the
sweep workload through ``encodebench.sweep_oasm_sigma``. With ``--stamp`` it
writes ``time.monotonic()`` to FILE at the first call into
``ridge.banded_search``; ``--probe`` then exits at once, so the process
measures set-up only. With ``--trace`` it records spans (see tracer.py) and
writes them, the per-layer summary, the self-checks and each fit's chosen
(gamma, alpha) digests to FILE. ``env`` writes the environment block.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import threading
import time

import tracer


def _sweep(config: dict, config_path: str, out_dir: str) -> int:
    import encodebench
    from encodebench.pipeline import SplitSpec, build_plan

    manifest = os.path.join(os.path.dirname(config_path), config["manifest"])
    dataset = encodebench.load_manifest(manifest)
    split = config["split"]
    plan = build_plan(SplitSpec(scheme=split["scheme"]), dataset.recording)
    plan = encodebench.shuffle_plan(plan, split["shuffle_seed"])
    sigmas = encodebench.oasm_sigma_grid()[::config["sigma_stride"]]
    result = encodebench.sweep_oasm_sigma(
        dataset.recording, dataset.recording.block_ids, plan, sigmas=sigmas)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.json"), "w") as fh:
        json.dump({"best_sigma": result.best_sigma,
                   "grid": [float(s) for s in sigmas],
                   "scores": result.scores.tolist()}, fh, sort_keys=True,
                  indent=2)
        fh.write("\n")
    return 0


def _execute(kind: str, config_path: str, out_dir: str, threads: int) -> int:
    with open(config_path) as fh:
        config = json.load(fh)
    if kind == "sweep":
        return _sweep(config, config_path, out_dir)
    from encodebench.cli import main
    return main(["compare", "--config", config_path, "--threads", str(threads),
                 "--output", out_dir])


def _install_stamp(path: str, probe: bool) -> None:
    import encodebench.ridge

    original = encodebench.ridge.banded_search
    lock = threading.Lock()
    stamped_once = []

    def stamped(*args, **kwargs):
        with lock:
            if not stamped_once:
                stamped_once.append(True)
                with open(path, "w") as fh:
                    fh.write(repr(time.monotonic()))
                if probe:
                    os._exit(0)
        return original(*args, **kwargs)

    for owner, attr in tracer.lookup_sites(original):
        setattr(owner, attr, stamped)


def _traced(args) -> int:
    import encodebench.cli  # noqa: F401  loads every module before wrapping

    recorder = tracer.Recorder()
    recorder.install()
    try:
        with recorder.span("workload") as root:
            code = _execute(args.kind, args.config, args.out, args.threads)
    finally:
        patched, restored = recorder.restore()
    spans = recorder.spans
    check = tracer.self_check(spans, spans.index(root))
    self_time = check.pop("self_time")
    check.update(patched_sites=patched, restored=restored)
    doc = {
        "summary": tracer.summary(spans, self_time),
        "self_check": check,
        "fits": sorted(({"key": s.info["key"], "choices": s.info["choices"]}
                        for s in spans if s.name == "ridge.banded_search"),
                       key=lambda f: f["key"]),
        "spans": [s.as_dict(i) for i, s in enumerate(spans)],
    }
    with open(args.trace, "w") as fh:
        json.dump(doc, fh)
    return code


def _blas() -> dict:
    """BLAS name, version and effective thread count of numpy's BLAS."""
    import numpy

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (AttributeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                info.update(library=lib, threads=int(func()),
                            threads_symbol=symbol)
                return info
    return info


def _env(out: str) -> int:
    import encodebench.cli  # noqa: F401  also compiles the package once
    import numpy
    import scipy

    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    doc = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "encodebench_file": encodebench.__file__,
    }
    with open(out, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--kind", required=True, choices=("compare", "sweep"))
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--threads", type=int, required=True)
    run.add_argument("--stamp")
    run.add_argument("--probe", action="store_true")
    run.add_argument("--trace")
    env = sub.add_parser("env")
    env.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "env":
        return _env(args.out)
    if args.trace:
        return _traced(args)
    if args.stamp:
        _install_stamp(args.stamp, args.probe)
    return _execute(args.kind, args.config, args.out, args.threads)


if __name__ == "__main__":
    sys.exit(main())
