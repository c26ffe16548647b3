"""encodebench benchmark runner (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run synthesizes its dataset with
``encodebench synth --seed N`` and then, with ``--trace 0``, times the
workload end to end: a few set-up probes, then one fresh process per
execution until ``--seconds`` is used up (at least one execution). Load model:
a closed loop with one client; one workload process runs at a time. With
``--trace 1`` it makes one untraced execution, one traced execution
(tracer.py) and, for compare workloads, one traced ``--threads 1`` execution
whose report.json must be byte-identical.

Every execution's outputs are checked against perfbench/reference/ for seeds
listed there (tolerance in workloads.json), and against the workload's
invariants for other seeds; repeated executions must write the same
report.json. The last stdout line is the JSON result; a fuller result file
with the environment block goes to .perfbench/results/. Compare two result
files with perfbench/diff.py; rebuild the reference with
perfbench/make_reference.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((HERE / "workloads.json").read_text())
CHILD_TIMEOUT_S = 150
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _exit_usage(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args, cwd: Path, log: Path) -> dict:
    """Run one child process; wall, CPU and peak RSS come from wait4."""
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    with open(log, "ab") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t0": t0, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode}


def _git() -> dict:
    info = {"git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            info.update(git_sha=sha.stdout.strip(),
                        git_dirty=bool(status.stdout.strip()))
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def environment(work: Path) -> dict:
    out = work / "env.json"
    sample = spawn(["env", "--out", out], work, work / "child.log")
    if sample["code"] != 0:
        raise RuntimeError("environment probe failed:\n" + _tail(work))
    env = json.loads(out.read_text())
    env.update(_git())
    return env


def _run_args(name: str, work: Path, threads) -> list:
    spec = SPEC["workloads"][name]
    return ["run", "--kind", spec["kind"], "--config", work / "config.json",
            "--threads", threads]


def _tail(work: Path) -> str:
    log = work / "child.log"
    return log.read_text()[-2000:] if log.exists() else ""


def prepare(name: str, seed: int, work: Path) -> Path:
    """Synthesize the seeded dataset and write the workload's config."""
    spec = SPEC["workloads"][name]
    proc = subprocess.run(
        [sys.executable, "-m", "encodebench", "synth", "--preset",
         spec["preset"], "--seed", str(seed), "--output", str(work / "data")],
        cwd=work, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"synth failed:\n{proc.stderr[-2000:]}")
    config = dict(spec["config"], manifest="data/manifest.json")
    path = work / "config.json"
    path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return path


# ---------------------------------------------------------------- output check

def headline(kind: str, out: Path) -> dict:
    """The results a run is judged by, flattened to path -> value."""
    if kind == "sweep":
        doc = json.loads((out / "sweep.json").read_text())
        flat = {"best_sigma": doc["best_sigma"]}
        flat.update({f"scores/{s!r}": v
                     for s, v in zip(doc["grid"], doc["scores"])})
        return flat
    doc = json.loads((out / "report.json").read_text())
    flat = {}
    for mode, families in doc["modes"].items():
        for fam, fam_doc in families.items():
            base = f"{mode}/{fam}"
            for subset, sub_doc in fam_doc["subsets"].items():
                flat[f"{base}/{subset}/mean_r2"] = sub_doc["mean_r2"]
            if "omega" in fam_doc:
                flat[f"{base}/omega_mean"] = fam_doc["omega"]["mean"]
            for test in fam_doc["tests"]:
                for count in ("n_rejected_raw", "n_rejected_fdr"):
                    flat[f"{base}/{test['name']}/{count}"] = test[count]
    return flat


def compare_headline(got: dict, want: dict) -> list[str]:
    tol = SPEC["tolerance"]
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of run/reference")
            continue
        a, b = got[key], want[key]
        if isinstance(a, float) or isinstance(b, float):
            same = (a is not None and b is not None and
                    math.isclose(a, b, rel_tol=tol["rtol"], abs_tol=tol["atol"]))
        else:
            same = a == b
        if not same:
            problems.append(f"{key}: got {a!r}, reference {b!r}")
    return problems


def check_invariants(name: str, got: dict) -> list[str]:
    problems = []
    for rule in SPEC["workloads"][name]["invariants"]:
        left = got.get(rule["value"])
        right = rule["than"]
        right = got.get(right) if isinstance(right, str) else right
        if left is None or right is None or not OPS[rule["op"]](left, right):
            problems.append(f"invariant {rule['value']} {rule['op']} "
                            f"{rule['than']} fails ({left!r} vs {right!r})")
    return problems


def reference(name: str, seed: int):
    path = HERE / "reference" / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


class Checker:
    """Judges each execution's outputs and counts attempts and failures."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.kind = SPEC["workloads"][name]["kind"]
        self.ref = reference(name, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []

    def fail(self, label: str, problems) -> bool:
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def probe(self, label: str, sample: dict, setup) -> bool:
        """Check one set-up probe: exit code 0 and a set-up stamp."""
        self.attempted += 1
        if sample["code"] != 0:
            return self.fail(label, [f"exit code {sample['code']}"])
        return self.fail(label, [] if setup is not None
                         else ["no set-up stamp written"])

    def execution(self, label: str, sample: dict, out: Path) -> bool:
        """Check one full execution; identical outputs across executions."""
        self.attempted += 1
        if sample["code"] != 0:
            return self.fail(label, [f"exit code {sample['code']}"])
        report = out / ("sweep.json" if self.kind == "sweep" else "report.json")
        try:
            got = headline(self.kind, out)
        except (OSError, KeyError, ValueError) as exc:
            return self.fail(label, [f"unreadable output: {exc!r}"])
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        problems = []
        if self.digests and digest != self.digests[0]:
            problems.append(f"{report.name} sha256 {digest} differs from the "
                            f"first execution's {self.digests[0]}")
        self.digests.append(digest)
        if self.ref is not None:
            problems += compare_headline(got, self.ref["headline"])
        else:
            problems += check_invariants(self.name, got)
        return self.fail(label, problems)


# ------------------------------------------------------------------ timed runs

def _quartiles(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _setup_s(stamp: Path, sample: dict):
    if not stamp.exists():
        return None
    value = float(stamp.read_text()) - sample["t0"]
    stamp.unlink()
    return value


def timed_run(name: str, seconds: float, work: Path, checker: Checker) -> dict:
    base = [*_run_args(name, work, SPEC["workloads"][name]["threads"]),
            "--stamp", work / "stamp"]
    log = work / "child.log"
    setups = []
    for i in range(SPEC["setup_probes"]):
        sample = spawn([*base, "--out", work / f"probe{i}", "--probe"],
                       work, log)
        setup = _setup_s(work / "stamp", sample)
        if checker.probe(f"probe {i}", sample, setup):
            setups.append(setup)
    samples = []
    started = time.monotonic()
    while not samples or (time.monotonic() - started + statistics.median(
            s["wall_s"] for s in samples) <= seconds):
        out = work / f"exec{len(samples)}"
        sample = spawn([*base, "--out", out], work, log)
        sample["setup_s"] = _setup_s(work / "stamp", sample)
        sample["ok"] = checker.execution(f"execution {len(samples)}", sample,
                                         out)
        samples.append(sample)
        shutil.rmtree(out, ignore_errors=True)
    setups += [s["setup_s"] for s in samples if s["setup_s"] is not None]
    good = [s for s in samples if s["ok"]] or samples
    stats = {m: _quartiles([s[m] for s in good])
             for m in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = _quartiles(setups) if setups else None
    return {"stats": stats, "samples": samples, "setup_samples": setups}


# ------------------------------------------------------------------ traced run

def _choice_changes(fits, ref_fits) -> int:
    """(outer fold, unit) pairs whose chosen (gamma, alpha) digest differs;
    a fit present on one side only counts all of its pairs."""
    ref = {f["key"]: "".join(f["choices"]) for f in ref_fits}
    got = {f["key"]: "".join(f["choices"]) for f in fits}
    changed = 0
    for key in set(ref) | set(got):
        a, b = got.get(key, ""), ref.get(key, "")
        changed += sum(a[i:i + 2] != b[i:i + 2]
                       for i in range(0, max(len(a), len(b)), 2))
    return changed


def traced_execution(name: str, threads: int, work: Path, label: str,
                     checker: Checker):
    out, trace = work / f"out-{label}", work / f"trace-{label}.json"
    sample = spawn([*_run_args(name, work, threads), "--out", out,
                    "--trace", trace], work, work / "child.log")
    checker.execution(label, sample, out)
    doc = json.loads(trace.read_text()) if trace.exists() else None
    if doc is not None:
        check = doc["self_check"]
        problems = [f"trace self-check {k} failed"
                    for k in ("nested", "siblings_disjoint", "adds_up",
                              "restored") if not check[k]]
        checker.fail(label, problems)
    return sample, doc


def traced_run(name: str, seed: int, work: Path, checker: Checker,
               results: Path) -> dict:
    spec = SPEC["workloads"][name]
    untraced = spawn([*_run_args(name, work, spec["threads"]), "--out",
                      work / "out-untraced"], work, work / "child.log")
    checker.execution("untraced", untraced, work / "out-untraced")
    sample, doc = traced_execution(name, spec["threads"], work, "traced",
                                   checker)
    if doc is None:
        return {"metrics": None, "untraced": untraced, "traced": sample}
    metrics = dict(doc["summary"])
    metrics["trace.overhead_s"] = sample["wall_s"] - untraced["wall_s"]
    single = None
    if spec["kind"] == "compare":
        _, single = traced_execution(name, 1, work, "threads1", checker)
    if checker.ref is not None:
        choice_ref = "reference"
        metrics["ridge.choice_changes"] = _choice_changes(
            doc["fits"], checker.ref["fits"])
    elif single is not None:
        choice_ref = "threads-1 execution"
        metrics["ridge.choice_changes"] = _choice_changes(
            doc["fits"], single["fits"])
    else:
        choice_ref = None
        metrics["ridge.choice_changes"] = -1
    counts = ("ridge.eigh_calls", "ridge.candidates", "ridge.random_iters")
    counts_match = None if single is None else all(
        single["summary"][c] == doc["summary"][c] for c in counts)
    trace_file = results / f"{name}-seed{seed}.trace.json"
    trace_file.write_text(json.dumps(doc["spans"]))
    return {
        "metrics": metrics,
        "untraced": untraced,
        "traced": sample,
        "self_check": doc["self_check"],
        "choice_reference": choice_ref,
        "counts_match_threads1": counts_match,
        "spans_file": str(trace_file.relative_to(ROOT)),
    }


# ------------------------------------------------------------------------ main

def _bench_metrics(trace: bool) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Checker(name, seed)
    try:
        env = environment(work)
        prepare(name, seed, work)
        if trace:
            detail = traced_run(name, seed, work, checker, results)
            values = detail["metrics"] or {}
        else:
            detail = timed_run(name, seconds, work, checker)
            values = {m: q["median"] for m, q in detail["stats"].items()
                      if q is not None}
        log_tail = _tail(work) if checker.failed else ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for m in _bench_metrics(trace):
        if m["name"] not in values:
            checker.fail("result", [f"metric {m['name']} was not measured"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = max(checker.attempted, 1)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load_model": SPEC["load_model"],
        "env": env,
        "correct": checker.failed == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "failed_ratio": checker.failed / attempted,
        "metrics": metrics,
        "reference": "perfbench/reference" if checker.ref else "invariants",
        "report_sha256": sorted(set(checker.digests)),
        "problems": checker.problems,
        "detail": detail,
    }
    if log_tail:
        result["child_log_tail"] = log_tail
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def _print_human(result: dict) -> None:
    name = result["workload"]
    detail = result["detail"]
    stats = detail.get("stats", {})
    for metric, doc in result["metrics"].items():
        line = f"{name}  {metric} = {doc['value']:.6g} {doc['unit']}"
        q = stats.get(metric)
        if q:
            line += f"  (median of {q['n']}; q1 {q['q1']:.6g}, q3 {q['q3']:.6g})"
        print(line)
    print(f"{name}  failed_ratio = {result['failed_ratio']:.6g} ratio  "
          f"({result['failed']} of {result['attempted']} attempted; "
          f"checked against {result['reference']})")
    for problem in result["problems"]:
        print(f"{name}  FAILED {problem}")
    env = result["env"]
    print(f"{name}  env: nproc {env['nproc']}, BLAS {env['blas'].get('name')} "
          f"{env['blas'].get('version')} threads {env['blas'].get('threads')}, "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, "
          f"git {env['git_sha']} dirty={env['git_dirty']}")
    if result["trace"] and detail.get("self_check"):
        check = detail["self_check"]
        print(f"{name}  trace self-check: nested={check['nested']} "
              f"siblings_disjoint={check['siblings_disjoint']} "
              f"adds_up={check['adds_up']} (spans self "
              f"{check['spans_self_s']:.4f} s + untraced remainder "
              f"{check['untraced_remainder_s']:.4f} s = root "
              f"{check['root_wall_s']:.4f} s), restored "
              f"{check['patched_sites']} sites={check['restored']}; "
              f"choice reference: {detail['choice_reference']}; "
              f"counts match --threads 1: {detail['counts_match_threads1']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _exit_usage("--seed must be non-negative")
    if not (ROOT / "src" / "encodebench" / "__init__.py").is_file():
        _exit_usage(f"no encodebench sources under {ROOT / 'src'}; run from "
                    "the root of an encodebench checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        _exit_usage(f"no BENCHMARK.json in {ROOT}")
    names = list(SPEC["workloads"]) if args.workload == "all" \
        else [args.workload]
    results = []
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        _print_human(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results
                   for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
