"""Write perfbench/reference/<workload>.json from the current sources.

    python3 perfbench/make_reference.py --workload NAME --seeds 0-11

For each seed, one traced execution records the headline results the output
check compares against and each fit's chosen (gamma, alpha) digests that
``ridge.choice_changes`` counts against. Run it from the root of a checkout,
only when the reference itself should change, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_reference.py")
    parser.add_argument("--workload", required=True,
                        choices=list(run.SPEC["workloads"]))
    parser.add_argument("--seeds", required=True, type=_seeds)
    args = parser.parse_args(argv)
    spec = run.SPEC["workloads"][args.workload]
    path = run.HERE / "reference" / f"{args.workload}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    for seed in args.seeds:
        work = run.ROOT / ".perfbench" / "work" / f"reference-{args.workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            run.prepare(args.workload, seed, work)
            checker = run.Checker(args.workload, seed)
            checker.ref = None
            _, trace = run.traced_execution(args.workload, spec["threads"],
                                            work, "reference", checker)
            if trace is None or checker.failed:
                sys.stderr.write(f"seed {seed} failed: {checker.problems}\n"
                                 + run._tail(work))
                return 1
            doc["seeds"][str(seed)] = {
                "headline": run.headline(spec["kind"], work / "out-reference"),
                "fits": trace["fits"],
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{args.workload} seed {seed}: recorded", flush=True)
    # one seed per line, so a diff of the file shows which seeds changed
    lines = [json.dumps(seed) + ":" + json.dumps(entry, sort_keys=True,
                                                 separators=(",", ":"))
             for seed, entry in sorted(doc["seeds"].items(),
                                       key=lambda kv: int(kv[0]))]
    path.write_text('{"seeds":{\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
