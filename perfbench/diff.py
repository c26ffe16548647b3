"""Informational diff of two benchmark result files.

    python3 perfbench/diff.py OLD.json NEW.json

Takes two files that perfbench/run.py wrote under .perfbench/results/ and
prints, for every metric both hold, the old and new value and the change. A
metric that got worse by more than 10% (slower, for a time) is flagged. The
environment blocks are compared too, since a different BLAS thread count or
core count explains many changes. This never fails a run and never replaces
the end-to-end verdict, which compares medians over many runs against the
bounds in BENCHMARK.json; it always exits 0 once both files are read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FLAG_SHARE = 0.10


def _directions() -> dict:
    bench = Path.cwd() / "BENCHMARK.json"
    if not bench.exists():
        bench = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    doc = json.loads(bench.read_text())
    return {m["name"]: m["better"]
            for m in doc["end_to_end"] + doc["per_layer"]}


def _flatten(env: dict, prefix="") -> dict:
    flat = {}
    for key, value in env.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def diff(old: dict, new: dict, better: dict) -> list[str]:
    lines = []
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        lines.append(f"note: comparing {old['workload']} trace={old['trace']} "
                     f"with {new['workload']} trace={new['trace']}")
    old_env, new_env = _flatten(old["env"]), _flatten(new["env"])
    for key in sorted(set(old_env) | set(new_env)):
        if old_env.get(key) != new_env.get(key):
            lines.append(f"env {key}: {old_env.get(key)!r} -> "
                         f"{new_env.get(key)!r}")
    for name, doc in old["metrics"].items():
        if name not in new["metrics"]:
            lines.append(f"{name}: only in the old file")
            continue
        a, b = doc["value"], new["metrics"][name]["value"]
        change = (b - a) / abs(a) if a else (0.0 if a == b else float("inf"))
        worse = -change if better.get(name) == "higher" else change
        flag = "  WORSE >10%" if worse > FLAG_SHARE else ""
        if flag and doc["unit"] == "s":
            flag = "  SLOWER >10%"
        lines.append(f"{name}: {a:.6g} -> {b:.6g} {doc['unit']} "
                     f"({change:+.1%}){flag}")
    lines.extend(f"{name}: only in the new file"
                 for name in new["metrics"] if name not in old["metrics"])
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    try:
        old, new = (json.loads(Path(p).read_text()) for p in argv)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"diff.py: {exc}\n")
        return 2
    print("\n".join(diff(old, new, _directions())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
