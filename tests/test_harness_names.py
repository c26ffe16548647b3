"""The benchmark harness under perfbench/ and the demos under scripts/ look
encodebench functions up by name, and src docs name private code; these
tests fail when a rename or a signature change would break them."""

import ast
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import encodebench as eb

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted((PERFBENCH.parent / "scripts").glob("*.py"))


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("child")


def test_traced_names_resolve(harness):
    tracer, _ = harness
    for span, (module, attr) in tracer.TRACED.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    assert callable(eb.pipeline.RunReport.save)


def _sweep_config(tmp_path) -> dict:
    """A 48-sample fedorenko-style dataset and a two-sigma sweep config."""
    blocks = np.repeat(np.arange(12), 4)
    spec = eb.SynthSpec(n_samples=48, n_units=4, block_ids=blocks,
                        signal_scale=0.0, autocorr_sigma=1.0, seed=3,
                        participants=np.arange(4) % 2)
    eb.write_dataset(spec, tmp_path / "data", dataset_name="harness")
    return {"manifest": "manifest.json", "sigma_stride": 25,
            "split": {"scheme": "fedorenko", "shuffle_seed": 0}}


def _compare_config(tmp_path) -> dict:
    """A 24-sample passage dataset and a two-space compare config."""
    blocks = np.repeat(np.arange(8), 3)
    sp = eb.build_sentence_position([3] * 8, band_group="sp")
    spec = eb.SynthSpec(n_samples=24, n_units=4, block_ids=blocks,
                        signal_features=[sp], noise_scale=1.0, seed=3,
                        participants=np.arange(4) % 2,
                        categories=np.repeat(np.arange(8) // 2, 3))
    eb.write_dataset(spec, tmp_path / "data", dataset_name="harness")
    return {
        "manifest": "manifest.json", "oasm_sigma": 1.0,
        "split": {"scheme": "pereira", "mode": "contiguous"},
        "spaces": [{"name": "OASM", "members": ["OASM"]},
                   {"name": "SP", "members": ["SP"]}],
        "families": [{"name": "main", "spaces": ["OASM", "SP"], "llm": "SP"}],
        "tests": [{"name": "sp-vs-chance", "model_a": {"spaces": ["SP"]},
                   "model_b": "intercept"}],
        "search": {"max_iters": 2, "patience": 1},
    }


def test_sweep_runs_as_the_harness_runs_it(harness, tmp_path):
    """child.py's sweep: build_plan(SplitSpec(scheme=...), recording),
    shuffle_plan, then sweep_oasm_sigma(..., sigmas=...), all traced."""
    tracer, child = harness
    config = _sweep_config(tmp_path)
    recorder = tracer.Recorder()
    recorder.install()
    try:
        code = child._sweep(config, str(tmp_path / "data" / "config.json"),
                            str(tmp_path / "out"))
    finally:
        _, restored = recorder.restore()
    assert code == 0 and restored
    names = {span.name for span in recorder.spans}
    assert {"splits.build_plan", "splits.plan_fedorenko", "splits.shuffle_plan",
            "features.sweep_oasm_sigma", "ridge.banded_search"} <= names
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert len(doc["grid"]) == len(doc["scores"]) == 2


def test_compare_runs_as_the_harness_runs_it(harness, tmp_path):
    """child.py's compare: encodebench.cli.main(["compare", ...]), traced."""
    tracer, child = harness
    config_path = tmp_path / "data" / "config.json"
    config_path.write_text(json.dumps(_compare_config(tmp_path)))
    recorder = tracer.Recorder()
    recorder.install()
    try:
        code = child._execute("compare", str(config_path),
                              str(tmp_path / "out"), 1)
    finally:
        patched, restored = recorder.restore()
    assert code == 0 and patched > 0 and restored
    names = {span.name for span in recorder.spans}
    assert {"pipeline.run_analysis", "pipeline.RunReport.save", "metrics.r2_oos",
            "metrics.build_comparison_report", "stats.bh_fdr",
            "ridge.banded_search"} <= names
    saves = [s for s in recorder.spans if s.name == "pipeline.RunReport.save"]
    assert len(saves) == 1 and saves[0].info["bytes"] > 0


@pytest.mark.parametrize("kind,make_config", [("sweep", _sweep_config),
                                               ("compare", _compare_config)])
def test_setup_probe_writes_its_stamp(tmp_path, kind, make_config):
    """run.py's set-up probe: ``child.py run --stamp F --probe`` writes the
    time of the first ridge.banded_search call to F and exits 0 there."""
    config_path = tmp_path / "data" / "config.json"
    config_path.write_text(json.dumps(make_config(tmp_path)))
    stamp, out = tmp_path / "stamp", tmp_path / "out"
    src = os.path.dirname(os.path.dirname(eb.__file__))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "run", "--kind", kind,
         "--config", str(config_path), "--out", str(out), "--threads", "1",
         "--stamp", str(stamp), "--probe"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    float(stamp.read_text())  # raises unless the stamp is a float
    assert not out.exists()  # the probe stops before any fit


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_names_resolve(script):
    """Every name a script takes from encodebench exists, checked without
    running it: each ``eb.<name>``, each ``ridge.<name>`` (private names
    included) and each name imported from an encodebench module."""
    tree = ast.parse(script.read_text())
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name,
                            importlib.import_module(alias.name))
                           for alias in node.names
                           if alias.name.startswith("encodebench"))
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("encodebench")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif inspect.ismodule(getattr(module, alias.name)):
                    modules[alias.asname or alias.name] = getattr(module,
                                                                  alias.name)
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert any(name == "eb" for name, _ in used), \
        f"{script.name} uses no eb.<name>"
    missing += [f"{name}.{attr}" for name, attr in used
                if not hasattr(modules[name], attr)]
    assert sorted(missing) == []


def test_workload_presets_exist():
    """A renamed preset fails here before it fails the benchmark's synth."""
    workloads = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]
    named = {w["preset"] for w in workloads.values()}
    assert named and named <= set(eb.synthgen.PRESETS)


# acceptance criterion 1 checks ridge_solve against the normal-equation oracle
_EXPORTED_FOR_TESTS = {"ridge_solve"}


def test_every_export_has_a_caller():
    """Every name the package exports is used by another src module, by the
    benchmark harness or by a demo, not only by tests."""
    src = Path(eb.__file__).resolve().parent
    init = ast.parse((src / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    texts = [path.read_text() for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"]
    texts += [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    texts += [path.read_text() for path in SCRIPTS]
    lines = [line for text in texts for line in text.splitlines()]

    def used(name):
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        return any(word.search(line) and not own.match(line) for line in lines)

    unused = [name for name in exported
              if name not in _EXPORTED_FOR_TESTS and not used(name)]
    assert unused == []


def test_private_names_in_docs_resolve():
    """Every private name that a src docstring or comment writes in double
    backticks, such as ``_uses_gram`` in ridge.py, exists in its own module,
    so a rename leaves no stale reference behind."""
    src = Path(eb.__file__).resolve().parent
    refs, stale = 0, []
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module(f"encodebench.{path.stem}")
        text = io.StringIO(path.read_text())
        for tok in tokenize.generate_tokens(text.readline):
            if tok.type not in (tokenize.COMMENT, tokenize.STRING):
                continue
            for ref in re.findall(r"``([A-Za-z_][\w.]*)``", tok.string):
                if not any(part.startswith("_") for part in ref.split(".")):
                    continue
                refs += 1
                obj = module
                for part in ref.split("."):
                    obj = getattr(obj, part, stale)
                if obj is stale:
                    stale.append(f"{path.name}:{tok.start[0]} {ref}")
    assert refs > 0 and stale == []
