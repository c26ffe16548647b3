import json
import os
import subprocess
import sys

import numpy as np
import pytest

import encodebench as eb
from encodebench.cli import main
from oracles import plan_invariants_oracle


def _lines(capsys):
    return [json.loads(line) for line in
            capsys.readouterr().out.strip().splitlines()]


class TestSynth:
    def test_writes_dataset(self, tmp_path, capsys):
        code = main(["synth", "--preset", "pereira-exp2", "--seed", "3",
                     "--units", "10", "--output", str(tmp_path / "d")])
        assert code == 0
        line = _lines(capsys)[0]
        assert line["event"] == "synth"
        dataset = eb.load_manifest(tmp_path / "d" / "manifest.json")
        assert dataset.recording.n_samples == 216
        assert dataset.recording.n_units == 10

    def test_seed_determinism(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["synth", "--preset", "fedorenko", "--seed", "9",
                         "--units", "6", "--output",
                         str(tmp_path / name)]) == 0
        bytes_a = (tmp_path / "a" / "responses.bbsm").read_bytes()
        bytes_b = (tmp_path / "b" / "responses.bbsm").read_bytes()
        assert bytes_a == bytes_b

    def test_missing_output_is_data_error(self, capsys):
        assert main(["synth", "--preset", "blank"]) == 2

    @pytest.mark.parametrize("option", ["--units", "--participants"])
    def test_count_below_one_exits_2(self, tmp_path, capsys, option):
        # --participants 0 used to label every unit participant 0 and exit 0
        out = tmp_path / "d"
        assert main(["synth", "--preset", "blank", option, "0",
                     "--output", str(out)]) == 2
        assert f"{option[2:]} must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestFeatures:
    def test_oasm_from_blocks(self, tmp_path, capsys):
        out = tmp_path / "oasm.bbsm"
        code = main(["features", "--kind", "oasm", "--blocks", "0,0,1,1",
                     "--sigma", "1.0", "--output", str(out)])
        assert code == 0
        matrix = eb.load_matrix(out)
        assert matrix.shape == (4, 4)
        assert np.all(matrix[:2, 2:] == 0.0)

    def test_sp(self, tmp_path, capsys):
        out = tmp_path / "sp.bbsm"
        assert main(["features", "--kind", "sp", "--passage-lengths", "4,3",
                     "--output", str(out)]) == 0
        assert eb.load_matrix(out).shape == (7, 4)

    def test_sl(self, tmp_path, capsys):
        out = tmp_path / "sl.bbsm"
        assert main(["features", "--kind", "sl", "--word-counts", "7,12",
                     "--output", str(out)]) == 0
        np.testing.assert_array_equal(eb.load_matrix(out), [[7.0], [12.0]])

    def test_wp(self, tmp_path, capsys):
        out = tmp_path / "wp.bbsm"
        assert main(["features", "--kind", "wp", "--sentences", "2",
                     "--output", str(out)]) == 0
        assert eb.load_matrix(out).shape == (16, 9)

    def test_missing_args_exit_2(self, tmp_path, capsys):
        assert main(["features", "--kind", "oasm",
                     "--output", str(tmp_path / "x.bbsm")]) == 2

    def test_oasm_from_manifest(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        manifest = tmp_path / "d" / "manifest.json"
        out = tmp_path / "oasm.bbsm"
        assert main(["features", "--kind", "oasm", "--manifest", str(manifest),
                     "--sigma", "1.0", "--output", str(out)]) == 0
        blocks = eb.load_manifest(manifest).recording.block_ids
        np.testing.assert_array_equal(
            eb.load_matrix(out), eb.build_oasm(len(blocks), blocks, 1.0).data)

    @pytest.mark.parametrize("argv,message", [
        (["oasm", "--sigma", "1.0"], "oasm needs --manifest or --blocks"),
        (["sp"], "sp needs --passage-lengths"),
        (["sl"], "sl needs --word-counts"),
        (["wp"], "wp needs --sentences"),
    ])
    def test_missing_input_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.bbsm"
        assert main(["features", "--kind", *argv, "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSplit:
    def test_plan_emitted(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp1", "--units", "5",
                     "--output", str(tmp_path / "d")]) == 0
        out = tmp_path / "plan.json"
        code = main(["split", "--manifest", str(tmp_path / "d" / "manifest.json"),
                     "--scheme", "pereira", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["outer_folds"]) == 8
        assert len(doc["outer_folds"][0]["inner_folds"]) == 7
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        plan_invariants_oracle(doc, manifest["sample_blocks"])

    def test_passage_with_two_categories_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        manifest = tmp_path / "d" / "manifest.json"
        doc = json.loads(manifest.read_text())
        assert doc["sample_blocks"][1] == doc["sample_blocks"][0]
        cats = doc["sample_categories"]
        cats[1] = next(c for c in cats if c != cats[0])
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "plan.json"
        code = main(["split", "--manifest", str(manifest),
                     "--scheme", "pereira", "--output", str(out)])
        assert code == 2
        assert "carries categories" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_shuffle_seed_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        out = tmp_path / "plan.json"
        code = main(["split", "--manifest", str(tmp_path / "d" / "manifest.json"),
                     "--scheme", "pereira", "--mode", "shuffled", "--seed", "-1",
                     "--output", str(out)])
        assert code == 2
        assert "shuffle_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_sentences_exits_2(self, tmp_path, capsys):
        blocks = np.repeat(np.arange(8), 4)
        spec = eb.SynthSpec(n_samples=32, n_units=2, block_ids=blocks,
                            signal_scale=0.0, seed=0, participants=[0, 1])
        manifest = eb.write_dataset(spec, tmp_path / "d", "eight")
        out = tmp_path / "plan.json"
        code = main(["split", "--manifest", str(manifest),
                     "--scheme", "fedorenko", "--output", str(out)])
        assert code == 2
        assert "no training" in capsys.readouterr().err
        assert not out.exists()


class TestSmoothingWidth:
    @pytest.mark.parametrize("argv", [
        ["features", "--kind", "oasm", "--blocks", "0,0,1,1", "--sigma", "inf"],
        ["fit", "--scheme", "pereira", "--oasm-sigma", "nan"],
        ["synth", "--preset", "blank", "--autocorr-sigma", "inf"],
        ["synth", "--preset", "blank", "--autocorr-sigma", "nan"],
        # finite, yet a kernel of 8e300 taps
        ["fit", "--scheme", "pereira", "--oasm-sigma", "1e300"],
        ["synth", "--preset", "blank", "--autocorr-sigma", "1e300"],
    ])
    def test_non_finite_sigma_exits_2(self, tmp_path, capsys, argv):
        # each used to end in an OverflowError or ValueError traceback (exit
        # 1), except synth's nan width, which skipped the smoothing and
        # exited 0
        if argv[0] == "fit":
            assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                         "--output", str(tmp_path / "d")]) == 0
            argv = [*argv, "--manifest", str(tmp_path / "d" / "manifest.json")]
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: ") and "finite" in err[-1]
        assert not out.exists()


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["fit", "--bogus"]) == 1
        assert main(["not-a-command"]) == 1

    def test_missing_manifest_is_2_without_partial_outputs(self, tmp_path,
                                                           capsys):
        out = tmp_path / "fit"
        code = main(["fit", "--manifest", str(tmp_path / "nope.json"),
                     "--scheme", "grouped", "--output", str(out)])
        assert code == 2
        assert not out.exists()


def _child_env(**extra):
    """The environment of a fresh ``python -m encodebench``: the package under
    test first on PYTHONPATH, whatever the pytest run had there."""
    src = os.path.dirname(os.path.dirname(eb.__file__))
    return dict(os.environ, PYTHONPATH=src, **extra)


@pytest.fixture
def searches(monkeypatch):
    """The feature names and search config of each banded_search call the
    CLI makes; the calls still run."""
    calls = []
    real = eb.cli.banded_search

    def recording(features, Y, plan, search_cfg, threads):
        calls.append(([fs.name for fs in features], search_cfg))
        return real(features, Y, plan, search_cfg=search_cfg, threads=threads)

    monkeypatch.setattr(eb.cli, "banded_search", recording)
    return calls


class TestFit:
    @pytest.fixture
    def fit_argv(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        return ["fit", "--manifest", str(tmp_path / "d" / "manifest.json"),
                "--scheme", "pereira", "--max-iters", "1", "--patience", "1"]

    def test_spaces_select_named_spaces(self, tmp_path, capsys, fit_argv,
                                        searches):
        assert main([*fit_argv, "--output", str(tmp_path / "all")]) == 0
        assert main([*fit_argv, "--spaces", "SL",
                     "--output", str(tmp_path / "sl")]) == 0
        assert [names for names, _ in searches] == [["SP", "SL"], ["SL"]]

    def test_infinite_min_improvement_exits_2(self, tmp_path, capsys, fit_argv,
                                              searches):
        # inf used to pass: every random step then counted as a stall
        out = tmp_path / "fit"
        assert main([*fit_argv, "--min-improvement", "inf",
                     "--output", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert searches == [] and not out.exists()

    def test_unknown_space_exits_2(self, tmp_path, capsys, fit_argv, searches):
        out = tmp_path / "fit"
        assert main([*fit_argv, "--spaces", "SP,NOPE", "--output", str(out)]) == 2
        assert "unknown feature spaces: ['NOPE']" in capsys.readouterr().err
        assert searches == [] and not out.exists()

    def test_seed_seeds_the_random_search(self, tmp_path, capsys, fit_argv,
                                          searches):
        assert main([*fit_argv, "--output", str(tmp_path / "a")]) == 0
        assert main([*fit_argv, "--seed", "5",
                     "--output", str(tmp_path / "b")]) == 0
        assert ([cfg.seed for _, cfg in searches]
                == [eb.BandedSearchConfig.seed, 5])

    def test_fit_writes_result(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "8",
                     "--output", str(tmp_path / "d")]) == 0
        out = tmp_path / "fit"
        code = main(["fit", "--manifest", str(tmp_path / "d" / "manifest.json"),
                     "--scheme", "pereira", "--max-iters", "5",
                     "--patience", "5", "--output", str(out)])
        assert code == 0
        assert (out / "fit.json").exists()
        assert (out / "test_predictions.bbsm").exists()
        line = _lines(capsys)[-1]
        assert line["event"] == "fit"
        assert set(line["bands"]) == {"spsl"}

    def test_oasm_sigma_refuses_manifest_oasm(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        manifest = tmp_path / "d" / "manifest.json"
        doc = json.loads(manifest.read_text())
        blocks = doc["sample_blocks"]
        eb.save_matrix(tmp_path / "d" / "oasm.bbsm",
                       eb.build_oasm(len(blocks), blocks, 1.0).data)
        doc["feature_spaces"].append(
            {"name": "OASM", "path": "oasm.bbsm", "band_group": "oasm"})
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "fit"
        code = main(["fit", "--manifest", str(manifest), "--scheme", "pereira",
                     "--oasm-sigma", "2.0", "--max-iters", "1",
                     "--patience", "1", "--output", str(out)])
        assert code == 2
        assert "already provides a matrix named OASM" in capsys.readouterr().err
        assert not out.exists()


    def test_repeated_space_exits_2(self, tmp_path, capsys):
        # used to fit one band holding SP twice and exit 0
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        out = tmp_path / "fit"
        code = main(["fit", "--manifest", str(tmp_path / "d" / "manifest.json"),
                     "--scheme", "pereira", "--spaces", "SP,SP",
                     "--max-iters", "1", "--patience", "1", "--output", str(out)])
        assert code == 2
        assert "--spaces repeats a name" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_shuffle_demo_contrast(self, tmp_path, capsys):
        assert main(["synth", "--preset", "shuffle-demo", "--seed", "7",
                     "--units", "24", "--participants", "4",
                     "--output", str(tmp_path / "d")]) == 0
        config = {
            "manifest": str(tmp_path / "d" / "manifest.json"),
            "split": {"scheme": "pereira", "mode": "both", "shuffle_seed": 7},
            "oasm_sigma": 2.0,
            "spaces": [{"name": "OASM", "members": ["OASM"], "band": "oasm"}],
            "families": [{"name": "main", "spaces": ["OASM"]}],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "report"
        code = main(["compare", "--config", str(cfg_path),
                     "--output", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        shuffled = doc["modes"]["shuffled"]["main"]["subsets"]["OASM"]["mean_r2"]
        contiguous = doc["modes"]["contiguous"]["main"]["subsets"]["OASM"]["mean_r2"]
        assert shuffled - contiguous >= 0.25

        compare_lines = [line for line in _lines(capsys)
                         if line["event"] == "compare"]
        assert compare_lines and all("mean_r2_corrected" in line
                                     for line in compare_lines)

        # report subcommand reads it back and prints the same family lines
        code = main(["report", "--input", str(out)])
        assert code == 0
        report_lines = [line for line in _lines(capsys)
                        if line["event"] == "report-family"]
        assert ([dict(line, event=None) for line in report_lines]
                == [dict(line, event=None) for line in compare_lines])

    @pytest.mark.parametrize("split", [
        {"scheme": "pereira", "mode": "shuffled", "shuffle_seed": -1},
        {"scheme": "pereira", "selection_seed": -3},
        {"scheme": "grouped", "n_outer": "5"},
    ])
    def test_bad_split_values_exit_2(self, tmp_path, capsys, split):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "manifest": "d/manifest.json", "split": split,
            "spaces": [{"name": "SPSL", "members": ["SP", "SL"]}],
            "families": [{"name": "main", "spaces": ["SPSL"]}],
            "search": {"max_iters": 1, "patience": 1},
        }))
        out = tmp_path / "report"
        assert main(["compare", "--config", str(cfg_path),
                     "--output", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_constant_response_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        doc = json.loads((tmp_path / "d" / "manifest.json").read_text())
        responses = tmp_path / "d" / doc["responses_path"]
        Y = eb.load_matrix(responses)
        Y[:, 2] = 0.25
        eb.save_matrix(responses, Y)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "manifest": "d/manifest.json", "split": {"scheme": "pereira"},
            "spaces": [{"name": "SPSL", "members": ["SP", "SL"]}],
            "families": [{"name": "main", "spaces": ["SPSL"]}],
        }))
        out = tmp_path / "report"
        assert main(["compare", "--config", str(cfg_path),
                     "--output", str(out)]) == 2
        assert ("constant validation target for units [2]"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("spaces, families", [
        # used to run every fit, then fail in json.dump on mixed key types
        (["SP", "SL"], [{"name": 1, "spaces": ["SP"]},
                        {"name": "main", "spaces": ["SL"]}]),
        # used to write report.json, then fail on a table path
        (["SP", "SL"], [{"name": "a/b", "spaces": ["SP", "SL"]}]),
        # subset {SP, SL} and space SP+SL shared one report entry
        (["SP", "SL", "SP+SL"], [{"name": "main",
                                  "spaces": ["SP", "SL", "SP+SL"]}]),
    ])
    def test_name_rule_exits_2_before_any_fit(self, tmp_path, capsys,
                                              monkeypatch, spaces, families):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        monkeypatch.setattr(eb.pipeline, "banded_search", None)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "manifest": "d/manifest.json", "split": {"scheme": "pereira"},
            "spaces": [{"name": name, "members": name.split("+")}
                       for name in spaces],
            "families": families,
        }))
        out = tmp_path / "report"
        assert main(["compare", "--config", str(cfg_path),
                     "--output", str(out)]) == 2
        assert "without '+' or '/'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_without_output_is_data_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "manifest": "nope.json",
            "split": {"scheme": "grouped"},
            "spaces": [], "families": [],
        }))
        assert main(["compare", "--config", str(cfg_path)]) == 2

    def test_no_output_in_either_place_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "manifest": "nope.json", "split": {"scheme": "pereira"},
            "spaces": [{"name": "SP", "members": ["SP"]}],
            "families": [{"name": "main", "spaces": ["SP"]}],
        }))
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--config", str(cfg_path)]) == 2
        assert "no output directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]


class TestOasmSweep:
    def test_sweep_runs(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "6",
                     "--autocorr-sigma", "1.0", "--signal-scale", "0.0",
                     "--output", str(tmp_path / "d")]) == 0
        out = tmp_path / "sweep"
        code = main(["oasm-sweep", "--manifest",
                     str(tmp_path / "d" / "manifest.json"),
                     "--scheme", "grouped", "--mode", "shuffled",
                     "--n-outer", "4", "--n-inner", "2",
                     "--output", str(out)])
        assert code == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert len(doc["grid"]) == 50
        assert doc["grid"][0] == 0.1 and doc["grid"][-1] == 5.0


class TestReport:
    @pytest.mark.parametrize("doc", [
        {},
        [],
        {"dataset": "d", "modes": {"contiguous": {"main": {
            "mean_r2_corrected": 0.1}}}},
    ])
    def test_malformed_report_exits_2_before_printing(self, tmp_path, capsys,
                                                      doc):
        (tmp_path / "report.json").write_text(json.dumps(doc))
        assert main(["report", "--input", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a report document" in captured.err


class TestThreads:
    def test_default_is_cpu_count_whatever_the_environment(self, monkeypatch):
        # the retired ENCODEBENCH_THREADS must not change the default
        from encodebench.cli import _resolve_threads
        monkeypatch.setenv("ENCODEBENCH_THREADS", "3")
        # the CPUs this process may run on, where the platform tells them
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                            raising=False)
        assert _resolve_threads(None) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _resolve_threads(None) == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_threads(None) == 1
        assert _resolve_threads(5) == 5

    # env: a value of the retired ENCODEBENCH_THREADS, which changes nothing
    @pytest.mark.parametrize("argv, env, message", [
        (["--threads", "0"], None, "--threads must be >= 1"),
        (["--threads", "-2"], None, "--threads must be >= 1"),
        (["--threads", "0"], "4", "--threads must be >= 1"),
    ])
    def test_compare_exits_2_before_reading_config(self, tmp_path, capsys,
                                                   monkeypatch, argv, env,
                                                   message):
        if env is not None:
            monkeypatch.setenv("ENCODEBENCH_THREADS", env)
        out = tmp_path / "report"
        code = main(["compare", "--config", str(tmp_path / "missing.json"),
                     "--output", str(out), *argv])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # the commands that fit nothing; compare, fit and oasm-sweep take --threads
    @pytest.mark.parametrize("argv", [
        ["synth", "--preset", "blank"],
        ["features", "--kind", "sp"],
        ["split", "--manifest", "m.json", "--scheme", "grouped"],
        ["report", "--input", "r"],
    ])
    def test_only_compare_takes_threads(self, capsys, argv):
        assert main([*argv, "--threads", "2"]) == 1
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "oasm-sweep"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_fitting_commands_check_threads_before_reading(
            self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        assert main([command, "--manifest", str(tmp_path / "missing.json"),
                     "--scheme", "pereira", "--threads", value,
                     "--output", str(out)]) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def _run_grid(self, tmp_path, argv, outputs, thread_args):
        """Run ``argv`` in a fresh process under OPENBLAS_NUM_THREADS 1 and 2
        and each of ``thread_args``; return each run's output bytes."""
        runs = {}
        for blas in ("1", "2"):
            for i, extra in enumerate(thread_args):
                out = tmp_path / f"out-{blas}-{i}"
                proc = subprocess.run(
                    [sys.executable, "-m", "encodebench", *argv, *extra,
                     "--output", str(out)],
                    cwd=tmp_path, env=_child_env(OPENBLAS_NUM_THREADS=blas),
                    capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
                runs[(blas, *extra)] = {name: (out / name).read_bytes()
                                        for name in outputs(out)}
        return runs

    @pytest.fixture
    def small_pereira(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--seed", "0",
                     "--units", "12", "--participants", "2",
                     "--output", str(tmp_path / "data")]) == 0
        return tmp_path / "data" / "manifest.json"

    def test_compare_outputs_identical_across_thread_counts(
            self, tmp_path, small_pereira):
        # they used to differ under OPENBLAS_NUM_THREADS=1 and 2 at ulp level
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": str(small_pereira),
            "split": {"scheme": "pereira", "mode": "contiguous"},
            "oasm_sigma": 1.0,
            "spaces": [{"name": "OASM", "members": ["OASM"]}],
            "families": [{"name": "main", "spaces": ["OASM"]}],
        }))

        def outputs(out):
            return ["report.json"] + sorted(
                str(p.relative_to(out)) for sub in ("tables", "predictions")
                for p in (out / sub).iterdir())

        runs = self._run_grid(tmp_path, ["compare", "--config", str(config)],
                              outputs, [["--threads", "1"], ["--threads", "2"]])
        first = runs[("1", "--threads", "1")]
        assert len(first) > 3
        for key, run in runs.items():
            assert run == first, key

    def test_update_path_outputs_identical_across_thread_counts(
            self, tmp_path, capsys):
        # SP+SL (5 columns) beside the 512-column LLM band: the joint fit
        # scores its candidates on the update path
        assert main(["synth", "--preset", "subsumption-demo", "--seed", "0",
                     "--units", "12", "--output", str(tmp_path / "data")]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": str(tmp_path / "data" / "manifest.json"),
            "split": {"scheme": "pereira", "mode": "contiguous"},
            "spaces": [{"name": "SPSL", "members": ["SP", "SL"]},
                       {"name": "LLM", "members": ["LLM"]}],
            "families": [{"name": "main", "spaces": ["SPSL", "LLM"]}],
            "search": {"max_iters": 4, "patience": 4},
        }))

        def outputs(out):
            return ["report.json"] + sorted(
                str(p.relative_to(out)) for sub in ("tables", "predictions")
                for p in (out / sub).iterdir())

        runs = self._run_grid(tmp_path, ["compare", "--config", str(config)],
                              outputs, [["--threads", "1"], ["--threads", "2"]])
        prov = json.loads(
            (tmp_path / "out-1-0" / "provenance.json").read_text())
        record = prov["fits"]["contiguous"]["LLM+SPSL"]
        paths, sets = record["solver_paths"], record["train_sets"]["distinct"]
        # the LLM-only mask is scored by the update path's dense base alone
        # (counted as gram), once per set and at most once per refit of the
        # 8 outer folds; no candidate takes a dense mixed Gram
        assert paths["update"] > 0 and sets <= paths["gram"] <= sets + 8
        first = runs[("1", "--threads", "1")]
        assert len(first) > 3
        for key, run in runs.items():
            assert run == first, key

    def test_block_base_update_outputs_identical_across_thread_counts(
            self, tmp_path, small_pereira, monkeypatch):
        # SP+SL (5 columns) beside OASM, a band of row groups wider than every
        # training set: the joint fits score on the update path's block base
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": str(small_pereira),
            "split": {"scheme": "pereira", "mode": "both", "shuffle_seed": 7},
            "oasm_sigma": 1.0,
            "spaces": [{"name": "OASM", "members": ["OASM"]},
                       {"name": "SPSL", "members": ["SP", "SL"]}],
            "families": [{"name": "main", "spaces": ["OASM", "SPSL"]}],
            "search": {"max_iters": 4, "patience": 4},
        }))

        def outputs(out):
            return ["report.json"] + sorted(
                str(p.relative_to(out)) for sub in ("tables", "predictions")
                for p in (out / sub).iterdir())

        runs = self._run_grid(tmp_path, ["compare", "--config", str(config)],
                              outputs, [["--threads", "1"], ["--threads", "2"]])
        first = runs[("1", "--threads", "1")]
        assert len(first) > 3
        for key, run in runs.items():
            assert run == first, key
        # the same run in this process builds a block base for each set
        bases = []
        real = eb.ridge._BlockUpdate.__init__
        monkeypatch.setattr(eb.ridge._BlockUpdate, "__init__",
                            lambda self, *args: bases.append(1)
                            or real(self, *args))
        out = tmp_path / "in-process"
        assert main(["compare", "--config", str(config), "--threads", "1",
                     "--output", str(out)]) == 0
        prov = json.loads((out / "provenance.json").read_text())
        fits = [prov["fits"][mode]["OASM+SPSL"]
                for mode in ("contiguous", "shuffled")]
        assert all(fit["solver_paths"]["update"] > 0 for fit in fits)
        assert len(bases) >= sum(fit["train_sets"]["distinct"] for fit in fits)
        assert {name: (out / name).read_bytes()
                for name in outputs(out)} == first

    def test_fit_outputs_identical_across_blas_thread_counts(
            self, tmp_path, small_pereira):
        argv = ["fit", "--manifest", str(small_pereira), "--scheme", "pereira",
                "--oasm-sigma", "1.0", "--max-iters", "5", "--patience", "5"]
        names = ["fit.json", "test_predictions.bbsm",
                 "intercept_predictions.bbsm"]
        runs = self._run_grid(tmp_path, argv, lambda out: names,
                              [["--threads", "1"], ["--threads", "2"]])
        first = runs[("1", "--threads", "1")]
        for key, run in runs.items():
            assert run == first, key

    def test_oasm_sweep_outputs_identical_across_thread_counts(
            self, tmp_path, small_pereira):
        argv = ["oasm-sweep", "--manifest", str(small_pereira),
                "--scheme", "pereira", "--mode", "shuffled", "--seed", "3"]
        runs = self._run_grid(tmp_path, argv, lambda out: ["sweep.json"],
                              [["--threads", "1"], ["--threads", "2"]])
        first = runs[("1", "--threads", "1")]
        for key, run in runs.items():
            assert run == first, key

    # each used to be accepted and then ignored
    @pytest.mark.parametrize("argv", [
        ["compare", "--config", "c.json", "--seed", "7"],
        ["features", "--kind", "sp", "--seed", "7"],
        ["report", "--input", "r", "--seed", "7"],
        ["report", "--input", "r", "--output", "o"],
    ])
    def test_options_no_handler_reads_are_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class TestUnreadOptions:
    # each used to be accepted and then ignored, exiting 0
    @pytest.mark.parametrize("argv,option", [
        (["split", "--scheme", "pereira", "--seed", "1"], "--seed"),
        (["oasm-sweep", "--scheme", "pereira", "--seed", "1"], "--seed"),
        (["split", "--scheme", "pereira", "--n-outer", "3"], "--n-outer"),
        (["fit", "--scheme", "fedorenko", "--n-inner", "3"], "--n-inner"),
        (["oasm-sweep", "--scheme", "blank", "--mode", "shuffled",
          "--n-outer", "3"], "--n-outer"),
        (["features", "--kind", "sp", "--passage-lengths", "4,3",
          "--sigma", "2.0", "--blocks", "0,1"], "--blocks, --sigma"),
        (["features", "--kind", "oasm", "--sigma", "1.0", "--blocks", "0,0",
          "--sentences", "2"], "--sentences"),
        (["features", "--kind", "oasm", "--sigma", "1.0", "--blocks", "0,0",
          "--manifest", "MANIFEST"], "--manifest and --blocks"),
    ])
    def test_exits_2_naming_the_option(self, tmp_path, capsys, argv, option):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        manifest = str(tmp_path / "d" / "manifest.json")
        if argv[0] != "features":
            argv = [argv[0], "--manifest", manifest, *argv[1:]]
        argv = [manifest if a == "MANIFEST" else a for a in argv]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_read_options_still_accepted(self, tmp_path, capsys):
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(tmp_path / "d")]) == 0
        manifest = str(tmp_path / "d" / "manifest.json")
        plans = []
        for seed in ("1", "2"):
            out = tmp_path / f"plan-{seed}.json"
            assert main(["split", "--manifest", manifest, "--scheme", "pereira",
                         "--mode", "shuffled", "--seed", seed,
                         "--output", str(out)]) == 0
            plans.append(out.read_bytes())
        assert plans[0] != plans[1]
        assert main(["split", "--manifest", manifest, "--scheme", "grouped",
                     "--n-outer", "3", "--n-inner", "2",
                     "--output", str(tmp_path / "grouped.json")]) == 0


class TestOutputContainment:
    def test_synth_writes_only_under_output(self, tmp_path, capsys,
                                            monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "out"
        assert main(["synth", "--preset", "pereira-exp2", "--units", "4",
                     "--output", str(out)]) == 0
        assert list(workdir.iterdir()) == []
        assert (out / "manifest.json").exists()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "encodebench", "--help"],
        env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout
