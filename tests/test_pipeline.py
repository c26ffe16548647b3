import csv
import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

import encodebench as eb
from encodebench.errors import DataError
from encodebench.pipeline import AnalysisConfig, star_predictions
from oracles import layered_best_oracle


class TestLayeredBest:
    def test_two_space_example(self):
        scores = {("A",): 0.1, ("B",): 0.2, ("A", "B"): 0.15}
        entries = eb.layered_best(scores, ["A", "B"])
        assert entries[0]["space"] == "A" and entries[0]["score"] == 0.1
        assert entries[1]["space"] == "B" and entries[1]["score"] == 0.2

    def test_lowest_tier_is_solo_score(self):
        scores = {("A",): 0.3, ("B",): 0.5, ("A", "B"): 0.9}
        entries = eb.layered_best(scores, ["A", "B"])
        assert entries[0]["score"] == 0.3  # only {A} qualifies for tier A

    def test_matches_brute_force(self, rng):
        spaces = ("A", "B", "C", "D")
        table = {
            frozenset(c): float(rng.standard_normal())
            for size in range(1, 5)
            for c in itertools.combinations(spaces, size)
        }
        entries = eb.layered_best(table, list(spaces))
        expected = layered_best_oracle(table, list(spaces))
        for entry, score in zip(entries, expected):
            assert abs(entry["score"] - score) < 1e-12

    def test_incomplete_order_rejected(self):
        with pytest.raises(DataError):
            eb.layered_best({("A",): 0.1, ("B",): 0.2, ("A", "B"): 0.3}, ["A"])

    def test_tie_prefers_smaller_subset(self):
        scores = {("A",): 0.2, ("B",): 0.1, ("A", "B"): 0.2}
        entries = eb.layered_best(scores, ["A", "B"])
        assert entries[0]["subset"] == "A"

    def test_non_decreasing_when_adding_spaces_never_hurts(self, rng):
        # monotone score tables (supersets never score lower) must give
        # non-decreasing per-tier scores
        spaces = ("A", "B", "C")
        base = {s: float(rng.uniform(0, 0.1)) for s in spaces}
        table = {
            frozenset(c): sum(base[s] for s in c)
            for size in range(1, 4)
            for c in itertools.combinations(spaces, size)
        }
        entries = eb.layered_best(table, list(spaces))
        tier_scores = [e["score"] for e in entries]
        assert all(b >= a - 1e-15 for a, b in zip(tier_scores,
                                                  tier_scores[1:]))


class TestStarPredictions:
    def test_selects_per_unit_best(self, rng):
        preds = {
            frozenset(["A"]): np.full((4, 2), 1.0),
            frozenset(["B"]): np.full((4, 2), 2.0),
            frozenset(["A", "B"]): np.full((4, 2), 3.0),
        }
        scores = {
            frozenset(["A"]): np.array([0.9, 0.0]),
            frozenset(["B"]): np.array([0.1, 0.8]),
            frozenset(["A", "B"]): np.array([0.5, 0.5]),
        }
        out = star_predictions(preds, scores, ("A", "B"))
        np.testing.assert_array_equal(out[:, 0], np.full(4, 1.0))
        np.testing.assert_array_equal(out[:, 1], np.full(4, 2.0))

    def test_required_restricts(self):
        preds = {
            frozenset(["A"]): np.full((3, 1), 1.0),
            frozenset(["B"]): np.full((3, 1), 2.0),
            frozenset(["A", "B"]): np.full((3, 1), 3.0),
        }
        scores = {
            frozenset(["A"]): np.array([0.9]),
            frozenset(["B"]): np.array([0.2]),
            frozenset(["A", "B"]): np.array([0.1]),
        }
        out = star_predictions(preds, scores, ("A", "B"), required="B")
        np.testing.assert_array_equal(out[:, 0], np.full(3, 2.0))


def _make_dataset(tmp_path, rng, n_spaces=2, n_units=12, seed=0,
                  signal_spaces=(0,)):
    blocks = np.repeat(np.arange(12), 4)
    features = []
    for i in range(n_spaces):
        features.append(eb.FeatureSpace(
            f"F{i}", rng.standard_normal((48, 3)), f"f{i}"))
    responses = 0.5 * rng.standard_normal((48, n_units))
    for idx in signal_spaces:
        responses += features[idx].data @ rng.standard_normal((3, n_units))
    for path_stem, fs in zip("abcdef", features):
        eb.save_matrix(tmp_path / f"{path_stem}.bbsm", fs.data)
    eb.save_matrix(tmp_path / "resp.bbsm", responses)
    doc = {
        "dataset_name": "pipe-toy",
        "feature_spaces": [
            {"name": f"F{i}", "path": f"{stem}.bbsm", "band_group": f"f{i}"}
            for i, stem in zip(range(n_spaces), "abcdef")
        ],
        "responses_path": "resp.bbsm",
        "sample_blocks": [int(b) for b in blocks],
        "unit_participants": [int(u % 3) for u in range(n_units)],
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    return manifest


def _base_config(manifest, n_spaces=2, **extra):
    doc = {
        "manifest": str(manifest),
        "split": {"scheme": "grouped", "mode": "contiguous",
                  "n_outer": 4, "n_inner": 3},
        "spaces": [{"name": f"F{i}", "members": [f"F{i}"], "band": f"f{i}"}
                   for i in range(n_spaces)],
        "families": [{"name": "main",
                      "spaces": [f"F{i}" for i in range(n_spaces)]}],
        "search": {"max_iters": 1, "patience": 1, "seed": 0},
    }
    doc.update(extra)
    return doc


def _passage_dataset(out_dir):
    """8 passages of 3 samples in 4 categories (a 4 x 3 Pereira plan), 6
    units in 2 participants; SP carries the signal, SL is an extra space."""
    blocks = np.repeat(np.arange(8), 3)
    sp = eb.build_sentence_position([3] * 8, band_group="sp")
    sl = eb.build_sentence_length(np.arange(24) % 5 + 4, band_group="sl")
    spec = eb.SynthSpec(n_samples=24, n_units=6, block_ids=blocks,
                        signal_features=[sp], autocorr_sigma=1.0,
                        noise_scale=1.0, signal_scale=0.5,
                        participants=np.arange(6) % 2,
                        categories=np.repeat(np.arange(8) // 2, 3), seed=0)
    return eb.write_dataset(spec, out_dir, "passages", extra_features=[sl])


def _passage_config(manifest, mode="contiguous", **extra):
    doc = {
        "manifest": str(manifest),
        "split": {"scheme": "pereira", "mode": mode},
        "oasm_sigma": 1.0,
        "spaces": [{"name": n, "members": [n]} for n in ("OASM", "SP", "SL")],
        "families": [{"name": "main", "spaces": ["OASM", "SP"], "llm": "SP"}],
        "search": {"max_iters": 2, "patience": 1, "seed": 0},
    }
    doc.update(extra)
    return doc


class TestConfig:
    def test_unknown_space_rejected(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng)
        doc = _base_config(manifest)
        doc["families"][0]["spaces"] = ["F0", "NOPE"]
        with pytest.raises(DataError):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    def test_family_cap_enforced(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng)
        doc = _base_config(manifest)
        doc["spaces"] = [{"name": f"S{i}", "members": ["F0"]}
                         for i in range(7)]
        doc["families"] = [{"name": "big",
                            "spaces": [f"S{i}" for i in range(7)]}]
        with pytest.raises(DataError):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    def test_bad_search_keys_are_data_errors(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng)
        doc = _base_config(manifest)
        doc["search"] = {"bogus": 1}
        with pytest.raises(DataError):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)
        doc = _base_config(manifest)
        del doc["manifest"]
        with pytest.raises(DataError):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    @pytest.mark.parametrize("side", [{"spaces": []}, {"family": []}])
    def test_empty_test_side_rejected(self, tmp_path, rng, side):
        manifest = _make_dataset(tmp_path, rng)
        doc = _base_config(manifest, tests=[
            {"name": "empty", "model_a": side, "model_b": "intercept"}])
        with pytest.raises(DataError, match="names no spaces"):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    def test_llm_must_be_in_family(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng)
        doc = _base_config(manifest)
        doc["families"][0]["llm"] = "F5"
        with pytest.raises(DataError):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    def test_family_of_only_its_llm_rejected(self, tmp_path):
        # compare used to run every fit and then exit 2 on omega's missing
        # LLM-free subset, writing nothing
        doc = _base_config("manifest.json",
                           families=[{"name": "solo", "spaces": ["F1"], "llm": "F1"}])
        with pytest.raises(DataError, match="only space is its llm"):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    # (section, key): a misspelt or misplaced key in each section and side form
    @pytest.mark.parametrize("section,key", [
        ("top", "serach"), ("split", "seed"), ("space", "bnad"),
        ("family", "complexity-order"), ("test", "model_c"),
        ("family side", "requried"), ("spaces side", "required"),
        ("ridge", "alpha"), ("search", "max_iter"),
    ])
    def test_unknown_key_rejected_in_every_section(self, tmp_path, section, key):
        doc = _base_config("manifest.json", ridge={"alphas": [0.0, 1.0]}, tests=[{
            "name": "pair", "model_a": {"family": ["F0", "F1"], "required": "F1"},
            "model_b": {"spaces": ["F0"]}}])
        AnalysisConfig.from_dict(doc, base_dir=tmp_path)
        pair = doc["tests"][0]
        target = {"top": doc, "split": doc["split"], "space": doc["spaces"][0],
                  "family": doc["families"][0], "test": pair,
                  "family side": pair["model_a"], "spaces side": pair["model_b"],
                  "ridge": doc["ridge"], "search": doc["search"]}[section]
        target[key] = "F0"
        with pytest.raises(DataError):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    @pytest.mark.parametrize("level", [0.0, 1.0, 2.0, -0.05])
    def test_alpha_level_outside_unit_interval_rejected(self, tmp_path, level):
        doc = _base_config("manifest.json", alpha_level=level)
        with pytest.raises(DataError, match="alpha_level"):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    @pytest.mark.parametrize("section,values", [
        ("split", {"shuffle_seed": -1}), ("split", {"selection_seed": -3}),
        ("split", {"n_outer": "5"}), ("split", {"n_inner": 2.5}),
        ("split", {"shuffle_seed": True}), ("split", {"mode": "shuffle"}),
        ("search", {"max_iters": 5.5}), ("search", {"seed": 1.5}),
        ("ridge", {"alphas": [0, "x"]}), ("ridge", {"alphas": [0, "1"]}),
        ("top", {"oasm_sigma": "2"}), ("top", {"oasm_sigma": 0.0}),
        # a bool is not a number: oasm_sigma true ran OASM at sigma 1, and
        # min_improvement true was taken as 1.0
        ("top", {"oasm_sigma": True}), ("top", {"alpha_level": True}),
        ("search", {"min_improvement": True}), ("ridge", {"alphas": [0, True]}),
    ])
    def test_bad_values_rejected_at_load(self, tmp_path, section, values):
        doc = _base_config("manifest.json", ridge={})
        (doc if section == "top" else doc[section]).update(values)
        with pytest.raises(DataError):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    @pytest.mark.parametrize("section", ["spaces", "families", "tests"])
    def test_duplicate_names_rejected(self, tmp_path, section):
        # report.json and the tables key families and tests by name, so a
        # repeated name used to overwrite the earlier entry's results
        doc = _base_config("manifest.json", tests=[
            {"name": "pair", "model_a": {"spaces": ["F0"]}, "model_b": "intercept"}])
        doc[section].append(dict(doc[section][0]))
        with pytest.raises(DataError, match="duplicate"):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    def test_config_without_families_rejected(self, tmp_path):
        # run_analysis used to stop with StopIteration after planning
        doc = _base_config("manifest.json", families=[])
        with pytest.raises(DataError, match="no families"):
            AnalysisConfig.from_dict(doc, base_dir=tmp_path)

    def test_spec_classes_own_their_defaults(self, tmp_path):
        config = AnalysisConfig.from_dict({
            "manifest": "manifest.json", "split": {"scheme": "blank"},
            "spaces": [{"name": "LLM", "members": ["LLM"]},
                       {"name": "SPSL", "members": ["SP", "SL"]}],
            "families": [{"name": "main", "spaces": ["SPSL", "LLM"]}],
        }, base_dir=tmp_path)
        assert [s.band for s in config.spaces] == ["llm", "spsl"]
        assert config.families[0].complexity_order == ("SPSL", "LLM")
        assert config.split == eb.pipeline.SplitSpec("blank")
        assert config.search == eb.BandedSearchConfig()
        assert config.alpha_level == 0.05

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Analysis configs", 1)[1]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        config = AnalysisConfig.from_dict(json.loads(example), base_dir=tmp_path)
        assert [f.name for f in config.families] == ["main"]
        assert config.tests[0].model_a.star and config.tests[0].model_a.required


class TestRunAnalysis:
    def test_three_spaces_give_seven_subsets(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng, n_spaces=3)
        config = AnalysisConfig.from_dict(
            _base_config(manifest, n_spaces=3), base_dir=tmp_path)
        report = eb.run_analysis(config)
        fam = report.results["contiguous"]["main"]
        assert len(fam.subset_r2) == 7

    def test_six_spaces_give_sixty_three_fits(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng, n_spaces=6, n_units=6)
        doc = _base_config(manifest, n_spaces=6)
        doc["split"] = {"scheme": "grouped", "mode": "contiguous",
                        "n_outer": 2, "n_inner": 2}
        config = AnalysisConfig.from_dict(doc, base_dir=tmp_path)
        report = eb.run_analysis(config, threads=4)
        fam = report.results["contiguous"]["main"]
        assert len(fam.subset_r2) == 63

    def test_corrected_dominates_every_subset(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng)
        config = AnalysisConfig.from_dict(
            _base_config(manifest), base_dir=tmp_path)
        report = eb.run_analysis(config)
        fam = report.results["contiguous"]["main"]
        for values in fam.subset_r2.values():
            assert (fam.comparison.r2_corrected >= values - 1e-15).all()

    def test_omega_subsumption(self, tmp_path):
        spec, extras = eb.preset("subsumption-demo", seed=1, n_units=24)
        manifest = eb.write_dataset(spec, tmp_path / "data", "subsume",
                                    extra_features=extras)
        config = AnalysisConfig.from_dict({
            "manifest": str(manifest),
            "split": {"scheme": "pereira", "mode": "contiguous"},
            "spaces": [
                {"name": "SPSL", "members": ["SP", "SL"], "band": "spsl"},
                {"name": "LLM", "members": ["LLM"], "band": "llm"},
            ],
            "families": [{"name": "main", "spaces": ["SPSL", "LLM"],
                          "llm": "LLM"}],
        }, base_dir=tmp_path)
        report = eb.run_analysis(config, threads=4)
        fam = report.results["contiguous"]["main"]
        assert fam.comparison.omega.mean >= 95.0

    def test_rerun_is_byte_identical(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng)
        doc = _base_config(manifest)
        doc["split"]["mode"] = "both"
        doc["tests"] = [{"name": "f0-vs-chance",
                         "model_a": {"spaces": ["F0"]},
                         "model_b": "intercept"}]
        config = AnalysisConfig.from_dict(doc, base_dir=tmp_path)
        digests = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            eb.run_analysis(config, threads=1 if run == "r1" else 4,
                            output_dir=out)
            tree = {}
            for p in sorted(out.rglob("*")):
                if p.is_file() and p.name != "provenance.json":
                    tree[str(p.relative_to(out))] = hashlib.sha256(
                        p.read_bytes()).hexdigest()
            digests.append(tree)
        assert digests[0] == digests[1]

    def test_both_modes_present(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng)
        doc = _base_config(manifest)
        doc["split"]["mode"] = "both"
        config = AnalysisConfig.from_dict(doc, base_dir=tmp_path)
        report = eb.run_analysis(config)
        assert set(report.results) == {"contiguous", "shuffled"}

    def test_star_test_pair(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng, signal_spaces=(0, 1))
        doc = _base_config(manifest)
        doc["families"][0]["llm"] = "F1"
        doc["tests"] = [{
            "name": "llm-added",
            "model_a": {"family": ["F0", "F1"], "required": "F1"},
            "model_b": {"spaces": ["F0"]},
        }]
        config = AnalysisConfig.from_dict(doc, base_dir=tmp_path)
        report = eb.run_analysis(config)
        fam = report.results["contiguous"]["main"]
        assert len(fam.tests) == 1
        assert fam.tests[0].result.p.shape == (12,)

    def test_report_files_written(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng)
        config = AnalysisConfig.from_dict(
            _base_config(manifest), base_dir=tmp_path)
        out = tmp_path / "report"
        eb.run_analysis(config, output_dir=out)
        assert (out / "report.json").exists()
        assert (out / "provenance.json").exists()
        assert (out / "tables" / "contiguous__main__r2.csv").exists()
        assert (out / "predictions" / "contiguous__intercept.bbsm").exists()
        doc = json.loads((out / "report.json").read_text())
        assert "F0" in doc["modes"]["contiguous"]["main"]["subsets"]

    def test_provenance_records_environment(self, tmp_path, rng):
        import scipy
        from encodebench.ridge import fit_blas_threads

        manifest = _make_dataset(tmp_path, rng)
        config = AnalysisConfig.from_dict(
            _base_config(manifest), base_dir=tmp_path)
        out = tmp_path / "report"
        eb.run_analysis(config, threads=2, output_dir=out)
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["threads"] == 2
        assert prov["cpu_count"] == os.cpu_count()
        assert prov["blas_threads"] == fit_blas_threads()
        assert prov["blas_threads"] in (1, None)
        assert prov["scipy_version"] == scipy.__version__
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert prov["blas"] == {"name": blas["name"],
                                "version": blas["version"]}
        doc = json.loads((out / "report.json").read_text())
        assert set(doc) == {"dataset", "config", "modes"}

    def test_provenance_records_solver_paths(self, tmp_path):
        spec, extras = eb.preset("pereira-exp2", seed=0, n_units=6)
        manifest = eb.write_dataset(spec, tmp_path / "data", "pereira-exp2",
                                    extra_features=extras)
        config = AnalysisConfig.from_dict({
            "manifest": str(manifest),
            "split": {"scheme": "pereira", "mode": "both", "shuffle_seed": 7},
            "oasm_sigma": 1.0,
            "spaces": [{"name": "OASM", "members": ["OASM"]}],
            "families": [{"name": "main", "spaces": ["OASM"]}],
        })
        out = tmp_path / "report"
        eb.run_analysis(config, output_dir=out)
        prov = json.loads((out / "provenance.json").read_text())
        assert not {"fit_durations", "solver_paths", "alpha_edges",
                    "train_sets"} & set(prov)
        assert set(prov["fits"]) == {"contiguous", "shuffled"}
        for records in prov["fits"].values():
            (record,) = records.values()
            assert set(record) == {"seconds", "solver_paths", "alpha_edges",
                                   "train_sets"}
            assert record["seconds"] > 0
            # 6 outer folds of 5 inner folds train on 15 distinct sets; each
            # set and each of the 6 refits is factored once
            assert record["train_sets"] == {"inner_folds": 30, "distinct": 15}
            assert record["solver_paths"] == {"block": 21, "gram": 0,
                                              "design": 0, "update": 0}

        # SP+SL (5 columns) beside OASM (216 columns, wider than every
        # training set): per distinct set, the SPSL-only mask takes the
        # design path and the OASM-only mask, the even mask and the one
        # random draw take the update path; each refit takes its winner's
        config = AnalysisConfig.from_dict({
            "manifest": str(manifest),
            "split": {"scheme": "pereira", "mode": "contiguous"},
            "oasm_sigma": 1.0,
            "spaces": [{"name": "OASM", "members": ["OASM"]},
                       {"name": "SPSL", "members": ["SP", "SL"]}],
            "families": [{"name": "main", "spaces": ["OASM", "SPSL"]}],
            "search": {"max_iters": 1, "patience": 1},
        })
        eb.run_analysis(config, output_dir=out)
        prov = json.loads((out / "provenance.json").read_text())
        record = prov["fits"]["contiguous"]["OASM+SPSL"]
        paths = record["solver_paths"]
        assert record["train_sets"]["distinct"] == 15
        assert paths["block"] == paths["gram"] == 0
        assert paths["design"] >= 15 and paths["update"] >= 45
        assert 15 + 45 + 6 <= sum(paths.values()) <= 15 + 45 + 6 * 4
        # the one-band fits keep their paths
        fits = prov["fits"]["contiguous"]
        assert fits["OASM"]["solver_paths"]["block"] == 21
        assert fits["SPSL"]["solver_paths"] == {"block": 0, "gram": 0,
                                                "design": 21, "update": 0}

    def test_provenance_counts_alpha_grid_edges(self, tmp_path, rng,
                                                monkeypatch):
        fits = {}
        real = eb.pipeline.banded_search

        def recording(features, *args, **kwargs):
            fit = real(features, *args, **kwargs)
            fits["+".join(sorted(fs.name for fs in features))] = fit
            return fit

        monkeypatch.setattr(eb.pipeline, "banded_search", recording)
        doc = _base_config(_make_dataset(tmp_path, rng))
        doc["families"][0]["spaces"] = ["F1", "F0"]  # fitted as F1+F0
        config = AnalysisConfig.from_dict(doc, base_dir=tmp_path)
        out = tmp_path / "report"
        eb.run_analysis(config, output_dir=out)
        prov = json.loads((out / "provenance.json").read_text())
        report = json.loads((out / "report.json").read_text())
        # each fit's record is named as report.json names its subset
        records = prov["fits"]["contiguous"]
        assert (set(records) == set(fits) == {"F0", "F1", "F0+F1"}
                == set(report["modes"]["contiguous"]["main"]["subsets"]))
        # (outer fold, unit) choices at alpha 0 and at the largest alpha
        for name, fit in fits.items():
            assert records[name]["alpha_edges"] == {
                "zero": int((fit.chosen_alpha == 0.0).sum()),
                "max": int((fit.chosen_alpha == fit.alphas[-1]).sum())}
        assert sum(r["alpha_edges"]["zero"] + r["alpha_edges"]["max"]
                   for r in records.values()) > 0

    def test_oasm_sigma_builds_space(self, tmp_path, rng):
        manifest = _make_dataset(tmp_path, rng)
        doc = _base_config(manifest)
        doc["oasm_sigma"] = 1.5
        doc["spaces"].append({"name": "OASM", "members": ["OASM"],
                              "band": "oasm"})
        doc["families"] = [{"name": "main", "spaces": ["F0", "OASM"]}]
        config = AnalysisConfig.from_dict(doc, base_dir=tmp_path)
        report = eb.run_analysis(config)
        fam = report.results["contiguous"]["main"]
        assert frozenset(["OASM"]) in fam.subset_r2

    @pytest.mark.parametrize("side", [{"spaces": ["WP", "OASM"]},
                                      {"family": ["WP", "OASM"]}])
    def test_pair_outside_family_is_skipped_and_listed(self, tmp_path, rng,
                                                       side):
        manifest = _make_dataset(tmp_path, rng, n_spaces=1)
        doc = _base_config(manifest, n_spaces=0, oasm_sigma=1.5)
        doc["spaces"] = [{"name": "WP", "members": ["F0"], "band": "wp"},
                         {"name": "OASM", "members": ["OASM"], "band": "oasm"}]
        doc["families"] = [{"name": "wp", "spaces": ["WP"]},
                           {"name": "wp-oasm", "spaces": ["WP", "OASM"]}]
        doc["tests"] = [{"name": "wp-oasm-vs-chance", "model_a": side,
                         "model_b": "intercept"}]
        config = AnalysisConfig.from_dict(doc, base_dir=tmp_path)
        out = tmp_path / "report"
        eb.run_analysis(config, output_dir=out)
        families = json.loads(
            (out / "report.json").read_text())["modes"]["contiguous"]
        assert families["wp"]["tests"] == []
        assert families["wp"]["skipped_tests"] == ["wp-oasm-vs-chance"]
        assert [t["name"] for t in families["wp-oasm"]["tests"]] == [
            "wp-oasm-vs-chance"]
        assert families["wp-oasm"]["skipped_tests"] == []

    def test_undefined_phi_participant_is_null(self, tmp_path):
        # under contiguous splits OASM scores R^2 <= 0 on every unit of
        # participant 0, so its phi is undefined; the run still reports
        manifest = _passage_dataset(tmp_path / "data")
        config = AnalysisConfig.from_dict(_passage_config(manifest),
                                          base_dir=tmp_path)
        report = eb.run_analysis(config, output_dir=tmp_path / "out")
        phi = report.results["contiguous"]["main"].comparison.phi
        assert np.isnan(phi.participant_values[0])
        assert not np.isnan(phi.participant_values[1])
        text = (tmp_path / "out" / "report.json").read_text()
        doc = json.loads(text, parse_constant=pytest.fail)  # no NaN literals
        out = doc["modes"]["contiguous"]["main"]["phi"]
        assert out["per_participant"][0] is None
        assert out["mean"] == phi.participant_values[1]
        assert out["sem"] is None
        assert out["n_excluded"] == int(np.isnan(phi.per_unit).sum())

    def test_phi_block_lists_each_participant_oasm_denominator(self, tmp_path):
        # a huge phi mean is traced to the participant whose R^2_OASM is tiny
        manifest = _passage_dataset(tmp_path / "data")
        config = AnalysisConfig.from_dict(_passage_config(manifest),
                                          base_dir=tmp_path)
        report = eb.run_analysis(config, output_dir=tmp_path / "out")
        fam = report.results["contiguous"]["main"]
        r2_oasm = fam.subset_r2[frozenset(["OASM"])]
        included = (r2_oasm > 0) & (report.participants == 1)
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        block = doc["modes"]["contiguous"]["main"]
        assert block["phi"]["r2_oasm_per_participant"] == [
            None, r2_oasm[included].mean()]
        assert "r2_oasm_per_participant" not in block["omega"]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestReportLayout:
    """Two modes; families "main" (OASM, SP; llm SP) and "pos" (SL, SP)
    share the SP subset; one pair applies to both, one only to "main"."""

    MODES = ("contiguous", "shuffled")

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("layout")
        manifest = _passage_dataset(tmp / "data")
        doc = _passage_config(manifest, mode="both", tests=[
            {"name": "sp-vs-chance", "model_a": {"spaces": ["SP"]},
             "model_b": "intercept"},
            {"name": "sp-added",
             "model_a": {"family": ["OASM", "SP"], "required": "SP"},
             "model_b": {"spaces": ["OASM"]}},
        ])
        doc["families"].append({"name": "pos", "spaces": ["SL", "SP"]})
        config = AnalysisConfig.from_dict(doc, base_dir=tmp)
        report = eb.run_analysis(config, output_dir=tmp / "out")
        return report, tmp / "out"

    def test_file_set(self, run):
        _, out = run
        tables = {p.name for p in (out / "tables").iterdir()}
        assert tables == {f"{mode}__{fam}__{kind}.csv" for mode in self.MODES
                          for fam in ("main", "pos")
                          for kind in ("r2", "corrected", "tests")}
        # one file per (mode, subset), SP once although both families have it
        predictions = {p.name for p in (out / "predictions").iterdir()}
        assert predictions == {
            f"{mode}__{name}.bbsm" for mode in self.MODES
            for name in ("intercept", "OASM", "SP", "OASM+SP", "SL", "SL+SP")}
        report, _ = run
        fit_preds = report.predictions["shuffled"]["SP"]
        np.testing.assert_array_equal(
            eb.load_matrix(out / "predictions" / "shuffled__SP.bbsm"), fit_preds)

    def test_headers(self, run):
        _, out = run
        tables = out / "tables"
        assert _read_csv(tables / "contiguous__main__r2.csv")[0] == [
            "unit", "participant", "subset", "r2"]
        assert _read_csv(tables / "contiguous__main__corrected.csv")[0] == [
            "unit", "participant", "r2_corrected", "r2_corrected_with_llm",
            "r2_corrected_without_llm", "omega", "phi"]
        assert _read_csv(tables / "contiguous__main__tests.csv")[0] == [
            "pair", "unit", "participant", "t", "p", "rejected"]

    def test_r2_rows(self, run):
        report, out = run
        for fam, order in (("main", ["OASM", "SP", "OASM+SP"]),
                           ("pos", ["SL", "SP", "SL+SP"])):
            _, rows = _read_csv(out / "tables" / f"shuffled__{fam}__r2.csv")
            # smallest subsets first, then alphabetical; units ascending
            assert [r[2] for r in rows] == [name for name in order
                                            for _ in range(6)]
            assert [int(r[0]) for r in rows] == list(range(6)) * 3
            assert [int(r[1]) for r in rows] == [u % 2 for u in range(6)] * 3
            subset_r2 = report.results["shuffled"][fam].subset_r2
            for row in rows:
                key = frozenset(row[2].split("+"))
                assert float(row[3]) == subset_r2[key][int(row[0])]

    def test_tests_rows(self, run):
        report, out = run
        _, rows = _read_csv(out / "tables" / "contiguous__main__tests.csv")
        assert len(rows) == 2 * 6
        assert [r[0] for r in rows] == ["sp-vs-chance"] * 6 + ["sp-added"] * 6
        result = report.results["contiguous"]["main"].tests[1].result
        for row, unit in zip(rows[6:], range(6)):
            assert (int(row[1]), int(row[2])) == (unit, unit % 2)
            assert float(row[3]) == result.t[unit]
            assert float(row[4]) == result.p[unit]
            assert row[5] == str(bool(result.rejected[unit]))
        _, rows = _read_csv(out / "tables" / "contiguous__pos__tests.csv")
        assert [r[0] for r in rows] == ["sp-vs-chance"] * 6
        doc = json.loads((out / "report.json").read_text())
        assert doc["modes"]["contiguous"]["pos"]["skipped_tests"] == ["sp-added"]

    def test_corrected_blank_where_undefined(self, run):
        report, out = run
        comparison = report.results["contiguous"]["main"].comparison
        _, rows = _read_csv(out / "tables" / "contiguous__main__corrected.csv")
        for column, part in ((5, comparison.omega), (6, comparison.phi)):
            blank = [row[column] == "" for row in rows]
            assert blank == np.isnan(part.per_unit).tolist()
        assert any(row[6] == "" for row in rows)
        # without an llm space the llm columns and omega/phi are blank
        _, rows = _read_csv(out / "tables" / "contiguous__pos__corrected.csv")
        assert all(row[2] != "" and row[3:] == [""] * 4 for row in rows)
