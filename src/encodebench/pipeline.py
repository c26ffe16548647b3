"""End-to-end analysis runs: manifest -> splits -> subset fits -> report.

A run fits every nonempty subset of each declared feature-space family,
scores them with pooled out-of-sample R^2, applies sub-model correction,
computes the variance-partitioning summaries against a designated space,
runs the configured paired tests, and writes a report directory:

    report.json          deterministic results summary
    provenance.json      timestamps, durations, versions (excluded from
                         byte-level comparisons)
    tables/*.csv         flat per-unit tables
    predictions/*.bbsm   pooled test predictions per fitted subset
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .errors import DataError, ManifestError
from .features import FeatureSpace, build_oasm
from .matrixio import LoadedDataset, load_manifest, save_matrix
from .metrics import ComparisonReport, build_comparison_report, subsets
from .ridge import BandedSearchConfig, RidgeConfig, _map_ordered, banded_search
from .splits import (
    SplitPlan,
    plan_blank,
    plan_fedorenko,
    plan_grouped,
    plan_pereira,
    shuffle_plan,
)
from .stats import TestResult, chance_level_test

logger = logging.getLogger(__name__)

MAX_FAMILY_SPACES = 6
SCHEMES = ("pereira", "fedorenko", "blank", "grouped")


@dataclass
class SpaceSpec:
    name: str
    members: tuple[str, ...]
    band: str


@dataclass
class FamilySpec:
    name: str
    spaces: tuple[str, ...]
    complexity_order: tuple[str, ...]
    llm: Optional[str] = None


@dataclass
class TestPairSpec:
    name: str
    model_a: object  # "intercept" | {"spaces": [...]} | {"family": [...], "required": ...}
    model_b: object


@dataclass
class SplitSpec:
    scheme: str
    mode: str = "contiguous"
    shuffle_seed: int = 0
    selection_seed: Optional[int] = None
    n_outer: int = 5
    n_inner: int = 4


@dataclass
class AnalysisConfig:
    manifest: Path
    split: SplitSpec
    spaces: list[SpaceSpec]
    families: list[FamilySpec]
    tests: list[TestPairSpec] = field(default_factory=list)
    oasm_sigma: Optional[float] = None
    ridge: RidgeConfig = field(default_factory=RidgeConfig)
    search: BandedSearchConfig = field(default_factory=BandedSearchConfig)
    alpha_level: float = 0.05
    output: Optional[Path] = None
    echo: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "AnalysisConfig":
        path = Path(path)
        if not path.exists():
            raise DataError(f"config not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(doc, base_dir=path.parent)

    @classmethod
    def from_dict(cls, doc: dict, base_dir=Path(".")) -> "AnalysisConfig":
        try:
            split_doc = dict(doc["split"])
            split = SplitSpec(
                scheme=split_doc.pop("scheme"),
                mode=split_doc.pop("mode", "contiguous"),
                shuffle_seed=split_doc.pop("shuffle_seed", 0),
                selection_seed=split_doc.pop("selection_seed", None),
                n_outer=split_doc.pop("n_outer", 5),
                n_inner=split_doc.pop("n_inner", 4),
            )
            if split_doc:
                raise DataError(f"unknown split keys: {sorted(split_doc)}")
            spaces = [
                SpaceSpec(
                    name=s["name"],
                    members=tuple(s["members"]),
                    band=s.get("band", s["name"].lower()),
                )
                for s in doc["spaces"]
            ]
            families = [
                FamilySpec(
                    name=f["name"],
                    spaces=tuple(f["spaces"]),
                    complexity_order=tuple(
                        f.get("complexity_order", f["spaces"])),
                    llm=f.get("llm"),
                )
                for f in doc["families"]
            ]
            tests = [
                TestPairSpec(t["name"], t["model_a"], t["model_b"])
                for t in doc.get("tests", [])
            ]
            manifest = doc["manifest"]
        except KeyError as exc:
            raise DataError(f"config missing key: {exc}") from exc

        try:
            ridge_doc = doc.get("ridge", {})
            ridge_cfg = RidgeConfig(**ridge_doc) if ridge_doc else RidgeConfig()
            search_cfg = BandedSearchConfig(**doc.get("search", {}))
        except TypeError as exc:
            raise DataError(f"bad ridge/search config: {exc}") from exc

        config = cls(
            manifest=(Path(base_dir) / manifest),
            split=split,
            spaces=spaces,
            families=families,
            tests=tests,
            oasm_sigma=doc.get("oasm_sigma"),
            ridge=ridge_cfg,
            search=search_cfg,
            alpha_level=doc.get("alpha_level", 0.05),
            output=Path(base_dir) / doc["output"] if doc.get("output") else None,
            echo={k: v for k, v in doc.items() if k != "output"},
        )
        config.validate()
        return config

    def validate(self) -> None:
        if self.split.mode not in ("contiguous", "shuffled", "both"):
            raise DataError(f"unknown split mode {self.split.mode!r}")
        if self.split.scheme not in SCHEMES:
            raise DataError(f"unknown split scheme {self.split.scheme!r}")
        names = [s.name for s in self.spaces]
        if len(set(names)) != len(names):
            raise DataError("duplicate space names")
        declared = set(names)
        for fam in self.families:
            unknown = set(fam.spaces) - declared
            if unknown:
                raise DataError(
                    f"family {fam.name!r} references unknown spaces {sorted(unknown)}"
                )
            if len(fam.spaces) > MAX_FAMILY_SPACES:
                raise DataError(
                    f"family {fam.name!r} declares {len(fam.spaces)} spaces; "
                    f"the subset cap is {MAX_FAMILY_SPACES}"
                )
            if set(fam.complexity_order) != set(fam.spaces):
                raise DataError(
                    f"family {fam.name!r}: complexity_order must cover exactly "
                    "its spaces"
                )
            if fam.llm is not None and fam.llm not in fam.spaces:
                raise DataError(
                    f"family {fam.name!r}: llm space {fam.llm!r} not in family"
                )
        for test in self.tests:
            for side in (test.model_a, test.model_b):
                self._validate_side(side, declared)

    @staticmethod
    def _validate_side(side, declared) -> None:
        if side == "intercept":
            return
        if not (isinstance(side, dict) and ("spaces" in side or "family" in side)):
            raise DataError(f"unintelligible test side: {side!r}")
        if "spaces" not in side:
            required = side.get("required")
            if required is not None and required not in side["family"]:
                raise DataError(f"required space {required!r} not in test family")
        named = _side_spaces(side)
        if not named:
            raise DataError(f"test side names no spaces: {side!r}")
        if named - declared:
            raise DataError(
                f"test references unknown spaces {sorted(named - declared)}")


def _side_spaces(side) -> set:
    """The spaces a test side names; the intercept names none."""
    if side == "intercept":
        return set()
    return set(side["spaces"] if "spaces" in side else side["family"])


def build_plan(split: SplitSpec, recording) -> SplitPlan:
    """The contiguous plan of the split's scheme over the recording's blocks."""
    blocks = recording.block_ids
    if split.scheme == "pereira":
        if recording.categories is None:
            raise DataError("pereira scheme needs sample_categories in the manifest")
        return plan_pereira(recording.categories, blocks,
                            seed=split.selection_seed)
    if split.scheme == "fedorenko":
        return plan_fedorenko(blocks)
    if split.scheme == "blank":
        return plan_blank(blocks)
    return plan_grouped(blocks, split.n_outer, split.n_inner)


def split_plans(split: SplitSpec, recording) -> dict[str, SplitPlan]:
    """The plans the split's mode asks for, keyed by mode: the contiguous
    plan, its seeded shuffle, or both."""
    plan = build_plan(split, recording)
    plans = {}
    if split.mode in ("contiguous", "both"):
        plans["contiguous"] = plan
    if split.mode in ("shuffled", "both"):
        plans["shuffled"] = shuffle_plan(plan, split.shuffle_seed)
    return plans


def feature_matrices(dataset: LoadedDataset,
                     oasm_sigma: Optional[float] = None) -> dict[str, FeatureSpace]:
    """The named feature matrices of a run: the manifest's, plus ``OASM``
    built from the block ids when ``oasm_sigma`` is set."""
    matrices = {fs.name: fs for fs in dataset.features}
    if oasm_sigma is not None:
        if "OASM" in matrices:
            raise DataError("manifest already provides a matrix named OASM")
        recording = dataset.recording
        matrices["OASM"] = build_oasm(
            recording.n_samples, recording.block_ids, oasm_sigma)
    return matrices


def layered_best(subset_scores: Mapping, complexity_order: Sequence[str]):
    """Per-tier best score: for each space, the max over subsets containing
    it and nothing ranked above it. Ties go to the smaller subset."""
    table = {}
    for key, value in subset_scores.items():
        key = frozenset([key]) if isinstance(key, str) else frozenset(key)
        table[key] = float(value)
    universe = frozenset().union(*table.keys())
    if set(complexity_order) != set(universe):
        raise DataError("complexity order must cover exactly the scored spaces")
    rank = {s: i for i, s in enumerate(complexity_order)}
    entries = []
    for i, space in enumerate(complexity_order):
        candidates = [
            k for k in table
            if space in k and all(rank[s] <= i for s in k)
        ]
        if not candidates:
            raise DataError(f"no scored subset for tier {space!r}")
        best = sorted(
            candidates,
            key=lambda k: (-table[k], len(k), sorted(k)),
        )[0]
        entries.append({
            "space": space,
            "score": table[best],
            "subset": "+".join(sorted(best, key=lambda s: rank[s])),
        })
    return entries


def star_predictions(subset_preds: Mapping, subset_r2: Mapping,
                     family: Sequence[str], required: Optional[str] = None):
    """Per-unit predictions of each unit's best-scoring subset."""
    keys = [frozenset(combo) for combo in subsets(family, required)]
    for key in keys:
        if key not in subset_r2:
            raise DataError(f"missing fitted subset {sorted(key)}")
    scores = np.stack([subset_r2[k] for k in keys])
    best = np.argmax(scores, axis=0)  # first max -> smaller subset wins ties
    out = np.empty_like(subset_preds[keys[0]])
    for i, key in enumerate(keys):
        cols = best == i
        if cols.any():
            out[:, cols] = subset_preds[key][:, cols]
    return out


@dataclass
class TestOutcome:
    name: str
    result: TestResult


@dataclass
class FamilyResult:
    subset_r2: dict            # frozenset -> per-unit r2
    comparison: ComparisonReport
    layered: list
    tests: list[TestOutcome]
    skipped_tests: list[str]   # pairs naming a space outside the family


def _subset_name(key) -> str:
    return "+".join(sorted(key))


def _none_if_nan(value):
    return None if np.isnan(value) else value


def _cell(value) -> str:
    """A float table cell, blank where the value is undefined."""
    return "" if np.isnan(value) else repr(float(value))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


@dataclass
class RunReport:
    dataset_name: str
    config_echo: dict
    results: dict              # mode -> family name -> FamilyResult
    predictions: dict          # mode -> subset name or "intercept" -> pooled predictions
    participants: np.ndarray
    provenance: dict

    def summary_dict(self) -> dict:
        modes = {
            mode: {name: _family_doc(fr) for name, fr in families.items()}
            for mode, families in self.results.items()
        }
        return {
            "dataset": self.dataset_name,
            "config": self.config_echo,
            "modes": modes,
        }

    def save(self, out_dir) -> Path:
        """Write the report directory. This sets every table's layout, and the
        names and row order of the subsets."""
        out = Path(out_dir)
        tables, preds_dir = out / "tables", out / "predictions"
        tables.mkdir(parents=True, exist_ok=True)
        preds_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out / "report.json", self.summary_dict())
        _write_json(out / "provenance.json", self.provenance)

        units = [(unit, int(pid)) for unit, pid in enumerate(self.participants)]
        for mode, families in self.results.items():
            for name, preds in self.predictions[mode].items():
                save_matrix(preds_dir / f"{mode}__{name}.bbsm", preds)
            for fam_name, fr in families.items():
                stem = tables / f"{mode}__{fam_name}"
                # smallest subsets first, then alphabetical
                by_size = sorted(fr.subset_r2, key=lambda k: (len(k), sorted(k)))
                _write_csv(f"{stem}__r2.csv", ["unit", "participant", "subset", "r2"], [
                    (unit, pid, _subset_name(key), _cell(fr.subset_r2[key][unit]))
                    for key in by_size for unit, pid in units
                ])
                c = fr.comparison
                optional = [c.r2_corrected_with_llm, c.r2_corrected_without_llm] + [
                    None if part is None else part.per_unit for part in (c.omega, c.phi)]
                _write_csv(f"{stem}__corrected.csv", [
                    "unit", "participant", "r2_corrected", "r2_corrected_with_llm",
                    "r2_corrected_without_llm", "omega", "phi",
                ], [
                    (unit, pid, _cell(c.r2_corrected[unit]),
                     *("" if col is None else _cell(col[unit]) for col in optional))
                    for unit, pid in units
                ])
                if fr.tests:
                    header = ["pair", "unit", "participant", "t", "p", "rejected"]
                    _write_csv(f"{stem}__tests.csv", header, [
                        (t.name, unit, pid, _cell(t.result.t[unit]),
                         _cell(t.result.p[unit]), bool(t.result.rejected[unit]))
                        for t in fr.tests for unit, pid in units
                    ])
        return out / "report.json"


def _family_doc(fr: FamilyResult) -> dict:
    comparison = fr.comparison
    doc = {
        "subsets": {
            _subset_name(key): {
                "mean_r2": summary.mean,
                "sem": _none_if_nan(summary.sem),
                "participant_means": summary.participant_means.tolist(),
            }
            for key, summary in comparison.submodel_table.items()
        },
        "layered": fr.layered,
        "mean_r2_corrected": float(np.maximum(comparison.r2_corrected, 0).mean()),
        "tests": [
            {
                "name": t.name,
                "n_rejected_raw": int((t.result.p < t.result.level).sum()),
                "n_rejected_fdr": int(t.result.rejected.sum()),
            }
            for t in fr.tests
        ],
        "skipped_tests": fr.skipped_tests,
    }
    for key in ("omega", "phi"):
        part = getattr(comparison, key)
        if part is not None:
            doc[key] = {
                "mean": _none_if_nan(part.mean),
                "sem": _none_if_nan(part.sem),
                "per_participant":
                    [_none_if_nan(v) for v in part.participant_values.tolist()],
                "n_excluded": part.n_excluded,
            }
    return doc


def _subset_features(subset: Sequence[str], spaces: dict[str, SpaceSpec],
                     matrices: dict[str, FeatureSpace]) -> list[FeatureSpace]:
    out = []
    for space_name in subset:
        spec = spaces[space_name]
        for member in spec.members:
            if member not in matrices:
                raise DataError(
                    f"space {space_name!r} references unknown matrix {member!r}"
                )
            fs = matrices[member]
            out.append(FeatureSpace(fs.name, fs.data, spec.band))
    return out


def run_analysis(config: AnalysisConfig, threads: int = 1,
                 output_dir=None) -> RunReport:
    started = time.time()
    logger.info("resolved config: %s", json.dumps(config.echo, sort_keys=True))

    dataset: LoadedDataset = load_manifest(config.manifest)
    recording = dataset.recording
    Y = recording.responses

    matrices = feature_matrices(dataset, config.oasm_sigma)
    spaces = {s.name: s for s in config.spaces}
    for spec in config.spaces:
        for member in spec.members:
            if member not in matrices:
                raise ManifestError(
                    f"space {spec.name!r} needs matrix {member!r}, "
                    "which the manifest does not provide"
                )

    plans = split_plans(config.split, recording)

    # one fit per distinct (mode, subset), shared across families; a subset's
    # bands follow the order of the first family that has it
    jobs = {}
    for mode in plans:
        for fam in config.families:
            for subset in subsets(fam.spaces):
                jobs.setdefault((mode, frozenset(subset)), subset)

    def run_job(job):
        (mode, _), subset = job
        t0 = time.time()
        fit = banded_search(
            _subset_features(subset, spaces, matrices), Y, plans[mode],
            ridge_cfg=config.ridge, search_cfg=config.search, threads=1,
        )
        logger.info("fit %s / %s in %.2fs", mode, "+".join(subset),
                    time.time() - t0)
        return fit, time.time() - t0

    results = _map_ordered(run_job, list(jobs.items()), threads)
    fits = {}
    durations = {}
    for ((mode, key), subset), (fit, elapsed) in zip(jobs.items(), results):
        fits[(mode, key)] = fit
        durations[f"{mode}:{'+'.join(subset)}"] = elapsed

    participants = recording.unit_participants
    report_results: dict = {}
    predictions = {}
    for mode in plans:
        mode_fits = {key: fit for (m, key), fit in fits.items() if m == mode}
        preds = {key: fit.test_predictions for key, fit in mode_fits.items()}
        r2 = {key: fit.test_r2(Y) for key, fit in mode_fits.items()}
        intercept = next(iter(mode_fits.values())).intercept_predictions
        predictions[mode] = {"intercept": intercept,
                             **{_subset_name(k): p for k, p in preds.items()}}
        report_results[mode] = {}
        for fam in config.families:
            fam_r2 = {frozenset(s): r2[frozenset(s)] for s in subsets(fam.spaces)}
            comparison = build_comparison_report(
                fam_r2, participants, llm=fam.llm,
                oasm="OASM" if (fam.llm and "OASM" in fam.spaces) else None,
            )
            layered = layered_best(
                {k: s.mean for k, s in comparison.submodel_table.items()},
                fam.complexity_order)
            tests, skipped = _run_tests(config, fam, Y, preds, r2, intercept,
                                        participants)
            report_results[mode][fam.name] = FamilyResult(
                fam_r2, comparison, layered, tests, skipped)

    provenance = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "elapsed_seconds": time.time() - started,
        "fit_durations": durations,
        "threads": threads,
        "numpy_version": np.__version__,
        "encodebench_version": __version__,
    }
    report = RunReport(
        dataset_name=dataset.manifest.dataset_name,
        config_echo=config.echo,
        results=report_results,
        predictions=predictions,
        participants=participants,
        provenance=provenance,
    )
    target = output_dir or config.output
    if target is not None:
        report.save(target)
    return report


def _run_tests(config: AnalysisConfig, fam: FamilySpec, Y, preds, r2,
               intercept, participants):
    """Outcomes of the pairs that apply to the family, and the names of the
    skipped ones: a pair applies only if every space either side names is
    in the family."""
    outcomes = []
    skipped = []
    for test in config.tests:
        named = _side_spaces(test.model_a) | _side_spaces(test.model_b)
        if not named <= set(fam.spaces):
            skipped.append(test.name)
            continue
        pred_a = _resolve_side(test.model_a, preds, r2, intercept)
        pred_b = _resolve_side(test.model_b, preds, r2, intercept)
        outcomes.append(TestOutcome(test.name, chance_level_test(
            Y, pred_a, pred_b, participants, config.alpha_level)))
    return outcomes, skipped


def _resolve_side(side, preds, r2, intercept):
    if side == "intercept":
        return intercept
    if "spaces" in side:
        return preds[frozenset(side["spaces"])]
    return star_predictions(preds, r2, tuple(side["family"]),
                            required=side.get("required"))
