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
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .errors import DataError, ManifestError, check_int, check_real
from .features import FeatureSpace, build_oasm, check_sigma
from .matrixio import LoadedDataset, load_manifest, read_json, save_matrix, write_json
from .metrics import (
    ComparisonReport,
    best_subset,
    build_comparison_report,
    layered_best,
    subsets,
)
from .ridge import (
    BandedSearchConfig,
    RidgeConfig,
    banded_search,
    fit_blas_threads,
)
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
MODES = ("contiguous", "shuffled", "both")


def _names(value, what: str, kind: str = "spaces") -> tuple[str, ...]:
    """``value``, a nonempty list of distinct names, as a tuple."""
    if isinstance(value, str) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{what} must be a list of names, got {value!r}")
    if not value:
        raise DataError(f"{what} names no {kind}")
    if len(set(value)) != len(value):
        raise DataError(f"{what} repeats a name: {value!r}")
    return tuple(value)


@dataclass
class SpaceSpec:
    name: str
    members: tuple[str, ...]
    band: Optional[str] = None  # defaults to the lower-cased name

    def __post_init__(self):
        self.members = _names(self.members, f"space {self.name!r}", "matrices")
        if self.band is None:  # a name that is not a string fails validate
            self.band = str(self.name).lower()


@dataclass
class FamilySpec:
    name: str
    spaces: tuple[str, ...]
    complexity_order: Optional[tuple[str, ...]] = None  # defaults to spaces
    llm: Optional[str] = None

    def __post_init__(self):
        what = f"family {self.name!r}"
        self.spaces = _names(self.spaces, what)
        if len(self.spaces) > MAX_FAMILY_SPACES:
            raise DataError(f"{what} declares {len(self.spaces)} spaces; "
                            f"the subset cap is {MAX_FAMILY_SPACES}")
        if self.complexity_order is None:
            self.complexity_order = self.spaces
        self.complexity_order = _names(self.complexity_order,
                                       f"{what} complexity_order")
        if set(self.complexity_order) != set(self.spaces):
            raise DataError(f"{what}: complexity_order must cover exactly its spaces")
        if self.llm is not None and self.llm not in self.spaces:
            raise DataError(f"{what}: llm space {self.llm!r} not in family")
        if self.spaces == (self.llm,):
            raise DataError(f"{what}: its only space is its llm space, so omega "
                            "has no LLM-free subset to correct against")


@dataclass(frozen=True)
class SideSpec:
    """One side of a test pair: the intercept (it names no spaces), the fit
    of one subset, or a star selection: each unit's best-scoring subset of
    ``spaces``, among the subsets holding ``required`` when that is set."""

    spaces: tuple[str, ...] = ()
    star: bool = False
    required: Optional[str] = None

    @classmethod
    def parse(cls, doc) -> "SideSpec":
        """``"intercept"``, ``{"spaces": [...]}``, or
        ``{"family": [...], "required": ...}`` with ``required`` optional."""
        if doc == "intercept":
            return cls()
        if isinstance(doc, dict) and "family" in doc:
            return _family_side(**doc)
        if isinstance(doc, dict) and "spaces" in doc:
            return _spaces_side(**doc)
        raise DataError(f"unintelligible test side: {doc!r}")


def _spaces_side(spaces) -> SideSpec:
    return SideSpec(_names(spaces, "test side"))


def _family_side(family, required=None) -> SideSpec:
    family = _names(family, "test side")
    if required is not None and required not in family:
        raise DataError(f"required space {required!r} not in test family")
    return SideSpec(family, star=True, required=required)


@dataclass
class TestPairSpec:
    name: str
    model_a: SideSpec  # given in its JSON form, parsed in __post_init__
    model_b: SideSpec

    def __post_init__(self):
        self.model_a = SideSpec.parse(self.model_a)
        self.model_b = SideSpec.parse(self.model_b)


@dataclass
class SplitSpec:
    scheme: str
    mode: str = "contiguous"
    shuffle_seed: int = 0
    selection_seed: Optional[int] = None
    n_outer: int = 5  # grouped scheme only, as is n_inner
    n_inner: int = 4

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise DataError(f"unknown split scheme {self.scheme!r}")
        if self.mode not in MODES:
            raise DataError(f"unknown split mode {self.mode!r}")
        check_int("split shuffle_seed", self.shuffle_seed, 0)
        if self.selection_seed is not None:
            check_int("split selection_seed", self.selection_seed, 0)
        check_int("split n_outer", self.n_outer, 0)
        check_int("split n_inner", self.n_inner, 0)


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
    echo: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        check_real("alpha_level", self.alpha_level)
        if not 0 < self.alpha_level < 1:
            raise DataError(f"alpha_level must lie in (0, 1), got {self.alpha_level!r}")
        if self.oasm_sigma is not None:
            check_real("oasm_sigma", self.oasm_sigma)
            check_sigma("oasm_sigma", self.oasm_sigma)
        if not self.families:
            raise DataError("config declares no families")
        self.validate()

    @classmethod
    def from_file(cls, path) -> "AnalysisConfig":
        path = Path(path)
        return cls.from_dict(read_json(path, DataError), base_dir=path.parent)

    @classmethod
    def from_dict(cls, doc: dict, base_dir=Path(".")) -> "AnalysisConfig":
        """Parse a config document. A missing or unknown key in any section
        is a ``DataError``; each section's class holds its defaults."""
        base = Path(base_dir)
        try:
            config = cls(**{
                **doc,
                "manifest": base / doc["manifest"],
                "split": SplitSpec(**doc["split"]),
                "spaces": [SpaceSpec(**s) for s in doc["spaces"]],
                "families": [FamilySpec(**f) for f in doc["families"]],
                "tests": [TestPairSpec(**t) for t in doc.get("tests", [])],
                "ridge": RidgeConfig(**doc.get("ridge", {})),
                "search": BandedSearchConfig(**doc.get("search", {})),
                "output": base / doc["output"] if doc.get("output") else None,
            })
        except (KeyError, TypeError) as exc:
            raise DataError(f"invalid config: {exc!r}") from exc
        config.echo = {k: v for k, v in doc.items() if k != "output"}
        return config

    def validate(self) -> None:
        """Space, family and test names are unique strings without ``+`` (it
        joins subset names) or ``/`` (report file names hold them), and
        families and tests name only declared spaces."""
        for kind, items in (("space", self.spaces), ("family", self.families),
                            ("test", self.tests)):
            names = [item.name for item in items]
            bad = [n for n in names if not isinstance(n, str) or {"+", "/"} & set(n)]
            if bad:
                raise DataError(f"{kind} names must be strings without '+' or "
                                f"'/', got {bad!r}")
            if len(set(names)) != len(names):
                raise DataError(f"duplicate {kind} names")
        declared = {s.name for s in self.spaces}
        named = [(f"family {fam.name!r}", fam.spaces) for fam in self.families]
        named += [(f"test {t.name!r}", t.model_a.spaces + t.model_b.spaces)
                  for t in self.tests]
        for what, spaces in named:
            unknown = set(spaces) - declared
            if unknown:
                raise DataError(f"{what} references unknown spaces {sorted(unknown)}")


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


def star_predictions(subset_preds: Mapping, subset_r2: Mapping,
                     family: Sequence[str], required: Optional[str] = None):
    """Per-unit predictions of each unit's best-scoring subset."""
    keys, _, best = best_subset(subset_r2, family, required)
    out = np.empty_like(subset_preds[keys[0]])
    for i, key in enumerate(keys):
        cols = best == i
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
        write_json(out / "report.json", self.summary_dict())
        write_json(out / "provenance.json", self.provenance)

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
                "participant_means": summary.participant_values.tolist(),
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
            if part.denominators is not None:
                doc[key]["r2_oasm_per_participant"] = [
                    _none_if_nan(v) for v in part.denominators.tolist()]
    return doc


def _subset_features(subset: Sequence[str], spaces: dict[str, SpaceSpec],
                     matrices: dict[str, FeatureSpace]) -> list[FeatureSpace]:
    return [FeatureSpace(member, matrices[member].data, spaces[name].band)
            for name in subset for member in spaces[name].members]


def run_analysis(config: AnalysisConfig, threads: int = 1,
                 output_dir=None) -> RunReport:
    """Fit every (mode, subset) in turn (``threads`` as in ``banded_search``),
    then score, test and, given a target, write the report."""
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

    fits, records = {}, {mode: {} for mode in plans}  # per-fit provenance
    for (mode, key), subset in jobs.items():
        t0 = time.time()
        fit = fits[(mode, key)] = banded_search(
            _subset_features(subset, spaces, matrices), Y, plans[mode],
            ridge_cfg=config.ridge, search_cfg=config.search, threads=threads,
        )
        elapsed = time.time() - t0
        name = _subset_name(key)  # as report.json names the subset
        logger.info("fit %s / %s in %.2fs", mode, name, elapsed)
        records[mode][name] = {
            "seconds": elapsed,
            "solver_paths": fit.solver_paths,
            "alpha_edges": {  # (outer fold, unit) choices at the grid's ends
                end: int((fit.chosen_alpha == fit.alphas[i]).sum())
                for end, i in (("zero", 0), ("max", -1))},
            "train_sets": {"inner_folds": sum(len(f.inner_folds) for f in
                                              plans[mode].outer_folds),
                           "distinct": fit.train_sets},
        }

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
        "fits": records,
        "threads": threads,
        "cpu_count": os.cpu_count(),
        "blas": _blas_build(),
        "blas_threads": fit_blas_threads(),
        "numpy_version": np.__version__,
        "encodebench_version": __version__,
    }
    report = RunReport(
        dataset_name=dataset.dataset_name,
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


def _blas_build() -> dict:
    """Name and version of the BLAS numpy was built against, when numpy
    records them."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _run_tests(config: AnalysisConfig, fam: FamilySpec, Y, preds, r2,
               intercept, participants):
    """Outcomes of the pairs that apply to the family, and the names of the
    skipped ones: a pair applies only if every space either side names is
    in the family."""
    outcomes = []
    skipped = []
    for test in config.tests:
        if not set(test.model_a.spaces + test.model_b.spaces) <= set(fam.spaces):
            skipped.append(test.name)
            continue
        pred_a = _resolve_side(test.model_a, preds, r2, intercept)
        pred_b = _resolve_side(test.model_b, preds, r2, intercept)
        outcomes.append(TestOutcome(test.name, chance_level_test(
            Y, pred_a, pred_b, participants, config.alpha_level)))
    return outcomes, skipped


def _resolve_side(side: SideSpec, preds, r2, intercept):
    if not side.spaces:
        return intercept
    if side.star:
        return star_predictions(preds, r2, side.spaces, required=side.required)
    return preds[frozenset(side.spaces)]
