"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data/validation error. stdout
carries line-delimited JSON summaries; diagnostics go to stderr. Nothing
is written outside --output.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, check_int
from .features import (
    build_oasm,
    build_sentence_length,
    build_sentence_position,
    build_word_position,
    sweep_oasm_sigma,
)
from .matrixio import load_manifest, read_json, save_matrix, write_json
from .pipeline import (
    SCHEMES,
    AnalysisConfig,
    SplitSpec,
    _names,
    feature_matrices,
    run_analysis,
    split_plans,
)
from .ridge import BandedSearchConfig, banded_search
from .synthgen import PRESETS, preset, write_dataset

logger = logging.getLogger("encodebench")

# the features options each kind reads
_KIND_OPTIONS = {"oasm": ("manifest", "blocks", "sigma"),
                 "sp": ("passage_lengths",), "sl": ("word_counts",),
                 "wp": ("sentences",)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _family_lines(event: str, doc: dict) -> list[dict]:
    """One line per (mode, family) of a report document: the subset means,
    the mean corrected R^2, and the omega and phi means when present."""
    lines = []
    for mode, families in doc["modes"].items():
        for family, fam_doc in families.items():
            line = {"event": event, "mode": mode, "family": family,
                    "subsets": {k: v["mean_r2"]
                                for k, v in fam_doc["subsets"].items()},
                    "mean_r2_corrected": fam_doc["mean_r2_corrected"]}
            line.update({key: fam_doc[key]["mean"] for key in ("omega", "phi")
                         if key in fam_doc})
            lines.append(line)
    return lines


def _resolve_threads(value) -> int:
    """``--threads``, else the CPU count."""
    if value is None:
        return os.cpu_count() or 1
    check_int("--threads", value, 1)
    return value


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def build_parser() -> _Parser:
    output = _Parser(add_help=False)
    output.add_argument("--output", type=Path, default=None)

    # options a plan may not read default to None, so that _plan_from_args
    # can refuse them when given
    planned = _Parser(add_help=False)
    planned.add_argument("--seed", type=int, default=None)
    planned.add_argument("--manifest", type=Path, required=True)
    planned.add_argument("--scheme", required=True, choices=SCHEMES)
    planned.add_argument("--mode", default=SplitSpec.mode,
                         choices=("contiguous", "shuffled"))
    planned.add_argument("--n-outer", type=int, default=None)
    planned.add_argument("--n-inner", type=int, default=None)

    threaded = _Parser(add_help=False)
    threaded.add_argument("--threads", type=int, default=None,
                          help="distinct inner training sets, or outer-fold "
                               "refits, factored at once (default: the CPU "
                               "count)")

    parser = _Parser(prog="encodebench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[output],
                       help="write a synthetic dataset (manifest + matrices)")
    p.add_argument("--preset", required=True, choices=tuple(PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--units", type=int, default=None)
    p.add_argument("--participants", type=int, default=None)
    p.add_argument("--noise-scale", type=float, default=None)
    p.add_argument("--signal-scale", type=float, default=None)
    p.add_argument("--autocorr-sigma", type=float, default=None)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("features", parents=[output],
                       help="build a derived feature space matrix")
    p.add_argument("--kind", required=True, choices=tuple(_KIND_OPTIONS))
    p.add_argument("--manifest", type=Path, default=None,
                   help="take block ids from this manifest (oasm)")
    p.add_argument("--blocks", type=_int_list, default=None,
                   help="comma-separated per-sample block ids (oasm)")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--passage-lengths", type=_int_list, default=None)
    p.add_argument("--word-counts", type=_int_list, default=None)
    p.add_argument("--sentences", type=int, default=None)
    p.set_defaults(handler=cmd_features)

    p = sub.add_parser("split", parents=[output, planned],
                       help="emit a fold plan as JSON")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("fit", parents=[output, planned, threaded],
                       help="banded ridge fit of selected feature spaces")
    p.add_argument("--spaces", default=None,
                   help="comma-separated feature-space names (default: all)")
    p.add_argument("--oasm-sigma", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=BandedSearchConfig.max_iters)
    p.add_argument("--patience", type=int, default=BandedSearchConfig.patience)
    p.add_argument("--min-improvement", type=float,
                   default=BandedSearchConfig.min_improvement)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("oasm-sweep", parents=[output, planned, threaded],
                       help="sweep the OASM smoothing width")
    p.set_defaults(handler=cmd_oasm_sweep)

    p = sub.add_parser("compare", parents=[output, threaded],
                       help="run a full analysis config and write a report")
    p.add_argument("--config", type=Path, required=True)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("report", help="print summary lines from an existing report")
    p.add_argument("--input", type=Path, required=True)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    resolved = {k: str(v) for k, v in vars(args).items() if k != "handler"}
    logger.info("resolved config: %s", json.dumps(resolved, sort_keys=True))
    try:
        return args.handler(args)
    except (DataError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


def _require_output(args) -> Path:
    if args.output is None:
        raise DataError("--output is required for this command")
    return args.output


def cmd_synth(args) -> int:
    out = _require_output(args)
    spec, extras = preset(
        args.preset, seed=args.seed, n_units=args.units,
        n_participants=args.participants, noise_scale=args.noise_scale,
        signal_scale=args.signal_scale, autocorr_sigma=args.autocorr_sigma,
    )
    manifest = write_dataset(spec, out, dataset_name=args.preset,
                             extra_features=extras)
    _emit({"event": "synth", "preset": args.preset, "seed": args.seed,
           "manifest": str(manifest), "n_samples": spec.n_samples,
           "n_units": spec.n_units})
    return 0


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def cmd_features(args) -> int:
    out = _require_output(args)
    foreign = [_option(dest) for kind, dests in _KIND_OPTIONS.items()
               if kind != args.kind for dest in dests
               if getattr(args, dest) is not None]
    if foreign:
        raise DataError(f"--kind {args.kind} does not read {', '.join(foreign)}")
    if args.manifest is not None and args.blocks is not None:
        raise DataError("--manifest and --blocks both give block ids; pass one")
    if args.kind == "oasm":
        if args.sigma is None:
            raise DataError("oasm needs --sigma")
        if args.manifest is not None:
            blocks = load_manifest(args.manifest).recording.block_ids
        elif args.blocks is not None:
            blocks = np.asarray(args.blocks)
        else:
            raise DataError("oasm needs --manifest or --blocks")
        fs = build_oasm(len(blocks), blocks, args.sigma)
    elif args.kind == "sp":
        if not args.passage_lengths:
            raise DataError("sp needs --passage-lengths")
        fs = build_sentence_position(args.passage_lengths)
    elif args.kind == "sl":
        if not args.word_counts:
            raise DataError("sl needs --word-counts")
        fs = build_sentence_length(args.word_counts)
    else:
        if not args.sentences:
            raise DataError("wp needs --sentences")
        fs = build_word_position(args.sentences)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_matrix(out, fs.data)
    _emit({"event": "features", "kind": args.kind, "path": str(out),
           "rows": fs.n_samples, "cols": fs.n_dims})
    return 0


def _plan_from_args(args, seed_read=False):
    """The dataset and the plan the options ask for. ``--seed`` is read only
    by a shuffled plan, unless the command reads it too (``seed_read``), and
    ``--n-outer`` and ``--n-inner`` only by the grouped scheme; any of them
    given where nothing reads it is a DataError."""
    if args.seed is not None and args.mode == "contiguous" and not seed_read:
        raise DataError("--seed is read only with --mode shuffled")
    given = {"shuffle_seed": args.seed, "n_outer": args.n_outer,
             "n_inner": args.n_inner}
    given = {key: value for key, value in given.items() if value is not None}
    for key in ("n_outer", "n_inner"):
        if key in given and args.scheme != "grouped":
            raise DataError(f"{_option(key)} is read only with --scheme grouped")
    dataset = load_manifest(args.manifest)
    split = SplitSpec(scheme=args.scheme, mode=args.mode, **given)
    return dataset, split_plans(split, dataset.recording)[args.mode]


def cmd_split(args) -> int:
    out = _require_output(args)
    _, plan = _plan_from_args(args)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, plan.to_dict())
    _emit({"event": "split", "scheme": plan.scheme, "mode": plan.mode,
           "n_outer": len(plan.outer_folds),
           "n_inner": len(plan.outer_folds[0].inner_folds),
           "path": str(out)})
    return 0


def cmd_fit(args) -> int:
    threads = _resolve_threads(args.threads)
    out = _require_output(args)
    dataset, plan = _plan_from_args(args, seed_read=True)
    matrices = feature_matrices(dataset, args.oasm_sigma)
    features = list(matrices.values())
    if args.spaces:
        wanted = _names([name.strip() for name in args.spaces.split(",")],
                        "--spaces")
        missing = [w for w in wanted if w not in matrices]
        if missing:
            raise DataError(f"unknown feature spaces: {missing}")
        features = [matrices[w] for w in wanted]
    if not features:
        raise DataError("no feature spaces selected")

    cfg = BandedSearchConfig(max_iters=args.max_iters, patience=args.patience,
                             min_improvement=args.min_improvement,
                             seed=BandedSearchConfig.seed if args.seed is None
                             else args.seed)
    fit = banded_search(features, dataset.recording.responses, plan,
                        search_cfg=cfg, threads=threads)
    fit.save(out)
    r2 = fit.test_r2(dataset.recording.responses)
    _emit({"event": "fit", "bands": fit.band_names,
           "mean_r2_clipped": float(np.maximum(r2, 0).mean()),
           "mean_r2": float(r2.mean()), "output": str(out)})
    return 0


def cmd_oasm_sweep(args) -> int:
    threads = _resolve_threads(args.threads)
    out = _require_output(args)
    dataset, plan = _plan_from_args(args)
    result = sweep_oasm_sigma(dataset.recording, dataset.recording.block_ids,
                              plan, threads=threads)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "sweep.json", {
        "best_sigma": result.best_sigma,
        "grid": result.sigmas.tolist(),
        "scores": result.scores.tolist(),
    })
    _emit({"event": "oasm-sweep", "best_sigma": result.best_sigma,
           "output": str(out / "sweep.json")})
    return 0


def cmd_compare(args) -> int:
    threads = _resolve_threads(args.threads)
    config = AnalysisConfig.from_file(args.config)
    target = args.output or config.output
    if target is None:
        raise DataError("no output directory: pass --output or set it in the config")
    report = run_analysis(config, threads=threads, output_dir=target)
    for line in _family_lines("compare", report.summary_dict()):
        _emit(line)
    _emit({"event": "compare-done", "output": str(target)})
    return 0


def cmd_report(args) -> int:
    path = args.input / "report.json"
    doc = read_json(path, DataError)
    try:  # read the whole document before printing any of it
        lines = [{"event": "report", "dataset": doc["dataset"]},
                 *_family_lines("report-family", doc)]
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path} is not a report document: {exc!r}") from exc
    for line in lines:
        _emit(line)
    return 0
