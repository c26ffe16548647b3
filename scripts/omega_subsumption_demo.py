"""Does a big feature space explain anything beyond the small one it contains?

The synthetic responses are driven by sentence position + length; a 512-dim
"embedding" space is a random linear projection of those same columns, so
its apparent predictivity should be fully subsumed. The omega summary
quantifies that: values near 100% mean no unique variance.

Usage: python scripts/omega_subsumption_demo.py [--seeds 3]
"""

import argparse

import numpy as np

import encodebench as eb


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    omegas = []
    for seed in range(args.seeds):
        spec, extras = eb.preset("subsumption-demo", seed=seed)
        llm = extras[0]
        recording, _ = eb.generate(spec)
        plan = eb.plan_pereira(spec.categories, spec.block_ids)

        spsl = [eb.FeatureSpace(fs.name, fs.data, "spsl")
                for fs in spec.signal_features]
        scores = {}
        for key, bands in (
            (frozenset(["SPSL"]), spsl),
            (frozenset(["LLM"]), [llm]),
            (frozenset(["SPSL", "LLM"]), spsl + [llm]),
        ):
            fit = eb.banded_search(bands, recording.responses, plan)
            scores[key] = fit.test_r2(recording.responses)
        report = eb.build_comparison_report(
            scores, recording.unit_participants, llm="LLM")
        omegas.append(report.omega.mean)
        spsl_mean = eb.clip_and_average(
            scores[frozenset(["SPSL"])], recording.unit_participants).mean
        llm_mean = eb.clip_and_average(
            scores[frozenset(["LLM"])], recording.unit_participants).mean
        print(f"seed {seed}: R2[SPSL]={spsl_mean:.4f} R2[LLM]={llm_mean:.4f} "
              f"omega={report.omega.mean:.1f}%")
    print(f"\nmean omega over {args.seeds} seeds: {np.mean(omegas):.1f}% "
          "(100% = the small model captures everything)")


if __name__ == "__main__":
    main()
