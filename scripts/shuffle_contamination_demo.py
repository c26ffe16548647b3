"""How much does split shuffling inflate an autocorrelation-only model?

Generates datasets that contain no stimulus-driven signal at all (just
within-block autocorrelated noise), then fits the block-smoothed identity
feature space under contiguous and shuffled splits. Shuffled splits let the
model exploit block-mates across the train/test boundary.

Usage: python scripts/shuffle_contamination_demo.py [--seeds 5] [--units 200]
"""

import argparse

import numpy as np

import encodebench as eb


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--units", type=int, default=200)
    parser.add_argument("--oasm-sigma", type=float, default=2.0)
    args = parser.parse_args()

    print(f"{'seed':>4}  {'contiguous':>10}  {'shuffled':>10}  {'gap':>8}")
    gaps = []
    for seed in range(args.seeds):
        spec, _ = eb.preset("shuffle-demo", seed=seed, n_units=args.units)
        recording, _ = eb.generate(spec)
        plan = eb.plan_pereira(spec.categories, spec.block_ids)
        shuffled = eb.shuffle_plan(plan, seed)
        oasm = eb.build_oasm(spec.n_samples, spec.block_ids, args.oasm_sigma)

        scores = {}
        for mode, mode_plan in (("contiguous", plan), ("shuffled", shuffled)):
            fit = eb.banded_search([oasm], recording.responses, mode_plan)
            scores[mode] = eb.clip_and_average(
                fit.test_r2(recording.responses),
                recording.unit_participants).mean
        gap = scores["shuffled"] - scores["contiguous"]
        gaps.append(gap)
        print(f"{seed:>4}  {scores['contiguous']:>10.4f}  "
              f"{scores['shuffled']:>10.4f}  {gap:>8.4f}")
    print(f"\nmean gap over {args.seeds} seeds: {np.mean(gaps):.4f}")


if __name__ == "__main__":
    main()
