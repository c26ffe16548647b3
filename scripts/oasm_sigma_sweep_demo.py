"""Recover a known smoothing width with the validation sweep.

Responses are a pure readout of the block-smoothed identity features built
with sigma=2.0. The sweep should land within a few grid steps of 2.0 when
scored on shuffled-split validation folds.

Usage: python scripts/oasm_sigma_sweep_demo.py [--seed 11]
"""

import argparse

import numpy as np

import encodebench as eb


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--true-sigma", type=float, default=2.0)
    args = parser.parse_args()

    blocks = np.repeat(np.arange(6), 32)
    oasm_true = eb.build_oasm(192, blocks, args.true_sigma)
    spec = eb.SynthSpec(
        n_samples=192, n_units=60, block_ids=blocks,
        signal_features=[oasm_true], signal_scale=1.0, noise_scale=0.0,
        seed=args.seed, participants=np.arange(60) % 4)
    recording, _ = eb.generate(spec)
    plan = eb.shuffle_plan(eb.plan_grouped(blocks, 6, 5), args.seed)

    sweep = eb.sweep_oasm_sigma(recording, blocks, plan)
    print(f"true sigma: {args.true_sigma}")
    print(f"selected sigma: {sweep.best_sigma:.2f}")
    print("\nsigma  score")
    for sigma, score in zip(sweep.sigmas, sweep.scores):
        marker = " <-- best" if sigma == sweep.best_sigma else ""
        print(f"{sigma:5.2f}  {score:.4f}{marker}")


if __name__ == "__main__":
    main()
