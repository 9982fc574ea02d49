#!/usr/bin/env python3
"""Run the canned two-appliance synthetic experiment and print a score table.

Trains one net per appliance and training mode on a seeded synthetic
scenario, disaggregates the trailing holdout, and reports MAE / SAE /
state accuracy / transition fidelity per variant. With --out, also writes
metrics.csv, per-appliance plot CSVs, train reports, and checkpoints.

The MAE is also split into the part earned at true-OFF timesteps and the
part earned at ON timesteps (each a sum over its timesteps divided by the
holdout length, so the two add up to the MAE).

Example:
    python3 scripts/run_synth_demo.py --duration 50000 --out runs/demo
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from wattsplit.checkpoint import save_checkpoint
from wattsplit.demo import run_demo, transition_count
from wattsplit.metrics import report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=int, default=200_000,
                        help="scenario length in samples (default 200000)")
    parser.add_argument("--seed", type=int, default=7, help="scenario/run seed")
    parser.add_argument("--net-seed", type=int, default=2, dest="net_seed",
                        help="parameter initialization seed")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=16, dest="batch_size")
    parser.add_argument("--learning-rate", type=float, default=1e-3,
                        dest="learning_rate")
    parser.add_argument("--train-stride", type=int, default=16,
                        dest="train_stride",
                        help="spacing of training windows, samples")
    parser.add_argument("--infer-stride", type=int, default=16,
                        dest="infer_stride",
                        help="spacing of evaluation windows, samples")
    parser.add_argument("--variants", nargs="+",
                        default=["plain", "hard", "hard_median"],
                        choices=["plain", "median", "hard", "hard_median"])
    parser.add_argument("--out", help="directory for metric/plot/checkpoint files")
    args = parser.parse_args(argv)

    outcome = run_demo(duration=args.duration, seed=args.seed, epochs=args.epochs,
                       batch_size=args.batch_size, learning_rate=args.learning_rate,
                       variants=tuple(args.variants), net_seed=args.net_seed,
                       train_stride=args.train_stride,
                       infer_stride=args.infer_stride)

    for app in outcome.appliances:
        truth_trans = transition_count(app.true_states)
        print(f"\n{app.name}: ratings {np.round(app.state_model.centroids, 1)} W, "
              f"holdout {len(app.truth)} samples, {truth_trans} true transitions")
        print(f"  {'variant':12s} {'MAE (W)':>8s} {'OFF part':>8s} {'ON part':>8s} "
              f"{'SAE':>7s} {'state acc':>9s} {'transitions':>11s}")
        true_off = app.true_states == 0
        for variant in args.variants:
            m = app.metrics[variant]
            err = np.abs(app.truth.values - app.results[variant].estimate.values)
            mae_off = float(np.sum(err[true_off])) / len(err)
            mae_on = float(np.sum(err[~true_off])) / len(err)
            trans = transition_count(np.argmax(app.results[variant].states, axis=1))
            print(f"  {variant:12s} {m.mae_w:8.3f} {mae_off:8.3f} {mae_on:8.3f} "
                  f"{m.sae:7.4f} {app.accuracy[variant] * 100:8.2f}% {trans:11d}")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for app in outcome.appliances:
            best = app.results[args.variants[-1]]
            report(best, app.truth, app.results.get("plain", best),
                   os.path.join(args.out, app.name))
            for mode, net in app.models.items():
                save_checkpoint(net, os.path.join(args.out, app.name,
                                                  f"{mode}.ddnn"))
                app.reports[mode].to_csv(os.path.join(args.out, app.name,
                                                      f"train_{mode}.csv"))
        print(f"\nartifacts written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
