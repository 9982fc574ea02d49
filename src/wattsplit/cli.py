"""Command line interface.

Subcommands: synth, states, train, disaggregate, evaluate. ``train`` merges
settings as defaults < --config file < explicit flags. ``synth``, ``train``
and ``disaggregate`` echo their settings into their output directory as
effective_config.json, so runs can be reproduced from the echo plus the
input files; train's echo can be reused as a --config. The echoes of
train and disaggregate also record the environment the run had.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .autodiff import blas_threads, keep_freed_memory, subnetworks_on_two_threads
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import evaluate_pair
from .model import DEFAULT_CONV_STACK, DisaggNet, NetConfig, conv_stack_lists
from .postprocess import FilterConfig
from .presets import GRID_PERIOD_S, window_for
from .series import PowerSeries, fill_gaps, load_csv, save_columns, save_csv
from .states import check_value, cluster_states, load_state_model, save_state_model
from .synth import generate, load_scenario
from .trainer import VARIANTS, TrainConfig, disaggregate, train
from .windows import WindowConfig, make_windows

# --variant spells a variant with "-" where trainer.VARIANTS has "_"
VARIANT_CHOICES = [v.replace("_", "-") for v in VARIANTS]

# train defaults to the 6 s (ukdale) grid and the paper-size net
TRAIN_DEFAULTS = {
    "period": GRID_PERIOD_S["ukdale"],
    "window_s": window_for("ukdale").s,
    "window_w": window_for("ukdale").w,
    "stride": None,
    "batch_size": TrainConfig.batch_size,
    "learning_rate": TrainConfig.learning_rate,
    "epochs": TrainConfig.epochs,
    "lambda_power": TrainConfig.lambda_power,
    "variant": TrainConfig.variant,
    "seed": TrainConfig.seed,
    "shuffle": TrainConfig.shuffle,
    "hidden": NetConfig.hidden,
    "conv_stack": conv_stack_lists(DEFAULT_CONV_STACK),
    "tau": NetConfig.tau,
    "mains": None,
    "appliance": None,
    "state_model": None,
}


# the JSON kind of each setting (states.check_value): its default's type,
# or null as by default for the stride and the input paths; conv_stack is a
# flag string or a list of [filters, kernel(, stride)] lists
TRAIN_KINDS = {key: type(value) for key, value in TRAIN_DEFAULTS.items()} | {
    "stride": (None, int), "conv_stack": (str, [[int]]),
    "mains": (None, str), "appliance": (None, str), "state_model": (None, str)}


def _parse_conv_stack(value: str) -> list[list[int]]:
    """Parse the --conv-stack flag form "16x9,16x7@2" (filters x kernel[@stride]).

    A malformed layer is an error that names the flag and the layer.
    """
    layers = []
    for part in value.split(","):
        match = re.fullmatch(r"\s*([1-9][0-9]*)x([1-9][0-9]*)(?:@([1-9][0-9]*))?\s*",
                             part)
        if match is None:
            raise ValueError(f"--conv-stack: layer {part.strip()!r} of {value!r} is not "
                             "filters x kernel[@stride] with positive integers, "
                             'e.g. "16x7@2"')
        layers.append([int(g) for g in match.groups("1")])
    return layers


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a config file holds one JSON object")
    # train's own echo is a config: its command must be train, and the
    # environment it recorded is not a setting
    command = doc.pop("command", "train")
    if command != "train":
        raise ValueError(f"{path}: config key 'command' is {command!r}; a train "
                         "config may only say 'train'")
    doc.pop("environment", None)
    unknown = set(doc) - set(TRAIN_DEFAULTS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in doc.items():
        check_value(str(path), key, value, TRAIN_KINDS[key])
        if TRAIN_KINDS[key] is float:
            doc[key] = float(value)
    return doc


def _merge_settings(args) -> dict:
    merged = dict(TRAIN_DEFAULTS)
    if args.config:
        merged.update(_load_config_file(args.config))
    for k in TRAIN_DEFAULTS:
        flag = getattr(args, k, None)
        if flag is not None:
            merged[k] = flag
    return merged


def _echo_config(out_dir: str, command: str, settings: dict,
                 environment: bool = False) -> None:
    """settings holds only JSON values: strings, numbers, None and lists.

    With ``environment``, the echo ends with the numpy version, OpenBLAS's
    thread count (null where it cannot be asked) and whether the twin
    subnetworks ran on two threads.
    """
    os.makedirs(out_dir, exist_ok=True)
    doc = {"command": command, **dict(sorted(settings.items()))}
    if environment:
        doc["environment"] = {"numpy": np.__version__, "blas_threads": blas_threads(),
                              "subnetworks_on_two_threads": subnetworks_on_two_threads()}
    with open(os.path.join(out_dir, "effective_config.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_series(path, period: int) -> PowerSeries:
    return fill_gaps(load_csv(path, period))


def cmd_synth(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace
        scenario = replace(scenario, seed=args.seed)
    mains, traces, state_seqs = generate(scenario)
    os.makedirs(args.out, exist_ok=True)
    save_csv(mains, os.path.join(args.out, "mains.csv"))
    for spec, trace, states in zip(scenario.appliances, traces, state_seqs):
        save_csv(trace, os.path.join(args.out, f"{spec.name}.csv"))
        save_columns(os.path.join(args.out, f"{spec.name}.states"),
                     [trace.timestamps(), states])
    _echo_config(args.out, "synth",
                 {"scenario": os.path.abspath(args.scenario), "seed": scenario.seed})
    print(f"wrote mains.csv and {len(scenario.appliances)} appliance traces to {args.out}")
    return 0


def cmd_states(args) -> int:
    series = _load_series(args.appliance, args.period)
    model = cluster_states(series, args.state_count, on_threshold=args.threshold,
                           seed=args.seed or 0, name=args.name)
    save_state_model(model, args.out)
    print(f"{model.name}: centroids "
          f"{[round(float(c), 2) for c in model.centroids]} W -> {args.out}")
    return 0


def cmd_train(args) -> int:
    st = _merge_settings(args)
    if isinstance(st["conv_stack"], str):  # parsed before any input file is read
        st["conv_stack"] = _parse_conv_stack(st["conv_stack"])
    for required in ("mains", "appliance", "state_model"):
        if st[required] is None:
            raise ValueError(f"train: --{required.replace('_', '-')} is required "
                             "(flag or config file)")
    state_model = load_state_model(st["state_model"])
    window = WindowConfig(st["window_s"], st["window_w"])
    net = DisaggNet(NetConfig(  # built and checked before the series are read
        window=window,
        state_count=state_model.state_count,
        conv_stack=st["conv_stack"],
        hidden=st["hidden"],
        tau=st["tau"],
        seed=st["seed"],
    ))
    # echo the canonical form so the echo file can be reused as a --config
    st["conv_stack"] = conv_stack_lists(net.config.conv_stack)
    net.dataset_tag = os.path.basename(str(st["mains"]))
    mains = _load_series(st["mains"], st["period"])
    appliance = _load_series(st["appliance"], st["period"])
    examples = make_windows(mains, appliance, state_model, window,
                            stride=st["stride"])
    cfg = TrainConfig(batch_size=st["batch_size"], learning_rate=st["learning_rate"],
                      epochs=st["epochs"], lambda_power=st["lambda_power"],
                      variant=st["variant"].replace("-", "_"), seed=st["seed"],
                      shuffle=st["shuffle"])
    net, rep = train(net, examples, cfg,
                     centroid_targets=state_model.normalize(state_model.centroids))
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.ddnn")
    save_checkpoint(net, ckpt)
    rep.to_csv(os.path.join(args.out, "train_report.csv"))
    _echo_config(args.out, "train", st, environment=True)
    last = rep.epochs[-1] if rep.epochs else None
    tail = f", final loss {last.loss_total:.6f}" if last else ""
    print(f"trained {cfg.epochs} epochs in {rep.wall_time_s:.1f}s{tail} -> {ckpt}")
    return 0


def cmd_disaggregate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    state_model = load_state_model(args.state_model)
    mains = _load_series(args.mains, args.period)
    filter_cfg = FilterConfig(median_window=args.median_window)
    result = disaggregate(model, mains, state_model, variant=args.variant.replace("-", "_"),
                          stride=args.stride, filter_cfg=filter_cfg)
    os.makedirs(args.out, exist_ok=True)
    save_csv(result.estimate, os.path.join(args.out, "estimate.csv"))
    save_columns(os.path.join(args.out, "states.csv"),
                 [result.estimate.timestamps(), np.argmax(result.states, axis=1)])
    _echo_config(args.out, "disaggregate", {
        "checkpoint": os.path.abspath(args.checkpoint),
        "state_model": os.path.abspath(args.state_model),
        "mains": os.path.abspath(args.mains),
        "variant": args.variant,
        "stride": args.stride,
        "median_window": args.median_window,
        "period": args.period,
    }, environment=True)
    print(f"wrote estimate.csv and states.csv to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    truth = _load_series(args.truth, args.period)
    estimate = _load_series(args.estimate, args.period)
    row = evaluate_pair(args.name, truth, estimate)
    if args.out:
        row.to_csv(args.out)
    print(row)
    return 0


@functools.cache  # parse_args keeps no state in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wattsplit",
                                     description="appliance-level energy disaggregation")
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="override the random seed")

    p = sub.add_parser("synth", parents=[seeded],
                       help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("states", parents=[seeded],
                       help="build an appliance state model from a CSV")
    p.add_argument("--appliance", required=True, help="appliance CSV")
    p.add_argument("--state-count", type=int, required=True, dest="state_count")
    p.add_argument("--out", required=True, help="state model JSON path")
    p.add_argument("--threshold", type=float, default=15.0, help="ON threshold, W")
    p.add_argument("--period", type=int, default=TRAIN_DEFAULTS["period"], help="grid period, s")
    p.add_argument("--name", default="appliance")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("train", parents=[seeded], help="train a net")
    p.add_argument("--config", help="JSON settings file")
    p.add_argument("--mains")
    p.add_argument("--appliance")
    p.add_argument("--state-model", dest="state_model")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--period", type=int)
    p.add_argument("--window-s", type=int, dest="window_s")
    p.add_argument("--window-w", type=int, dest="window_w")
    p.add_argument("--stride", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lambda-power", type=float, dest="lambda_power")
    p.add_argument("--variant", choices=VARIANT_CHOICES)
    p.add_argument("--hidden", type=int)
    p.add_argument("--conv-stack", dest="conv_stack",
                   help='e.g. "16x9,16x7,24x5" (filters x kernel[@stride])')
    p.add_argument("--tau", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("disaggregate", help="run a trained net over a mains CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mains", required=True)
    p.add_argument("--state-model", required=True, dest="state_model")
    p.add_argument("--variant", choices=VARIANT_CHOICES, default="plain")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--stride", type=int)
    p.add_argument("--median-window", type=int, default=FilterConfig.median_window,
                   dest="median_window")
    p.add_argument("--period", type=int, default=TRAIN_DEFAULTS["period"])
    p.set_defaults(func=cmd_disaggregate)

    p = sub.add_parser("evaluate", help="score an estimate CSV against ground truth")
    p.add_argument("--estimate", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", help="metric CSV path")
    p.add_argument("--period", type=int, default=TRAIN_DEFAULTS["period"])
    p.add_argument("--name", default="appliance")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    keep_freed_memory()  # train and disaggregate free their arrays as they go
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
