#!/usr/bin/env python3
"""wattsplit benchmark: runs `wattsplit.cli.main` in-process, the way its
users run the program, on inputs made from a seed, and checks the outputs.

    python3 bench/run.py --workload train-demo --seed 1 --seconds 40 --trace 0

One run sets the workload up at least five times and for at least 2 s,
then repeats rounds of the workload's CLI job(s), the output checks and
one more set-up until ``--seconds`` have passed, at least one round
(``setup_s`` is the median set-up). The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` (operations: CLI calls and checks) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it records the environment. Full results
and the trace go to ``.bench_out/`` in the checkout. See bench/README.md.
"""
import os
import sys

# OpenBLAS reads these when numpy loads, so they are set before any import
# of numpy; 1 thread keeps runs on a shared 2-core machine steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 5            # set-ups per run at least ...
SETUP_BUDGET_S = 2.0  # ... and more while they have taken less than this
PERIOD = 6
DEMO_NET = ("--conv-stack", "16x9,16x7,24x5", "--hidden", "96", "--window-w", "40")


@dataclass(frozen=True)
class Workload:
    name: str
    train_samples: int     # length of the training scenario
    epochs: int
    net_flags: tuple       # network flags for `wattsplit train`; () = CLI defaults
    train_stride: int      # window stride in training
    infer_samples: int     # mains samples disaggregated per round
    infer_stride: int
    coordinates: int       # parameter coordinates in the gradient check

    @property
    def disaggregates(self) -> bool:
        return self.name.startswith("disaggregate")


WORKLOADS = {w.name: w for w in (
    Workload("train-demo", 8000, 2, DEMO_NET, 16, 4096, 16, 32),
    Workload("train-paper", 8192, 1, (), 32, 2048, 32, 12),
    Workload("disaggregate-demo", 12_000, 1, DEMO_NET, 16, 200_000, 16, 32),
)}
OUTPUT_S = 32  # output window length, the CLI default
CHECK_WINDOWS = 16
GRADIENT_WINDOWS = 4
INFERENCE_SLICE = 512  # positions of the disaggregate-demo estimate re-derived
CHECKS_PER_ROUND = {False: 5, True: 6}  # by Workload.disaggregates
INFER_REPEATS = 3  # trainer.disaggregate calls over the slice in a train-* round


def scenario_doc(samples: int, seed: int) -> dict:
    """One 150 W two-state heater at 10% duty over 20 W of unmetered load
    and 10 W of noise."""
    mean_on, duty = 50.0, 0.1
    return {"appliances": [{"name": "heater", "centroids": [0.0, 150.0],
                            "mean_on_duration": mean_on,
                            "activation_rate": duty / (mean_on * (1.0 - duty))}],
            "duration": samples, "period": PERIOD, "unknown_load": 20.0,
            "noise_std": 10.0, "start_time": 1_600_000_000, "seed": seed}


def blas_runtime() -> dict:
    """OpenBLAS version and thread count as the library numpy loaded reports
    them; empty when numpy does not bundle OpenBLAS."""
    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"library": os.path.basename(path),
                            "threads": threads(), "config": config().decode()}
    return {}


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_runtime": blas_runtime(), "blas_threads_pinned": BLAS_THREADS,
            "cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


class CallTimes:
    """Wall time of every ``trainer.train`` and ``trainer.disaggregate`` call,
    by wrapping the names ``cli`` and ``trainer`` call them through."""

    def __init__(self):
        self.calls: dict[str, list[float]] = {}

    def install(self):
        from wattsplit import cli, trainer

        for name in ("train", "disaggregate"):
            wrapped = self._wrap(name, getattr(trainer, name))
            setattr(trainer, name, wrapped)
            setattr(cli, name, wrapped)

    def _wrap(self, name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls.setdefault(name, []).append(time.perf_counter() - start)
        return timed

    def take(self, name: str) -> list[float]:
        """Durations of the calls since the last ``take``."""
        return self.calls.pop(name, [])


class Run:
    def __init__(self, workload: Workload, seed: int, work: Path, tracer):
        import numpy as np

        self.w = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.timer = CallTimes()
        self.timer.install()
        train_seed, test_seed = (int(x) for x in
                                 np.random.SeedSequence(seed).generate_state(2))
        self.scenarios = {"train": scenario_doc(workload.train_samples, train_seed)}
        if workload.disaggregates:
            self.scenarios["test"] = scenario_doc(workload.infer_samples, test_seed)
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.record = {"setup_s": [], "job_s": [], "train_windows_per_s": [],
                       "infer_samples_per_s": [], "peak_rss_mb": []}
        self.job_cpu_s: list[float] = []  # user + system time of the job

    def phase(self, name: str, round_index: int = 0) -> None:
        if self.tracer is not None:
            self.tracer.phase = name
            self.tracer.round = round_index

    def collect(self) -> None:
        """A full collection of the benchmark's own, kept out of the
        per-layer metrics."""
        self.phase("bench")
        gc.collect()

    # -- operations ----------------------------------------------------------

    def cli(self, *argv) -> str:
        """One CLI call; returns what it printed. A failed call is counted,
        and the checks that need its outputs fail after it."""
        from wattsplit import cli

        self.attempted += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            self.failed += 1
            print(f"wattsplit {argv[0]} exited with {code}", file=sys.stderr)
        return out.getvalue()

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # a failed check is counted and the run goes on
            self.failed += 1
            self.checks_failed += 1
            print(f"check {name} failed:\n{traceback.format_exc()}", file=sys.stderr)

    # -- set-up --------------------------------------------------------------

    def windows_per_epoch(self) -> int:
        return (self.w.train_samples - OUTPUT_S) // self.w.train_stride + 1

    def train_argv(self, data: Path, states: Path, out: Path) -> list:
        return ["train", "--mains", data / "mains.csv", "--appliance", data / "heater.csv",
                "--state-model", states, "--variant", "hard",
                "--epochs", self.w.epochs, "--stride", self.w.train_stride,
                "--seed", self.seed, "--out", out, *self.w.net_flags]

    def setup(self, index: int) -> Path:
        """Make the inputs in a fresh directory; returns it."""
        self.phase("setup", index)
        home = self.work / f"setup{index}"
        home.mkdir(parents=True)
        start = time.perf_counter()
        for part, doc in self.scenarios.items():
            spec = home / f"{part}.json"
            spec.write_text(json.dumps(doc), encoding="utf-8")
            self.cli("synth", "--scenario", spec, "--out", home / part)
        self.cli("states", "--appliance", home / "train" / "heater.csv",
                 "--state-count", 2, "--name", "heater", "--out", home / "states.json")
        if self.w.disaggregates:
            self.cli(*self.train_argv(home / "train", home / "states.json", home / "model"))
        self.record["setup_s"].append(time.perf_counter() - start)
        for took in self.timer.take("train"):
            self.record["train_windows_per_s"].append(
                self.windows_per_epoch() * self.w.epochs / took)
        return home

    # -- rounds --------------------------------------------------------------

    def round(self, index: int, home: Path) -> None:
        here = self.work / f"round{index}"
        self.collect()
        self.phase("job", index)
        cpu = _cpu_s()
        start = time.perf_counter()
        if self.w.disaggregates:
            self.cli("disaggregate", "--checkpoint", home / "model" / "checkpoint.ddnn",
                     "--state-model", home / "states.json",
                     "--mains", home / "test" / "mains.csv", "--variant", "hard-median",
                     "--stride", self.w.infer_stride, "--out", here / "est")
            printed = self.cli("evaluate", "--estimate", here / "est" / "estimate.csv",
                               "--truth", home / "test" / "heater.csv", "--name", "heater",
                               "--out", here / "metrics.csv")
        else:
            self.cli(*self.train_argv(home / "train", home / "states.json", here / "model"))
        self.record["job_s"].append(time.perf_counter() - start)
        self.job_cpu_s.append(_cpu_s() - cpu)
        if index == 1:  # later rounds would read the high-water mark of earlier checks
            self.record["peak_rss_mb"].append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        for took in self.timer.take("disaggregate"):
            self.record["infer_samples_per_s"].append(self.w.infer_samples / took)
        for took in self.timer.take("train"):
            self.record["train_windows_per_s"].append(
                self.windows_per_epoch() * self.w.epochs / took)
        self.collect()
        self.phase("check", index)
        before = self.attempted
        try:
            if self.w.disaggregates:
                self.check_disaggregation(home, here, printed)
            else:
                self.check_training(home, here)
        except Exception:  # inputs of the checks missing: the rest count as failed
            print(f"checks stopped:\n{traceback.format_exc()}", file=sys.stderr)
            missing = CHECKS_PER_ROUND[self.w.disaggregates] - (self.attempted - before)
            self.attempted += missing
            self.failed += missing
            self.checks_failed += missing
        shutil.rmtree(here, ignore_errors=True)

    # -- checks --------------------------------------------------------------

    def _model_checks(self, checkpoint_path: Path, data: Path, states_path: Path):
        """Forward and gradient checks; returns what the later checks share."""
        import numpy as np
        from wattsplit import checkpoint, model as model_mod

        import reference as ref

        state_model = ref.read_state_model(states_path)
        stamps, mains = ref.read_power_csv(data / "mains.csv")
        _, truth = ref.read_power_csv(data / "heater.csv")
        config, params = ref.read_checkpoint(checkpoint_path)
        s, w, l = config["s"], config["w"], config["states"]
        norm = (mains - state_model["mean"]) / state_model["std"]
        pad = -state_model["mean"] / state_model["std"]
        net = checkpoint.load_checkpoint(checkpoint_path)

        starts = self.rng.integers(0, len(mains) - s + 1, size=CHECK_WINDOWS)
        x = ref.windows_at(norm, starts, s, w, pad)
        self.check("forward", lambda: ref.check_forward(net.predict(x), config, params, x))

        def gradients():
            picked = starts[:GRADIENT_WINDOWS]
            xg = x[:GRADIENT_WINDOWS]
            target_power = np.stack([(truth[st:st + s] - state_model["mean"])
                                     / state_model["std"] for st in picked])
            labels = ref.state_labels(truth, state_model)
            target_states = np.stack([labels[st:st + s] for st in picked])
            fwd = net.forward_tensors(xg)
            total, _, _ = model_mod.total_loss(fwd, target_power,
                                               np.eye(l)[target_states])
            total.backward()
            analytic = {p.name: p.tensor.grad for p in net.parameters()}
            ref.check_gradients(analytic, float(total.values), config, params, xg,
                                target_power, target_states, self.rng,
                                self.w.coordinates)
        self.check("gradient", gradients)
        return net, config, params, state_model, stamps, mains, truth

    def check_training(self, home: Path, here: Path) -> None:
        """Checks on the checkpoint a train job wrote, including a
        ``trainer.disaggregate`` call over a slice of the training mains
        (the ``infer_samples_per_s`` of the train workloads)."""
        import numpy as np
        from wattsplit import metrics, series, states, trainer

        import reference as ref

        checkpoint_path = here / "model" / "checkpoint.ddnn"
        net, config, params, state_model, stamps, mains, truth = self._model_checks(
            checkpoint_path, home / "train", home / "states.json")
        n = self.w.infer_samples
        lo = int(self.rng.integers(0, len(mains) - n + 1))
        start_time = int(stamps[lo])
        mains_slice = series.PowerSeries(start_time, PERIOD, mains[lo:lo + n])
        result = {}

        def infer():
            model = states.load_state_model(home / "states.json")
            repeats = [trainer.disaggregate(net, mains_slice, model, variant="hard_median",
                                            stride=self.w.infer_stride).estimate.values
                       for _ in range(INFER_REPEATS)]
            for took in self.timer.take("disaggregate"):
                self.record["infer_samples_per_s"].append(n / took)
            ref.require(all(np.array_equal(repeats[0], r) for r in repeats),
                        "inference: repeated calls differ")
            result["estimate"] = repeats[0]
            expected = ref.hard_median_estimate(config, params, mains[lo:lo + n],
                                                state_model, self.w.infer_stride, 0, n)
            ref.check_inference(result["estimate"], expected, 1e-8)
        self.check("inference", infer)
        self.check("estimate", lambda: ref.check_estimate(result["estimate"], n))

        def mae():
            truth_slice = series.PowerSeries(start_time, PERIOD, truth[lo:lo + n])
            estimate = series.PowerSeries(start_time, PERIOD, result["estimate"])
            row = metrics.evaluate_pair("heater", truth_slice, estimate)
            ref.check_mae(row.mae_w, truth[lo:lo + n], result["estimate"], 1e-9)
        self.check("mae", mae)

    def check_disaggregation(self, home: Path, here: Path, printed: str) -> None:
        import reference as ref

        net, config, params, state_model, _, mains, truth = self._model_checks(
            home / "model" / "checkpoint.ddnn", home / "test", home / "states.json")
        del net
        _, estimate = ref.read_power_csv(here / "est" / "estimate.csv")
        self.check("estimate", lambda: ref.check_estimate(estimate, len(mains)))
        lo = int(self.rng.integers(0, len(mains) - INFERENCE_SLICE + 1))
        hi = lo + INFERENCE_SLICE

        def infer():
            expected = ref.hard_median_estimate(config, params, mains, state_model,
                                                self.w.infer_stride, lo, hi)
            ref.check_inference(estimate[lo:hi], expected, 1e-6)  # 6-decimal CSV
        self.check("inference", infer)

        def state_rows():
            _, indices = ref.read_power_csv(here / "est" / "states.csv")
            ref.check_states(indices, config["states"], len(mains))
        self.check("states", state_rows)

        def mae():
            rows = [line.split(",") for line in printed.splitlines()]
            (shown,) = [float(r[1]) for r in rows if r[0] == "heater"]
            ref.check_mae(shown, truth, estimate, 5e-4 + 1e-9)  # printed to 3 decimals
            with open(here / "metrics.csv", encoding="utf-8") as fh:
                written = float(fh.read().splitlines()[1].split(",")[1])
            ref.check_mae(written, truth, estimate, 1e-9 * max(1.0, written))
        self.check("mae", mae)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wattsplit" / "cli.py").is_file():
        print(f"error: no wattsplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    env = environment(args.workload, args.seed, args.trace)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(WORKLOADS[args.workload], args.seed, work, tracer)
    try:
        home = run.setup(1)  # the rounds' inputs
        setups = 1
        while setups < SETUPS or sum(run.record["setup_s"]) < SETUP_BUDGET_S:
            setups += 1
            shutil.rmtree(run.setup(setups))
        rounds = 0
        started = time.perf_counter()
        while rounds == 0 or time.perf_counter() - started < args.seconds:
            rounds += 1
            run.round(rounds, home)
            # one more set-up per round, so that setup_s samples the whole run
            setups += 1
            shutil.rmtree(run.setup(setups))
        measured_s = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    medians = {k: statistics.median(v) for k, v in run.record.items()}
    units = {"setup_s": "s", "job_s": "s", "train_windows_per_s": "windows/s",
             "infer_samples_per_s": "samples/s", "peak_rss_mb": "MB"}
    if tracer is None:
        metrics = {k: {"value": medians[k], "unit": units[k]} for k in units}
    else:
        tracer.uninstall()
        layers = tracer.per_layer(setups, rounds)
        layers["trace.job_s"] = (medians["job_s"], "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"env": env, "setups": setups, "rounds": rounds, "measured_s": measured_s,
              "per_round": run.record, "job_cpu_s": run.job_cpu_s, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(str(OUT / f"trace-{stem}.json.gz"), {"env": env, "rounds": rounds})
    print(json.dumps({"env": env, "rounds": rounds}))
    print(json.dumps({"correct": run.checks_failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
