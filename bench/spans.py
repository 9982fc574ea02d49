"""Span tracer that wraps the program's public functions from outside.

``Tracer.install()`` replaces module attributes of ``wattsplit`` with
timed wrappers: every autodiff op and the backward closure it leaves on
its output, ``DisaggNet.forward_tensors``/``predict``, ``Adam.step``,
``Tensor.backward``, and the names that ``cli`` and ``trainer`` import
from the other modules. Spans stay in memory, tagged with the phase
(setup, job or check) and round they ran in, and are written out by
``write``. A span's self time is its duration minus the time its child
spans cover.
"""
from __future__ import annotations

import functools
import gc
import gzip
import json
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

_ELEMENTWISE = ("relu", "sigmoid", "softmax", "reshape", "add", "scale")
_LOSSES = ("mse_loss", "cross_entropy_loss")
_POSTPROCESS = ("hard_gate", "median_filter", "combine_hard", "reconcile_overlaps")
_ADAM_ARRAYS = 7  # Adam reads value, grad, m, v and writes value, m, v


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.round = 0
        self.spans: list[tuple] = []  # (id, parent, phase, round, name, start, end)
        self._stack: list[list] = []  # [id, name, start, child time, parent]
        self.total = defaultdict(float)  # (phase, name) -> seconds
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)  # (phase, counter) -> count
        self.step_ms: list[float] = []
        self.predict_peak_mb = 0.0
        self._peaked: set = set()  # (phase, batch size) of predict calls measured
        self._next_id = 0
        self._step_start = None
        self._gc_start = None
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0, parent])

    def exit(self) -> float:
        end = time.perf_counter()
        span_id, name, start, child, parent = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        key = (self.phase, name)
        self.total[key] += duration
        self.self_time[key] += duration - child
        self.counts[(self.phase, name + ".calls")] += 1
        self.spans.append((span_id, parent, self.phase, self.round, name, start, end))
        return end

    def count(self, counter: str, n: float = 1) -> None:
        self.counts[(self.phase, counter)] += n

    def _timed(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _op(self, prefix: str, fn):
        """Wrap an autodiff op: time it, and time the closure it records."""
        tracer = self
        fwd_name, bwd_name = prefix + "_fwd", prefix + "_bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer.count("autodiff.ops_recorded")
            closure = out._backward
            if closure is not None:
                def timed_backward():
                    tracer.enter(bwd_name)
                    try:
                        closure()
                    finally:
                        tracer.exit()
                    tracer.count("autodiff.closures_run")
                out._backward = timed_backward
            return out
        return wrapper

    def _generator(self, name: str, fn, counter: str):
        """Wrap a generator function: each ``next`` is one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    tracer.count(counter)
                    yield item
            return timed()
        return wrapper

    # -- installing ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        from wattsplit import (autodiff, checkpoint, cli, metrics, model, optim,
                               postprocess, series, states, synth, trainer, windows)

        tracer = self
        for name in ("conv1d", "dense") + _ELEMENTWISE + _LOSSES:
            prefix = {"conv1d": "autodiff.conv1d", "dense": "autodiff.dense"}.get(
                name, "autodiff.loss" if name in _LOSSES else "autodiff.elementwise")
            self._patch(autodiff, name, self._op(prefix, getattr(autodiff, name)))
        self._patch(autodiff.Tensor, "backward",
                    self._timed("autodiff.backward", autodiff.Tensor.backward))

        combine = self._op("model.combine", model.combine)
        self._patch(model, "combine", combine)
        self._patch(trainer, "combine", combine)

        forward_tensors = model.DisaggNet.forward_tensors

        @functools.wraps(forward_tensors)
        def traced_forward_tensors(net, *args, **kwargs):
            if tracer._stack and tracer._stack[-1][1] == "trainer.train":
                tracer._step_start = time.perf_counter()
            tracer.enter("model.forward_tensors")
            try:
                return forward_tensors(net, *args, **kwargs)
            finally:
                tracer.exit()
        self._patch(model.DisaggNet, "forward_tensors", traced_forward_tensors)

        predict = model.DisaggNet.predict

        @functools.wraps(predict)
        def traced_predict(net, inputs):
            # tracemalloc slows every allocation, so it watches only the first
            # call of each batch size in each phase
            key = (tracer.phase, len(inputs))
            started = key not in tracer._peaked and not tracemalloc.is_tracing()
            tracer._peaked.add(key)
            tracer.enter("model.predict")
            if started:
                tracemalloc.start()
            try:
                return predict(net, inputs)
            finally:
                if started:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.predict_peak_mb = max(tracer.predict_peak_mb, peak / 2**20)
                tracer.exit()
        self._patch(model.DisaggNet, "predict", traced_predict)

        step = optim.Adam.step

        @functools.wraps(step)
        def traced_step(opt, params):
            elements = sum(p.tensor.values.size for p in params if p.trainable)
            tracer.enter("optim.adam_step")
            try:
                step(opt, params)
            finally:
                end = tracer.exit()
            tracer.count("optim.adam_steps")
            tracer.count("optim.adam_bytes_computed", _ADAM_ARRAYS * 8 * elements)
            if tracer._step_start is not None:
                tracer.step_ms.append(1e3 * (end - tracer._step_start))
                tracer._step_start = None
        self._patch(optim.Adam, "step", traced_step)

        def after_save(_result, args, _kwargs):
            tracer.count("checkpoint.bytes", os.path.getsize(args[1]))

        def after_load_csv(result, _args, _kwargs):
            tracer.count("series.load_csv_rows", len(result))

        shared = [
            (trainer, "train", "trainer.train", None),
            (trainer, "disaggregate", "trainer.disaggregate", None),
            (postprocess, "sample_gumbel", "postprocess.sample_gumbel", None),
            (windows, "input_window", "windows.input_window", None),
            (states, "label_states", "states.label_states", None),
            (series, "load_csv", "series.load_csv", after_load_csv),
            (series, "fill_gaps", "series.fill_gaps", None),
            (series, "save_csv", "series.save_csv", None),
            (checkpoint, "load_checkpoint", "checkpoint.load", None),
            (checkpoint, "save_checkpoint", "checkpoint.save", after_save),
            (metrics, "evaluate_pair", "metrics.evaluate_pair", None),
            (states, "cluster_states", "states.cluster_states", None),
            (synth, "generate", "synth.generate", None),
        ] + [(postprocess, name, "postprocess." + name, None) for name in _POSTPROCESS]
        importers = (cli, trainer, windows)
        for module, attr, span, after in shared:
            wrapped = self._timed(span, getattr(module, attr), after)
            self._patch(module, attr, wrapped)
            for importer in importers:
                if importer is not module and attr in importer.__dict__:
                    self._patch(importer, attr, wrapped)
        make_windows = self._generator("windows.make_windows", windows.make_windows,
                                       "windows.windows_made")
        self._patch(windows, "make_windows", make_windows)
        self._patch(cli, "make_windows", make_windows)
        self._patch(cli, "main", self._timed("cli.main", cli.main))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _on_gc(self, event: str, info: dict) -> None:
        if event == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.counts[(self.phase, "python.gc_pause_s")] += time.perf_counter() - self._gc_start
            self.counts[(self.phase, "python.gc_collected")] += info["collected"]
            self._gc_start = None

    # -- results ---------------------------------------------------------------

    def per_layer(self, setups: int, rounds: int) -> dict:
        """Per-layer metrics for one set-up plus one round (job and checks)."""
        per = {"setup": 1.0 / setups, "job": 1.0 / rounds, "check": 1.0 / rounds,
               "bench": 0.0}

        def total(name):
            return sum(v * per[p] for (p, n), v in self.total.items() if n == name)

        def self_s(name):
            return sum(v * per[p] for (p, n), v in self.self_time.items() if n == name)

        def count(name):
            return sum(v * per[p] for (p, n), v in self.counts.items() if n == name)

        ops = count("autodiff.ops_recorded")
        steps = np.asarray(self.step_ms) if self.step_ms else np.zeros(1)
        values = {
            "autodiff.conv1d_fwd_s": (total("autodiff.conv1d_fwd"), "s"),
            "autodiff.conv1d_bwd_s": (total("autodiff.conv1d_bwd"), "s"),
            "autodiff.dense_fwd_s": (total("autodiff.dense_fwd"), "s"),
            "autodiff.dense_bwd_s": (total("autodiff.dense_bwd"), "s"),
            "autodiff.elementwise_fwd_s": (total("autodiff.elementwise_fwd"), "s"),
            "autodiff.elementwise_bwd_s": (total("autodiff.elementwise_bwd"), "s"),
            "autodiff.loss_fwd_s": (total("autodiff.loss_fwd"), "s"),
            "autodiff.loss_bwd_s": (total("autodiff.loss_bwd"), "s"),
            "autodiff.backward_self_s": (self_s("autodiff.backward"), "s"),
            "autodiff.ops_recorded": (ops, "count"),
            "autodiff.closures_run_ratio": (
                count("autodiff.closures_run") / ops if ops else 0.0, "ratio"),
            "model.combine_fwd_s": (total("model.combine_fwd"), "s"),
            "model.combine_bwd_s": (total("model.combine_bwd"), "s"),
            "model.forward_tensors_s": (total("model.forward_tensors"), "s"),
            "model.predict_s": (total("model.predict"), "s"),
            "model.predict_peak_mb": (self.predict_peak_mb, "MB"),
            "optim.adam_step_s": (total("optim.adam_step"), "s"),
            "optim.adam_steps": (count("optim.adam_steps"), "count"),
            "optim.adam_bytes_computed": (count("optim.adam_bytes_computed"), "bytes"),
            "trainer.train_self_s": (self_s("trainer.train"), "s"),
            "trainer.step_ms_p50": (float(np.percentile(steps, 50)), "ms"),
            "trainer.step_ms_p90": (float(np.percentile(steps, 90)), "ms"),
            "trainer.disaggregate_self_s": (self_s("trainer.disaggregate"), "s"),
            "postprocess.sample_gumbel_s": (total("postprocess.sample_gumbel"), "s"),
            "postprocess.hard_gate_s": (total("postprocess.hard_gate"), "s"),
            "postprocess.median_filter_s": (total("postprocess.median_filter"), "s"),
            "postprocess.combine_hard_s": (total("postprocess.combine_hard"), "s"),
            "postprocess.reconcile_overlaps_s": (
                total("postprocess.reconcile_overlaps"), "s"),
            "postprocess.calls": (sum(count(f"postprocess.{n}.calls")
                                      for n in _POSTPROCESS), "count"),
            "windows.input_window_s": (total("windows.input_window"), "s"),
            "windows.input_window_calls": (count("windows.input_window.calls"), "count"),
            "windows.make_windows_s": (total("windows.make_windows"), "s"),
            "windows.windows_made": (count("windows.windows_made"), "count"),
            "states.label_states_s": (total("states.label_states"), "s"),
            "states.cluster_states_s": (total("states.cluster_states"), "s"),
            "series.load_csv_s": (total("series.load_csv"), "s"),
            "series.load_csv_rows": (count("series.load_csv_rows"), "count"),
            "series.fill_gaps_s": (total("series.fill_gaps"), "s"),
            "series.save_csv_s": (total("series.save_csv"), "s"),
            "checkpoint.load_s": (total("checkpoint.load"), "s"),
            "checkpoint.save_s": (total("checkpoint.save"), "s"),
            "checkpoint.bytes": (count("checkpoint.bytes"), "bytes"),
            "metrics.evaluate_pair_s": (total("metrics.evaluate_pair"), "s"),
            "cli.self_s": (self_s("cli.main"), "s"),
            "synth.generate_s": (total("synth.generate"), "s"),
            "python.gc_collected": (count("python.gc_collected"), "count"),
            "python.gc_pause_s": (count("python.gc_pause_s"), "s"),
        }
        return values

    def by_phase(self) -> dict:
        """Seconds per span name and phase, unnormalized, for the trace file."""
        out: dict = defaultdict(dict)
        for (phase, name), v in sorted(self.total.items()):
            out[phase][name] = {"total_s": v, "self_s": self.self_time[(phase, name)],
                                "calls": self.counts[(phase, name + ".calls")]}
        for (phase, name), v in sorted(self.counts.items()):
            if not name.endswith(".calls"):
                out[phase].setdefault("counters", {})[name] = v
        return dict(out)

    def write(self, path: str, meta: dict) -> None:
        doc = dict(meta, by_phase=self.by_phase(),
                   span_fields=["id", "parent", "phase", "round", "name", "start", "end"],
                   spans=self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
