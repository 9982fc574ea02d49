"""Mini-batch training loop and the windowed inference pipeline."""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .model import DisaggNet, combine, head_pass, total_loss
from .postprocess import (FilterConfig, combine_hard, hard_gate, median_filter,
                          reconcile_overlaps, sample_gumbel)
from .series import PowerSeries, denormalize, normalize
from .states import ApplianceStateModel
from .windows import WindowConfig, WindowedExample, input_window, shared_rows

__all__ = [
    "VARIANTS",
    "GUMBEL_VARIANTS",
    "TrainConfig",
    "EpochStats",
    "TrainReport",
    "train",
    "DisaggregationResult",
    "disaggregate",
]

VARIANTS = ("plain", "median", "hard", "hard_median")
GUMBEL_VARIANTS = ("hard", "hard_median")  # trained through the gumbel gate


@dataclass
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1e-3
    epochs: int = 10
    lambda_power: float = 0.0
    variant: str = "plain"
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.lambda_power < 0:
            raise ValueError(f"lambda_power must be >= 0, got {self.lambda_power}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass
class EpochStats:
    epoch: int
    loss_total: float
    loss_output: float
    loss_state: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    wall_time_s: float = 0.0

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss_total,loss_output,loss_state\n")
            for rec in self.epochs:
                fh.write(f"{rec.epoch},{rec.loss_total!r},{rec.loss_output!r},"
                         f"{rec.loss_state!r}\n")


def _stack_examples(examples: list[WindowedExample], model: DisaggNet):
    cfg = model.config
    s, l = cfg.window.s, cfg.state_count
    n = len(examples)
    inputs = np.empty((n, cfg.window.input_length))
    targets = np.empty((n, s))
    states = np.empty((n, s, l))
    for i, ex in enumerate(examples):
        if ex.input.shape != (cfg.window.input_length,):
            raise ValueError(
                f"example {i}: input shape {ex.input.shape}, expected "
                f"({cfg.window.input_length},)"
            )
        if ex.target_power.shape != (s,) or ex.target_states.shape != (s, l):
            raise ValueError(
                f"example {i}: target shapes {ex.target_power.shape}/"
                f"{ex.target_states.shape}, expected ({s},)/({s}, {l})"
            )
        inputs[i] = ex.input
        targets[i] = ex.target_power
        states[i] = ex.target_states
    return inputs, targets, states


def train(model: DisaggNet, examples, cfg: TrainConfig,
          centroid_targets=None) -> tuple[DisaggNet, TrainReport]:
    """Train in place; returns (model, per-epoch loss report).

    For hard variants the combined output fed to the MSE uses
    gumbel-softmax rows, softmax((logits + gumbel noise) / tau) with
    ``tau`` from the model config, so gradients flow through a sampled
    gate. The rows approach one-hot only as ``tau`` falls towards 0; at
    ``tau = 1`` (the default, and the canned demo's value) they are noisy
    soft mixtures, not a near-discrete gate. The cross-entropy term always
    sees the clean softmax. Median filtering never appears in the gradient
    path. Deterministic for a given seed.

    The loss is built on stand-ins for the outputs of the two subnetworks.
    After its backward pass, each subnetwork runs its own backward pass and
    then the update of its own ``Adam``, as one task of
    ``autodiff.run_pair``. Tapes hold no reference cycles and ``backward``
    consumes them, so each step's memory is freed by reference counting.
    The two tasks touch disjoint parameters, so the result is the same bits
    on one thread or two.
    """
    from .optim import Adam

    if cfg.lambda_power > 0 and centroid_targets is None:
        raise ValueError("lambda_power > 0 requires centroid_targets")
    examples = list(examples)
    started = time.perf_counter()
    report = TrainReport()
    if not examples or cfg.epochs == 0:
        report.wall_time_s = time.perf_counter() - started
        return model, report
    inputs, targets, states = _stack_examples(examples, model)
    seq = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(seq[0])
    gumbel_rng = np.random.default_rng(seq[1])
    hard_training = cfg.variant in GUMBEL_VARIANTS
    power, state = ((net.params, Adam(learning_rate=cfg.learning_rate))
                    for net in (model.power_net, model.state_net))
    n = len(examples)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        sums = np.zeros(3)
        for batch_index, lo in enumerate(range(0, n, cfg.batch_size)):
            sel = order[lo : lo + cfg.batch_size]
            outputs = model.forward_tensors(inputs[sel])
            ratings = ad.Tensor(outputs.ratings.values)  # the stand-ins
            logits = ad.Tensor(outputs.state_logits.values)
            fwd = head_pass(ratings, logits)
            if hard_training:
                g = sample_gumbel(logits.shape, gumbel_rng)
                noisy = ad.softmax(ad.scale(ad.add(logits, g), 1.0 / model.config.tau))
                fwd = replace(fwd, combined=combine(ratings, noisy))
            loss, out_term, state_term = total_loss(
                fwd, targets[sel], states[sel],
                lambda_power=cfg.lambda_power, centroid_targets=centroid_targets)
            if not np.isfinite(loss.values):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            loss.backward()
            ad.run_pair(
                lambda: _backward_and_step(outputs.ratings, ratings.grad, *power),
                lambda: _backward_and_step(outputs.state_logits, logits.grad, *state))
            weight = len(sel)
            sums += weight * np.array([float(loss.values), float(out_term.values),
                                       float(state_term.values)])
        means = sums / n
        report.epochs.append(EpochStats(epoch, float(means[0]), float(means[1]),
                                        float(means[2])))
        model.epochs_seen += 1
    report.wall_time_s = time.perf_counter() - started
    return model, report


def _backward_and_step(out, grad, params, optimizer) -> None:
    """One subnetwork's share of a training step, from the gradient of the
    loss with respect to its output."""
    out.backward(grad)
    optimizer.step(params)


@dataclass
class DisaggregationResult:
    appliance: str
    estimate: PowerSeries          # denormalized watts, clamped at 0
    states: np.ndarray             # [T, l]; soft rows for plain, one-hot otherwise
    variant: str


def disaggregate(model: DisaggNet, mains: PowerSeries,
                 state_model: ApplianceStateModel, variant: str = "plain",
                 stride: int | None = None,
                 filter_cfg: FilterConfig = FilterConfig(),
                 batch_size: int = 256) -> DisaggregationResult:
    """Slide the net over a mains series and merge window estimates.

    Windows start every ``stride`` samples (default and maximum ``s``, so
    no sample falls between windows), plus a tail window when the stride
    misses the last valid start. Each batch of ``batch_size`` windows runs
    as one pipeline over ``[B, s, l]`` state rows: gather -> forward ->
    argmax gate (hard variants) -> median filter along each window's own
    s rows (median variants) -> combine.

    Overlapping windows share one conv pass. The gather reads the mains
    span the batch covers, ``[first start - w, last start + s + w)``, as
    one input row; each conv stack runs once over that row, and every
    window takes its conv features from the row's feature map at its own
    offset (``windows.shared_rows``). Under a conv stack whose strides
    multiply to P, only windows whose starts differ by a multiple of P
    share a row. At the canned demo's stride of 16 a batch of 256 windows
    convolves 4,192 samples instead of 256 x 112. The outputs are bitwise
    those of one conv pass per window at the canned demo's and the
    paper-size stacks. Where a window's conv product is small (a stride-2
    layer with 49 outputs per window), OpenBLAS can round it differently
    from the row's, and the outputs differ in the last bits.

    One merge sums the power column and the state rows of every window,
    batch by batch in window order, into ``[T, 1 + l]`` and takes the
    per-position mean; the power is then denormalized and clamped at 0 W.

    The returned state sequence is that position mean of the per-window
    rows; hard variants re-harden the merged rows by argmax, and median
    variants then run the median filter over the merged sequence, since
    the filter is defined on an appliance's state sequence as a whole and
    window-local filtering cannot see across window boundaries.

    Model parameters are never modified. The output bits depend on
    ``batch_size`` as well as on the BLAS thread count: OpenBLAS rounds a
    forward pass differently for different batch sizes, by up to 1.1e-13 W
    in the estimate of a demo-size net.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if mains.has_missing():
        raise ValueError("mains has missing values; run fill_gaps first")
    cfg = model.config
    s = cfg.window.s
    total = len(mains)
    if total < s:
        raise ValueError(f"series length {total} is shorter than the output window {s}")
    if stride is None:
        stride = s
    if not 1 <= stride <= s:
        raise ValueError(f"stride must be between 1 and the output window s={s}, "
                         f"got {stride}")
    starts = np.arange(0, total - s + 1, stride)
    if starts[-1] != total - s:
        starts = np.append(starts, total - s)  # cover the tail
    norm = normalize(mains, state_model.norm_mean, state_model.norm_std)
    pad = normalize(np.zeros(1), state_model.norm_mean, state_model.norm_std)[0]

    def gate(rows):  # argmax unless plain, then the median filter for the median variants
        rows = rows if variant == "plain" else hard_gate(rows)
        return median_filter(rows, filter_cfg) if variant in ("median", "hard_median") else rows

    def window_outputs():
        for lo in range(0, len(starts), batch_size):
            chunk = starts[lo : lo + batch_size]
            row_starts, window_row, offsets, extent = shared_rows(
                chunk, cfg.window, cfg.feature_stride())
            inputs = input_window(norm, row_starts,
                                  WindowConfig(extent + s, cfg.window.w), pad)
            with ad.no_tape():  # each layer's arrays are freed once the next has read them
                fwd = model.forward_tensors(inputs, window_row, offsets)
            rows, values = gate(fwd.state_probs.values), fwd.combined.values
            if variant != "plain":
                values = combine_hard(fwd.ratings.values, rows)
            yield from zip(chunk, np.concatenate([values[..., None], rows], axis=-1))

    merged = reconcile_overlaps(window_outputs(), total)
    estimate = np.maximum(
        denormalize(merged[:, 0], state_model.norm_mean, state_model.norm_std), 0.0)
    states = gate(merged[:, 1:])
    return DisaggregationResult(
        appliance=state_model.name,
        estimate=PowerSeries(mains.start_time, mains.period, estimate),
        states=states,
        variant=variant,
    )
