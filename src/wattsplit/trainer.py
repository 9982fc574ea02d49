"""Mini-batch training loop and the windowed inference pipeline."""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .model import DisaggNet, combine, head_pass, total_loss
from .postprocess import (FilterConfig, combine_hard, hard_gate, median_filter,
                          reconcile_overlaps, sample_gumbel, window_cover)
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
INFER_BATCH_WINDOWS = 256  # windows per forward pass in disaggregate


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
    return (np.stack([ex.input for ex in examples], dtype=np.float64),
            np.stack([ex.target_power for ex in examples], dtype=np.float64),
            np.stack([ex.target_states for ex in examples], dtype=np.float64))


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
    on one thread or two. Each subnetwork's parameters stay views of its
    optimizer's values vector after training.
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
    for p in model.parameters():  # the optimizers' gradient vectors end with them
        p.tensor.grad_view = None
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
                 filter_cfg: FilterConfig = FilterConfig()) -> DisaggregationResult:
    """Slide the net over a mains series and merge window estimates.

    Windows start every ``stride`` samples (default and maximum ``s``, so
    no sample falls between windows), plus a tail window when the stride
    misses the last valid start. Each batch of ``INFER_BATCH_WINDOWS``
    windows runs as one pipeline: gather -> forward -> (hard variants)
    argmax gate to ``[B, s]`` integer state indices -> (median variants)
    median filter along each window's own s indices -> combine, which
    takes each window's rating of the state at each position.

    Overlapping windows share one conv pass. The gather reads the mains
    span the batch covers, ``[first start - w, last start + s + w)``, as
    one input row; each conv stack runs once over that row, and every
    window takes its conv features from the row's feature map at its own
    offset (``windows.shared_rows``). Under a conv stack whose strides
    multiply to P, only windows whose starts differ by a multiple of P
    share a row. At the canned demo's stride of 16 a batch of 256 windows
    convolves 4,192 samples instead of 256 x 112. Each conv layer is one
    GEMM over all output positions of its input rows, so the outputs are
    bitwise those of a batched ``predict`` over the same windows, one conv
    pass per window: tested at the canned demo's stack, the paper-size
    stack and a demo stack with a stride-2 layer.

    Each batch is then merged in one step (``reconcile_overlaps``): the
    power values are added at their positions in window order, so every
    position's sum is bitwise the one a loop over the windows would make.
    ``plain`` sums its soft state rows the same way; the other variants
    count one vote per window for the state at each position. The power's
    per-position mean is denormalized and clamped at 0 W.

    The returned state sequence is ``[T, l]``: for ``plain`` the position
    mean of the soft rows; otherwise the one-hot rows of each position's
    most voted state (lowest index on ties), which the median variants then
    median-filter over the merged sequence, since the filter is defined on
    an appliance's state sequence as a whole and window-local filtering
    cannot see across window boundaries.

    Model parameters are never modified. The output bits depend on the
    BLAS thread count, and would depend on the batch size too (OpenBLAS
    rounds a forward pass differently for different batch sizes, by up to
    1.1e-13 W in the estimate of a demo-size net), which is why that is a
    constant.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if mains.has_missing():
        raise ValueError("mains has missing values; run fill_gaps first")
    cfg = model.config
    s, l = cfg.window.s, cfg.state_count
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
    cover = window_cover(starts, s, total)  # windows over each position
    norm = normalize(mains, state_model.norm_mean, state_model.norm_std)
    pad = normalize(np.zeros(1), state_model.norm_mean, state_model.norm_std)[0]
    filtered = variant in ("median", "hard_median")
    power = np.zeros(total)
    # plain sums its soft rows; the other variants count state votes
    state_sums = np.zeros((total, l), np.float64 if variant == "plain" else np.int32)
    for lo in range(0, len(starts), INFER_BATCH_WINDOWS):
        chunk = starts[lo : lo + INFER_BATCH_WINDOWS]
        row_starts, window_row, offsets, extent = shared_rows(
            chunk, cfg.window, cfg.feature_stride())
        inputs = input_window(norm, row_starts,
                              WindowConfig(extent + s, cfg.window.w), pad)
        with ad.no_tape():  # each layer's arrays are freed once the next has read them
            fwd = model.forward_tensors(inputs, window_row, offsets)
        if variant == "plain":
            states, values = fwd.state_probs.values, fwd.combined.values
        else:
            states = hard_gate(fwd.state_probs.values)
            if filtered:
                states = median_filter(states, filter_cfg)
            values = combine_hard(fwd.ratings.values, states)
        reconcile_overlaps(power, chunk, values)
        reconcile_overlaps(state_sums, chunk, states)
    estimate = np.maximum(
        denormalize(power / cover, state_model.norm_mean, state_model.norm_std), 0.0)
    if variant == "plain":
        states = state_sums / cover[:, None]
    else:
        states = np.argmax(state_sums, axis=1)
        if filtered:
            states = median_filter(states, filter_cfg)
        states = np.eye(l)[states]
    return DisaggregationResult(
        appliance=state_model.name,
        estimate=PowerSeries(mains.start_time, mains.period, estimate),
        states=states,
        variant=variant,
    )
