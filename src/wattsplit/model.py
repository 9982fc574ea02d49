"""Twin-head CNN for appliance disaggregation.

Two structurally identical convolutional subnetworks read the same padded
mains window. The power head regresses one rating per appliance state (a
normalized watt value); the state head emits per-timestep probabilities
over states (softmax). The appliance estimate is their product:

    combined[t] = sum_j probs[t, j] * ratings[j]

so the estimate is linear in the ratings and, for one-hot rows, reduces to
selecting a single rating per timestep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import Parameter
from .series import check_memory
from .windows import WindowConfig

__all__ = [
    "ConvLayerSpec",
    "NetConfig",
    "DEFAULT_CONV_STACK",
    "DisaggNet",
    "ForwardPass",
    "ForwardOutput",
    "head_pass",
    "combine",
    "loss_power",
    "total_loss",
]


@dataclass(frozen=True)
class ConvLayerSpec:
    filters: int
    kernel: int
    stride: int = 1

    def __post_init__(self):
        fields = (self.filters, self.kernel, self.stride)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in fields):
            raise ValueError(f"conv layer fields must be integers: {self}")
        if min(fields) < 1:
            raise ValueError(f"bad conv layer spec: {self}")


# seq2point-style default stack
DEFAULT_CONV_STACK = (
    ConvLayerSpec(30, 10),
    ConvLayerSpec(30, 8),
    ConvLayerSpec(40, 6),
    ConvLayerSpec(50, 5),
    ConvLayerSpec(50, 5),
)


@dataclass(frozen=True)
class NetConfig:
    window: WindowConfig
    state_count: int
    conv_stack: tuple[ConvLayerSpec, ...] = DEFAULT_CONV_STACK
    hidden: int = 1024
    tau: float = 1.0  # gumbel-softmax temperature for hard-variant training
    seed: int = 0

    def __post_init__(self):
        if self.state_count < 2:
            raise ValueError(f"state_count must be >= 2, got {self.state_count}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not isinstance(self.conv_stack, (list, tuple)):
            raise ValueError(f"conv_stack must be a list of layers, got {self.conv_stack!r}")
        for layer in self.conv_stack:
            if not (isinstance(layer, ConvLayerSpec)
                    or isinstance(layer, (list, tuple)) and 2 <= len(layer) <= 3):
                raise ValueError(f"conv layer {layer!r} is not [filters, kernel] or "
                                 "[filters, kernel, stride]")
        object.__setattr__(self, "conv_stack",
                           tuple(ConvLayerSpec(*s) if not isinstance(s, ConvLayerSpec) else s
                                 for s in self.conv_stack))
        if not self.conv_stack:
            raise ValueError("conv_stack must have at least one layer")
        self.feature_length()  # validates the stack fits the input

    def feature_length(self) -> int:
        """Output length after the conv stack."""
        length = self.window.input_length
        for layer in self.conv_stack:
            if layer.kernel > length:
                raise ValueError(
                    f"conv layer {layer} does not fit length {length} "
                    f"(input {self.window.input_length})"
                )
            length = (length - layer.kernel) // layer.stride + 1
        return length

    def parameter_count(self) -> int:
        """Float values in both subnetworks of a ``DisaggNet`` of this config."""
        trunk, cin = 0, 1
        for layer in self.conv_stack:
            trunk += layer.filters * (cin * layer.kernel + 1)
            cin = layer.filters
        trunk += self.hidden * (cin * self.feature_length() + 1)
        heads = (self.hidden + 1) * (self.state_count + self.window.s * self.state_count)
        return 2 * trunk + heads

    def feature_stride(self) -> int:
        """Input samples per step of the conv stack's output: the product of
        the layer strides."""
        return int(np.prod([layer.stride for layer in self.conv_stack]))


@dataclass
class ForwardPass:
    """Tape tensors from one batched forward pass."""

    ratings: Tensor       # [B, l] normalized per-state ratings
    state_logits: Tensor  # [B, s, l]
    state_probs: Tensor   # [B, s, l] softmax rows
    combined: Tensor      # [B, s] normalized estimate


@dataclass
class ForwardOutput:
    """Plain-array view of a forward pass (inference)."""

    ratings: np.ndarray
    state_probs: np.ndarray
    combined: np.ndarray


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# hidden-layer biases start slightly positive so no relu unit is born dead
# (an exactly-zero pre-activation is also a non-differentiable point)
HIDDEN_BIAS_INIT = 0.01


class _Subnet:
    """Conv stack -> hidden dense -> head dense, relu between layers."""

    def __init__(self, prefix: str, cfg: NetConfig, head_width: int,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.params: list[Parameter] = []
        cin = 1
        for i, layer in enumerate(cfg.conv_stack):
            kshape = (layer.filters, cin, layer.kernel)
            self.params.append(Parameter(
                f"{prefix}/conv{i}/kernels",
                Tensor(_glorot(rng, kshape, cin * layer.kernel, layer.filters * layer.kernel)),
            ))
            self.params.append(Parameter(
                f"{prefix}/conv{i}/bias",
                Tensor(np.full(layer.filters, HIDDEN_BIAS_INIT))))
            cin = layer.filters
        self.feature_length = cfg.feature_length()
        flat = cfg.conv_stack[-1].filters * self.feature_length
        self.params.append(Parameter(
            f"{prefix}/fc/weights",
            Tensor(_glorot(rng, (cfg.hidden, flat), flat, cfg.hidden))))
        self.params.append(Parameter(
            f"{prefix}/fc/bias", Tensor(np.full(cfg.hidden, HIDDEN_BIAS_INIT))))
        self.params.append(Parameter(
            f"{prefix}/head/weights",
            Tensor(_glorot(rng, (head_width, cfg.hidden), cfg.hidden, head_width))))
        self.params.append(Parameter(f"{prefix}/head/bias", Tensor(np.zeros(head_width))))

    def forward(self, x: np.ndarray, rows: np.ndarray,
                feature_offsets: np.ndarray) -> Tensor:
        """x: [R, L, 1] input rows -> [B, head_width], one output per window.

        The conv stack runs once over each row; window b reads the
        feature_length conv outputs of row ``rows[b]`` that start at
        ``feature_offsets[b]``.
        """
        h = x
        it = iter(self.params)
        for layer in self.cfg.conv_stack:
            kern, bias = next(it), next(it)
            h = ad.relu(ad.conv1d(h, kern.tensor, bias.tensor, stride=layer.stride))
        h = ad.window_gather(h, rows, feature_offsets, self.feature_length)
        fc_w, fc_b = next(it), next(it)
        h = ad.relu(ad.dense(h, fc_w.tensor, fc_b.tensor))
        head_w, head_b = next(it), next(it)
        return ad.dense(h, head_w.tensor, head_b.tensor)


class DisaggNet:
    """Twin-head net: power ratings subnetwork plus state classifier."""

    def __init__(self, config: NetConfig):
        s, l = config.window.s, config.state_count
        count = config.parameter_count()
        check_memory(8 * count, f"a net of window_s {s}, window_w {config.window.w}, "
                     f"{l} states, conv_stack "
                     f"{[[c.filters, c.kernel, c.stride] for c in config.conv_stack]} "
                     f"and hidden {config.hidden} has {count} parameter values")
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.power_net = _Subnet("power", config, l, rng)
        self.state_net = _Subnet("state", config, s * l, rng)
        self.epochs_seen = 0
        self.dataset_tag = ""

    def parameters(self) -> list[Parameter]:
        return self.power_net.params + self.state_net.params

    def forward_tensors(self, inputs: np.ndarray, rows=None,
                        offsets=None) -> ForwardPass:
        """Batched forward pass, on the tape unless inside ``autodiff.no_tape()``.

        inputs: [R, L] normalized mains rows, each holding one or more
        overlapping input windows of s + 2w samples. Window b starts at
        sample ``offsets[b]`` of row ``rows[b]``; an offset must be a
        multiple of the conv stack's total stride, so that the window's
        conv outputs are a slice of its row's. Each conv stack runs once
        per row, and the windows share the convolutions of their overlap.
        By default every row is one window at offset 0 (L = s + 2w);
        ``trainer.disaggregate`` says when a shared row changes bits.

        The power subnetwork runs on ``autodiff.run_pair``'s worker thread
        while this thread runs the state subnetwork, where
        ``autodiff.subnetworks_on_two_threads()``; the outputs are the same
        bits either way. The tape joins both subnetworks, so ``backward()``
        from a loss over the outputs reaches every parameter.
        """
        x = np.asarray(inputs, dtype=np.float64)
        n = self.config.window.input_length
        if x.ndim != 2 or x.shape[1] < n or (rows is None and x.shape[1] != n):
            raise ValueError(f"expected inputs [batch, {n}] or rows [R, >= {n}], "
                             f"got shape {x.shape}")
        if rows is None:
            rows, offsets = np.arange(len(x)), np.zeros(len(x), dtype=np.int64)
        offsets = np.asarray(offsets)
        step = self.config.feature_stride()
        if np.any(offsets % step):
            raise ValueError(f"window offsets must be multiples of the conv "
                             f"stack's total stride {step}")
        feature_offsets = offsets // step
        batch = len(rows)
        s, l = self.config.window.s, self.config.state_count
        # one channel; a plain array, which gets no gradient, so both
        # subnetworks read it and neither writes to it
        x = np.ascontiguousarray(x)[:, :, None]
        ratings, state_out = ad.run_pair(
            lambda: self.power_net.forward(x, rows, feature_offsets),
            lambda: self.state_net.forward(x, rows, feature_offsets))
        return head_pass(ratings, ad.reshape(state_out, (batch, s, l)))

    def predict(self, inputs: np.ndarray) -> ForwardOutput:
        with ad.no_tape():  # each layer's arrays are freed once the next has read them
            fwd = self.forward_tensors(inputs)
        return ForwardOutput(fwd.ratings.values, fwd.state_probs.values,
                             fwd.combined.values)


def head_pass(ratings, state_logits) -> ForwardPass:
    """The state softmax and the combined estimate over the outputs of the
    two subnetworks: ratings [B, l] and state logits [B, s, l]."""
    probs = ad.softmax(state_logits)
    return ForwardPass(ratings, state_logits, probs, combine(ratings, probs))


def combine(ratings, probs) -> Tensor:
    """combined[..., t] = sum_j probs[..., t, j] * ratings[..., j].

    probs holds one row per timestep ``[..., s, l]`` and ratings one rating
    per state for each sequence, ``[..., l]``.
    """
    ratings = ad._lift(ratings)
    probs = ad._lift(probs)
    rv, pv = ratings.values, probs.values
    if pv.ndim < 2 or rv.shape != pv.shape[:-2] + pv.shape[-1:]:
        raise ValueError(
            f"combine: ratings shape {rv.shape} does not match probs shape {pv.shape}"
        )
    out = Tensor(np.einsum("...sl,...l->...s", pv, rv))

    def _bwd(g):
        ad._accumulate(probs, g[..., :, None] * rv[..., None, :])
        ad._accumulate(ratings, np.einsum("...s,...sl->...l", g, pv))

    return ad._record(out, _bwd, ratings, probs)


def loss_power(ratings, centroid_targets) -> Tensor:
    """MSE between predicted ratings [B, l] and the normalized centroid
    vector [l], broadcast across the batch."""
    ratings = ad._lift(ratings)
    t = np.broadcast_to(np.asarray(centroid_targets, dtype=np.float64),
                        ratings.values.shape)
    return ad.mse_loss(ratings, t)


def total_loss(fwd: ForwardPass, target_power, target_states,
               lambda_power: float = 0.0, centroid_targets=None):
    """mse(combined, target_power) + cross_entropy(state_probs,
    target_states) (+ lambda_power * loss_power).

    Returns (total, output_term, state_term). The power term only enters
    when lambda_power > 0, which requires centroid_targets.
    """
    out_term = ad.mse_loss(fwd.combined, target_power)
    state_term = ad.cross_entropy_loss(fwd.state_probs, target_states)
    total = ad.add(out_term, state_term)
    if lambda_power > 0.0:
        if centroid_targets is None:
            raise ValueError("lambda_power > 0 requires centroid_targets")
        total = ad.add(total, ad.scale(loss_power(fwd.ratings, centroid_targets),
                                       lambda_power))
    return total, out_term, state_term
