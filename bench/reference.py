"""Output checks for the benchmark, written apart from the program.

Nothing here imports ``wattsplit``. The checkpoint reader follows the
``.ddnn`` layout, the forward pass follows the model equations with a
per-tap convolution (the program uses im2col), and the hard-median
inference is a plain loop over windows and timesteps. The benchmark
compares the program's outputs against these.
"""
from __future__ import annotations

import json
import struct

import numpy as np

CLIP = 1e-12  # probability floor inside the cross-entropy log


# -- inputs ------------------------------------------------------------------

def read_power_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """``epoch_seconds,watts`` rows as (timestamps, watts)."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    return rows[:, 0], rows[:, 1]


def read_state_model(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"centroids": np.asarray(doc["centroids"], dtype=np.float64),
            "mean": float(doc["norm_mean"]), "std": float(doc["norm_std"]),
            "threshold": float(doc.get("on_threshold", 15.0))}


def read_checkpoint(path) -> tuple[dict, dict]:
    """(config, {parameter name: array}) from a ``.ddnn`` file.

    Layout: b"DDNN", u16 version, u32 entry count and (u32 len, key,
    u32 len, value) entries, u32 parameter count and per parameter
    (u32 len, name, u32 rank, rank * u32 extents, float64 values), all
    little-endian.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise ValueError(f"{path}: truncated at byte {pos}")
        chunk = data[pos:pos + n]
        pos += n
        return chunk

    def u32():
        return struct.unpack("<I", take(4))[0]

    def text():
        return take(u32()).decode("utf-8")

    if take(4) != b"DDNN":
        raise ValueError(f"{path}: not a .ddnn checkpoint")
    take(2)  # u16 version
    fields = {}
    for _ in range(u32()):
        key = text()
        fields[key] = text()
    params = {}
    for _ in range(u32()):
        name = text()
        shape = tuple(u32() for _ in range(u32()))
        n = int(np.prod(shape)) if shape else 1
        params[name] = np.frombuffer(take(8 * n), dtype="<f8").reshape(shape).copy()
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    config = {"s": int(fields["s"]), "w": int(fields["w"]),
              "states": int(fields["state_count"]),
              "stack": [tuple(layer) for layer in json.loads(fields["conv_stack"])]}
    return config, params


def windows_at(mains_norm: np.ndarray, starts, s: int, w: int, pad: float) -> np.ndarray:
    """Input windows [len(starts), s + 2w] over [start - w, start + s + w)."""
    padded = np.concatenate((np.full(w, pad), mains_norm, np.full(s + w, pad)))
    return np.stack([padded[st:st + s + 2 * w] for st in starts])


def state_labels(watts: np.ndarray, model: dict) -> np.ndarray:
    """Nearest-centroid state per sample; readings at or below the ON
    threshold are OFF (state 0)."""
    idx = np.argmin(np.abs(watts[:, None] - model["centroids"][None, :]), axis=1)
    idx[watts <= model["threshold"]] = 0
    return idx


# -- forward pass and loss ---------------------------------------------------

def _subnet(params: dict, prefix: str, stack, x: np.ndarray, masks: list) -> np.ndarray:
    """conv stack -> relu dense -> dense head, for x [B, L]."""
    h = x[:, None, :]
    for i, (filters, k, stride) in enumerate(stack):
        kern = params[f"{prefix}/conv{i}/kernels"]
        bias = params[f"{prefix}/conv{i}/bias"]
        out_len = (h.shape[2] - k) // stride + 1
        z = np.repeat(bias[None, :, None], out_len, axis=2)
        for j in range(k):  # one GEMM per tap
            z = z + kern[:, :, j] @ h[:, :, j:j + stride * (out_len - 1) + 1:stride]
        masks.append(z > 0)
        h = np.maximum(z, 0.0)
    flat = h.reshape(h.shape[0], -1)
    z = flat @ params[f"{prefix}/fc/weights"].T + params[f"{prefix}/fc/bias"]
    masks.append(z > 0)
    h = np.maximum(z, 0.0)
    return h @ params[f"{prefix}/head/weights"].T + params[f"{prefix}/head/bias"]


def forward(config: dict, params: dict, x: np.ndarray) -> dict:
    """ratings [B, l], probs [B, s, l], combined [B, s] for inputs x [B, s + 2w].

    ``masks`` lists every relu's active set and the entries above the
    cross-entropy clip: the loss is smooth in a parameter only while these
    stay the same.
    """
    s, l, stack = config["s"], config["states"], config["stack"]
    masks: list = []
    ratings = _subnet(params, "power", stack, x, masks)
    logits = _subnet(params, "state", stack, x, masks).reshape(len(x), s, l)
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    probs = e / e.sum(axis=2, keepdims=True)
    combined = np.einsum("bsl,bl->bs", probs, ratings)
    masks.append(probs >= CLIP)
    return {"ratings": ratings, "probs": probs, "combined": combined, "masks": masks}


def loss(out: dict, target_power: np.ndarray, target_states: np.ndarray) -> float:
    """MSE of the combined estimate plus row-mean cross entropy."""
    mse = np.mean((out["combined"] - target_power) ** 2)
    probs = out["probs"]
    rows = probs.size // probs.shape[-1]
    picked = np.take_along_axis(probs, target_states[..., None], axis=-1)
    return float(mse - np.sum(np.log(np.maximum(picked, CLIP))) / rows)


def central_difference(config: dict, params: dict, name: str, index: tuple,
                       x: np.ndarray, target_power: np.ndarray,
                       target_states: np.ndarray, h: float = 1e-6):
    """d loss / d params[name][index] by central differences, or None when a
    relu or the clip changes state inside [theta - h, theta + h]."""
    arr = params[name]
    theta = arr[index]
    step = h * max(1.0, abs(theta))
    arr[index] = theta + step
    hi = forward(config, params, x)
    arr[index] = theta - step
    lo = forward(config, params, x)
    arr[index] = theta
    if any(not np.array_equal(a, b) for a, b in zip(hi["masks"], lo["masks"])):
        return None
    return (loss(hi, target_power, target_states)
            - loss(lo, target_power, target_states)) / (2.0 * step)


# -- hard-median inference ---------------------------------------------------

def window_starts(total: int, s: int, stride: int) -> list[int]:
    starts = list(range(0, total - s + 1, stride))
    if starts[-1] != total - s:
        starts.append(total - s)
    return starts


def _majority(states: list[int], t: int, half: int, l: int) -> int:
    half = min(half, t, len(states) - 1 - t)
    counts = [0] * l
    for u in range(t - half, t + half + 1):
        counts[states[u]] += 1
    best = 0
    for j in range(1, l):
        if counts[j] > counts[best]:
            best = j
    return best


def hard_median_estimate(config: dict, params: dict, mains_watts: np.ndarray,
                         model: dict, stride: int, lo: int, hi: int,
                         median_window: int = 5) -> np.ndarray:
    """Watts at positions [lo, hi) of the ``hard-median`` estimate.

    Every window covering a position contributes: argmax gate per row
    (lowest index on ties), majority filter inside the window, the rating
    of the chosen state; overlapping windows are averaged, denormalized
    and clamped at 0 W.
    """
    s, w, l = config["s"], config["w"], config["states"]
    norm = (mains_watts - model["mean"]) / model["std"]
    pad = -model["mean"] / model["std"]
    starts = [st for st in window_starts(len(norm), s, stride) if st < hi and st + s > lo]
    out = forward(config, params, windows_at(norm, starts, s, w, pad))
    acc = [0.0] * (hi - lo)
    cover = [0] * (hi - lo)
    for i, st in enumerate(starts):
        gated = []
        for t in range(s):
            row = out["probs"][i, t]
            best = 0
            for j in range(1, l):
                if row[j] > row[best]:
                    best = j
            gated.append(best)
        for t in range(s):
            pos = st + t
            if lo <= pos < hi:
                state = _majority(gated, t, median_window // 2, l)
                acc[pos - lo] += out["ratings"][i, state]
                cover[pos - lo] += 1
    merged = np.array([a / c for a, c in zip(acc, cover)])
    return np.maximum(merged * model["std"] + model["mean"], 0.0)


# -- checks ------------------------------------------------------------------

class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_forward(predicted, config: dict, params: dict, x: np.ndarray) -> None:
    """The program's predict output agrees with the independent forward."""
    ref = forward(config, params, x)
    for key, got in (("ratings", predicted.ratings), ("probs", predicted.state_probs),
                     ("combined", predicted.combined)):
        err = float(np.max(np.abs(np.asarray(got) - ref[key])))
        require(err <= 1e-9, f"forward: {key} differs by {err:.3e}")


def check_gradients(analytic: dict, program_loss: float, config: dict, params: dict,
                    x: np.ndarray, target_power: np.ndarray, target_states: np.ndarray,
                    rng: np.random.Generator, coordinates: int) -> int:
    """Analytic gradients agree with central differences of ``loss``.

    Returns how many coordinates were compared; coordinates at a kink are
    skipped and redrawn.
    """
    ref_loss = loss(forward(config, params, x), target_power, target_states)
    require(abs(program_loss - ref_loss) <= 1e-9 * max(1.0, abs(ref_loss)),
            f"gradient: loss {program_loss!r} vs independent {ref_loss!r}")
    names = sorted(params)
    compared = 0
    for _ in range(4 * coordinates):
        if compared == coordinates:
            break
        name = names[rng.integers(len(names))]
        index = tuple(int(rng.integers(n)) for n in params[name].shape)
        numeric = central_difference(config, params, name, index, x,
                                     target_power, target_states)
        if numeric is None:
            continue
        got = float(analytic[name][index])
        require(abs(got - numeric) <= 1e-7 + 1e-5 * max(abs(got), abs(numeric)),
                f"gradient: {name}{list(index)} analytic {got!r} vs numeric {numeric!r}")
        compared += 1
    require(compared == coordinates, f"gradient: only {compared} smooth coordinates")
    return compared


def check_estimate(estimate: np.ndarray, expected_length: int) -> None:
    require(len(estimate) == expected_length,
            f"estimate: {len(estimate)} samples, mains has {expected_length}")
    require(bool(np.all(np.isfinite(estimate))), "estimate: non-finite values")
    require(bool(np.all(estimate >= 0.0)), "estimate: negative watts")


def check_inference(estimate: np.ndarray, reference: np.ndarray, tolerance: float) -> None:
    """``estimate`` and ``reference`` cover the same positions."""
    err = float(np.max(np.abs(estimate - reference)))
    require(err <= tolerance, f"inference: estimate differs by {err:.3e} W")


def check_states(indices: np.ndarray, state_count: int, expected_length: int) -> None:
    require(len(indices) == expected_length,
            f"states: {len(indices)} rows, mains has {expected_length}")
    require(bool(np.all(indices == np.round(indices))), "states: non-integer index")
    require(bool(np.all((indices >= 0) & (indices < state_count))),
            f"states: index outside [0, {state_count})")


def check_mae(reported: float, truth: np.ndarray, estimate: np.ndarray,
              tolerance: float) -> None:
    expected = float(np.mean(np.abs(truth - estimate)))
    require(abs(reported - expected) <= tolerance,
            f"mae: reported {reported!r}, mean |truth - estimate| is {expected!r}")
