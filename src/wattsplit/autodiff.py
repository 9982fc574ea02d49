"""Reverse-mode autodiff kernel on float64 numpy arrays.

Implements exactly the operations the disaggregation nets need: valid 1-D
convolution, a gather of flattened feature windows, dense layers,
relu/sigmoid/softmax, mean squared error and categorical cross entropy.
Every operation records a backward closure on a tape, which holds no
reference cycles (a closure reads its output only through a weak reference);
``backward()`` on a scalar result walks the tape in reverse topological
order, accumulates gradients into ``Tensor.grad`` and consumes the tape as
it goes. Inside ``no_tape()`` the operations record nothing, so each
intermediate is freed as soon as the next operation has read it.

Inputs may be ``Tensor`` instances or anything ``np.asarray`` accepts;
plain arrays are lifted to constant tensors. ``conv1d`` computes no input
gradient for a plain array; the other operations still give one a gradient,
which is simply never read.

``run_pair`` runs two independent computations, such as the twin
subnetworks, on two threads when OpenBLAS runs on one thread and the
process may use two cores, and one after the other otherwise.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

__all__ = [
    "Tensor",
    "conv1d",
    "window_gather",
    "dense",
    "relu",
    "sigmoid",
    "softmax",
    "reshape",
    "add",
    "scale",
    "mse_loss",
    "cross_entropy_loss",
    "no_tape",
    "run_pair",
    "blas_threads",
    "subnetworks_on_two_threads",
    "keep_freed_memory",
    "CROSS_ENTROPY_CLIP",
]

CROSS_ENTROPY_CLIP = 1e-12


class Tensor:
    """A float64 array plus an optional gradient of the same shape.

    ``grad_view``, when set (``optim.Adam`` sets it on the tensors it
    updates), is an array of the values' shape that ``dense`` writes its
    first weight gradient into; ``Adam.step`` copies any other gradient in.
    """

    __slots__ = ("values", "grad", "grad_view", "_parents", "_backward", "__weakref__")

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if not v.flags["C_CONTIGUOUS"]:  # ascontiguousarray would promote 0-d
            v = np.ascontiguousarray(v)
        self.values = v
        self.grad = None
        self.grad_view = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"

    def backward(self, grad=None):
        """Backpropagate into ``grad`` of every ancestor.

        A scalar starts from a gradient of 1; any other tensor needs
        ``grad``, the gradient of some scalar with respect to it. The walk
        consumes the tape: each node drops its parents and closure once run,
        so saved arrays are freed as it goes, and a graph can be walked once.
        """
        if grad is None:
            if self.values.size != 1:
                raise ValueError(
                    f"backward() needs a scalar, got shape {self.values.shape}"
                )
            grad = np.ones_like(self.values)
        elif np.shape(grad) != self.values.shape:
            raise ValueError(f"backward(): gradient shape {np.shape(grad)} does not "
                             f"match shape {self.values.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # iterative DFS: recursion depth would scale with graph depth
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = grad
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward()
            node._parents, node._backward = (), None


class _TapeMode(threading.local):
    off = False  # this thread's ops record nothing


_tape = _TapeMode()


def _record(out: Tensor, backward, *parents) -> Tensor:
    """Put ``out`` on the tape, unless this thread is inside ``no_tape``;
    ``backward(g)`` gets ``out``'s gradient through a weak reference."""
    if not _tape.off:
        ref = weakref.ref(out)
        out._parents, out._backward = parents, lambda: backward(ref().grad)
    return out


@contextlib.contextmanager
def no_tape():
    """Operations on this thread record no parents and no closure inside the
    block, and ``run_pair`` carries that to its worker thread."""
    before, _tape.off = _tape.off, True
    try:
        yield
    finally:
        _tape.off = before


@functools.cache  # kept loaded: a dropped CDLL leaves cyclic garbage behind
def _blas_library() -> ctypes.CDLL:
    from numpy.linalg import _umath_linalg  # a numpy extension linked to its BLAS
    return ctypes.CDLL(_umath_linalg.__file__)  # also searches the libraries it loaded


@functools.cache
def blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy calls, or None where
    numpy's BLAS is not an OpenBLAS that can be asked."""
    try:
        lib = _blas_library()
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(lib, symbol, None)
        if get is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            return get()
    return None


@functools.cache
def subnetworks_on_two_threads() -> bool:
    """Whether ``run_pair``, and so the twin subnetworks, use two threads:
    only when OpenBLAS runs on one thread and the process may use at least
    two cores, as probed at the first call. With more BLAS threads the pair
    competes with them and runs slower."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return blas_threads() == 1 and cores >= 2


# one worker for the process; its thread starts at the first submit
_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="wattsplit")


def run_pair(first, second):
    """``(first(), second())``, with ``first`` on a reused worker thread while
    ``second`` runs on this one where ``subnetworks_on_two_threads()``, else
    one after the other here. Both run in this thread's tape mode. The two
    must not write to the same arrays or tensors."""
    if not subnetworks_on_two_threads():
        return first(), second()
    off = _tape.off

    def task():
        _tape.off = off
        return first()

    future = _worker.submit(task)
    try:
        second_result = second()
    finally:
        first_result = future.result()  # waits for the worker, and raises its error
    return first_result, second_result


@functools.cache  # kept loaded, as _blas_library is
def _c_library() -> ctypes.CDLL:
    return ctypes.CDLL(None)  # the process-wide symbol table


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def keep_freed_memory() -> None:
    """Make glibc's allocator keep the memory of freed tapes in the process.

    A tape holds no reference cycles: ``backward`` consumes it as it walks
    it, and ``no_tape`` records none, so a step's arrays are freed at once. By
    default glibc then trims the emptied heap and unmaps the large arrays,
    so the next training step or inference batch page-faults the same
    memory in again. This serves arrays below 32 MiB from the heap and
    never trims it, which the whole process keeps. It also caps glibc at
    one arena, so that ``run_pair``'s worker thread allocates from that
    same heap instead of a second one of its own. It does nothing where the
    C library is not glibc.
    """
    try:
        libc = _c_library()
    except (OSError, TypeError):  # no process-wide symbol table to search
        return
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_ARENA_MAX, 1)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad``."""
    t.grad = g if t.grad is None else t.grad + g


def _accumulate_product(t: Tensor, a: np.ndarray, b: np.ndarray) -> None:
    """``_accumulate(t, a @ b)``; the first product of a step is written
    straight into ``t.grad_view``, without an array of its size beside it."""
    if t.grad is None and t.grad_view is not None:
        t.grad = np.matmul(a, b, out=t.grad_view)
    else:
        _accumulate(t, a @ b)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{op}: input contains NaN or Inf")


def conv1d(x, kernels, bias, stride: int = 1) -> Tensor:
    """Valid (no padding) 1-D convolution over channels-last activations.

    x: [batch, length, channels_in]
    kernels: [channels_out, channels_in, k], bias: [channels_out]
    out[b, t, c] = bias[c] + sum_{ci, j} kernels[c, ci, j] * x[b, t * stride + j, ci]

    A plain array ``x`` is a constant: it gets no input gradient.
    """
    wants_x = isinstance(x, Tensor)
    x, kernels, bias = _lift(x), _lift(kernels), _lift(bias)
    if not isinstance(stride, int) or stride < 1:
        raise ValueError(f"conv1d: stride must be a positive int, got {stride!r}")
    xv, kv, bv = x.values, kernels.values, bias.values
    if xv.ndim != 3:
        raise ValueError(f"conv1d: input must be 3-D [batch, length, channels], "
                         f"got shape {xv.shape}")
    if kv.ndim != 3:
        raise ValueError(f"conv1d: kernels must be 3-D, got shape {kv.shape}")
    batch, length, cin = xv.shape
    cout, kcin, k = kv.shape
    if kcin != cin:
        raise ValueError(
            f"conv1d: input shape {xv.shape} has {cin} channels but kernels "
            f"shape {kv.shape} expect {kcin}"
        )
    if bv.shape != (cout,):
        raise ValueError(
            f"conv1d: bias shape {bv.shape} does not match {cout} output channels"
        )
    if k > length:
        raise ValueError(f"conv1d: kernel size {k} exceeds input length {length}")
    out_len = (length - k) // stride + 1
    cols = _im2col(xv, k, stride, out_len)  # [B*T, k*cin]
    wmat = np.ascontiguousarray(kv.transpose(2, 1, 0)).reshape(k * cin, cout)
    out_vals = cols @ wmat  # one GEMM for the layer, [B*T, cout]
    out_vals += bv
    out = Tensor(out_vals.reshape(batch, out_len, cout))

    def _bwd(g):  # g: [B,T,cout]
        g = g.reshape(batch * out_len, cout)
        _accumulate(bias, g.sum(axis=0))
        _accumulate(kernels, (g.T @ cols).reshape(cout, k, cin).transpose(0, 2, 1))
        if not wants_x:
            return
        # the transposed convolution: g, spread to the layer's stride and
        # padded by k - 1 zeros, convolved with the flipped kernels
        spread = np.zeros((batch, length + k - 1, cout))
        spread[:, k - 1 : k + stride * (out_len - 1) : stride] = g.reshape(
            batch, out_len, cout)
        flipped = np.ascontiguousarray(kv[:, :, ::-1].transpose(2, 0, 1)).reshape(
            k * cout, cin)
        _accumulate(x, (_im2col(spread, k, 1, length) @ flipped).reshape(xv.shape))

    return _record(out, _bwd, *((x,) if wants_x else ()), kernels, bias)


def _im2col(a: np.ndarray, k: int, stride: int, out_len: int) -> np.ndarray:
    """[B * out_len, k * C] rows: row (b, t) is a[b, t * stride : t * stride + k]
    of a C-contiguous channels-last a [B, L, C], one contiguous run of k * C
    values, so the copy is one row copy per output position."""
    batch, length, channels = a.shape
    item = a.itemsize
    win = as_strided(a, (batch, out_len, k * channels),
                     (length * channels * item, stride * channels * item, item),
                     writeable=False)
    return np.ascontiguousarray(win).reshape(batch * out_len, k * channels)


def window_gather(x, rows, offsets, width: int) -> Tensor:
    """Flattened windows cut from shared rows of a channels-last feature map.

    x: [rows, length, channels]; rows, offsets: integer arrays [batch].
    out[b] = x[rows[b], offsets[b] : offsets[b] + width, :] flattened
    channel-major to [channels * width]. Windows may overlap and may share
    a row; the backward pass sums the gradients of every window that read
    a position. When row b holds the one window b, full width at offset 0
    (every training step), the output is x transposed to channel-major in
    one copy, and x's gradient is the output's gradient plus 0.0: the bits
    of the sum onto zeros, which turns -0.0 into 0.0. Otherwise the windows
    are cut from one channel-major copy of x.
    """
    x = _lift(x)
    xv = x.values
    rows, offsets = np.asarray(rows), np.asarray(offsets)
    if xv.ndim != 3:
        raise ValueError(f"window_gather: input must be 3-D [rows, length, channels], "
                         f"got shape {xv.shape}")
    n_rows, length, channels = xv.shape
    if rows.ndim != 1 or rows.shape != offsets.shape:
        raise ValueError(f"window_gather: rows {rows.shape} and offsets "
                         f"{offsets.shape} must be equal 1-D shapes")
    if len(rows) and (rows.min() < 0 or rows.max() >= n_rows or offsets.min() < 0
                      or offsets.max() > length - width):
        raise ValueError(f"window_gather: a window of width {width} falls outside "
                         f"the input of shape {xv.shape}")
    batch = len(rows)
    channel_major = xv.transpose(0, 2, 1)  # [R,C,length]
    if (batch == n_rows and width == length and not offsets.any()
            and np.array_equal(rows, np.arange(batch))):
        out = Tensor(channel_major.reshape(batch, channels * width))

        def _bwd_rows(g):
            g_x = np.empty_like(xv)
            np.add(g.reshape(batch, channels, width).transpose(0, 2, 1), 0.0, out=g_x)
            _accumulate(x, g_x)

        return _record(out, _bwd_rows, x)
    windows = sliding_window_view(np.ascontiguousarray(channel_major), width,
                                  axis=2)[rows, :, offsets]  # [B,C,width]
    out = Tensor(windows.reshape(batch, channels * width))

    def _bwd(g):
        g = g.reshape(batch, channels, width)
        g_x = np.zeros_like(xv)
        for b in range(batch):  # in window order; overlapping windows add up
            g_x[rows[b], offsets[b] : offsets[b] + width] += g[b].T
        _accumulate(x, g_x)

    return _record(out, _bwd, x)


def dense(x, weights, bias) -> Tensor:
    """Affine layer: out[b] = weights @ x[b] + bias, for x [batch, n]."""
    x, weights, bias = _lift(x), _lift(weights), _lift(bias)
    xv, wv, bv = x.values, weights.values, bias.values
    if wv.ndim != 2:
        raise ValueError(f"dense: weights must be 2-D, got shape {wv.shape}")
    m, n = wv.shape
    if bv.shape != (m,):
        raise ValueError(f"dense: bias shape {bv.shape} does not match out width {m}")
    if xv.ndim != 2:
        raise ValueError(f"dense: input must be 2-D [batch, n], got shape {xv.shape}")
    if xv.shape[1] != n:
        raise ValueError(
            f"dense: input shape {xv.shape} does not match weights shape {wv.shape}"
        )
    out = Tensor(xv @ wv.T + bv)

    def _bwd(g):
        _accumulate_product(weights, g.T, xv)
        _accumulate(bias, g.sum(axis=0))
        _accumulate(x, g @ wv)

    return _record(out, _bwd, x, weights, bias)


def relu(x) -> Tensor:
    x = _lift(x)
    _check_finite(x.values, "relu")
    out = Tensor(np.maximum(x.values, 0.0))

    def _bwd(g):
        _accumulate(x, g * (x.values > 0.0))

    return _record(out, _bwd, x)


def sigmoid(x) -> Tensor:
    x = _lift(x)
    _check_finite(x.values, "sigmoid")
    xv = x.values
    vals = np.empty_like(xv)
    pos = xv >= 0
    vals[pos] = 1.0 / (1.0 + np.exp(-xv[pos]))
    e = np.exp(xv[~pos])
    vals[~pos] = e / (1.0 + e)
    out = Tensor(vals)

    def _bwd(g):
        _accumulate(x, g * vals * (1.0 - vals))

    return _record(out, _bwd, x)


def softmax(x) -> Tensor:
    """Softmax along the last axis; rows are strictly positive and sum to 1."""
    x = _lift(x)
    _check_finite(x.values, "softmax")
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    vals = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(vals)

    def _bwd(g):
        inner = (g * vals).sum(axis=-1, keepdims=True)
        _accumulate(x, (g - inner) * vals)

    return _record(out, _bwd, x)


def reshape(x, shape) -> Tensor:
    x = _lift(x)
    out = Tensor(x.values.reshape(shape))

    def _bwd(g):
        _accumulate(x, g.reshape(x.values.shape))

    return _record(out, _bwd, x)


def add(a, b) -> Tensor:
    """Elementwise sum of two tensors of the same shape."""
    a, b = _lift(a), _lift(b)
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ValueError(f"add: shape mismatch {av.shape} vs {bv.shape}")
    out = Tensor(av + bv)

    def _bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record(out, _bwd, a, b)


def scale(x, c: float) -> Tensor:
    x = _lift(x)
    c = float(c)
    out = Tensor(x.values * c)

    def _bwd(g):
        _accumulate(x, g * c)

    return _record(out, _bwd, x)


def mse_loss(prediction, target) -> Tensor:
    """Mean over all elements of (target - prediction)^2. Scalar output."""
    prediction, target = _lift(prediction), _lift(target)
    pv, tv = prediction.values, target.values
    if pv.shape != tv.shape:
        raise ValueError(f"mse_loss: shape mismatch {pv.shape} vs {tv.shape}")
    diff = pv - tv
    out = Tensor(np.mean(diff * diff))

    def _bwd(g):
        g = g * 2.0 / diff.size
        _accumulate(prediction, g * diff)
        _accumulate(target, -g * diff)

    return _record(out, _bwd, prediction, target)


def cross_entropy_loss(probabilities, targets) -> Tensor:
    """Categorical cross entropy, averaged over rows (last axis = classes).

    Probability rows must sum to 1 within 1e-6; target rows must be exactly
    one-hot. Probabilities are clipped at 1e-12 inside the log and the
    gradient is defined through the clip (zero where the clip is active).
    """
    probabilities = _lift(probabilities)
    pv = probabilities.values
    tv = np.asarray(targets, dtype=np.float64)
    if pv.shape != tv.shape:
        raise ValueError(
            f"cross_entropy_loss: shape mismatch {pv.shape} vs {tv.shape}"
        )
    if pv.ndim < 1:
        raise ValueError("cross_entropy_loss: input must have a class axis")
    row_sums = pv.sum(axis=-1)
    if not np.all(np.abs(row_sums - 1.0) <= 1e-6):
        worst = float(np.max(np.abs(row_sums - 1.0)))
        raise ValueError(
            f"cross_entropy_loss: probability rows must sum to 1 within 1e-6 "
            f"(worst deviation {worst:.3e})"
        )
    is_binary = (tv == 0.0) | (tv == 1.0)
    if not (np.all(is_binary) and np.all(tv.sum(axis=-1) == 1.0)):
        raise ValueError("cross_entropy_loss: target rows must be one-hot")
    n_rows = pv.size // pv.shape[-1]
    clipped = np.maximum(pv, CROSS_ENTROPY_CLIP)
    out = Tensor(-np.sum(tv * np.log(clipped)) / n_rows)

    def _bwd(g):
        d = np.where(pv >= CROSS_ENTROPY_CLIP, -tv / clipped, 0.0)
        _accumulate(probabilities, g * d / n_rows)

    return _record(out, _bwd, probabilities)
