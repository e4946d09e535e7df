"""Dense float32 tensors with a minimal reverse-mode differentiation tape.

Every operation computes its forward value eagerly with numpy and, when a
tape is active and an input requires gradients, records a backward rule on
the tape through ``_make``. An op's backward maps its output's gradient to
one gradient per input, in input order; ``_make`` alone hands them over: an
input that requires a gradient gets its entry summed over the axes it was
broadcast along and accumulated in its holder, additively across fan-out. A
leaf is its own holder (its ``.grad``); a taped op's output gets one that owns
no array. A record keeps the output's holder, each receiving input's holder and
shape, and the backward, which closes over only the arrays it reads, so an
array that no backward reads is freed once its caller drops it.
``Tape.backward`` replays the rules in exact reverse execution order and
drops each rule, with the arrays it holds and its output's gradient, once it
has run. A gradient is a read-only value handed over by reference: a holder
keeps the first one it receives and sums a later one out of place, so no code
writes into a ``.grad`` array or into a gradient that a rule receives.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class NumericalError(RuntimeError):
    """A computation produced non-finite values."""


class ScanStateError(NumericalError):
    """The state of scan sequence ``column`` (axis 1 of the scan input) went
    non-finite at ``step``."""

    def __init__(self, step: int, column: int):
        super().__init__(f"non-finite SSM state at step {step}")
        self.step = step
        self.column = column


def _keep_freed_pages() -> None:
    """Hold glibc's mmap and trim thresholds at the ceilings of its own dynamic
    rule (32 and 64 MiB), so the pages an op or the replay frees are reused by the
    next op, not returned and faulted in zeroed again. No-op without mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


_keep_freed_pages()

_TAPE: "Tape | None" = None   # the active tape; at most one at a time


class Tape:
    """Ordered record of differentiable operations.

    Use as a context manager around the forward pass, then call
    ``backward(loss)``.
    """

    def __init__(self):
        self._records: list = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        global _TAPE
        if _TAPE is not None:
            raise RuntimeError("a tape is already active")
        _TAPE = self
        return self

    def __exit__(self, *exc):
        global _TAPE
        _TAPE = None
        return False

    def record(self, backward) -> None:
        self._records.append(backward)

    def backward(self, loss: "Tensor") -> None:
        """Seed d(loss)/d(loss) = 1 and replay recorded rules in reverse, once:
        each rule is dropped before it runs, so what it holds is freed as soon
        as it has run. Leaves keep their gradients; op outputs keep none."""
        if loss.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        if self._replayed:
            raise RuntimeError("a tape replays once")
        self._replayed = True
        (loss._holder or loss)._accum(np.ones_like(loss.data))
        records = self._records
        while records:
            records.pop()()


class _Holder:
    """Where a gradient accumulates: the one place, for leaves and op outputs."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None

    def _accum(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g


class Tensor(_Holder):
    """A dense float32 array with an optional, read-only gradient; a taped
    op's output keeps it in ``_holder``, any other tensor is its own holder."""

    __slots__ = ("data", "requires_grad", "_holder")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._holder: _Holder | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _tracking(inputs) -> bool:
    """Whether an op on ``inputs`` is recorded: a tape is active and one needs a gradient."""
    return _TAPE is not None and any(t.requires_grad for t in inputs)


def _make(out_data, inputs, backward) -> Tensor:
    """Wrap an op result; record the backward rule when taping.

    ``backward(g)`` returns one gradient per input, in input order: an array
    of the input's shape or of the shape the forward broadcast it to. The
    recorded rule delivers each one whose input requires a gradient: summed
    over the broadcast axes, then accumulated in its holder."""
    track = _tracking(inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        node = out._holder = _Holder()
        sinks = [(t._holder or t, t.data.shape) if t.requires_grad else None for t in inputs]

        def run():
            # outputs that never received a gradient are off the loss path
            g, node.grad = node.grad, None
            if g is not None:
                for sink, grad in zip(sinks, backward(g), strict=True):
                    if sink:
                        sink[0]._accum(_unbroadcast(grad, sink[1]))

        _TAPE.record(run)
    return out


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data / b.data, (a, b),
                 lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _make(out_data, (a,), lambda g: (g * out_data,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def square(a: Tensor) -> Tensor:
    return _make(a.data * a.data, (a,), lambda g: (g * (2.0 * a.data),))


def absolute(a: Tensor) -> Tensor:
    return _make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def _np_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free, branch-free logistic function: exp is only taken of -|x|."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    s = _np_sigmoid(a.data)
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def silu(a: Tensor) -> Tensor:
    x = a.data
    s = _np_sigmoid(x)
    return _make(x * s, (a,), lambda g: (g * (s + x * s * (1.0 - s)),))


def softplus(a: Tensor) -> Tensor:
    x = a.data
    out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _make(out_data, (a,), lambda g: (g * _np_sigmoid(x),))


# The leaky ReLU that ends depthwise_conv2d, groupnorm and layernorm(leaky=True),
# branch-free; its slope at output y is 1 where y > 0 (where the input is), else LEAKY_SLOPE.
LEAKY_SLOPE = 0.01


def _np_leaky(y: np.ndarray) -> np.ndarray:
    """In place on a C-contiguous y: max(y, LEAKY_SLOPE*y) is y for y > 0, else
    LEAKY_SLOPE*y; 256 KiB at a time, so the slope's product is never full size."""
    flat = y.reshape(-1)
    for lo in range(0, flat.size, 1 << 16):
        part = flat[lo:lo + (1 << 16)]
        np.maximum(part, LEAKY_SLOPE * part, out=part)
    return y


def _np_leaky_slope(y: np.ndarray) -> np.ndarray:
    return np.maximum(y > 0, LEAKY_SLOPE, dtype=np.float32)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def mean(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.mean(axis=axis, dtype=np.float32)
    count = a.data.size // max(out_data.size, 1)   # the values behind each mean
    shape = a.data.shape

    def bw(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape),)

    return _make(out_data, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def moveaxis(a: Tensor, src, dst) -> Tensor:
    return _make(np.ascontiguousarray(np.moveaxis(a.data, src, dst)), (a,),
                 lambda g: (np.moveaxis(g, dst, src),))


def gather(a: Tensor, perm: np.ndarray) -> Tensor:
    """Reorder axis 0 by a table ``perm[N, R]``: column r, a permutation,
    reorders ``a[:, r]`` (all of them reorder ``a[:, 0]`` when a is [N, 1,
    ...]). Backward scatters through the inverses, which one O(N) scatter
    finds and checks: a column hits every row once."""
    perm = np.asarray(perm, dtype=np.int64)
    n = a.data.shape[0]
    message = "perm must be a bijective permutation of axis 0"
    if perm.ndim != 2 or perm.shape[0] != n or not ((perm >= 0) & (perm < n)).all():
        raise ValueError(message)
    cols = np.arange(perm.shape[1])
    inv = np.full(perm.shape, -1)
    inv[perm, cols] = np.arange(n)[:, None]
    if (inv < 0).any():                     # a repeated entry leaves a row unhit
        raise ValueError(message)
    src = np.broadcast_to(a.data, perm.shape + a.data.shape[2:])
    return _make(src[perm, cols], (a,), lambda g: (g[inv, cols],))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
                 lambda g: np.split(g, offsets[1:-1], axis=axis))


def index(a: Tensor, idx) -> Tensor:
    """Basic (slice) indexing ``a[idx]``; backward scatters into zeros."""
    shape = a.data.shape

    def bw(g):
        buf = np.zeros(shape, dtype=np.float32)
        buf[idx] = g
        return (buf,)

    return _make(np.ascontiguousarray(a.data[idx]), (a,), bw)


def chunk(a: Tensor, n: int, axis: int = 0) -> list[Tensor]:
    size = a.data.shape[axis]
    if size % n:
        raise ValueError(f"axis size {size} not divisible into {n} chunks")
    step = size // n
    lead = (slice(None),) * (axis % a.data.ndim)
    return [index(a, lead + (slice(k * step, (k + 1) * step),)) for k in range(n)]


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """a[..., Din] @ w[Din, Dout]."""
    a, w = as_tensor(a), as_tensor(w)
    if w.data.ndim != 2 or a.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"matmul shapes {a.data.shape} x {w.data.shape}")

    return _make(a.data @ w.data, (a, w), lambda g: (
        g @ w.data.T, a.data.reshape(-1, w.data.shape[0]).T @ g.reshape(-1, w.data.shape[1])))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis."""
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# padding and convolutions
# ---------------------------------------------------------------------------


def _np_pad2d(x: np.ndarray, pads: tuple[int, int, int, int], mode: str) -> np.ndarray:
    """Pad the trailing two axes by (top, bottom, left, right) with zeros or
    copies of the edge pixels ("replicate"), into a new C-contiguous array."""
    if not any(pads):
        return x
    (top, bottom, left, right), (h, w) = pads, x.shape[-2:]
    xp = (np.empty if mode == "replicate" else np.zeros)(
        x.shape[:-2] + (top + h + bottom, left + w + right), dtype=np.float32)
    xp[..., top:top + h, left:left + w] = x
    if mode == "replicate":
        xp[..., :top, left:left + w] = x[..., :1, :]
        xp[..., top + h:, left:left + w] = x[..., -1:, :]
        xp[..., :left] = xp[..., left:left + 1]
        xp[..., left + w:] = xp[..., left + w - 1:left + w]
    return xp


def _fold_replicated(g: np.ndarray, pads: tuple[int, int, int, int]) -> np.ndarray:
    """Adjoint of replicate padding, in place; returns the interior view."""
    (top, bottom, left, right), (h, w) = pads, g.shape[-2:]
    g[..., top, :] += g[..., :top, :].sum(axis=-2)
    g[..., h - bottom - 1, :] += g[..., h - bottom:, :].sum(axis=-2)
    g[..., left] += g[..., :left].sum(axis=-1)
    g[..., w - right - 1] += g[..., w - right:].sum(axis=-1)
    return g[..., top:h - bottom, left:w - right]


def pad2d(x: Tensor, pads: tuple[int, int, int, int]) -> Tensor:
    """Replicate-pad the trailing two axes by (top, bottom, left, right)."""
    if min(pads) < 0:
        raise ValueError(f"pads must be non-negative, got {pads}")

    return _make(_np_pad2d(x.data, pads, "replicate"), (x,),
                 lambda g: (_fold_replicated(g.copy(), pads),))


def _conv_cols(x: np.ndarray, kernels: np.ndarray, s: int, p: int):
    """im2col product of kernels[Co, Ci, kh, kw] with the stride-s windows of
    x[T, Ci, H, W] zero-padded by p; returns it as [T, Co, Ho, Wo] and the
    [T, Ci*kh*kw, Ho*Wo] columns. numpy copies the window view only where windows
    overlap or skip pixels, so a 1x1 stride-1 kernel's columns are a view of x."""
    co, ci, kh, kw = kernels.shape
    win = sliding_window_view(_np_pad2d(x, (p,) * 4, "zero"), (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    t, _, ho, wo = win.shape[:4]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(t, ci * kh * kw, ho * wo)
    return np.matmul(kernels.reshape(co, -1), cols).reshape(t, co, ho, wo), cols


def _conv_cols_adjoint(g: np.ndarray, kernels: np.ndarray, shape, s: int, p: int) -> np.ndarray:
    """Adjoint of _conv_cols in x (col2im): each tap's kernel transpose applied to
    g[T, Co, Ho, Wo] and scattered back into zeros of ``shape`` [T, Ci, H, W] padded
    by p, one tap at a time, so no [T, Ci*kh*kw, Ho*Wo] product is ever whole;
    returns the view of the unpadded pixels."""
    co, ci, kh, kw = kernels.shape
    (t, _, ho, wo), (h, w) = g.shape, shape[2:]
    gf = g.reshape(t, co, ho * wo)
    taps = np.ascontiguousarray(kernels.transpose(2, 3, 1, 0))        # [kh, kw, Ci, Co]
    dxp = np.zeros((t, ci, h + 2 * p, w + 2 * p), dtype=np.float32)
    for i, j in np.ndindex(kh, kw):
        dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += (taps[i, j] @ gf).reshape(t, ci, ho, wo)
    return dxp[..., p:p + h, p:p + w]


def _conv_kernel_grad(g: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
    """Kernel gradient of _conv_cols from g[T, Co, Ho, Wo], summed over frames and pixels."""
    t, co = g.shape[:2]
    return np.tensordot(g.reshape(t, co, -1), cols, axes=([0, 2], [0, 2])).reshape(shape)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x[T, Cin, H, W] with kernels[Cout, Cin, kh, kw],
    zero-padded, plus bias[Cout]."""
    _, ci, kh, kw = kernels.data.shape
    if x.data.shape[1] != ci:
        raise ValueError(f"conv2d channels: input {x.data.shape[1]} != kernel {ci}")
    padded = tuple(n + 2 * padding for n in x.data.shape[2:])
    if stride < 1 or kh > padded[0] or kw > padded[1]:
        raise ValueError(f"conv2d: stride {stride} < 1 or kernel ({kh},{kw}) larger "
                         f"than padded input {padded}")
    out_data, cols = _conv_cols(x.data, kernels.data, stride, padding)
    out_data += bias.data[None, :, None, None]
    shape = x.data.shape  # the rule keeps the shape, not x

    def bw(g):
        return (_conv_cols_adjoint(g, kernels.data, shape, stride, padding),
                _conv_kernel_grad(g, cols, kernels.data.shape), g.sum(axis=(0, 2, 3)))

    return _make(out_data, (x, kernels, bias), bw)


def conv_transpose2d(y: Tensor, kernels: Tensor, bias: Tensor,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """Adjoint of conv2d with the same geometry (zero padding), plus bias[Cin].

    Maps y[T, Cout, H', W'] to [T, Cin, H, W] with
    H = (H' - 1) * stride + kh - 2 * padding.
    """
    co, ci, kh, kw = kernels.data.shape
    if y.data.shape[1] != co:
        raise ValueError(f"conv_transpose2d channels: input {y.data.shape[1]} != kernel {co}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    t, _, ho, wo = y.data.shape
    h = (ho - 1) * stride + kh - 2 * padding
    w = (wo - 1) * stride + kw - 2 * padding
    if h < 1 or w < 1:
        raise ValueError("padding too large for conv_transpose2d output")
    out_data = (_conv_cols_adjoint(y.data, kernels.data, (t, ci, h, w), stride, padding)
                + bias.data[None, :, None, None])

    def bw(g):  # g padded is (ho - 1) * stride + kh high, so _conv_cols gives ho rows
        dy, cols = _conv_cols(g, kernels.data, stride, padding)
        return dy, _conv_kernel_grad(y.data, cols, kernels.data.shape), g.sum(axis=(0, 2, 3))

    return _make(out_data, (y, kernels, bias), bw)


def _tap_group(span: int) -> int:
    """Rows of ``span`` values per block of _np_taps and the norms' variance: 512 KiB stay in L2."""
    return max(1, (1 << 19) // (4 * span))


def _np_taps(src: np.ndarray, kernels: np.ndarray, offsets: list[int], span: int,
             out: np.ndarray) -> np.ndarray:
    """out[:, :span] = sum over taps t, in order, of kernels[:, t] times
    src[:, offsets[t]:][:, :span], on channel-major rows, a few rows at a time."""
    group = _tap_group(span)
    prod = np.empty((min(group, len(src)), span), dtype=np.float32)
    for lo in range(0, len(src), group):
        acc, rows, k = out[lo:lo + group, :span], src[lo:lo + group], kernels[lo:lo + group]
        np.multiply(rows[:, offsets[0]:offsets[0] + span], k[:, :1], out=acc)
        for t, o in enumerate(offsets[1:], 1):
            acc += np.multiply(rows[:, o:o + span], k[:, t:t + 1], out=prod[:len(acc)])
    return out


def depthwise_conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Per-channel (kh, kw) convolution of x[..., C, H, W], stride 1, 'same'
    output size, replicate-padded, plus bias[C], then the leaky ReLU.

    The padded frames of one channel form one row of N*Hp*Wp pixels. Output pixel
    (n, r, q) sits at (n*Hp + r)*Wp + q, tap (i, j) reads i*Wp + j further on. The
    forward pads a block of rows at a time, the backward all of x again: the tape keeps x."""
    c, kh, kw = kernels.data.shape
    *_, ci, h, w = x.data.shape
    if ci != c:
        raise ValueError(f"depthwise channels: input {ci} != kernel {c}")
    pads = (kh // 2, kh // 2, kw // 2, kw // 2)

    def padded(b=np.s_[:]):  # the channels b of every frame, channel-major
        return _np_pad2d(x.data.reshape(-1, c, h, w)[:, b].swapaxes(0, 1), pads, "replicate")

    n, hp, wp = x.data.size // (c * h * w), h + 2 * pads[0], w + 2 * pads[2]
    shape, size = (c, n, hp, wp), n * hp * wp
    offs = [i * wp + j for i, j in np.ndindex(kh, kw)]
    reach = offs[-1]                        # flat distance from tap (0, 0) to the last tap
    span = size - reach                     # flat positions up to the last output pixel
    kf = kernels.data.reshape(c, -1)        # tap t reads at offset offs[t]
    group, out_data = _tap_group(span), np.empty((n, c, h, w), dtype=np.float32)
    for lo in range(0, c, group):  # pad, convolve and crop one block of rows at a time
        b = np.s_[lo:lo + group]
        xf = padded(b).reshape(-1, size)
        rows = _np_taps(xf, kf[b], offs, span, np.empty_like(xf))
        np.add(rows.reshape(-1, n, hp, wp)[..., :h, :w].transpose(1, 0, 2, 3),
               bias.data[b, None, None], out=out_data[:, b])
    out_data = _np_leaky(out_data).reshape(x.data.shape)

    def bw(g):
        g = (g * _np_leaky_slope(out_data)).reshape(n, c, h, w)
        # g of pixel p at p + reach: the flipped kernel's taps read it as the taps read x
        gp = np.zeros((c, size + reach), dtype=np.float32)
        gp[:, :size].reshape(shape)[..., kh - 1:, kw - 1:][..., :h, :w] = np.moveaxis(g, 1, 0)
        xf = padded().reshape(c, size)
        dk = [np.einsum("cp,cp->c", gp[:, reach:size], xf[:, o:o + span]) for o in offs]
        dxf = _np_taps(gp, kf[:, ::-1], offs, size, xf)       # xf's last read was dk
        dx = _fold_replicated(dxf.reshape(shape), pads).transpose(1, 0, 2, 3)
        return (np.ascontiguousarray(dx).reshape(x.data.shape),
                np.stack(dk, axis=1).reshape(c, kh, kw), g.sum(axis=(0, 2, 3)))

    return _make(out_data, (x, kernels, bias), bw)


def conv1d_depthwise(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Causal per-channel 1D convolution along axis 0 of x[L, ..., D] with
    kernels[D, k], plus bias[D]; every other axis holds independent sequences.

    Output position l sees inputs l-k+1 .. l (front zero padding).
    """
    d, k = kernels.data.shape
    if x.data.shape[-1] != d:
        raise ValueError(f"conv1d channels: input {x.data.shape[-1]} != kernel {d}")
    length = x.data.shape[0]
    xp = np.concatenate([np.zeros((k - 1, *x.data.shape[1:]), dtype=np.float32), x.data])
    out_data = np.zeros_like(x.data)
    for j in range(k):
        out_data += kernels.data[:, j] * xp[j:j + length]
    out_data += bias.data
    rows = tuple(range(x.data.ndim - 1))

    def bw(g):
        dk = np.empty_like(kernels.data)
        dxp = np.zeros_like(xp)
        for j in range(k):
            dk[:, j] = (g * xp[j:j + length]).sum(axis=rows)
            dxp[j:j + length] += kernels.data[:, j] * g
        return dxp[k - 1:], dk, g.sum(axis=rows)

    return _make(out_data, (x, kernels, bias), bw)


def group_conv1d(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Mix the channel vectors x[..., 3*G] within consecutive triples, plus
    bias[3*G].

    weights[G, 3, 3] maps each triple through its own small matrix. Mixing
    never crosses triple borders; leading axes are independent.
    """
    if x.data.ndim < 1 or x.data.shape[-1] % 3:
        raise ValueError(f"channel count {x.data.shape} not divisible into triples")
    g_count = x.data.shape[-1] // 3
    if weights.data.shape != (g_count, 3, 3):
        raise ValueError(f"weights shape {weights.data.shape} != {(g_count, 3, 3)}")
    xg = x.data.reshape(*x.data.shape[:-1], g_count, 3)
    out_data = np.einsum("gij,...gj->...gi", weights.data, xg).reshape(x.data.shape)
    out_data += bias.data

    def bw(g):
        gg = g.reshape(xg.shape)
        return (np.einsum("gij,...gi->...gj", weights.data, gg).reshape(x.data.shape),
                np.einsum("ngi,ngj->gij", gg.reshape(-1, g_count, 3), xg.reshape(-1, g_count, 3)),
                g)

    return _make(out_data, (x, weights, bias), bw)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

NORM_EPS = 1e-5


def _norm_affine(x: Tensor, stats_shape, axis: int, gamma: Tensor, beta: Tensor,
                 view, leaky: bool) -> Tensor:
    """Normalise x over ``axis`` of its ``stats_shape`` view, scale by gamma and shift
    by beta (both reshaped to ``view``), then, if ``leaky``, the leaky ReLU. One taped op,
    computed in place in the centred copy of x; the tape keeps the mean and the standard
    deviation, and the backward rebuilds x-hat from x."""
    xs = x.data.reshape(stats_shape)
    mu = xs.mean(axis=axis, keepdims=True, dtype=np.float32)
    xc, var = xs - mu, np.empty_like(mu)
    # the variance a block of axis-0 rows at a time; a reduced axis 0 is one block
    group = _tap_group(xc[:1].size or 1) if axis else len(xc) or 1
    for lo in range(0, len(xc), group):
        part = xc[lo:lo + group]
        np.mean(part * part, axis=axis, keepdims=True, dtype=np.float32, out=var[lo:lo + group])
    std = np.sqrt(var + NORM_EPS)
    out_data = np.divide(xc, std, out=xc).reshape(x.data.shape)     # x-hat, then the output
    gv = gamma.data.reshape(view)
    shared = tuple(i for i, size in enumerate(view) if size == 1)   # axes gamma broadcasts over
    out_data *= gv
    out_data += beta.data.reshape(view)
    if leaky:
        _np_leaky(out_data)

    def bw(g):
        if leaky:
            g = g * _np_leaky_slope(out_data)
        xh = xs - mu                        # x-hat again, by the forward's own operations
        xh /= std
        gx = (g * gv).reshape(stats_shape)
        dx = (gx - gx.mean(axis=axis, keepdims=True)
              - xh * (gx * xh).mean(axis=axis, keepdims=True)) / std
        return (dx.reshape(x.data.shape),
                (g * xh.reshape(x.data.shape)).sum(axis=shared).reshape(gamma.data.shape),
                g.sum(axis=shared).reshape(beta.data.shape))

    return _make(out_data, (x, gamma, beta), bw)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1,
              leaky: bool = False) -> Tensor:
    """Normalize to zero mean / unit variance over ``axis``, then affine (gamma
    and beta hold one value per entry of that axis), then, if ``leaky``, the leaky ReLU."""
    axis %= x.data.ndim
    view = tuple(size if i == axis else 1 for i, size in enumerate(x.data.shape))
    return _norm_affine(x, x.data.shape, axis, gamma, beta, view, leaky)


def groupnorm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor) -> Tensor:
    """Group normalization over x[T, C, H, W]: statistics per (frame, group),
    then a per-channel affine, then the leaky ReLU."""
    t, c, h, w = x.data.shape
    if c % groups:
        raise ValueError(f"channels {c} not divisible by {groups} groups")
    return _norm_affine(x, (t, groups, c // groups * h * w), 2, gamma, beta, (1, c, 1, 1), True)


# ---------------------------------------------------------------------------
# selective-scan recurrence primitive
# ---------------------------------------------------------------------------


SCAN_CHUNK = 64


def _scan_chunk(h: np.ndarray, abar: np.ndarray, dtb: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """The states [c, R, S, D] of one chunk of c steps, from the state h [R, S, D]
    entering it and its decays abar [c, R, S, D]; dtb [c, R, S] (dt_l B_l) and
    xc [c, R, D] are its rows."""
    hs = np.einsum("lrs,lrd->lrsd", dtb, xc, out=np.empty_like(abar))
    decayed = np.empty_like(h)
    for ab, hk in zip(abar, hs):  # h_l = bx_l + abar_l * h_{l-1}, in place
        hk += np.multiply(ab, h, out=decayed)
        h = hk
    return hs


def ssm_recurrence(x: Tensor, dt: Tensor, a: Tensor, b: Tensor, c: Tensor) -> Tensor:
    """Selective scan of R sequences at once, time-major, per route r:

        h_l = exp(dt_l * A) * h_{l-1} + dt_l * B_l x_l^T,   y_l = C_l^T h_l

    x is [L, R, D], dt [L, R], a (A) [D, S], b and c [L, R, S]; the state
    h_l is [S, D] per route and y is [L, R, D]. Discretisation runs inside,
    SCAN_CHUNK steps at a time, and is never taped. The forward keeps only the
    state entering each chunk, [ceil(L / SCAN_CHUNK), R, S, D]; the backward
    walks the chunks in reverse and recomputes each chunk's decays and states
    from its entry state by the forward's own operations, so they are the
    forward's bits. Its one whole [L, R, S, D] transient is ``q``, which the
    decays fill: A's gradient sums it over all L*R rows in one product, and a
    chunked sum would round otherwise.
    Raises ScanStateError naming the first step whose state goes non-finite,
    and its first non-finite sequence.
    """
    L, r, d = x.data.shape
    s = a.data.shape[1]
    if dt.data.shape != (L, r) or a.data.shape != (d, s) \
            or b.data.shape != (L, r, s) or c.data.shape != (L, r, s):
        raise ValueError("ssm_recurrence shape mismatch")
    at = np.ascontiguousarray(a.data.T)                                 # [S, D]
    dtv = dt.data[..., None]
    dtb = dtv * b.data                                                  # [L, R, S]
    starts = range(0, L, SCAN_CHUNK)
    entry = np.empty((len(starts), r, s, d), dtype=np.float32)          # h_{l0 - 1}
    y = np.empty((L, r, d), dtype=np.float32)
    h = np.zeros((r, s, d), dtype=np.float32)
    for k, l0 in enumerate(starts):
        chunk = np.s_[l0:l0 + SCAN_CHUNK]
        entry[k] = h
        abar = np.exp(dtv[chunk][..., None] * at)                       # [c, R, S, D]
        hs = _scan_chunk(h, abar, dtb[chunk], x.data[chunk])
        h = hs[-1]
        if not np.isfinite(h).all():  # a non-finite entry stays non-finite
            bad = ~np.isfinite(hs).reshape(len(hs), r, -1).all(axis=2)      # [steps, R]
            step = int(np.argmax(bad.any(axis=1)))
            raise ScanStateError(l0 + step, int(np.argmax(bad[step])))
        y[chunk] = np.matmul(c.data[chunk][:, :, None, :], hs)[:, :, 0]

    def bw(g):
        q = np.empty((L, r, s, d), dtype=np.float32)  # abar_l, then dL/dabar_l abar_l h_{l-1}
        dh_b = np.empty((L, r, d), dtype=np.float32)                    # B_l^T dh_l
        dh_x = np.empty((L, r, s), dtype=np.float32)                    # dh_l x_l
        dc = np.empty((L, r, s), dtype=np.float32)
        dh_chunk = np.empty((min(L, SCAN_CHUNK), r, s, d), dtype=np.float32)
        for k in reversed(range(len(starts))):
            l0, l1 = starts[k], min(starts[k] + SCAN_CHUNK, L)
            chunk = np.s_[l0:l1]
            np.exp(dtv[chunk][..., None] * at, out=q[chunk])
            hs = _scan_chunk(entry[k], q[chunk], dtb[chunk], x.data[chunk])
            # g_l C_l, then all of dL/dh_l:
            dh = np.einsum("lrs,lrd->lrsd", c.data[chunk], g[chunk], out=dh_chunk[:l1 - l0])
            if l1 < L:                                      # the next chunk's first step
                dh[-1] += q[l1]
                q[l1] *= entry[k + 1]
            for l in range(l1 - 1, l0, -1):                 # dh[l] is complete at step l
                q[l] *= dh[l - l0]
                dh[l - l0 - 1] += q[l]
            q[l0] *= dh[0]
            q[l0 + 1:l1] *= hs[:-1]
            dh_b[chunk] = np.matmul(b.data[chunk][:, :, None, :], dh)[:, :, 0]
            dh_x[chunk] = np.matmul(dh, x.data[chunk][..., None])[..., 0]
            dc[chunk] = np.matmul(hs, g[chunk][..., None])[..., 0]
        q[0] = 0.0                                                  # h_{-1} = 0
        qf = q.reshape(L * r, s * d)
        return (dtv * dh_b,
                (dh_b * x.data).sum(axis=-1) + (qf @ at.reshape(-1)).reshape(L, r),
                (dt.data.reshape(-1) @ qf).reshape(s, d).T,
                dtv * dh_x,
                dc)

    return _make(y, (x, dt, a, b, c), bw)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_input: int
    worst_index: tuple
    passed: bool


def grad_check(f, xs, tolerance: float = 1e-3, step: float = 1e-3) -> GradCheckReport:
    """Compare tape gradients of scalar-valued ``f`` against central differences.

    ``xs`` is a Tensor or list of Tensors; every element of every input is
    perturbed by ``step``. Relative error is guarded by max(|a|, |n|, 1).
    """
    if isinstance(xs, Tensor):
        xs = [xs]
    for x in xs:
        x.requires_grad = True
        x.zero_grad()
    with Tape() as tape:
        out = f(*xs)
        tape.backward(out)
    analytic = []
    for x in xs:
        if x.grad is None:
            raise ValueError("input did not receive a gradient")
        if not np.isfinite(x.grad).all():
            raise NumericalError("NaN/Inf in tape gradient")
        analytic.append(x.grad.copy())

    worst = (0.0, 0, ())
    for i, x in enumerate(xs):
        flat = x.data.reshape(-1)
        num = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            fp = float(f(*xs).data)
            flat[j] = orig - step
            fm = float(f(*xs).data)
            flat[j] = orig
            num[j] = (fp - fm) / (2.0 * step)
        if not np.isfinite(num).all():
            raise NumericalError("NaN/Inf in numeric gradient")
        a = analytic[i].reshape(-1)
        rel = np.abs(a - num) / np.maximum(np.maximum(np.abs(a), np.abs(num)), 1.0)
        j = int(np.argmax(rel))
        if rel[j] > worst[0]:
            worst = (float(rel[j]), i, np.unravel_index(j, x.data.shape))
    return GradCheckReport(worst[0], worst[1], worst[2], worst[0] < tolerance)


# ---------------------------------------------------------------------------
# named parameters: layouts
# ---------------------------------------------------------------------------


def normal_init(fan_in: int):
    """An init of standard normal draws divided by sqrt(fan_in)."""
    return lambda rng, shape: rng.standard_normal(shape).astype(np.float32) / math.sqrt(fan_in)


def make_params(rng: np.random.Generator, layout) -> dict[str, Tensor]:
    """One parameter per (name, shape, init) entry of ``layout``, made in its
    order. An init is a constant to fill the shape with, or a function of
    (rng, shape) that returns the float32 values."""
    return {name: param(init(rng, shape) if callable(init)
                        else np.full(shape, init, dtype=np.float32))
            for name, shape, init in layout}


def prefixed(prefix: str, layout):
    """The entries of ``layout`` with every name put under ``prefix.``."""
    return ((f"{prefix}.{name}", shape, init) for name, shape, init in layout)


def sub_params(params: dict[str, Tensor], prefix: str) -> dict[str, Tensor]:
    """The entries named ``prefix.*``, with ``prefix.`` stripped."""
    head = prefix + "."
    return {name[len(head):]: t for name, t in params.items() if name.startswith(head)}
