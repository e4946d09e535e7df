"""Selective state-space scan over permuted spatiotemporal sequences.

The scan is the diagonal input-dependent recurrence

    h_l = exp(dt_l * A) * h_{l-1} + dt_l * B_l * x_l,   y_l = <C_l, h_l> + D * x_l

with dt, B, C projected from the input at every step. A = -exp(a_log) stays
strictly negative, and dt = softplus(...) strictly positive, so the decay
factors sit in (0, 1) and the state cannot blow up on bounded input.
"""

from __future__ import annotations

import math

import numpy as np

from . import nd
from .nd import Tensor
from .sfc import ScanOrder


def init_ssm_params(rng: np.random.Generator, d: int,
                    state_size: int = 8) -> dict[str, Tensor]:
    """Parameters of one selective scan over D channels: ``a_log`` [D, S]
    (A = -exp(a_log)), ``d_skip`` [D], ``w_delta`` [D, 1], ``b_delta`` [1],
    ``w_b`` [D, S] and ``w_c`` [D, S]."""
    scale = 1.0 / math.sqrt(d)
    a_log = np.tile(np.log(np.arange(1, state_size + 1, dtype=np.float32)), (d, 1))
    return {
        "a_log": nd.param(a_log),
        "d_skip": nd.param(np.ones(d, dtype=np.float32)),
        "w_delta": nd.param(rng.standard_normal((d, 1)).astype(np.float32) * scale),
        # softplus(b_delta) == 0.1 at init
        "b_delta": nd.param(np.full(1, math.log(math.expm1(0.1)), dtype=np.float32)),
        "w_b": nd.param(rng.standard_normal((d, state_size)).astype(np.float32) * scale),
        "w_c": nd.param(rng.standard_normal((d, state_size)).astype(np.float32) * scale),
    }


def selective_scan(x: Tensor, p: dict[str, Tensor],
                   direction: str = "forward") -> Tensor:
    """Scan x[L, D], or the R sequences of x[L, R, D] at once, along axis 0;
    'backward' processes the reversed sequences and re-reverses the output."""
    length, d = x.shape[0], x.shape[-1]
    if length < 1:
        raise ValueError("sequence must have at least one step")
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    backward = direction == "backward"
    if backward:
        x = nd.index(x, np.s_[::-1])
    rows = nd.reshape(x, (-1, d))                        # [L*R, D], one matmul per projection
    seq = nd.reshape(rows, (length, -1, d))              # [L, R, D]
    r = seq.shape[1]
    dt = nd.softplus(nd.add(nd.matmul(rows, p["w_delta"]), p["b_delta"]))
    b = nd.reshape(nd.matmul(rows, p["w_b"]), (length, r, -1))
    c = nd.reshape(nd.matmul(rows, p["w_c"]), (length, r, -1))
    a = nd.neg(nd.exp(p["a_log"]))                       # [D, S]
    y = nd.ssm_recurrence(seq, nd.reshape(dt, (length, r)), a, b, c)
    y = nd.reshape(nd.add(y, nd.mul(seq, p["d_skip"])), x.shape)
    return nd.index(y, np.s_[::-1]) if backward else y


def volume_to_seq(v: Tensor) -> Tensor:
    """[T, C, H, W] -> [T*H*W, C] in raster order."""
    t, c, h, w = v.shape
    return nd.reshape(nd.moveaxis(v, 1, -1), (t * h * w, c))


def seq_to_volume(seq: Tensor, dims: tuple[int, int, int]) -> Tensor:
    """Inverse of :func:`volume_to_seq`."""
    t, h, w = dims
    c = seq.shape[1]
    return nd.moveaxis(nd.reshape(seq, (t, h, w, c)), -1, 1)


def hilbert_ssm(v: Tensor, orders: list[ScanOrder],
                p: dict[str, Tensor]) -> Tensor:
    """Scan a [T, C, H, W] volume along every route in one scan call; returns
    the [T*H*W, R, C] outputs in raster order, route r in column r.

    Route fusion happens downstream, the outputs are not averaged here.
    """
    if not orders:
        raise ValueError("need at least one scan order")
    t, c, h, w = v.shape
    for o in orders:
        if o.dims != (t, h, w):
            raise ValueError(f"order dims {o.dims} do not match volume {(t, h, w)}")
    visit = np.stack([o.forward for o in orders], axis=1)   # [L, R]: voxel at step l of route r
    flat = nd.reshape(volume_to_seq(v), (t * h * w, 1, c))
    y = selective_scan(nd.gather(flat, visit), p)
    return nd.gather(y, np.stack([o.inverse() for o in orders], axis=1))


def init_mamba_params(rng: np.random.Generator, d: int, state_size: int = 8,
                      conv_kernel: int = 3) -> dict[str, Tensor]:
    """Gated sequence block (LN -> expand -> causal conv -> scan -> gate -> out):
    ``ln_gamma``/``ln_beta`` [D], ``w_in``/``w_gate`` [D, 2D] with biases
    [2D], ``conv_k`` [2D, k], ``conv_b`` [2D], ``w_out`` [2D, D], ``b_out``
    [D], and the scan over 2D channels under ``ssm.*``."""
    d2 = 2 * d

    def lin(din, dout):
        return nd.param(rng.standard_normal((din, dout)).astype(np.float32)
                        / math.sqrt(din))

    def zeros(n):
        return nd.param(np.zeros(n, dtype=np.float32))

    # rng draws go w_in, conv_k, w_gate, scan, w_out; the names keep checkpoint order
    w_in = lin(d, d2)
    conv_k = nd.param(rng.standard_normal((d2, conv_kernel)).astype(np.float32)
                      / math.sqrt(conv_kernel))
    w_gate = lin(d, d2)
    scan = init_ssm_params(rng, d2, state_size)
    return {
        "ln_gamma": nd.param(np.ones(d, dtype=np.float32)), "ln_beta": zeros(d),
        "w_in": w_in, "b_in": zeros(d2),
        "conv_k": conv_k, "conv_b": zeros(d2),
        "w_gate": w_gate, "b_gate": zeros(d2),
        "w_out": lin(d2, d), "b_out": zeros(d),
        **nd.nest_params("ssm", scan),
    }


def mamba_block(x_seq: Tensor, orders: list[ScanOrder],
                p: dict[str, Tensor]) -> list[Tensor]:
    """Process a raster-ordered [L, D] sequence; returns one [L, D] per route.

    The inner width is twice the input width; the same scan, gate and output
    parameters serve every route, and all routes run through them together.
    """
    length, d = x_seq.shape
    dims = orders[0].dims
    if dims[0] * dims[1] * dims[2] != length:
        raise ValueError(f"order dims {dims} incompatible with sequence length {length}")

    xn = nd.layernorm(x_seq, p["ln_gamma"], p["ln_beta"])
    inner = nd.silu(nd.conv1d_depthwise(nd.linear(xn, p["w_in"], p["b_in"]),
                                        p["conv_k"], p["conv_b"]))
    routed = hilbert_ssm(seq_to_volume(inner, dims), orders, nd.sub_params(p, "ssm"))
    gate = nd.silu(nd.linear(xn, p["w_gate"], p["b_gate"]))
    r = len(orders)
    gated = nd.mul(routed, nd.reshape(gate, (length, 1, 2 * d)))
    out = nd.linear(nd.reshape(gated, (length * r, 2 * d)), p["w_out"], p["b_out"])
    return [nd.index(out, np.s_[k::r]) for k in range(r)]   # row l*R + k is route k
