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

CONV_KERNEL = 3  # taps of the causal conv in front of the scan


def ssm_layout(d: int, state_size: int) -> list:
    """(name, shape, init) of one selective scan over D channels: ``a_log``
    [D, S] (A = -exp(a_log)), ``d_skip`` [D], ``w_delta`` [D, 1], ``b_delta``
    [1], ``w_b`` [D, S] and ``w_c`` [D, S]."""
    # the weights multiply by 1/sqrt(d): dividing by sqrt(d) rounds differently
    # unless d is a power of 4, and would change every initial scan weight
    scale = 1.0 / math.sqrt(d)

    def weight(rng, shape):
        return rng.standard_normal(shape).astype(np.float32) * scale

    def a_log(rng, shape):  # made when drawn, so a layout holds nothing sized by S
        return np.tile(np.log(np.arange(1, shape[1] + 1, dtype=np.float32)), (shape[0], 1))

    return [("a_log", (d, state_size), a_log), ("d_skip", (d,), 1.0),
            ("w_delta", (d, 1), weight),
            ("b_delta", (1,), math.log(math.expm1(0.1))),  # softplus(b_delta) == 0.1 at init
            ("w_b", (d, state_size), weight), ("w_c", (d, state_size), weight)]


def selective_scan(x: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Scan x[L, D], or all the sequences of x[L, ..., D] at once, along axis
    0. A backward scan is a reversed route (``scan_routes``)."""
    length, d = x.shape[0], x.shape[-1]
    if length < 1:
        raise ValueError("sequence must have at least one step")
    rows = nd.reshape(x, (-1, d))                        # [L*R, D], one matmul per projection
    seq = nd.reshape(rows, (length, -1, d))              # [L, R, D]
    r = seq.shape[1]
    dt = nd.softplus(nd.add(nd.matmul(rows, p["w_delta"]), p["b_delta"]))
    b = nd.reshape(nd.matmul(rows, p["w_b"]), (length, r, -1))
    c = nd.reshape(nd.matmul(rows, p["w_c"]), (length, r, -1))
    a = nd.neg(nd.exp(p["a_log"]))                       # [D, S]
    y = nd.ssm_recurrence(seq, nd.reshape(dt, (length, r)), a, b, c)
    return nd.reshape(nd.add(y, nd.mul(seq, p["d_skip"])), x.shape)


def volume_to_seq(v: Tensor) -> Tensor:
    """[..., T, C, H, W] -> [T*H*W, ..., C]: each leading index's volume in
    raster order."""
    *lead, t, c, h, w = v.shape
    n = len(lead)
    moved = nd.moveaxis(v, (*range(n), n + 1), tuple(range(3, v.ndim)))
    return nd.reshape(moved, (t * h * w, *lead, c))


def seq_to_volume(seq: Tensor, dims: tuple[int, int, int]) -> Tensor:
    """Inverse of :func:`volume_to_seq`."""
    t, h, w = dims
    *lead, c = seq.shape[1:]
    n = len(lead)
    vol = nd.reshape(seq, (t, h, w, *lead, c))
    return nd.moveaxis(vol, tuple(range(3, vol.ndim)), (*range(n), n + 1))


def scan_routes(seq: Tensor, table: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """Scan the raster-ordered sequences seq[L, ..., C] along every route of
    the [L, R] route table (``sfc.routes``) in one scan call; returns
    [L, R, ..., C] in raster order, route r at index r.

    The R routes of the N sequences are one [L, R*N] gather by the table, and
    one gather by its rank back to raster order, around one selective scan.
    Route fusion happens downstream. A non-finite scan state is reported with
    its route and its sequence (the sample, for a batch).
    """
    length, *lead, c = seq.shape
    if table.ndim != 2 or len(table) != length:
        raise ValueError(f"need a route table of {length} voxels, got shape {table.shape}")
    rank = np.empty_like(table)                              # [L, R]: step of voxel l on route r
    np.put_along_axis(rank, table, np.arange(length)[:, None], axis=0)
    flat = nd.reshape(seq, (length, 1, -1, c))
    n = flat.shape[2]
    try:
        y = selective_scan(nd.gather(flat, table), p)       # [L, R, N, C]
    except nd.ScanStateError as e:
        raise nd.NumericalError(f"{e} (route {e.column // n}, sample {e.column % n})") from e
    return nd.reshape(nd.gather(y, rank), (length, table.shape[1], *lead, c))


def mamba_layout(d: int, state_size: int) -> list:
    """(name, shape, init) of the gated sequence block (LN -> expand ->
    causal conv -> scan -> gate -> out), in draw order: ``ln_gamma``/``ln_beta``
    [D], ``w_in``/``w_gate`` [D, 2D] with biases [2D], ``conv_k`` [2D,
    CONV_KERNEL], ``conv_b`` [2D], the scan over 2D channels under ``ssm.*``,
    then ``w_out`` [2D, D] and ``b_out`` [D]. The checkpoint lists them in
    this order too (``model.param_layout``)."""
    d2 = 2 * d
    return [("ln_gamma", (d,), 1.0), ("ln_beta", (d,), 0.0),
            ("w_in", (d, d2), nd.normal_init(d)), ("b_in", (d2,), 0.0),
            ("conv_k", (d2, CONV_KERNEL), nd.normal_init(CONV_KERNEL)), ("conv_b", (d2,), 0.0),
            ("w_gate", (d, d2), nd.normal_init(d)), ("b_gate", (d2,), 0.0),
            *nd.prefixed("ssm", ssm_layout(d2, state_size)),
            ("w_out", (d2, d), nd.normal_init(d2)), ("b_out", (d,), 0.0)]


def mamba_block(x_seq: Tensor, table: np.ndarray, p: dict[str, Tensor]) -> Tensor:
    """Process raster-ordered sequences x_seq[L, ..., D], one per leading
    index (sample), along the routes of the [L, R] route ``table``; returns
    [L, R, ..., D], route r at index r.

    The inner width is twice the input width; the same scan, gate and output
    parameters serve every route and sample, and all of them run through them
    together.
    """
    length, *lead, _ = x_seq.shape
    xn = nd.layernorm(x_seq, p["ln_gamma"], p["ln_beta"])
    inner = nd.silu(nd.conv1d_depthwise(nd.linear(xn, p["w_in"], p["b_in"]),
                                        p["conv_k"], p["conv_b"]))
    routed = scan_routes(inner, table, nd.sub_params(p, "ssm"))       # [L, R, ..., 2D]
    gate = nd.silu(nd.linear(xn, p["w_gate"], p["b_gate"]))
    gated = nd.mul(routed, nd.reshape(gate, (length, 1, *lead, gate.shape[-1])))
    return nd.linear(gated, p["w_out"], p["b_out"])
