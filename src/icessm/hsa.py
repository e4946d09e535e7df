"""Hybrid shuffle attention: fuse two sequence features with a frequency one.

Per-channel descriptors of the three inputs are pooled, interleaved into
triples (one triple per channel), mixed by a group convolution of group size
three, squashed by a sigmoid, and de-interleaved into three per-channel
weight vectors that scale their respective inputs. Sum and channel-gate
fusers are kept as ablation baselines.
"""

from __future__ import annotations

import math

import numpy as np

from . import nd
from .nd import Tensor


def shuffle(v: Tensor) -> Tensor:
    """[a1..aD, b1..bD, c1..cD] -> [a1,b1,c1, a2,b2,c2, ...]."""
    n = v.shape[0]
    if v.ndim != 1 or n % 3:
        raise ValueError(f"expected a flat 3*D vector, got shape {v.shape}")
    d = n // 3
    return nd.reshape(nd.moveaxis(nd.reshape(v, (3, d)), 0, 1), (n,))


def unshuffle(v: Tensor) -> Tensor:
    """Exact inverse of :func:`shuffle`."""
    n = v.shape[0]
    if v.ndim != 1 or n % 3:
        raise ValueError(f"expected a flat 3*D vector, got shape {v.shape}")
    d = n // 3
    return nd.reshape(nd.moveaxis(nd.reshape(v, (d, 3)), 0, 1), (n,))


def init_hsa_params(rng: np.random.Generator, d: int) -> dict[str, Tensor]:
    """Group-conv mixing over shuffled channel triples: ``weights`` [D, 3, 3]
    and ``bias`` [3*D]."""
    # small weights keep the pre-sigmoid logits near 0, so fusion starts close
    # to an even (x1+x2+xf)/2 blend
    return {
        "weights": nd.param(rng.standard_normal((d, 3, 3)).astype(np.float32) / math.sqrt(3)),
        "bias": nd.param(np.zeros(3 * d, dtype=np.float32)),
    }


def _pool_channels(x: Tensor) -> Tensor:
    """[T, D, H, W] -> per-channel mean over time and space, [D]."""
    return nd.mean(x, axis=(0, 2, 3))


def hsa_fuse(x1: Tensor, x2: Tensor, xf: Tensor, p: dict[str, Tensor],
             return_weights: bool = False):
    """Fuse three [T, D, H, W] features; weights broadcast over T, H and W."""
    if x1.shape != x2.shape or x1.shape != xf.shape:
        raise ValueError(f"input shapes differ: {x1.shape}, {x2.shape}, {xf.shape}")
    t, d, h, w = x1.shape
    if d == 0:
        raise ValueError("zero channels")

    pooled = nd.concat([_pool_channels(x1), _pool_channels(x2), _pool_channels(xf)])
    mixed = nd.sigmoid(nd.group_conv1d(shuffle(pooled), p["weights"], p["bias"]))
    a1, a2, af = nd.chunk(unshuffle(mixed), 3)

    def scale(a: Tensor, x: Tensor) -> Tensor:
        return nd.mul(nd.reshape(a, (1, d, 1, 1)), x)

    y = nd.add(nd.add(scale(a1, x1), scale(a2, x2)), scale(af, xf))
    if return_weights:
        return y, (a1, a2, af)
    return y


def sum_fuse(x1: Tensor, x2: Tensor, xf: Tensor) -> Tensor:
    if x1.shape != x2.shape or x1.shape != xf.shape:
        raise ValueError(f"input shapes differ: {x1.shape}, {x2.shape}, {xf.shape}")
    return nd.add(nd.add(x1, x2), xf)


def init_ca_gate_params(rng: np.random.Generator, d: int) -> dict[str, Tensor]:
    """Per-input channel-attention gates for the CAGate ablation: ``w0``..``w2``
    [D, D] and ``b0``..``b2`` [D]."""
    weights = [nd.param(rng.standard_normal((d, d)).astype(np.float32) / math.sqrt(d))
               for _ in range(3)]
    params = {}
    for i, w in enumerate(weights):
        params[f"w{i}"] = w
        params[f"b{i}"] = nd.param(np.zeros(d, dtype=np.float32))
    return params


def ca_gate_fuse(x1: Tensor, x2: Tensor, xf: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Per-input gate (pool -> linear -> sigmoid -> scale), then sum."""
    if x1.shape != x2.shape or x1.shape != xf.shape:
        raise ValueError(f"input shapes differ: {x1.shape}, {x2.shape}, {xf.shape}")
    d = x1.shape[1]
    parts = []
    for i, x in enumerate((x1, x2, xf)):
        gate = nd.sigmoid(nd.linear(_pool_channels(x), p[f"w{i}"], p[f"b{i}"]))
        parts.append(nd.mul(nd.reshape(gate, (1, d, 1, 1)), x))
    return nd.add(nd.add(parts[0], parts[1]), parts[2])
