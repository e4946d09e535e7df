"""Hybrid shuffle attention: fuse two sequence features with a frequency one.

Per-channel descriptors of the three inputs are pooled, interleaved into
triples (one triple per channel), mixed by a group convolution of group size
three, squashed by a sigmoid, and de-interleaved into three per-channel
weight vectors that scale their respective inputs. Sum and channel-gate
fusers are kept as ablation baselines.
"""

from __future__ import annotations

from . import nd
from .nd import Tensor


def _triples(v: Tensor) -> tuple[list[int], int]:
    """The leading shape of v and the length 3*D of its last axis."""
    *lead, n = v.shape
    if n % 3:
        raise ValueError(f"expected 3*D vectors on the last axis, got shape {v.shape}")
    return lead, n


def shuffle(v: Tensor) -> Tensor:
    """[a1..aD, b1..bD, c1..cD] -> [a1,b1,c1, a2,b2,c2, ...] along the last axis."""
    lead, n = _triples(v)
    return nd.reshape(nd.moveaxis(nd.reshape(v, (*lead, 3, n // 3)), -2, -1), (*lead, n))


def unshuffle(v: Tensor) -> Tensor:
    """Exact inverse of :func:`shuffle`."""
    lead, n = _triples(v)
    return nd.reshape(nd.moveaxis(nd.reshape(v, (*lead, n // 3, 3)), -2, -1), (*lead, n))


def hsa_layout(d: int) -> list:
    """(name, shape, init) of the group-conv mixing over shuffled channel
    triples: ``weights`` [D, 3, 3] and ``bias`` [3*D]."""
    # small weights keep the pre-sigmoid logits near 0, so fusion starts close
    # to an even (x1+x2+xf)/2 blend
    return [("weights", (d, 3, 3), nd.normal_init(3)), ("bias", (3 * d,), 0.0)]


def _pool_channels(x: Tensor) -> Tensor:
    """[..., T, D, H, W] -> per-channel mean over time and space, [..., D]."""
    return nd.mean(x, axis=(-4, -2, -1))


def _channel_scale(a: Tensor, x: Tensor) -> Tensor:
    """Scale x[..., T, D, H, W] by the per-channel weights a[..., D]."""
    return nd.mul(nd.reshape(a, (*a.shape[:-1], 1, a.shape[-1], 1, 1)), x)


def hsa_weights(x1: Tensor, x2: Tensor, xf: Tensor, p: dict[str, Tensor]) -> list[Tensor]:
    """The per-channel weights [a1, a2, af], each [..., D] in (0, 1), that
    :func:`hsa_fuse` gives three [..., T, D, H, W] features; every leading
    index (a sample) is pooled on its own."""
    if x1.shape != x2.shape or x1.shape != xf.shape:
        raise ValueError(f"input shapes differ: {x1.shape}, {x2.shape}, {xf.shape}")
    if x1.shape[-3] == 0:
        raise ValueError("zero channels")
    pooled = nd.concat([_pool_channels(x1), _pool_channels(x2), _pool_channels(xf)], axis=-1)
    mixed = nd.sigmoid(nd.group_conv1d(shuffle(pooled), p["weights"], p["bias"]))
    return nd.chunk(unshuffle(mixed), 3, axis=-1)


def hsa_fuse(x1: Tensor, x2: Tensor, xf: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Fuse three [..., T, D, H, W] features by the :func:`hsa_weights` of
    each leading index; the weights broadcast over T, H and W."""
    a1, a2, af = hsa_weights(x1, x2, xf, p)
    return nd.add(nd.add(_channel_scale(a1, x1), _channel_scale(a2, x2)), _channel_scale(af, xf))


def sum_fuse(x1: Tensor, x2: Tensor, xf: Tensor) -> Tensor:
    if x1.shape != x2.shape or x1.shape != xf.shape:
        raise ValueError(f"input shapes differ: {x1.shape}, {x2.shape}, {xf.shape}")
    return nd.add(nd.add(x1, x2), xf)


def ca_gate_layout(d: int) -> list:
    """(name, shape, init) of the per-input channel-attention gates of the
    CAGate ablation: ``w0``, ``b0``, ``w1``, ``b1``, ``w2``, ``b2``, each
    weight [D, D] and each bias [D]."""
    return [entry for i in range(3)
            for entry in ((f"w{i}", (d, d), nd.normal_init(d)), (f"b{i}", (d,), 0.0))]


def ca_gate_fuse(x1: Tensor, x2: Tensor, xf: Tensor, p: dict[str, Tensor]) -> Tensor:
    """Per-input gate (pool -> linear -> sigmoid -> scale), then sum; every
    leading index of [..., T, D, H, W] is gated on its own."""
    if x1.shape != x2.shape or x1.shape != xf.shape:
        raise ValueError(f"input shapes differ: {x1.shape}, {x2.shape}, {xf.shape}")
    parts = [_channel_scale(nd.sigmoid(nd.linear(_pool_channels(x), p[f"w{i}"], p[f"b{i}"])), x)
             for i, x in enumerate((x1, x2, xf))]
    return nd.add(nd.add(parts[0], parts[1]), parts[2])


# fusion name -> (layout of its params for D channels, fuser of (x1, x2, xf, params));
# each fuser is looked up by name at call time, so perfbench's spans on this module see it
FUSERS = {
    "hsa": (hsa_layout, lambda x1, x2, xf, p: hsa_fuse(x1, x2, xf, p)),
    "sum": (lambda d: [], lambda x1, x2, xf, p: sum_fuse(x1, x2, xf)),
    "cagate": (ca_gate_layout, lambda x1, x2, xf, p: ca_gate_fuse(x1, x2, xf, p)),
}
