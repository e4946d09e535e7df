"""Locality-preserving scan orders over (T, H, W) spatiotemporal cuboids.

A scan order is a bijection between the N = T*H*W voxels of a cuboid and the
positions of a 1D sequence. The Hilbert-style orders keep voxels that are
adjacent in space or time close together in the sequence; raster, Z-order and
Peano orders are provided as baselines with progressively weaker locality.
Every generator returns the linear voxel indices in visit order as a
read-only int64 array, and ``routes`` stacks an order's routes into one
read-only [N, R] table.

Linear index convention throughout: ``t*H*W + h*W + w``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Most cells, T*H*W, one order may visit. No order, route table or locality
# score peaks above about 80 bytes a cell, so work within the budget stays
# under about 340 MB; dims beyond it are refused before any allocation.
MAX_CELLS = 1 << 22


def check_dims(dims) -> tuple[int, int, int]:
    """(T, H, W) as ints; a ValueError unless each is >= 1 and T*H*W is
    within ``MAX_CELLS``."""
    t, h, w = (int(d) for d in dims)
    if min(t, h, w) < 1:
        raise ValueError(f"all dims must be >= 1, got {(t, h, w)}")
    if t * h * w > MAX_CELLS:
        raise ValueError(f"dims {(t, h, w)} hold {t * h * w} cells, "
                         f"over the budget of {MAX_CELLS}")
    return t, h, w


def _frozen(lin: np.ndarray) -> np.ndarray:
    lin.setflags(write=False)
    return lin


# ---------------------------------------------------------------------------
# generalized Hilbert curve
#
# After J. Cerveny's generalized Hilbert ("gilbert") curve. An axis is one
# (signed linear stride, extent) pair and a cell is its linear index, so a
# sub-cuboid is its entry index p plus one axis per dimension, major first.
# A cuboid entered at p is exited at the far end of its major axis a, at
# p + (|a|-1)*stride(a); the body is split into two or three sub-cuboids whose
# entry/exit cells chain with unit steps. A corner-to-far-corner unit-step path
# only exists when |a| is even or the product of the other extents is odd, so
# the split sizes are chosen to keep every child on the feasible side; thin
# slabs degrade to serpentine fills. Each generator yields runs of indices:
# ranges along one axis, and the 2x2 serpentine and 2x2x2 octant tuples. The
# top-level call has no exit constraint and peels a final 1-thick slab off
# the major axis when the requested shape itself is parity-infeasible.
# ---------------------------------------------------------------------------


def _even_half(n: int) -> int:
    # even split size in [2, n-1], as balanced as possible; needs n >= 3
    k = n // 2
    if k % 2:
        k = k + 1 if k + 1 <= n - 1 else k - 1
    return k


def _run(p: int, s: int, n: int) -> range:
    return range(p, p + n * s, s)


def _gen2(p, a, b):
    # 2D rect entered at p, exit at the far end of a; needs |a| even or |b| odd
    (sa, w), (sb, h) = a, b
    if h == 1:
        yield _run(p, *a)
    elif w == 1:
        yield _run(p, *b)
    elif w == 2:
        # U-turn: up the first column, down the second
        yield _run(p, *b)
        yield _run(p + sa + (h - 1) * sb, -sb, h)
    elif h == 2:
        # serpentine over column pairs (w even here by feasibility)
        for q in range(p, p + (w - 1) * sa, 2 * sa):
            yield q, q + sb, q + sb + sa, q + sa
    elif 2 * w > 3 * h:
        # wide: split the major axis only
        w2 = _even_half(w) if h % 2 == 0 else w // 2
        yield from _gen2(p, (sa, w2), b)
        yield from _gen2(p + w2 * sa, (sa, w - w2), b)
    else:
        w2, h2 = w // 2, _even_half(h)
        yield from _gen2(p, (sb, h2), (sa, w2))
        yield from _gen2(p + h2 * sb, a, (sb, h - h2))
        yield from _gen2(p + (w - 1) * sa + (h2 - 1) * sb, (-sb, h2), (-sa, w - w2))


_OCTANT_PATH = ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1),
                (1, 0, 1), (1, 1, 1), (1, 1, 0), (1, 0, 0))


def _gen3(p, a, b, c):
    # cuboid entered at p, exit at the far end of a; needs |a| even or |b||c| odd
    (sa, w), (sb, h), (sc, d) = a, b, c
    if h == 1:
        yield from _gen2(p, a, c)
    elif d == 1:
        yield from _gen2(p, a, b)
    elif w == h == d == 2:
        yield tuple(p + i * sa + j * sb + k * sc for i, j, k in _OCTANT_PATH)
    elif 2 * w > 3 * h and 2 * w > 3 * d:
        # wide: split the major axis only; even first part keeps both halves feasible
        w2 = _even_half(w)
        yield from _gen3(p, (sa, w2), b, c)
        yield from _gen3(p + w2 * sa, (sa, w - w2), b, c)
    elif d == 2 or (h != 2 and h >= d):
        # split the larger of b/c; an even-size first part needs extent >= 3
        w2, h2 = w // 2, _even_half(h)
        yield from _gen3(p, (sb, h2), c, (sa, w2))
        yield from _gen3(p + h2 * sb, a, (sb, h - h2), c)
        yield from _gen3(p + (w - 1) * sa + (h2 - 1) * sb, (-sb, h2), c, (-sa, w - w2))
    else:
        w2, d2 = w // 2, _even_half(d)
        yield from _gen3(p, (sc, d2), (sa, w2), b)
        yield from _gen3(p + d2 * sc, a, b, (sc, d - d2))
        yield from _gen3(p + (w - 1) * sa + (d2 - 1) * sc, (-sc, d2), (-sa, w - w2), b)


def _peel(p, axes):
    # top-level path over the axes of extent > 1, major first, with no exit
    # constraint: an odd major over an even cross-section recurses on all but
    # its last slice, then walks the final 1-thick slab the same way
    if len(axes) < 2:
        yield _run(p, *axes[0]) if axes else (p,)
        return
    (s, n), *rest = axes
    gen = _gen2 if len(axes) == 2 else _gen3
    if n % 2 == 0 or math.prod(m for _, m in rest) % 2 == 1:
        yield from gen(p, *axes)
    else:
        yield from gen(p, (s, n - 1), *rest)
        yield from _peel(p + (n - 1) * s, rest)


def gilbert3d(dims, axis_priority=(0, 1, 2)) -> np.ndarray:
    """Generalized Hilbert order over ``dims`` = (T, H, W).

    ``axis_priority`` permutes which axis the recursion treats as its major
    traversal direction: (0, 1, 2) walks time first, (1, 2, 0) walks the
    spatial plane first. Consecutive cells always differ by exactly 1 in one
    axis, for arbitrary (non power-of-two) dims.
    """
    t, h, w = check_dims(dims)
    if sorted(axis_priority) != [0, 1, 2]:
        raise ValueError(f"axis_priority must permute (0,1,2), got {axis_priority}")
    axes = ((h * w, t), (w, h), (1, w))
    runs = _peel(0, [axes[i] for i in axis_priority if axes[i][1] > 1])
    return _frozen(np.fromiter(itertools.chain.from_iterable(runs), np.int64, t * h * w))


def raster(dims) -> np.ndarray:
    """Identity order: (t, h, w) lexicographic."""
    t, h, w = check_dims(dims)
    return _frozen(np.arange(t * h * w, dtype=np.int64))


def zorder(dims) -> np.ndarray:
    """Morton order with per-axis bit budgets ceil(log2(dim)).

    Each cell's code interleaves its coordinates' bits LSB-first cycling w, h,
    t (fastest axis gets the least significant bit, matching raster); an axis
    whose bits run out drops out of the cycle. The cells are returned sorted
    by code, so the order is a bijection for non power-of-two dims.
    """
    t, h, w = check_dims(dims)
    bits = [(x - 1).bit_length() for x in (t, h, w)]
    parts = [np.zeros(x, dtype=np.int64) for x in (t, h, w)]  # each axis's code bits
    pos = 0
    for level in range(max(bits)):
        for ax in (2, 1, 0):
            if level < bits[ax]:
                parts[ax] |= (np.arange(len(parts[ax])) >> level & 1) << pos
                pos += 1
    codes = parts[0][:, None, None] | parts[1][:, None] | parts[2]
    return _frozen(np.argsort(codes, axis=None))


def peano(dims) -> np.ndarray:
    """Peano order of the smallest enclosing power-of-3 cube, restricted to
    the cuboid.

    The serpentine base-3 curve: its digit at position p (MSB first, axes
    cycling t, h, w) is the coordinate digit, reflected to 2-digit when the
    earlier digits of the other axes sum to an odd number (a reflected digit
    keeps its parity). The cells are returned sorted by curve position, which
    keeps bijectivity but may break step adjacency where the cube overhangs
    the cuboid (acceptable for a baseline).
    """
    t, h, w = check_dims(dims)
    n = 0
    while 3 ** n < max(t, h, w):
        n += 1
    coords = [np.arange(x, dtype=np.int32).reshape(s)
              for x, s in zip((t, h, w), ((-1, 1, 1), (-1, 1), (-1,)))]
    odd = [np.zeros_like(c) for c in coords]  # parity of each axis's digits so far
    keys = np.zeros((2, t, h, w), dtype=np.int64)  # 3**21 < 2**63: 21 digits a key
    for p in range(3 * n):
        ax = p % 3
        digit = coords[ax] // 3 ** (n - 1 - p // 3) % 3
        key = keys[p // 21]
        key *= 3
        key += np.where(odd[ax - 1] ^ odd[ax - 2], 2 - digit, digit)
        odd[ax] = odd[ax] ^ (digit & 1)
    return _frozen(np.lexsort((keys[1].ravel(), keys[0].ravel())))


# scan kind -> the generator of its order over dims (T, H, W)
ORDERS = {
    "raster": raster,
    "zorder": zorder,
    "peano": peano,
    "hilbert_spatial_first": lambda dims: gilbert3d(dims, (1, 2, 0)),   # H major, then W, then T
    "hilbert_temporal_first": lambda dims: gilbert3d(dims, (0, 1, 2)),  # T major, then H, then W
}
KINDS = tuple(ORDERS)


def make_order(kind: str, dims) -> np.ndarray:
    """Build a scan order by kind name."""
    if kind not in ORDERS:
        raise ValueError(f"unknown scan kind {kind!r}")
    return ORDERS[kind](dims)


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------


def _rotated(kind: str, dims) -> np.ndarray:
    """Regenerate the order on the 90-degree rotated spatial grid and map the
    visited cells back to original coordinates."""
    t, h, w = dims
    lin = make_order(kind, (t, w, h))
    # rotated cell (t, a, b) corresponds to original (h, w) = (b, W-1-a)
    rt = lin // (w * h)
    ra = (lin % (w * h)) // h
    rb = lin % h
    return rt * h * w + rb * w + (w - 1 - ra)


def routes(kind: str, dims, n_routes: int) -> np.ndarray:
    """The 1, 2 or 4 scan routes of ``kind`` over ``dims`` as one read-only
    [N, R] table; column r lists the voxels route r visits, in order.

    Column 2k+1 is the exact reversal of column 2k; columns 2-3 are the order
    regenerated on a 90-degree-rotated spatial grid.
    """
    if n_routes not in (1, 2, 4):
        raise ValueError(f"n_routes must be 1, 2 or 4, got {n_routes}")
    orders = [make_order(kind, dims)] + ([_rotated(kind, dims)] if n_routes == 4 else [])
    table = np.stack([c for o in orders for c in (o, o[::-1])][:n_routes], axis=1)
    return _frozen(table)


# ---------------------------------------------------------------------------
# locality statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalityStats:
    """Gap statistics over all 6-neighbor voxel pairs.

    A pair's gap is |position(i) - position(j)| with position = rank in the
    forward sequence. The gap distribution is heavy-tailed (a handful of
    region-boundary pairs sit nearly a whole curve apart), so ``mean_gap`` is
    the geometric mean, which tracks the typical gap; the tail-dominated
    arithmetic mean and the median are reported alongside.
    """

    mean_gap: float
    arithmetic_mean_gap: float
    median_gap: float
    max_gap: int
    axis_mean_gaps: tuple[float, float, float]  # geometric, along (t, h, w)


def locality_score(order: np.ndarray, dims) -> LocalityStats:
    """Gap statistics of the visit ``order`` over the ``dims`` cuboid."""
    rank = np.argsort(order).reshape(dims)
    per_axis = [np.abs(np.diff(rank, axis=ax)).ravel() for ax in range(3)]
    gaps = np.concatenate(per_axis) if order.size > 1 else np.array([], dtype=np.int64)
    if gaps.size == 0:
        return LocalityStats(0.0, 0.0, 0.0, 0, (0.0, 0.0, 0.0))
    axis_means = tuple(
        float(np.exp(np.log(g).mean())) if g.size else 0.0 for g in per_axis
    )
    return LocalityStats(
        mean_gap=float(np.exp(np.log(gaps).mean())),
        arithmetic_mean_gap=float(gaps.mean()),
        median_gap=float(np.median(gaps)),
        max_gap=int(gaps.max()),
        axis_mean_gaps=axis_means,
    )


# ---------------------------------------------------------------------------
# golden-file format: one line header "kind T H W direction", then N indices
# ---------------------------------------------------------------------------


def write_orders(path, kind: str, dims, table: np.ndarray) -> None:
    """One header and one visit line per column of the route ``table``; odd
    columns are the reversals, so their direction is 'backward'."""
    t, h, w = dims
    with open(path, "w", encoding="utf-8") as f:
        for r in range(table.shape[1]):
            f.write(f"{kind} {t} {h} {w} {('forward', 'backward')[r % 2]}\n")
            f.write(" ".join(str(int(i)) for i in table[:, r]) + "\n")
