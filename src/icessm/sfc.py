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

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("raster", "zorder", "peano", "hilbert_spatial_first", "hilbert_temporal_first")

# axis priority handed to the generalized-Hilbert generator, per kind
_HILBERT_PRIORITY = {
    "hilbert_temporal_first": (0, 1, 2),  # T major, then H, then W
    "hilbert_spatial_first": (1, 2, 0),   # H major, then W, then T
}


# Most cells one order may enumerate: T*H*W, Peano's enclosing power-of-three
# cube or Z-order's enclosing power-of-two box. No enumeration, route table or
# locality score peaks above about 105 bytes a cell, so work within the budget
# stays under about 440 MB; dims beyond it are refused before any allocation.
MAX_CELLS = 1 << 22


def _check_cells(dims, cells: int) -> None:
    if cells > MAX_CELLS:
        raise ValueError(f"dims {dims} would enumerate {cells} cells, "
                         f"over the budget of {MAX_CELLS}")


def check_dims(dims) -> tuple[int, int, int]:
    """(T, H, W) as ints; a ValueError unless each is >= 1 and T*H*W is
    within ``MAX_CELLS``."""
    t, h, w = (int(d) for d in dims)
    if min(t, h, w) < 1:
        raise ValueError(f"all dims must be >= 1, got {(t, h, w)}")
    _check_cells((t, h, w), t * h * w)
    return t, h, w


def _frozen(lin: np.ndarray) -> np.ndarray:
    lin.setflags(write=False)
    return lin


# ---------------------------------------------------------------------------
# generalized Hilbert curve
#
# Recursive three-region construction: a cuboid entered at corner p is exited
# at the far end of its major axis; the body is split into two or three
# sub-cuboids whose entry/exit corners chain with unit steps. A corner-to-far-
# corner unit-step path only exists when |a| is even or |b|*|c| is odd, so the
# split sizes are chosen to keep every child on the feasible side; thin slabs
# degrade to serpentine fills. The top-level call has no exit constraint and
# peels a final 1-thick slab off when the requested shape itself is
# parity-infeasible.
# ---------------------------------------------------------------------------


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def _unit(v):
    return (_sgn(v[0]), _sgn(v[1]), _sgn(v[2]))


def _ext(v) -> int:
    return abs(v[0]) + abs(v[1]) + abs(v[2])


def _add(p, *vs):
    x, y, z = p
    for v in vs:
        x += v[0]
        y += v[1]
        z += v[2]
    return (x, y, z)


def _mul(v, k: int):
    return (v[0] * k, v[1] * k, v[2] * k)


def _neg(v):
    return (-v[0], -v[1], -v[2])


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _even_half(n: int) -> int:
    # even split size in [2, n-1], as balanced as possible; needs n >= 3
    k = n // 2
    if k % 2:
        k = k + 1 if k + 1 <= n - 1 else k - 1
    return k


def _fill(p, a):
    da = _unit(a)
    for _ in range(_ext(a)):
        yield p
        p = _add(p, da)


def _gen2(p, a, b):
    # 2D rect from corner p, exit at p + a - unit(a); needs |a| even or |b| odd
    w, h = _ext(a), _ext(b)
    da, db = _unit(a), _unit(b)

    if h == 1:
        yield from _fill(p, a)
        return
    if w == 1:
        yield from _fill(p, b)
        return
    if w == 2:
        # U-turn: up the first column, down the second
        yield from _fill(p, b)
        yield from _fill(_add(p, da, _mul(db, h - 1)), _neg(b))
        return
    if h == 2:
        # serpentine over column pairs (w even here by feasibility)
        for i in range(w // 2):
            base = _add(p, _mul(da, 2 * i))
            yield base
            yield _add(base, db)
            yield _add(base, db, da)
            yield _add(base, da)
        return

    w2 = w // 2
    if 2 * w > 3 * h:
        # wide: split the major axis only
        if h % 2 == 0:
            w2 = _even_half(w)
        a2 = _mul(da, w2)
        yield from _gen2(p, a2, b)
        yield from _gen2(_add(p, a2), _sub(a, a2), b)
        return

    h2 = _even_half(h)
    a2 = _mul(da, w2)
    b2 = _mul(db, h2)
    yield from _gen2(p, b2, a2)
    yield from _gen2(_add(p, b2), a, _sub(b, b2))
    yield from _gen2(_add(p, _sub(a, da), _sub(b2, db)), _neg(b2), _neg(_sub(a, a2)))


_OCTANT_PATH = ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1),
                (1, 0, 1), (1, 1, 1), (1, 1, 0), (1, 0, 0))


def _gen3(p, a, b, c):
    # cuboid from corner p, exit at p + a - unit(a); needs |a| even or |b||c| odd
    w, h, d = _ext(a), _ext(b), _ext(c)
    da, db, dc = _unit(a), _unit(b), _unit(c)

    if h == 1 and d == 1:
        yield from _fill(p, a)
        return
    if w == 1 and d == 1:
        yield from _fill(p, b)
        return
    if w == 1 and h == 1:
        yield from _fill(p, c)
        return
    if h == 1:
        yield from _gen2(p, a, c)
        return
    if d == 1:
        yield from _gen2(p, a, b)
        return

    if w == 2 and h == 2 and d == 2:
        for (i, j, k) in _OCTANT_PATH:
            yield _add(p, _mul(da, i), _mul(db, j), _mul(dc, k))
        return

    if (2 * w > 3 * h) and (2 * w > 3 * d):
        # wide: split the major axis only; even first part keeps both halves feasible
        w2 = _even_half(w)
        a2 = _mul(da, w2)
        yield from _gen3(p, a2, b, c)
        yield from _gen3(_add(p, a2), _sub(a, a2), b, c)
        return

    w2 = w // 2
    a2 = _mul(da, w2)
    # split the larger of b/c; an even-size first part needs extent >= 3
    split_b = h >= d
    if h == 2:
        split_b = False
    if d == 2:
        split_b = True

    if split_b:
        b2 = _mul(db, _even_half(h))
        yield from _gen3(p, b2, c, a2)
        yield from _gen3(_add(p, b2), a, _sub(b, b2), c)
        yield from _gen3(_add(p, _sub(a, da), _sub(b2, db)),
                         _neg(b2), c, _neg(_sub(a, a2)))
    else:
        c2 = _mul(dc, _even_half(d))
        yield from _gen3(p, c2, a2, b)
        yield from _gen3(_add(p, c2), a, b, _sub(c, c2))
        yield from _gen3(_add(p, _sub(a, da), _sub(c2, dc)),
                         _neg(c2), _neg(_sub(a, a2)), b)


def _top2(p, a, b):
    # top-level 2D path, no exit constraint
    w, h = _ext(a), _ext(b)
    if h == 1:
        yield from _fill(p, a)
        return
    if w == 1:
        yield from _fill(p, b)
        return
    if w % 2 == 0 or h % 2 == 1:
        yield from _gen2(p, a, b)
        return
    a1 = _mul(_unit(a), w - 1)
    last = p
    for q in _gen2(p, a1, b):
        last = q
        yield q
    yield from _fill(_add(last, _unit(a)), b)


def _gilbert_cells(du: int, dv: int, dw: int):
    """Unit-step Hamiltonian path over a du x dv x dw box, major axis first."""
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    dims = (du, dv, dw)
    live = [i for i in range(3) if dims[i] > 1]
    if not live:
        yield (0, 0, 0)
        return
    if len(live) == 1:
        i = live[0]
        yield from _fill((0, 0, 0), _mul(axes[i], dims[i]))
        return
    if len(live) == 2:
        i, j = live
        yield from _top2((0, 0, 0), _mul(axes[i], dims[i]), _mul(axes[j], dims[j]))
        return

    a, b, c = (_mul(axes[i], dims[i]) for i in range(3))
    if du % 2 == 0 or (dv * dw) % 2 == 1:
        yield from _gen3((0, 0, 0), a, b, c)
        return
    # odd major over an even cross-section: recurse on the first du-1 slices,
    # then serpentine the final 1-thick slab
    last = (0, 0, 0)
    for q in _gen3((0, 0, 0), _mul(axes[0], du - 1), b, c):
        last = q
        yield q
    yield from _top2(_add(last, (1, 0, 0)), b, c)


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
    p0, p1, p2 = axis_priority
    d = (t, h, w)
    strides = (h * w, w, 1)
    lin = np.empty(t * h * w, dtype=np.int64)
    s = (strides[p0], strides[p1], strides[p2])
    for i, cell in enumerate(_gilbert_cells(d[p0], d[p1], d[p2])):
        lin[i] = cell[0] * s[0] + cell[1] * s[1] + cell[2] * s[2]
    return _frozen(lin)


def raster(dims) -> np.ndarray:
    """Identity order: (t, h, w) lexicographic."""
    t, h, w = check_dims(dims)
    return _frozen(np.arange(t * h * w, dtype=np.int64))


def zorder(dims) -> np.ndarray:
    """Morton order with per-axis bit budgets ceil(log2(dim)).

    Codes decoding outside the cuboid are skipped, so the result stays a
    bijection for non power-of-two dims. Bits are assigned LSB-first cycling
    w, h, t (fastest axis gets the least significant bit, matching raster).
    """
    t, h, w = check_dims(dims)
    d = (t, h, w)
    bits = [max(1, math.ceil(math.log2(x))) if x > 1 else 0 for x in d]
    total = sum(bits)
    _check_cells(d, 1 << total)

    codes = np.arange(1 << total, dtype=np.int64)
    coords = [np.zeros_like(codes) for _ in range(3)]
    level = [0, 0, 0]
    pos = 0
    k = 0
    while pos < total:
        ax = (2, 1, 0)[k % 3]
        k += 1
        if level[ax] >= bits[ax]:
            continue
        coords[ax] |= ((codes >> pos) & 1) << level[ax]
        level[ax] += 1
        pos += 1
    keep = (coords[0] < t) & (coords[1] < h) & (coords[2] < w)
    return _frozen((coords[0] * h * w + coords[1] * w + coords[2])[keep])


def peano(dims) -> np.ndarray:
    """Peano order on the smallest enclosing power-of-3 cube, compacted.

    The serpentine base-3 curve: digit at position p (MSB first, axes cycling
    t, h, w) is reflected to 2-digit when the sum of all earlier digits of the
    other axes is odd. Compaction drops out-of-range cells, which keeps
    bijectivity but may break step adjacency (acceptable for a baseline).
    """
    t, h, w = check_dims(dims)
    n = 0
    side = 1
    while side < max(t, h, w):
        side *= 3
        n += 1
    _check_cells((t, h, w), side ** 3)

    ndig = 3 * n
    idx = np.arange(side ** 3, dtype=np.int64)
    coords = [np.zeros_like(idx) for _ in range(3)]
    total = np.zeros_like(idx)
    peraxis = [np.zeros_like(idx) for _ in range(3)]
    for p in range(ndig):
        ax = p % 3
        a = idx // 3 ** (ndig - 1 - p) % 3       # base-3 digit p, MSB first
        s = total - peraxis[ax]
        dd = np.where(s % 2 == 1, 2 - a, a)
        coords[ax] += dd * 3 ** (n - 1 - p // 3)
        total += a
        peraxis[ax] += a
    keep = (coords[0] < t) & (coords[1] < h) & (coords[2] < w)
    return _frozen((coords[0] * h * w + coords[1] * w + coords[2])[keep])


def make_order(kind: str, dims) -> np.ndarray:
    """Build a scan order by kind name."""
    if kind == "raster":
        return raster(dims)
    if kind == "zorder":
        return zorder(dims)
    if kind == "peano":
        return peano(dims)
    if kind in _HILBERT_PRIORITY:
        return gilbert3d(dims, _HILBERT_PRIORITY[kind])
    raise ValueError(f"unknown scan kind {kind!r}")


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
