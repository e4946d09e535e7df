"""Gridded concentration series: container format, preprocessing, windowing.

A series is a [T, H, W] stack of daily frames with values in [0, 1], NaN as
the missing-value sentinel, a per-pixel land mask, and strictly increasing
day stamps. Preprocessing fills whole missing dates from their nearest valid
neighbors, classifies chronically-missing pixels as land, zeroes land, and
can interpolate remaining holes with a Gaussian-kernel inverse-distance
weighting over space and time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAGIC = b"SICG1\x00"
# st_idw_fill: neighborhood radii (pixels, days), Gaussian bandwidth (pixels),
# pixels per day, and the neighbor values it gathers per pass
IDW_SPATIAL_RADIUS, IDW_TEMPORAL_RADIUS = 3, 2
IDW_BANDWIDTH, IDW_TIME_SCALE = 2.0, 1.0
IDW_CHUNK = 1 << 18
# synth_generate: the most Gaussian evaluations (T * n_blobs * H * W) a series
# may take, about 9 s at some 6-9 ns each on grids from 8x8 to 300x300
SYNTH_MAX_EVALS = 1 << 30


class FormatError(ValueError):
    """Container bytes do not parse."""


@dataclass
class Grid3:
    frames: np.ndarray     # [T, H, W] float32, NaN = missing
    dates: np.ndarray      # [T] int64 days since epoch, strictly increasing
    land_mask: np.ndarray  # [H, W] bool

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        self.dates = np.asarray(self.dates, dtype=np.int64)
        self.land_mask = np.asarray(self.land_mask, dtype=bool)
        t, h, w = self.frames.shape
        if self.dates.shape != (t,):
            raise ValueError(f"dates shape {self.dates.shape} != ({t},)")
        if self.land_mask.shape != (h, w):
            raise ValueError(f"land mask shape {self.land_mask.shape} != ({h}, {w})")
        if t > 1 and not (np.diff(self.dates) > 0).all():
            raise ValueError("dates must be strictly increasing")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.frames.shape


def fill_missing_dates(g: Grid3) -> Grid3:
    """Expand a series of at least one frame to a contiguous daily range,
    filling each absent date with the elementwise mean of the nearest
    preceding and succeeding present frames.

    Every absent day in a multi-day gap receives the same flat fill.
    """
    full = np.arange(g.dates[0], g.dates[-1] + 1, dtype=np.int64)
    # the range starts and ends at present dates, so both neighbors exist
    nxt = np.searchsorted(g.dates, full)           # first present date on or after each day
    prev = nxt - (g.dates[nxt] != full)            # last present date on or before it
    frames = g.frames[prev]
    gap = prev != nxt
    frames[gap] = 0.5 * (g.frames[prev[gap]] + g.frames[nxt[gap]])
    return Grid3(frames, full, g.land_mask.copy())


def detect_land(g: Grid3, threshold: float = 0.95) -> np.ndarray:
    """Pixels missing in strictly more than ``threshold`` of all frames."""
    missing_frac = np.isnan(g.frames).mean(axis=0)
    return missing_frac > threshold


def st_idw_fill(g: Grid3) -> Grid3:
    """Fill remaining missing pixels by Gaussian-kernel inverse-distance
    weighting over the neighborhood of IDW_TEMPORAL_RADIUS days and
    IDW_SPATIAL_RADIUS pixels around each.

    The weight of a valid neighbor at offset (dt, dh, dw) is
    exp(-d^2 / (2 * IDW_BANDWIDTH^2)) with
    d^2 = dh^2 + dw^2 + (IDW_TIME_SCALE*dt)^2; one day equals IDW_TIME_SCALE
    pixels. Valid pixels are left untouched. The grid is padded with NaN
    once, and the missing pixels' neighborhoods are gathered from it about
    IDW_CHUNK values at a time; with its holes zeroed, a chunk's weighted sum
    and weight sum are two float64 products with the kernel. A missing pixel
    with no valid neighbor raises, the first in C order.
    """
    src = g.frames
    out = src.copy()
    missing = np.flatnonzero(np.isnan(src))  # C order
    # an offset past the grid's extent only ever reaches padding
    radii = [min(r, max(n - 1, 0)) for r, n in
             zip((IDW_TEMPORAL_RADIUS, IDW_SPATIAL_RADIUS, IDW_SPATIAL_RADIUS), g.shape)]
    dt, dh, dw = np.ogrid[tuple(slice(-r, r + 1) for r in radii)]
    d2 = (dh ** 2 + dw ** 2 + (IDW_TIME_SCALE * dt) ** 2).astype(np.float64)
    kernel = np.exp(-d2 / (2.0 * IDW_BANDWIDTH ** 2)).reshape(-1)
    padded = np.pad(src, [(r, r) for r in radii], constant_values=np.nan)
    hoods = sliding_window_view(padded, d2.shape)  # hoods[t, h, w]: pixel's neighborhood
    step = max(1, IDW_CHUNK // kernel.size)
    for c0 in range(0, len(missing), step):
        ti, hi, wi = np.unravel_index(missing[c0:c0 + step], src.shape)
        window = hoods[ti, hi, wi].reshape(len(ti), -1)  # a gathered copy
        hole = np.isnan(window)
        window[hole] = 0.0
        wsum = ~hole @ kernel  # every kernel weight is positive
        if not wsum.all():
            bt, bh, bw = (int(i[np.argmin(wsum)]) for i in (ti, hi, wi))
            raise ValueError(f"missing pixel (t={bt}, h={bh}, w={bw}) has no "
                             f"valid neighbor within the radius")
        out[ti, hi, wi] = (window @ kernel) / wsum
    return Grid3(out, g.dates.copy(), g.land_mask.copy())


def preprocess(g: Grid3, land_threshold: float = 0.95, idw: bool = False) -> Grid3:
    """fill_missing_dates -> detect_land -> zero land -> optional ST-IDW.

    Land is zeroed and recorded, and the values clipped to [0, 1], in place
    on the new grid that fill_missing_dates returns; ``g`` is never written.
    The result has no missing values; raises if holes remain and ``idw`` is
    off.
    """
    g = fill_missing_dates(g)
    land = detect_land(g, land_threshold)
    g.frames[:, land] = 0.0
    g.land_mask |= land
    if idw:
        g = st_idw_fill(g)
    if np.isnan(g.frames).any():
        raise ValueError("missing pixels remain after preprocessing; "
                         "enable idw interpolation")
    np.clip(g.frames, 0.0, 1.0, out=g.frames)
    return g


@dataclass
class SampleWindow:
    """Adjacent, non-overlapping input/target windows cut from a series."""

    input: np.ndarray   # [L_i, 1, H, W]
    target: np.ndarray  # [L_o, 1, H, W]


def windows(g: Grid3, in_len: int, out_len: int, stride: int = 1) -> list[SampleWindow]:
    """All stride-spaced windows; count = (T - in_len - out_len)//stride + 1.

    Each window's input and target are read-only views of ``g.frames``.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    t = g.shape[0]
    span = in_len + out_len
    if t < span:
        raise ValueError(f"series length {t} shorter than window span {span}")
    frames = g.frames[:, None, :, :]
    frames.flags.writeable = False
    return [SampleWindow(input=frames[a:a + in_len], target=frames[a + in_len:a + span])
            for a in range(0, t - span + 1, stride)]


def synth_generate(seed: int, t: int, h: int, w: int, n_blobs: int = 3,
                   drift: float = 0.5, season_period: float = 90.0) -> Grid3:
    """Synthetic ice-like series: drifting Gaussian blobs with a seasonal
    amplitude cycle on a toroidal grid, plus a fixed land block.

    Deterministic for a given seed.
    """
    if min(t, h, w) < 8:
        raise ValueError("dims must be >= 8")
    if not 0 <= n_blobs <= h * w:  # bounds the draws below by the grid size
        raise ValueError(f"n_blobs must be in [0, {h * w}] (H*W), got {n_blobs}")
    if t * n_blobs * h * w > SYNTH_MAX_EVALS:  # the time is linear in it
        raise ValueError(f"n_blobs {n_blobs} over {t}x{h}x{w} frames takes "
                         f"{t * n_blobs * h * w} evaluations, over {SYNTH_MAX_EVALS}")
    if not (math.isfinite(drift) and drift >= 0):
        raise ValueError(f"drift must be finite and >= 0, got {drift}")
    rng = np.random.default_rng(seed)
    frames = np.zeros((t, h, w), dtype=np.float32)

    centers = rng.uniform((0, 0), (h, w), size=(n_blobs, 2)) if n_blobs else np.zeros((0, 2))
    velocity = rng.uniform(-drift, drift, size=(n_blobs, 2)) if n_blobs else centers
    radius = rng.uniform(min(h, w) / 8.0, min(h, w) / 3.0, size=n_blobs)
    amp = rng.uniform(0.5, 1.0, size=n_blobs)
    phase = rng.uniform(0.0, 1.0)

    # math.sin per frame: np.sin may round differently
    season = np.array([0.6 + 0.4 * math.sin(2 * math.pi * (ti / season_period + phase))
                       for ti in range(t)])
    hh, ww = np.arange(h), np.arange(w)
    # a block of frames at a time, at most 2**14 float64 cells (128 KiB) each:
    # the Python loop over blobs runs once a block, not once a frame, and each
    # transient stays small enough to reuse heap memory; 512 KiB blocks
    # page-faulted fresh memory for them and took longer than frame by frame
    step = max(1, (1 << 14) // (h * w))
    for t0 in range(0, t, step):
        ts = np.arange(t0, min(t0 + step, t))[:, None]
        acc = np.zeros((len(ts), h, w), dtype=np.float64)
        for b in range(n_blobs):
            ch = (centers[b, 0] + velocity[b, 0] * ts) % h
            cw = (centers[b, 1] + velocity[b, 1] * ts) % w
            dh = np.minimum(np.abs(hh - ch), h - np.abs(hh - ch))   # toroidal, per axis
            dw = np.minimum(np.abs(ww - cw), w - np.abs(ww - cw))
            acc += amp[b] * np.exp(-(dh[:, :, None] ** 2 + dw[:, None] ** 2)
                                   / (2.0 * radius[b] ** 2))
        frames[t0:t0 + step] = np.clip(season[t0:t0 + step, None, None] * acc, 0.0, 1.0)

    land = np.zeros((h, w), dtype=bool)
    land[:h // 8 + 1, :w // 4 + 1] = True
    frames[:, land] = 0.0
    return Grid3(frames, np.arange(t, dtype=np.int64), land)


# ---------------------------------------------------------------------------
# binary container
# little-endian: magic, u32 T/H/W, i64 dates, land bitmap, per-frame missing
# bitmaps, then T*H*W float32 (missing positions stored as 0, bitmap wins)
# ---------------------------------------------------------------------------


def write_grid(g: Grid3, path) -> None:
    t, h, w = g.shape
    if max(t, h, w) >= 2 ** 32:
        raise FormatError("dims exceed u32")
    if np.isinf(g.frames).any():
        raise FormatError("a frame value is infinite; the container stores none")
    missing = np.isnan(g.frames)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.array([t, h, w], dtype="<u4").tobytes())
        f.write(g.dates.astype("<i8").tobytes())
        f.write(np.packbits(g.land_mask.reshape(-1)).tobytes())
        f.write(np.packbits(missing.reshape(t, h * w), axis=1).tobytes())
        f.write(np.where(missing, np.float32(0), g.frames).astype("<f4", copy=False))


def read_grid(path) -> Grid3:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic {blob[:len(MAGIC)]!r}")
    off = len(MAGIC) + 12
    if len(blob) < off:
        raise FormatError("truncated container header")
    t, h, w = (int(v) for v in np.frombuffer(blob[len(MAGIC):off], dtype="<u4"))
    mask_bytes = (h * w + 7) // 8
    # check the exact size the header implies before allocating anything
    size = off + 8 * t + mask_bytes * (t + 1) + 4 * t * h * w
    if len(blob) != size:
        what = "truncated container" if len(blob) < size else "trailing bytes in container"
        raise FormatError(f"{what}: {len(blob)} bytes, header implies {size}")

    def take(n: int) -> np.ndarray:
        nonlocal off
        off += n
        return np.frombuffer(blob, dtype=np.uint8, count=n, offset=off - n)

    dates = take(8 * t).view("<i8").astype(np.int64)
    land = np.unpackbits(take(mask_bytes), count=h * w).astype(bool).reshape(h, w)
    missing = np.unpackbits(take(mask_bytes * t).reshape(t, mask_bytes), axis=1,
                            count=h * w).astype(bool).reshape(t, h, w)
    frames = take(4 * t * h * w).view("<f4").astype(np.float32).reshape(t, h, w)
    frames[missing] = np.nan
    if np.isinf(frames).any():
        raise FormatError("a frame value is infinite")
    return Grid3(frames, dates, land)
