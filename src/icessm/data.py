"""Concentration series and checkpoints: containers, preprocessing, windowing.

A series is a [T, H, W] stack of daily frames with values in [0, 1], NaN as
the missing-value sentinel, a per-pixel land mask, and strictly increasing
day stamps. Preprocessing fills whole missing dates from their nearest valid
neighbors, classifies chronically-missing pixels as land, zeroes land, and
can interpolate remaining holes with a Gaussian-kernel inverse-distance
weighting over space and time.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .nd import Tensor

MAGIC = b"SICG1\x00"
# st_idw_fill: neighborhood radii (pixels, days), Gaussian bandwidth (pixels),
# pixels per day, and the neighbor values it gathers per pass
IDW_SPATIAL_RADIUS, IDW_TEMPORAL_RADIUS = 3, 2
IDW_BANDWIDTH, IDW_TIME_SCALE = 2.0, 1.0
IDW_CHUNK = 1 << 18
# synth_generate: the most Gaussian evaluations (T * n_blobs * H * W) a series
# may take, about 9 s at some 6-9 ns each on grids from 8x8 to 300x300
SYNTH_MAX_EVALS = 1 << 30
# fill_missing_dates: the most values (days * H * W) a filled series may hold,
# 1 GiB of float32; its first and last dates alone set the days
FILL_MAX_VALUES = 1 << 28


class FormatError(ValueError):
    """A grid or checkpoint is refused: its bytes do not parse, a checkpoint does
    not fit its config, or a series' dates span more days than can be filled."""


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
        if not (self.dates[1:] > self.dates[:-1]).all():  # np.diff would wrap in int64
            raise FormatError("dates must be strictly increasing")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.frames.shape


def fill_missing_dates(g: Grid3) -> Grid3:
    """Expand a series of at least one frame to a contiguous daily range,
    filling each absent date with the elementwise mean of the nearest
    preceding and succeeding present frames.

    Every absent day in a multi-day gap receives the same flat fill. A series
    whose filled [days, H, W] would exceed FILL_MAX_VALUES is refused first.
    """
    _, h, w = g.shape
    days = int(g.dates[-1]) - int(g.dates[0]) + 1  # exact: int64 may wrap
    if days * h * w > FILL_MAX_VALUES:
        raise FormatError(f"dates span {days} days of {h}x{w} frames, over "
                          f"{FILL_MAX_VALUES} values once filled")
    full = g.dates[0] + np.arange(days, dtype=np.int64)
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
    pixels. Valid pixels are left untouched. The missing pixels'
    neighborhoods are gathered about IDW_CHUNK values at a time, each chunk
    from a NaN-padded copy of just the frames they reach; with its holes
    zeroed, a chunk's weighted sum and weight sum are two float64 products
    with the kernel. A missing pixel with no valid neighbor raises, the first
    in C order. ``g`` is never written.
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
    (t, h, w), (rt, rh, rw) = src.shape, radii
    step = max(1, IDW_CHUNK // kernel.size)
    for c0 in range(0, len(missing), step):
        ti, hi, wi = np.unravel_index(missing[c0:c0 + step], src.shape)
        # C order sorts ti, so the chunk's neighborhoods span frames t0 to t1 - 1
        t0, t1 = ti[0] - rt, ti[-1] + rt + 1
        padded = np.full((t1 - t0, h + 2 * rh, w + 2 * rw), np.nan, dtype=np.float32)
        padded[max(-t0, 0):min(t1, t) - t0, rh:rh + h, rw:rw + w] = src[max(t0, 0):t1]
        hoods = sliding_window_view(padded, d2.shape)  # hoods[t - ti[0], h, w]
        window = hoods[ti - ti[0], hi, wi].reshape(len(ti), -1)  # a gathered copy
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
        g = st_idw_fill(g)  # fills every hole or raises
    elif np.isnan(g.frames).any():
        raise ValueError("missing pixels remain after preprocessing; "
                         "enable idw interpolation")
    np.clip(g.frames, 0.0, 1.0, out=g.frames)
    return g


def windows(g: Grid3, in_len: int, out_len: int, stride: int = 1) -> np.ndarray:
    """All stride-spaced windows as one read-only view of ``g.frames``,
    [N, in_len + out_len, 1, H, W] with N = (T - in_len - out_len)//stride + 1:
    window i holds frames i*stride onward, its input the first in_len."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    span = in_len + out_len
    if g.shape[0] < span:
        raise ValueError(f"series length {g.shape[0]} shorter than window span {span}")
    return np.moveaxis(sliding_window_view(g.frames[:, None], span, axis=0), -1, 1)[::stride]


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
# binary containers: .sic grids and checkpoints. A grid is, little-endian: magic,
# u32 T/H/W, i64 dates, land bitmap, per-frame missing bitmaps, then T*H*W
# float32 (missing positions stored as 0, bitmap wins)
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _fresh_file(path):
    """A new file, opened "xb" beside the file ``path`` resolves to, that
    takes that file's name once the block ends: the old file is unlinked and
    the new one renamed onto its name. No file just written is truncated or
    renamed over, which ext4 (``auto_da_alloc``) would first flush to the
    disk. An exception in the block deletes the new file and leaves ``path``
    as it was; one in the unlink or the rename leaves the new file under its
    temporary name. Only a regular file is replaced: a directory, FIFO or
    device raises before anything is created. Nothing is fsynced, so a crash
    before the kernel writes the new file back can leave ``path`` empty or
    short, with the old file already gone.
    """
    dest = os.path.realpath(path)
    try:
        kind = stat.S_IFMT(os.stat(dest).st_mode)
    except FileNotFoundError:
        kind = stat.S_IFREG
    if kind == stat.S_IFDIR:  # as open(path, "wb") would, before writing anything
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if kind != stat.S_IFREG:
        raise OSError(f"{path}: not a regular file, so it is not replaced")
    head, tail = os.path.split(dest)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            yield f
    except BaseException:
        os.unlink(tmp)
        raise
    with contextlib.suppress(FileNotFoundError):
        os.unlink(dest)
    os.rename(tmp, dest)


def write_grid(g: Grid3, path) -> None:
    t, h, w = g.shape
    if max(t, h, w) >= 2 ** 32:
        raise FormatError("dims exceed u32")
    if np.isinf(g.frames).any():
        raise FormatError("a frame value is infinite; the container stores none")
    missing = np.isnan(g.frames).reshape(-1)
    with _fresh_file(path) as f:
        f.write(MAGIC)
        f.write(np.array([t, h, w], dtype="<u4").tobytes())
        f.write(g.dates.astype("<i8").tobytes())
        f.write(np.packbits(g.land_mask.reshape(-1)).tobytes())
        f.write(np.packbits(missing.reshape(t, h * w), axis=1).tobytes())
        # the frames go out 2**16 values at a time, missing ones as 0, so no
        # zero-filled copy of the whole grid is made
        flat = g.frames.reshape(-1)
        for i in range(0, flat.size, 1 << 16):
            block = flat[i:i + (1 << 16)].astype("<f4")  # a copy: g is not written
            block[missing[i:i + (1 << 16)]] = 0.0
            f.write(block)


def read_grid(path) -> Grid3:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(len(MAGIC) + 12)
        if head[:len(MAGIC)] != MAGIC:
            raise FormatError(f"bad magic {head[:len(MAGIC)]!r}")
        if len(head) < len(MAGIC) + 12:
            raise FormatError("truncated container header")
        t, h, w = (int(v) for v in np.frombuffer(head[len(MAGIC):], dtype="<u4"))
        mask_bytes = (h * w + 7) // 8
        # check the exact size the header implies before allocating anything
        expect = len(head) + 8 * t + mask_bytes * (t + 1) + 4 * t * h * w
        if size != expect:
            what = "truncated container" if size < expect else "trailing bytes in container"
            raise FormatError(f"{what}: {size} bytes, header implies {expect}")
        dates = np.frombuffer(f.read(8 * t), dtype="<i8").astype(np.int64)
        bits = np.frombuffer(f.read(mask_bytes * (t + 1)), dtype=np.uint8)
        land = np.unpackbits(bits[:mask_bytes], count=h * w).view(bool).reshape(h, w)
        missing = np.unpackbits(bits[mask_bytes:].reshape(t, mask_bytes), axis=1,
                                count=h * w).view(bool).reshape(t, h, w)
        frames = np.empty((t, h, w), dtype="<f4")
        if f.readinto(frames) != frames.nbytes:  # the file shrank since fstat
            raise FormatError("truncated container")
    frames[missing] = np.nan
    if np.isinf(frames).any():
        raise FormatError("a frame value is infinite")
    return Grid3(frames, dates, land)


def save_params(path, params: dict[str, Tensor]) -> None:
    """Write a flat named-tensor container.

    Header: u64 entry count, then per entry u64 name length, UTF-8 name,
    u64 ndim, u64 dims. Payloads follow as little-endian float32 in header
    order.
    """
    with _fresh_file(path) as f:
        f.write(struct.pack("<Q", len(params)))
        for name, t in params.items():
            raw = name.encode("utf-8")
            f.write(struct.pack(f"<Q{len(raw)}sQ{t.data.ndim}Q", len(raw), raw,
                                t.data.ndim, *t.data.shape))
        for t in params.values():
            f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def load_params(path) -> dict[str, Tensor]:
    """The tensors of a save_params container, in its order."""
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise FormatError("truncated checkpoint")
        off += n
        return blob[off - n:off]

    (count,) = struct.unpack("<Q", take(8))
    shapes = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<Q", take(8))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"checkpoint tensor name is not UTF-8: {e}") from None
        if name in shapes:
            raise FormatError(f"checkpoint names tensor {name} twice")
        (ndim,) = struct.unpack("<Q", take(8))
        shapes[name] = struct.unpack(f"<{ndim}Q", take(8 * ndim))
    params = {}
    for name, dims in shapes.items():
        raw = take(4 * math.prod(dims))  # exact: np.prod would wrap around in int64
        try:
            arr = np.frombuffer(raw, dtype="<f4").reshape(dims)
        except ValueError as e:  # a shape numpy cannot hold, such as 65 axes
            raise FormatError(f"checkpoint tensor {name}: {e}") from None
        params[name] = Tensor(arr.copy(), requires_grad=True)
    if off != len(blob):
        raise FormatError("trailing bytes in checkpoint")
    return params
