import errno
import hashlib
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from icessm import data
from icessm.data import Grid3
from oracles import naive_fill_missing_dates, naive_st_idw_fill

# the oracle's arguments for the constants st_idw_fill runs with
IDW = dict(spatial_radius=data.IDW_SPATIAL_RADIUS, temporal_radius=data.IDW_TEMPORAL_RADIUS,
           bandwidth=data.IDW_BANDWIDTH, time_scale=data.IDW_TIME_SCALE)


def grid_of(frames, dates=None, land=None):
    frames = np.asarray(frames, dtype=np.float32)
    t, h, w = frames.shape
    if dates is None:
        dates = np.arange(t)
    if land is None:
        land = np.zeros((h, w), dtype=bool)
    return Grid3(frames, dates, land)


def traced_peak(fn, *args):
    """The tracemalloc peak of one call of ``fn``, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFillMissingDates:
    def test_single_gap_mean(self):
        g = Grid3(np.stack([np.full((2, 2), 0.2), np.full((2, 2), 0.4)]),
                  np.array([0, 2]), np.zeros((2, 2), dtype=bool))
        out = data.fill_missing_dates(g)
        assert out.dates.tolist() == [0, 1, 2]
        np.testing.assert_allclose(out.frames[1], 0.3)

    def test_no_gaps_identity(self):
        g = grid_of(np.random.default_rng(0).uniform(size=(4, 3, 3)))
        out = data.fill_missing_dates(g)
        np.testing.assert_array_equal(out.frames, g.frames)
        np.testing.assert_array_equal(out.dates, g.dates)

    def test_multi_day_gap_flat_fill(self):
        f0 = np.full((2, 2), 0.1, dtype=np.float32)
        f3 = np.full((2, 2), 0.5, dtype=np.float32)
        g = Grid3(np.stack([f0, f3]), np.array([0, 3]), np.zeros((2, 2), dtype=bool))
        out = data.fill_missing_dates(g)
        assert out.dates.tolist() == [0, 1, 2, 3]
        np.testing.assert_allclose(out.frames[1], 0.3)
        np.testing.assert_allclose(out.frames[2], 0.3)

    @pytest.mark.parametrize("dates", [[5], [0, 1], [0, 2], [0, 4, 5, 9], [3, 4, 7, 8, 12, 13]],
                             ids=["single-frame", "no-gap", "one-day", "multi-day", "mixed"])
    def test_matches_per_day_oracle(self, dates):
        r = np.random.default_rng(len(dates))
        frames = r.uniform(size=(len(dates), 3, 4)).astype(np.float32)
        frames[r.random(frames.shape) < 0.2] = np.nan
        g = Grid3(frames, np.array(dates), r.random((3, 4)) < 0.3)
        out = data.fill_missing_dates(g)
        expect_frames, expect_dates = naive_fill_missing_dates(frames, np.array(dates))
        np.testing.assert_array_equal(out.dates, expect_dates)
        assert out.frames.dtype == np.float32
        np.testing.assert_array_equal(out.frames.view(np.uint32),
                                      expect_frames.view(np.uint32))
        np.testing.assert_array_equal(out.land_mask, g.land_mask)


class TestDetectLand:
    def test_always_missing_is_land(self):
        frames = np.full((5, 1, 2), np.nan, dtype=np.float32)
        frames[:, 0, 1] = 0.2
        mask = data.detect_land(grid_of(frames))
        assert mask[0, 0] and not mask[0, 1]

    def test_strict_inequality_at_threshold(self):
        frames = np.zeros((100, 1, 2), dtype=np.float32)
        frames[:96, 0, 0] = np.nan   # 96% missing -> land
        frames[:95, 0, 1] = np.nan   # 95% missing -> ocean (strict >)
        mask = data.detect_land(grid_of(frames), threshold=0.95)
        assert mask[0, 0]
        assert not mask[0, 1]


class TestStIdw:
    def test_single_neighbor(self):
        frames = np.full((1, 1, 3), np.nan, dtype=np.float32)
        frames[0, 0, 1] = 0.8
        out = data.st_idw_fill(grid_of(frames))
        assert out.frames[0, 0, 0] == pytest.approx(0.8)
        assert out.frames[0, 0, 2] == pytest.approx(0.8)

    def test_symmetric_neighbors_average(self):
        frames = np.array([[[0.2, np.nan, 0.6]]], dtype=np.float32)
        out = data.st_idw_fill(grid_of(frames))
        assert out.frames[0, 0, 1] == pytest.approx(0.4)

    def test_hand_case_weight_oracle(self):
        # center of a 3x3 with neighbors at d^2 = 1, 1, 2, 2; explicit weights
        frames = np.full((1, 3, 3), np.nan, dtype=np.float32)
        frames[0, 0, 1] = 0.3   # d^2 = 1
        frames[0, 1, 0] = 0.5   # d^2 = 1
        frames[0, 0, 0] = 0.9   # d^2 = 2
        frames[0, 2, 2] = 0.1   # d^2 = 2
        bw = data.IDW_BANDWIDTH
        out = data.st_idw_fill(grid_of(frames))
        w1 = math.exp(-1.0 / (2 * bw * bw))
        w2 = math.exp(-2.0 / (2 * bw * bw))
        expect = (w1 * (0.3 + 0.5) + w2 * (0.9 + 0.1)) / (2 * w1 + 2 * w2)
        assert out.frames[0, 1, 1] == pytest.approx(expect, abs=1e-6)

    def test_valid_pixels_untouched(self):
        r = np.random.default_rng(1)
        frames = r.uniform(size=(3, 4, 4)).astype(np.float32)
        frames[1, 2, 2] = np.nan
        out = data.st_idw_fill(grid_of(frames))
        keep = ~np.isnan(frames)
        np.testing.assert_array_equal(out.frames[keep], frames[keep])

    def test_input_grid_left_unwritten(self):
        # perfbench's data.idw_pixels counts the holes still NaN in the argument
        # after the call, so an in-place fill would read as no IDW work at all
        r = np.random.default_rng(2)
        frames = r.uniform(size=(3, 4, 4)).astype(np.float32)
        frames[1, 2, 2] = frames[0, 0, 3] = np.nan
        g = grid_of(frames)
        before = (g.frames.copy(), g.dates.copy(), g.land_mask.copy())
        out = data.st_idw_fill(g)
        assert not np.isnan(out.frames).any()
        assert np.isnan(g.frames).sum() == 2
        for got, expect in zip((g.frames, g.dates, g.land_mask), before):
            np.testing.assert_array_equal(got, expect)

    def test_isolated_pixel_errors(self):
        # (0, 0) is 4 pixels from the one valid pixel, past the spatial radius
        frames = np.full((1, 5, 5), np.nan, dtype=np.float32)
        frames[0, 4, 4] = 0.5
        with pytest.raises(ValueError, match="no\\s+valid neighbor"):
            data.st_idw_fill(grid_of(frames))

    @pytest.mark.parametrize("t", [6, 1])
    @pytest.mark.parametrize("spatial_radius, temporal_radius, bandwidth, time_scale",
                             [tuple(IDW.values())])
    def test_matches_per_pixel_oracle(self, t, spatial_radius, temporal_radius,
                                      bandwidth, time_scale):
        r = np.random.default_rng(7)
        frames = r.uniform(size=(t, 9, 10)).astype(np.float32)
        frames[r.random(frames.shape) < 0.2] = np.nan
        # a hole on every face and at two corners of the volume
        frames[0, 4, 5] = frames[-1, 5, 4] = np.nan
        frames[t // 2, 0, 3] = frames[t // 2, -1, 6] = np.nan
        frames[t // 2, 2, 0] = frames[t // 2, 7, -1] = np.nan
        frames[0, 0, 0] = frames[-1, -1, -1] = np.nan
        expect = naive_st_idw_fill(frames, spatial_radius=spatial_radius,
                                   temporal_radius=temporal_radius,
                                   bandwidth=bandwidth, time_scale=time_scale)
        out = data.st_idw_fill(grid_of(frames)).frames
        np.testing.assert_array_max_ulp(out, expect, maxulp=1)

    def test_first_isolated_pixel_named_past_first_chunk(self):
        # every other pixel missing, so each has a valid neighbor at distance
        # 1, except the centers of two holes as wide as the neighborhood, the
        # first past the first pass (one frame: no temporal neighbors)
        r = data.IDW_SPATIAL_RADIUS
        per_pass = data.IDW_CHUNK // (2 * r + 1) ** 2
        w = 64
        h = 2 * per_pass // w + 6 * r + 4
        frames = np.full((1, h, w), 0.5, dtype=np.float32)
        frames[0, (np.arange(h)[:, None] + np.arange(w)) % 2 == 0] = np.nan
        first, later = (h - 4 * r - 2, 20), (h - r - 1, 40)
        for hi, wi in (later, first):
            frames[0, hi - r:hi + r + 1, wi - r:wi + r + 1] = np.nan
        assert np.isnan(frames[0, :first[0]]).sum() > per_pass
        message = f"missing pixel \\(t=0, h={first[0]}, w={first[1]}\\) has no"
        with pytest.raises(ValueError, match=message):
            naive_st_idw_fill(frames, **IDW)
        with pytest.raises(ValueError, match=message):
            data.st_idw_fill(grid_of(frames))

    def test_memory_bounded_by_chunk_not_hole_count(self):
        r = np.random.default_rng(0)
        frames = r.uniform(size=(40, 64, 64)).astype(np.float32)
        frames[r.random(frames.shape) < 0.3] = np.nan
        g = grid_of(frames)
        gathered_at_once = int(np.isnan(frames).sum()) * 5 * 7 * 7 * 8
        # whole-grid arrays (output, hole index) stay under two frames' worth;
        # per chunk, the float32 gather, its two hole masks and one float64
        # operand take 14 bytes a value (peak 4.7 MiB of 5.2 here; two float64
        # [n, 245] temporaries per chunk peaked at 8.0 MiB)
        bound = 2 * frames.nbytes + 16 * data.IDW_CHUNK
        assert bound < gathered_at_once / 4
        assert traced_peak(data.st_idw_fill, g) < bound

    def test_output_pinned_over_many_chunks(self):
        # 12 chunks of IDW_CHUNK // 245 holes; the hash was computed with
        # st_idw_fill as of commit dd72453, before a chunk's sums became
        # kernel products, so the products must match it bit for bit
        r = np.random.default_rng(22)
        frames = r.uniform(size=(60, 64, 64)).astype(np.float32)
        frames[r.random(frames.shape) < 0.05] = np.nan
        assert np.isnan(frames).sum() > 11 * (data.IDW_CHUNK // 245)
        out = data.st_idw_fill(grid_of(frames)).frames
        assert hashlib.sha256(out.tobytes()).hexdigest() == \
            "0037f56c87b4468b926aa78fc95c6aa1ede677f333a354172df78d5888be279b"

    @pytest.mark.parametrize("t, digest", [
        (12, "c0f00de29b59e5fe295865ba330e4015cd4806b5e67cf2dbe742f7923534b39b"),
        (3, "6e7de9e30665ed4eb61e34a5b42eea0710678adda7c34dfacb2b6b2e2e249576"),
        (2, "d124d5579ef179a8f379c8bc097910212dd8ea44b9826c8cfc574d28050c21b5"),
    ], ids=["T=12", "T=3", "T=2"])
    def test_output_pinned_at_the_ends_of_the_series(self, t, digest):
        # holes only in the first and last two frames, whose neighborhoods
        # reach past the series, over 2-4 chunks; at T = 3 every frame has
        # holes and a neighborhood spans the series, and at T = 2 the
        # temporal radius is clipped to 1. The hashes were computed with
        # st_idw_fill as of commit cb18b21, which NaN-padded the whole grid once
        r = np.random.default_rng(28)
        frames = r.uniform(size=(t, 64, 64)).astype(np.float32)
        holes = r.random(frames.shape) < 0.2
        holes[2:-2] = False
        frames[holes] = np.nan
        out = data.st_idw_fill(grid_of(frames)).frames
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest



class TestPreprocess:
    def test_invariants(self):
        r = np.random.default_rng(2)
        frames = r.uniform(size=(6, 4, 4)).astype(np.float32)
        frames[:, 0, 0] = np.nan          # chronic -> land
        frames[2, 1, 1] = np.nan          # sporadic hole -> idw
        g = Grid3(frames[[0, 1, 2, 4, 5]], np.array([0, 1, 2, 4, 5]),
                  np.zeros((4, 4), dtype=bool))
        out = data.preprocess(g, idw=True)
        assert not np.isnan(out.frames).any()
        assert (out.frames >= 0).all() and (out.frames <= 1).all()
        assert out.land_mask[0, 0]
        assert (out.frames[:, 0, 0] == 0).all()
        assert out.dates.tolist() == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("dates", [[0, 1, 2], [0, 2, 3]], ids=["gapless", "gap"])
    def test_zeroes_land_without_writing_the_input(self, dates):
        # land is zeroed and clipped in place on the grid fill_missing_dates
        # returns, never on the caller's
        frames = np.full((3, 2, 2), 0.7, dtype=np.float32)
        frames[:, 0, 0] = np.nan                     # always missing -> land
        frames[1, 1, 1] = 1.5                        # clipped in the output only
        g = grid_of(frames, dates=dates, land=np.array([[False, True], [False, False]]))
        before = [a.copy() for a in (g.frames, g.dates, g.land_mask)]
        out = data.preprocess(g)
        assert (out.frames[:, 0, 0] == 0).all()
        assert out.land_mask.tolist() == [[True, True], [False, False]]
        assert out.frames.max() == 1.0
        for a, b in zip((g.frames, g.dates, g.land_mask), before):
            np.testing.assert_array_equal(a, b)

    def test_idw_output_pinned(self):
        # a gappy 17-of-20-day series: date fill, land detection and ST-IDW
        g = data.synth_generate(3, 20, 8, 8)
        frames = g.frames.copy()
        frames[:, g.land_mask] = np.nan
        frames[np.random.default_rng(0).random(frames.shape) < 0.05] = np.nan
        keep = np.setdiff1d(np.arange(20), [5, 11, 12])
        out = data.preprocess(Grid3(frames[keep], g.dates[keep], np.zeros_like(g.land_mask)),
                              idw=True)
        blob = out.frames.tobytes() + out.dates.tobytes() + out.land_mask.tobytes()
        assert hashlib.sha256(blob).hexdigest() == \
            "2aa6befd8a912872836b412e630598a731e9ef008c4e0ad5f3fc6decc9d5adda"

    def test_leftover_holes_rejected_without_idw(self):
        frames = np.full((4, 3, 3), 0.5, dtype=np.float32)
        frames[1, 1, 1] = np.nan
        with pytest.raises(ValueError, match="idw"):
            data.preprocess(grid_of(frames))


class TestWindows:
    def test_exact_fit_single_sample(self):
        g = grid_of(np.zeros((28, 4, 4)))
        assert len(data.windows(g, 14, 14)) == 1

    def test_one_extra_day_two_samples(self):
        g = grid_of(np.zeros((29, 4, 4)))
        assert len(data.windows(g, 14, 14)) == 2

    def test_count_formula(self):
        g = grid_of(np.zeros((100, 4, 4)))
        assert len(data.windows(g, 14, 14)) == 73

    def test_window_contents_and_anchors(self):
        t = 40
        frames = np.arange(t, dtype=np.float32)[:, None, None] * np.ones((t, 2, 2), np.float32)
        g = grid_of(frames, dates=np.arange(100, 100 + t))
        ws = data.windows(g, 14, 14, stride=2)
        assert len(ws) == (40 - 28) // 2 + 1
        sw = ws[1]
        assert sw.input.shape == (14, 1, 2, 2)
        assert sw.target.shape == (14, 1, 2, 2)
        assert sw.input[0, 0, 0, 0] == 2.0
        assert sw.target[0, 0, 0, 0] == 16.0

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            data.windows(grid_of(np.zeros((20, 4, 4))), 14, 14)

    def test_windows_are_read_only_views(self):
        g = grid_of(np.zeros((30, 4, 4)))
        for sw in data.windows(g, 14, 14):
            for arr in (sw.input, sw.target):
                assert np.shares_memory(arr, g.frames)
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0, 0, 0] = 1.0
        assert g.frames.flags.writeable


class TestSynth:
    def test_no_blobs_all_zero(self):
        g = data.synth_generate(0, 10, 8, 8, n_blobs=0)
        np.testing.assert_array_equal(g.frames, 0.0)

    def test_zero_drift_frames_proportional(self):
        g = data.synth_generate(3, 12, 16, 16, n_blobs=2, drift=0.0)
        base = g.frames[0]
        live = base > 1e-4
        assert live.any()
        for ti in range(1, 12):
            ratio = g.frames[ti][live] / base[live]
            # clamped pixels break exact proportionality; ignore saturated ones
            unsat = (g.frames[ti][live] < 0.999) & (base[live] < 0.999)
            if unsat.any():
                spread = ratio[unsat].max() - ratio[unsat].min()
                assert spread < 1e-3

    def test_deterministic_under_seed(self):
        a = data.synth_generate(7, 10, 8, 8)
        b = data.synth_generate(7, 10, 8, 8)
        np.testing.assert_array_equal(a.frames, b.frames)
        np.testing.assert_array_equal(a.land_mask, b.land_mask)

    def test_land_region_zeroed(self):
        g = data.synth_generate(1, 10, 16, 16)
        assert g.land_mask.any()
        assert (g.frames[:, g.land_mask] == 0).all()

    def test_range(self):
        g = data.synth_generate(5, 20, 12, 12, n_blobs=5)
        assert (g.frames >= 0).all() and (g.frames <= 1).all()

    @pytest.mark.parametrize("seed, dims, kwargs, digest", [
        (5, (365, 64, 64), {},
         "234ebb86b5e6201c4fe81b3a37463487a8dfe2dc1ab7da6d9e166d855d2ffa3e"),
        (3, (20, 8, 8), {"n_blobs": 0},
         "a11937f356a9b0ba592c82f5290bac8016cb33a3f9bc68d3490147c158ebb10d"),
        (7, (20, 16, 16), {"n_blobs": 256},
         "6f4e698c19d7985a8f1ec797420bb4b231e2b56a7c2003f434d55658864c1703"),
        (2, (600, 9, 13), {"n_blobs": 4, "drift": 3.0},
         "e3a571f529119c3f394ba1445bb67880e8f48359db8d215977668b057ee7a58c"),
        (4, (30, 12, 10), {"season_period": 1e9},
         "bcd6d0cd4f7dbcf580ff7d3f5488f73d4d9188a0f370320c9d6436bcfce41138"),
        (1, (20, 100, 100), {},
         "374f2aba9925089d4c90f7510c79730160f85e80a540aceb83a520a93fd35f5a"),
    ], ids=["365x64x64", "no-blobs", "256-blobs", "non-square", "flat-season", "100x100"])
    def test_frames_are_pinned(self, seed, dims, kwargs, digest):
        # sha256 of little-endian float32 frames, fixed while each frame's
        # blobs were evaluated one frame at a time
        g = data.synth_generate(seed, *dims, **kwargs)
        assert hashlib.sha256(g.frames.astype("<f4").tobytes()).hexdigest() == digest


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        r = np.random.default_rng(4)
        frames = r.uniform(size=(5, 6, 7)).astype(np.float32)
        frames[2, 3, 4] = np.nan
        frames[0, 0, 0] = np.nan
        land = r.uniform(size=(6, 7)) > 0.8
        g = Grid3(frames, np.arange(10, 15), land)
        path = tmp_path / "g.sic"
        data.write_grid(g, path)
        back = data.read_grid(path)
        np.testing.assert_array_equal(back.dates, g.dates)
        np.testing.assert_array_equal(back.land_mask, g.land_mask)
        np.testing.assert_array_equal(np.isnan(back.frames), np.isnan(g.frames))
        keep = ~np.isnan(g.frames)
        assert (back.frames[keep].view(np.uint32) == g.frames[keep].view(np.uint32)).all()

    def test_empty_ocean_round_trips(self, tmp_path):
        g = grid_of(np.zeros((3, 4, 4)))
        path = tmp_path / "o.sic"
        data.write_grid(g, path)
        back = data.read_grid(path)
        np.testing.assert_array_equal(back.frames, 0.0)

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 3)])
    def test_empty_grid_round_trips(self, tmp_path, shape):
        path = tmp_path / "e.sic"
        data.write_grid(grid_of(np.zeros(shape)), path)
        assert data.read_grid(path).shape == shape

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sic"
        data.write_grid(grid_of(np.zeros((2, 4, 4))), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(data.FormatError, match="magic"):
            data.read_grid(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "t.sic"
        data.write_grid(grid_of(np.zeros((2, 4, 4))), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(data.FormatError, match="truncated"):
            data.read_grid(path)

    def test_written_bytes_pinned(self, tmp_path):
        # 5x7 frames: each missing bitmap ends in a partly used byte
        frames = np.arange(3 * 5 * 7, dtype=np.float32).reshape(3, 5, 7) / 128
        frames[0, 0, 0] = frames[1, 2, 3] = frames[2, 4, 6] = frames[2, 4, 5] = np.nan
        land = np.zeros((5, 7), dtype=bool)
        land[0, :3] = land[4, 6] = True
        path = tmp_path / "p.sic"
        data.write_grid(Grid3(frames, np.array([3, 4, 9]), land), path)
        blob = path.read_bytes()
        assert len(blob) == 482
        assert hashlib.sha256(blob).hexdigest() == \
            "524cdf29ce53edab5356b55420d28aab48cff42dc1d6eeeeaab6d387755e13e8"

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_value_refused_before_writing(self, tmp_path, value):
        frames = np.full((2, 3, 3), 0.5, dtype=np.float32)
        frames[1, 2, 2] = value
        path = tmp_path / "inf.sic"
        with pytest.raises(data.FormatError, match="infinite"):
            data.write_grid(grid_of(frames), path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_value_refused_on_read(self, tmp_path, value):
        path = tmp_path / "inf.sic"
        data.write_grid(grid_of(np.full((2, 3, 3), 0.5)), path)
        path.write_bytes(path.read_bytes()[:-4] + np.float32(value).astype("<f4").tobytes())
        with pytest.raises(data.FormatError, match="infinite"):
            data.read_grid(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.sic"
        data.write_grid(grid_of(np.zeros((2, 4, 4))), path)
        path.write_bytes(path.read_bytes() + bytes(1))
        with pytest.raises(data.FormatError, match="trailing bytes"):
            data.read_grid(path)

    def test_dates_not_increasing_rejected(self, tmp_path):
        # the dates follow the 6-byte magic and three u32 dims; swap the first two
        path = tmp_path / "d.sic"
        data.write_grid(grid_of(np.zeros((3, 4, 4))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:18] + raw[26:34] + raw[18:26] + raw[34:])
        with pytest.raises(data.FormatError, match="strictly increasing"):
            data.read_grid(path)

    def test_rewrite_leaves_an_open_reader_the_old_bytes(self, tmp_path):
        # the new container is a new file moved onto the name, not the old
        # one truncated and written again
        path = tmp_path / "g.sic"
        data.write_grid(grid_of(np.zeros((2, 4, 4))), path)
        old = path.read_bytes()
        with open(path, "rb") as f:
            data.write_grid(grid_of(np.full((3, 4, 4), 0.5)), path)
            assert f.read() == old
        assert data.read_grid(path).shape == (3, 4, 4)

    def test_failed_rewrite_keeps_the_old_container(self, tmp_path, monkeypatch):
        # the disk fills once the header and dates are written
        r = np.random.default_rng(6)
        frames = r.uniform(size=(4, 5, 6)).astype(np.float32)
        frames[1, 2, 3] = np.nan
        g = grid_of(frames, land=r.uniform(size=(5, 6)) > 0.7)
        path = tmp_path / "g.sic"
        data.write_grid(g, path)
        old = path.read_bytes()

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(data.np, "packbits", disk_full)
        with pytest.raises(OSError) as err:
            data.write_grid(grid_of(np.zeros((3, 5, 6))), path)
        monkeypatch.undo()
        assert err.value.errno == errno.ENOSPC
        assert [p.name for p in tmp_path.iterdir()] == ["g.sic"]
        assert path.read_bytes() == old
        back = data.read_grid(path)
        assert (back.frames.view(np.uint32) == g.frames.view(np.uint32)).all()
        np.testing.assert_array_equal(back.land_mask, g.land_mask)

    def test_directory_destination_refused_without_a_temporary(self, tmp_path):
        dest = tmp_path / "d"
        dest.mkdir()
        with pytest.raises(IsADirectoryError):
            data.write_grid(grid_of(np.zeros((2, 4, 4))), dest)
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert not any(dest.iterdir())

    def test_fifo_destination_refused_without_a_temporary(self, tmp_path):
        # the old file is unlinked before the rename, so only a regular file
        # is replaced: a FIFO or device stays as it is
        fifo = tmp_path / "f"
        os.mkfifo(fifo)
        with pytest.raises(OSError, match="not a regular file"):
            data.write_grid(grid_of(np.zeros((2, 4, 4))), fifo)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_failed_rename_keeps_the_new_container_under_its_temporary_name(
            self, tmp_path, monkeypatch):
        # the old file is gone by then; the new bytes must not go with it
        new = grid_of(np.full((3, 4, 4), 0.5))
        data.write_grid(new, tmp_path / "ref.sic")
        out = tmp_path / "out"
        out.mkdir()
        data.write_grid(grid_of(np.zeros((2, 4, 4))), out / "g.sic")

        def no_rename(*args, **kwargs):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "rename", no_rename)
        with pytest.raises(OSError) as err:
            data.write_grid(new, out / "g.sic")
        monkeypatch.undo()
        assert err.value.errno == errno.EIO
        [tmp] = out.iterdir()
        assert tmp.name.startswith(".g.sic.") and tmp.name.endswith(".tmp")
        assert tmp.read_bytes() == (tmp_path / "ref.sic").read_bytes()

    def test_symlink_destination_written_through(self, tmp_path):
        # a link to a file not yet written makes it, as open would; a rewrite
        # replaces the file it points to and keeps the link
        store = tmp_path / "store"
        store.mkdir()
        link = tmp_path / "g.sic"
        link.symlink_to(store / "g.sic")
        for t in (2, 3):
            data.write_grid(grid_of(np.full((t, 4, 4), 0.5)), link)
            assert link.is_symlink()
            assert data.read_grid(store / "g.sic").shape == (t, 4, 4)
        assert [p.name for p in store.iterdir()] == ["g.sic"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.sic", "store"]

    def test_written_file_has_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "plain", "wb"):
            pass
        data.write_grid(grid_of(np.zeros((2, 4, 4))), tmp_path / "g.sic")
        assert os.stat(tmp_path / "g.sic").st_mode == os.stat(tmp_path / "plain").st_mode


class TestContainerMemory:
    # the benchmark's grid size, with holes and land; each pin is a multiple
    # of the frames' bytes
    @pytest.fixture
    def grid(self):
        r = np.random.default_rng(5)
        frames = r.uniform(size=(365, 64, 64)).astype(np.float32)
        frames[r.random(frames.shape) < 0.05] = np.nan
        return grid_of(frames, land=r.random((64, 64)) < 0.1)

    def test_read_holds_the_frames_once(self, tmp_path, grid):
        # the frames are read straight into their array: no copy of the file
        # beside them, only the missing bitmaps' boolean masks (a quarter each)
        path = tmp_path / "g.sic"
        data.write_grid(grid, path)
        assert traced_peak(data.read_grid, path) < 2 * grid.frames.nbytes

    def test_write_copies_no_whole_grid(self, tmp_path, grid):
        # the missing mask (a quarter of the frames' bytes) and one block of
        # zero-filled frames at a time, never a zero-filled copy of the grid
        assert traced_peak(data.write_grid, grid, tmp_path / "g.sic") < grid.frames.nbytes / 2
