import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icessm import model, nd, sfc, ssm
from icessm.nd import Tensor


def manhattan_steps(lin, dims):
    t, h, w = dims
    tt = lin // (h * w)
    hh = (lin % (h * w)) // w
    ww = lin % w
    return np.abs(np.diff(tt)) + np.abs(np.diff(hh)) + np.abs(np.diff(ww))


def assert_bijective(order, dims):
    assert sorted(order.tolist()) == list(range(int(np.prod(dims))))


dims_st = st.tuples(st.integers(1, 16), st.integers(1, 16), st.integers(1, 16))


class TestGilbert:
    def test_line_degenerates_to_raster(self):
        assert sfc.gilbert3d((1, 1, 4)).tolist() == [0, 1, 2, 3]

    def test_2x2x2_unit_steps(self):
        order = sfc.gilbert3d((2, 2, 2))
        assert_bijective(order, (2, 2, 2))
        assert (manhattan_steps(order, (2, 2, 2)) == 1).all()

    def test_3x5x2_bijective_adjacent(self):
        order = sfc.gilbert3d((3, 5, 2))
        assert order.size == 30
        assert_bijective(order, (3, 5, 2))
        assert (manhattan_steps(order, (3, 5, 2)) == 1).all()

    @settings(max_examples=120, deadline=None)
    @given(dims=dims_st, spatial_first=st.booleans())
    def test_random_dims_bijective_adjacent(self, dims, spatial_first):
        prio = (1, 2, 0) if spatial_first else (0, 1, 2)
        order = sfc.gilbert3d(dims, prio)
        assert_bijective(order, dims)
        if order.size > 1:
            assert (manhattan_steps(order, dims) == 1).all()

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            sfc.gilbert3d((0, 4, 4))

    def test_orders_and_routes_are_pinned(self):
        # sha256 of little-endian int64 visit orders, fixed before the
        # construction moved from coordinate tuples to linear strides
        orders = hashlib.sha256()
        for dims in itertools.product(range(1, 9), repeat=3):
            for prio in ((0, 1, 2), (1, 2, 0)):
                orders.update(sfc.gilbert3d(dims, prio).astype("<i8").tobytes())
        assert orders.hexdigest() == (
            "aef7decf2d5d34ae316f9ebe97d6fae10caf44b0f50095e0cd083a115ce2ffbb")
        tables = hashlib.sha256()
        for kind in ("hilbert_spatial_first", "hilbert_temporal_first"):
            for dims in ((14, 4, 4), (14, 8, 8), (14, 16, 16)):
                tables.update(np.ascontiguousarray(
                    sfc.routes(kind, dims, 4)).astype("<i8").tobytes())
        assert tables.hexdigest() == (
            "416894a8c0017d31178e16b1f38d2eea7770b756b131f631b25ff4f46c572159")

    def test_variants_differ(self):
        a = sfc.gilbert3d((4, 8, 8), (0, 1, 2))
        b = sfc.gilbert3d((4, 8, 8), (1, 2, 0))
        assert np.array_equal(a, sfc.make_order("hilbert_temporal_first", (4, 8, 8)))
        assert np.array_equal(b, sfc.make_order("hilbert_spatial_first", (4, 8, 8)))
        assert not np.array_equal(a, b)


class TestRaster:
    def test_identity(self):
        assert sfc.raster((1, 2, 2)).tolist() == [0, 1, 2, 3]
        assert sfc.raster((2, 1, 2)).tolist() == [0, 1, 2, 3]

    def test_temporal_stride(self):
        # matching pixels in the two frames of a (2,2,2) cuboid sit H*W apart
        rank = np.argsort(sfc.raster((2, 2, 2)))
        gaps = [abs(rank[i + 4] - rank[i]) for i in range(4)]
        assert np.mean(gaps) == 4.0


class TestZorder:
    def test_1x2x2_interleave_oracle(self):
        # 2-bit interleave: w takes bit 0, h takes bit 1
        expect = [(0, 0), (0, 1), (1, 0), (1, 1)]
        lin = [h * 2 + w for (h, w) in expect]
        assert sfc.zorder((1, 2, 2)).tolist() == lin

    def test_2x2x2_morton_oracle(self):
        # independent 3-bit interleave: code = t<<2 | h<<1 | w
        cells = sorted(
            ((t << 2) | (h << 1) | w, t * 4 + h * 2 + w)
            for t in range(2) for h in range(2) for w in range(2)
        )
        assert sfc.zorder((2, 2, 2)).tolist() == [lin for _, lin in cells]

    def test_1x3x3_skip_compaction(self):
        order = sfc.zorder((1, 3, 3))
        assert order.size == 9
        assert_bijective(order, (1, 3, 3))

    @settings(max_examples=60, deadline=None)
    @given(dims=dims_st)
    def test_random_dims_bijective(self, dims):
        assert_bijective(sfc.zorder(dims), dims)


class TestPeano:
    def test_1x1x3_line(self):
        assert sfc.peano((1, 1, 3)).tolist() == [0, 1, 2]

    def test_1x3x3_boustrophedon_oracle(self):
        # hand-derived serpentine over a 3x3 plane:
        # (0,0)(0,1)(0,2)(1,2)(1,1)(1,0)(2,0)(2,1)(2,2)
        assert sfc.peano((1, 3, 3)).tolist() == [0, 1, 2, 5, 4, 3, 6, 7, 8]

    def test_2x2x2_bijective(self):
        assert_bijective(sfc.peano((2, 2, 2)), (2, 2, 2))

    def test_full_cube_adjacency(self):
        # on an uncompacted power-of-3 cube the curve is a unit-step path
        for dims in [(3, 3, 3), (9, 9, 9)]:
            order = sfc.peano(dims)
            assert_bijective(order, dims)
            assert (manhattan_steps(order, dims) == 1).all()

    @settings(max_examples=60, deadline=None)
    @given(dims=dims_st)
    def test_random_dims_bijective(self, dims):
        assert_bijective(sfc.peano(dims), dims)


class TestZorderPeanoKeys:
    # odd, 1-thick and non-power-of-base extents, and grids far inside their box or cube
    SWEEP = list(itertools.product((1, 2, 3, 5, 9, 10, 17), repeat=3)) + [
        (14, 16, 16), (3, 81, 80), (30, 28, 29), (1, 80, 1), (81, 1, 2), (30, 64, 64)]

    @pytest.mark.parametrize("kind, digest", [
        ("zorder", "90dea66427fb6a76525351ff288320f48c0cc3ca0cabe8bffd3b297dd09d2073"),
        ("peano", "5191556ee2b6e495d8ae432a04bf0920c7f9175b2394c42abd6c04ad9fa10be7"),
    ])
    def test_orders_are_pinned(self, kind, digest):
        # sha256 of little-endian int64 visit orders, fixed while each order
        # still enumerated its enclosing box or cube and dropped the cells outside
        orders = hashlib.sha256()
        for dims in self.SWEEP:
            orders.update(sfc.make_order(kind, dims).astype("<i8").tobytes())
        assert orders.hexdigest() == digest

    @pytest.mark.parametrize("kind", ["zorder", "peano"])
    def test_sub_grid_keeps_its_order(self, kind):
        # a cell's key depends on the cell, not on the grid, so the cells of
        # (1, 81, 3) keep their order inside (1, 2200, 3), whose 24 Peano
        # digits fill both of its int64 keys
        big = sfc.make_order(kind, (1, 2200, 3))
        assert_bijective(big, (1, 2200, 3))
        assert np.array_equal(big[big < 81 * 3], sfc.make_order(kind, (1, 81, 3)))

    @pytest.mark.parametrize("dims", [(14, 16, 16), (1, 1025, 3)])
    @pytest.mark.parametrize("kind", ["zorder", "peano"])
    def test_memory_is_bounded_per_cell(self, kind, dims):
        # 25-35 bytes a cell measured; enumerating the enclosing box or cube
        # peaked at 65-621 here, and Peano's 3**7 cube at 1x1025x3 was refused
        sfc.make_order(kind, dims)
        tracemalloc.start()
        try:
            sfc.make_order(kind, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * math.prod(dims)


class TestRoutes:
    def test_single(self):
        table = sfc.routes("hilbert_temporal_first", (2, 2, 2), 1)
        assert table.shape == (8, 1)
        assert np.array_equal(table[:, 0], sfc.gilbert3d((2, 2, 2)))

    def test_reversal(self):
        table = sfc.routes("hilbert_temporal_first", (2, 3, 4), 2)
        fwd, bwd = table.T
        assert np.array_equal(fwd, sfc.gilbert3d((2, 3, 4)))
        assert np.array_equal(bwd, fwd[::-1])
        assert np.array_equal(bwd[::-1], fwd)

    def test_four_distinct_bijections(self):
        table = sfc.routes("hilbert_temporal_first", (2, 2, 2), 4)
        assert table.shape == (8, 4)
        for r in table.T:
            assert_bijective(r, (2, 2, 2))
        seqs = [tuple(r.tolist()) for r in table.T]
        assert len(set(seqs)) == 4

    def test_rotated_route_keeps_adjacency(self):
        for r in sfc.routes("hilbert_temporal_first", (3, 4, 6), 4).T:
            assert (manhattan_steps(r, (3, 4, 6)) == 1).all()

    def test_unsupported_count(self):
        with pytest.raises(ValueError):
            sfc.routes("raster", (2, 2, 2), 3)

    def test_read_only_table_reused_by_the_model(self, monkeypatch):
        for kind in sfc.KINDS:
            for n_routes in (1, 2, 4):
                table = sfc.routes(kind, (3, 4, 5), n_routes)
                assert table.shape == (60, n_routes) and table.dtype == np.int64
                assert not table.flags.writeable
                for k in range(0, n_routes - 1, 2):
                    assert np.array_equal(table[:, k + 1], table[::-1, k])
        with pytest.raises(ValueError):
            table[0, 0] = 1

        seen = []
        block = ssm.mamba_block
        monkeypatch.setattr(ssm, "mamba_block",
                            lambda x, table, p: seen.append(table) or block(x, table, p))
        cfg = model.ModelConfig(in_len=4, out_len=4, hidden=8, n_fssm=2, n_routes=4)
        params = model.init_params(np.random.default_rng(0), cfg)
        x = np.zeros((4, 1, 12, 12), dtype=np.float32)
        model.forward(x, params, cfg)
        model.forward(x, params, cfg)
        assert len(seen) == 4 and all(t is seen[0] for t in seen)
        assert seen[0].shape == (36, 4) and not seen[0].flags.writeable


class TestApply:
    """The scan path the model takes: flatten in raster order, gather along the
    order, gather back through its inverse. One volume is a batch of one,
    and one order a route table of one column."""

    @staticmethod
    def scan(order, v):
        return nd.gather(ssm.volume_to_seq(Tensor(v[None])), order[:, None])

    def test_raster_apply_is_flatten(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        seq = self.scan(sfc.raster((2, 4, 5)), v)
        assert np.array_equal(seq.data[:, 0], np.moveaxis(v, 1, -1).reshape(40, 3))

    @settings(max_examples=40, deadline=None)
    @given(dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
           kind=st.sampled_from(sfc.KINDS))
    def test_round_trip(self, dims, kind):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(dims[0], 2, dims[1], dims[2])).astype(np.float32)
        order = sfc.make_order(kind, dims)
        back = nd.gather(self.scan(order, v), np.argsort(order)[:, None])
        assert np.array_equal(ssm.seq_to_volume(back, dims).data[0], v)

    def test_sequence_matches_forward_list(self):
        order = sfc.gilbert3d((2, 2, 2))
        v = np.arange(8, dtype=np.float32).reshape(2, 1, 2, 2)
        seq = self.scan(order, v)
        assert np.array_equal(seq.data[:, 0, 0].astype(np.int64), order)


class TestLocality:
    def test_raster_222_temporal_gap(self):
        stats = sfc.locality_score(sfc.raster((2, 2, 2)), (2, 2, 2))
        assert stats.axis_mean_gaps[0] == pytest.approx(4.0)

    def test_hilbert_beats_raster_on_8cube(self):
        g = sfc.locality_score(sfc.gilbert3d((8, 8, 8)), (8, 8, 8))
        r = sfc.locality_score(sfc.raster((8, 8, 8)), (8, 8, 8))
        assert g.mean_gap < r.mean_gap

    def test_zorder_between_gilbert_and_raster(self):
        g = sfc.locality_score(sfc.gilbert3d((8, 8, 8)), (8, 8, 8)).mean_gap
        z = sfc.locality_score(sfc.zorder((8, 8, 8)), (8, 8, 8)).mean_gap
        r = sfc.locality_score(sfc.raster((8, 8, 8)), (8, 8, 8)).mean_gap
        assert g < z < r

    def test_full_ordering_8cube(self):
        means = {
            kind: sfc.locality_score(sfc.make_order(kind, (8, 8, 8)), (8, 8, 8)).mean_gap
            for kind in ("hilbert_temporal_first", "peano", "zorder", "raster")
        }
        assert (means["hilbert_temporal_first"] <= means["peano"]
                <= means["zorder"] <= means["raster"])
        assert means["hilbert_temporal_first"] < means["raster"]


class TestDeterminismAndIo:
    def test_identical_inputs_identical_orders(self):
        for kind in sfc.KINDS:
            a = sfc.make_order(kind, (5, 6, 7))
            b = sfc.make_order(kind, (5, 6, 7))
            assert np.array_equal(a, b)

    def test_golden_file_round_trip(self, tmp_path):
        table = sfc.routes("hilbert_temporal_first", (3, 4, 5), 2)
        path = tmp_path / "orders.txt"
        sfc.write_orders(path, "hilbert_temporal_first", (3, 4, 5), table)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        for r, (header, visits) in enumerate(zip(lines[0::2], lines[1::2])):
            kind, t, h, w, direction = header.split()
            assert (kind, (int(t), int(h), int(w))) == ("hilbert_temporal_first", (3, 4, 5))
            assert direction == ("backward" if r % 2 else "forward")
            assert np.array_equal([int(i) for i in visits.split()], table[:, r])
