import numpy as np
import pytest

from icessm import metrics

from oracles import brute_force_errors


def rng(seed=0):
    return np.random.default_rng(seed)


class TestErrors:
    def test_identical_is_zero(self):
        y = rng(1).uniform(size=(3, 4, 4)).astype(np.float32)
        assert metrics.rmse(y, y) == 0.0
        assert metrics.mae(y, y) == 0.0

    def test_constant_offset_mae(self):
        y = rng(2).uniform(0.2, 0.8, size=(2, 4, 4)).astype(np.float32)
        assert metrics.mae(y + 0.01, y) == pytest.approx(1.0, abs=1e-4)

    def test_matches_brute_force(self):
        r = rng(3)
        yhat = r.uniform(size=(2, 5, 5)).astype(np.float32)
        y = r.uniform(size=(2, 5, 5)).astype(np.float32)
        mask = r.uniform(size=(5, 5)) > 0.3
        want = brute_force_errors(yhat, y, mask)
        got = (metrics.rmse(yhat, y, mask), metrics.mae(yhat, y, mask),
               metrics.nse(yhat, y, mask))
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_empty_mask_rejected(self):
        y = np.zeros((2, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="empty"):
            metrics.rmse(y, y, np.zeros((3, 3), dtype=bool))


class TestNse:
    def test_perfect_is_100(self):
        y = rng(4).uniform(size=(3, 4, 4)).astype(np.float32)
        assert metrics.nse(y, y) == 100.0

    def test_mean_predictor_is_zero(self):
        y = rng(5).uniform(size=(2, 6, 6)).astype(np.float32)
        yhat = np.full_like(y, np.asarray(y, np.float64).mean())
        assert metrics.nse(yhat, y) == pytest.approx(0.0, abs=1e-4)

    def test_hand_four_pixel_case(self):
        y = np.array([[[0.0, 1.0], [0.0, 1.0]]])
        yhat = np.array([[[0.5, 1.0], [0.0, 0.5]]])
        # ybar=0.5, denom=4*0.25=1, num=0.25+0.25=0.5 -> nse = 50%
        assert metrics.nse(yhat, y) == pytest.approx(50.0, abs=1e-5)

    def test_translation_invariance(self):
        r = rng(6)
        y = r.uniform(size=(2, 4, 4))
        yhat = r.uniform(size=(2, 4, 4))
        a = metrics.nse(yhat, y)
        b = metrics.nse(yhat + 0.25, y + 0.25)
        assert a == pytest.approx(b, abs=1e-6)

    def test_zero_variance_rejected(self):
        y = np.full((2, 3, 3), 0.4, dtype=np.float32)
        with pytest.raises(ValueError, match="variance"):
            metrics.nse(y + 0.1, y)

    def test_rmse_at_least_mae(self):
        r = rng(7)
        for _ in range(20):
            yhat = r.uniform(size=(8, 8)).astype(np.float32)
            y = r.uniform(size=(8, 8)).astype(np.float32)
            assert metrics.rmse(yhat, y) >= metrics.mae(yhat, y)


class TestExtent:
    def test_sie_counts_cells(self):
        frame = np.array([[0.0, 0.2], [0.15, 0.14]])
        assert metrics.sie(frame) == 2.0
        assert metrics.sie(frame, cell_area=625.0) == 1250.0

    def test_iou_identical_masks(self):
        y = rng(8).uniform(size=(6, 6)).astype(np.float32)
        assert metrics.iou(y, y) == 1.0

    def test_iou_disjoint(self):
        a = np.zeros((4, 4)); a[:2] = 1.0
        b = np.zeros((4, 4)); b[2:] = 1.0
        assert metrics.iou(a, b) == 0.0

    def test_iou_half_overlap_third(self):
        # a covers rows 0-1, b covers rows 1-2: intersection 1 row, union 3
        a = np.zeros((4, 4)); a[0:2] = 1.0
        b = np.zeros((4, 4)); b[1:3] = 1.0
        assert metrics.iou(a, b) == pytest.approx(1 / 3)

    def test_iou_both_empty(self):
        z = np.zeros((3, 3))
        assert metrics.iou(z, z) == 1.0

    def test_iou_symmetric_and_monotone(self):
        r = rng(9)
        a = r.uniform(size=(8, 8))
        b = r.uniform(size=(8, 8))
        assert metrics.iou(a, b) == metrics.iou(b, a)
        # growing the overlap of nested masks cannot decrease iou
        base = np.zeros((8, 8)); base[0:2] = 1.0
        grown = base.copy(); grown[2] = 1.0
        target = np.zeros((8, 8)); target[0:4] = 1.0
        assert metrics.iou(grown, target) >= metrics.iou(base, target)


class TestBiasMap:
    def test_checker_render_bounds(self, tmp_path):
        checker = np.indices((6, 6)).sum(axis=0) % 2
        bias = np.where(checker, 0.5, -0.5).astype(np.float32)
        path = tmp_path / "bias.ppm"
        metrics.write_bias_ppm(bias, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n6 6\n255\n")
        img = np.frombuffer(raw[len(b"P6\n6 6\n255\n"):], dtype=np.uint8).reshape(6, 6, 3)
        assert img[:, :, 0].max() == 255 and img[:, :, 2].max() == 255
        assert img[:, :, 1].max() == 0
        # red and blue never overlap on a strict checker
        assert (np.minimum(img[:, :, 0], img[:, :, 2]) == 0).all()


class TestEvaluate:
    def test_report_schema(self):
        r = rng(12)
        yhat = r.uniform(size=(3, 1, 6, 6)).astype(np.float32)
        y = r.uniform(size=(3, 1, 6, 6)).astype(np.float32)
        rep = metrics.evaluate(yhat, y)
        d = rep.to_dict()
        assert set(d) == {"overall", "per_lead_day"}
        assert len(d["per_lead_day"]) == 3
        assert d["per_lead_day"][0]["lead"] == 1
        assert d["overall"]["rmse"] >= 0

    def test_self_forecast_perfect(self):
        y = rng(13).uniform(size=(2, 1, 4, 4)).astype(np.float32)
        rep = metrics.evaluate(y, y)
        assert rep.rmse == 0.0 and rep.iou == 1.0 and rep.nse == 100.0

    def test_entries_match_the_metric_functions(self):
        r = rng(14)
        y = r.uniform(size=(4, 1, 6, 7)).astype(np.float32)
        yhat = r.uniform(size=(4, 1, 6, 7)).astype(np.float32)
        yhat[0, 0, :2] = metrics.EXTENT_THRESHOLD      # cells on the extent threshold
        y[2] = 0.5                                      # lead 3: zero variance
        yhat[3] = y[3] = 0.0                            # lead 4: no extent, no variance
        mask = r.uniform(size=(6, 7)) > 0.3
        rep = metrics.evaluate(yhat, y, mask)
        yh, yt = yhat[:, 0], y[:, 0]
        for lead, row in enumerate(rep.per_lead_day):
            a, b = yh[lead], yt[lead]
            assert row["lead"] == lead + 1
            for name in ("rmse", "mae"):
                assert row[name] == pytest.approx(getattr(metrics, name)(a, b, mask), rel=1e-12)
            assert row["iou"] == pytest.approx(metrics.iou(a[mask], b[mask]), rel=1e-12)
            if lead >= 2:
                assert row["nse"] is None
            else:
                assert row["nse"] == pytest.approx(metrics.nse(a, b, mask), rel=1e-12)
        assert rep.per_lead_day[3]["iou"] == 1.0
        for name in ("rmse", "mae", "nse"):
            assert getattr(rep, name) == pytest.approx(getattr(metrics, name)(yh, yt, mask),
                                                       rel=1e-12)
        assert rep.iou == pytest.approx(metrics.iou(yh[:, mask], yt[:, mask]), rel=1e-12)
        assert (rep.sie, rep.sie_true) == (metrics.sie(yh[-1][mask]), metrics.sie(yt[-1][mask]))

    def test_land_cells_do_not_reach_the_extent_scores(self):
        # a perfect forecast over the ocean, wrong on one land cell
        y = rng(15).uniform(size=(2, 1, 6, 6)).astype(np.float32)
        ocean = np.ones((6, 6), dtype=bool)
        ocean[0, 0] = False
        y[:, :, 0, 0] = 0.0
        yhat = y.copy()
        yhat[:, :, 0, 0] = 0.9
        perfect, rep = metrics.evaluate(y, y, ocean), metrics.evaluate(yhat, y, ocean)
        assert (rep.rmse, rep.iou, rep.sie) == (0.0, 1.0, perfect.sie)
        assert [row["iou"] for row in rep.per_lead_day] == [1.0, 1.0]

    def test_zero_variance_overall_nse_is_none(self):
        y = np.full((2, 1, 3, 3), 0.4, dtype=np.float32)
        rep = metrics.evaluate(y + 0.1, y, np.ones((3, 3), dtype=bool))
        assert rep.nse is None
        assert all(row["nse"] is None for row in rep.per_lead_day)

    def test_mask_over_more_than_one_frame_rejected(self):
        y = np.zeros((2, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="mask"):
            metrics.evaluate(y, y, np.ones((2, 3, 3), dtype=bool))
