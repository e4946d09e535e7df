import hashlib
import json
import os
import stat
import struct
import time
import tracemalloc

import numpy as np
import pytest

from icessm import data, model, nd, sfc
from icessm.cli import _config_from_args, _parse_dims, build_parser, main


def run(*argv):
    return main(list(argv))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestScan:
    def test_raster_golden_file(self, tmp_path):
        out = tmp_path / "order.txt"
        assert run("scan", "--kind", "raster", "--dims", "1,2,2",
                   "--out", str(out)) == 0
        assert out.read_text() == "raster 1 2 2 forward\n0 1 2 3\n"

    def test_two_routes_written(self, tmp_path):
        out = tmp_path / "order.txt"
        assert run("scan", "--kind", "hilbert-t", "--dims", "2,4,4",
                   "--routes", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0::2] == ["hilbert_temporal_first 2 4 4 forward",
                               "hilbert_temporal_first 2 4 4 backward"]
        fwd, bwd = ([int(i) for i in line.split()] for line in lines[1::2])
        assert fwd == sfc.make_order("hilbert_temporal_first", (2, 4, 4)).tolist()
        assert bwd == fwd[::-1]

    def test_repeat_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("scan", "--kind", "hilbert-s", "--dims", "3,5,2", "--out", str(a))
        run("scan", "--kind", "hilbert-s", "--dims", "3,5,2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_dims_usage_error(self, tmp_path):
        assert run("scan", "--kind", "raster", "--dims", "0,2,2",
                   "--out", str(tmp_path / "x")) == 2


class TestBenchLocality:
    def test_five_rows(self, tmp_path):
        out = tmp_path / "loc.csv"
        # 200,8,8: 12800 cells, though Peano's enclosing cube holds 243**3
        for dims in ("8,8,8", "200,8,8"):
            assert run("bench-locality", "--dims", dims, "--out", str(out)) == 0
            lines = out.read_text().strip().splitlines()
            assert len(lines) == 6  # header + 5 kinds
            assert lines[0].startswith("kind,mean_gap")


class TestOversizedDims:
    @pytest.mark.parametrize("argv", [
        ("scan", "--kind", "peano", "--dims", "2049,2049,1"),   # 2**22 + 4097 cells
        ("scan", "--kind", "zorder", "--dims", "2049,2049,1"),
        ("scan", "--kind", "hilbert-t", "--dims", "3000,3000,3000"),
        ("bench-locality", "--dims", "300,300,300"),
        ("synth", "--dims", "100000,1000,1000"),
    ], ids=["peano", "zorder", "hilbert", "bench-locality", "synth"])
    def test_refused_before_allocating(self, tmp_path, argv):
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = run(*argv, "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 4 << 20   # one int64 array at the cell budget is 32 MiB
        assert not out.exists()

    def test_budget_edge_accepted(self):
        # the budget counts T*H*W, whatever box or cube an order's curve spans
        assert _parse_dims("2048,2048,1") == (2048, 2048, 1)
        assert 2048 * 2048 == sfc.MAX_CELLS
        with pytest.raises(ValueError, match="over the budget"):
            _parse_dims("2048,2049,1")

    @pytest.mark.parametrize("dims", ["1000,1,1", "82,1,1"], ids=["peano", "peano-cube"])
    def test_peano_past_its_enclosing_cube_accepted(self, tmp_path, dims):
        # enclosing cubes of 2187**3 and 243**3 cells; a line's Peano order is raster
        out = tmp_path / "order.txt"
        assert run("scan", "--kind", "peano", "--dims", dims, "--out", str(out)) == 0
        n = int(dims.split(",")[0])
        assert out.read_text().splitlines()[1].split() == [str(i) for i in range(n)]


class TestSynthPreprocess:
    @pytest.mark.parametrize("flag, value, field", [
        ("--drift", "inf", "drift"), ("--drift", "nan", "drift"), ("--drift", "-0.5", "drift"),
        ("--blobs", "-1", "n_blobs"), ("--blobs", "100000000000", "n_blobs")])
    def test_bad_synth_flag_is_usage_error(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "g.sic"
        assert run("synth", "--dims", "12,8,8", flag, value, "--out", str(out)) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_synth_over_the_evaluation_budget_is_usage_error(self, tmp_path, capsys):
        # inside sfc.MAX_CELLS and H*W, but 8 * 724^4 Gaussians would take hours
        out = tmp_path / "g.sic"
        start = time.monotonic()
        assert run("synth", "--dims", "8,724,724", "--blobs", "524176", "--out", str(out)) == 2
        assert time.monotonic() - start < 2.0
        assert "n_blobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "1.5"])
    def test_bad_land_threshold_is_usage_error(self, tmp_path, capsys, value):
        # the input does not exist: the threshold is refused before it is read
        out = tmp_path / "p.sic"
        assert run("preprocess", "--input", str(tmp_path / "nope.sic"), "--out", str(out),
                   "--land-threshold", value) == 2
        assert "--land-threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.sic", tmp_path / "b.sic"
        run("synth", "--seed", "7", "--dims", "20,8,8", "--out", str(a))
        run("synth", "--seed", "7", "--dims", "20,8,8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_preprocess_gapless_value_identical(self, tmp_path):
        src = tmp_path / "g.sic"
        run("synth", "--seed", "1", "--dims", "12,8,8", "--out", str(src))
        out = tmp_path / "p.sic"
        assert run("preprocess", "--input", str(src), "--out", str(out)) == 0
        before = data.read_grid(src)
        after = data.read_grid(out)
        np.testing.assert_array_equal(after.frames, before.frames)

    def test_preprocess_manifest_records_input_digest(self, tmp_path):
        src = tmp_path / "g.sic"
        run("synth", "--seed", "1", "--dims", "12,8,8", "--out", str(src))
        digest = sha256(src)
        # written in place: the digest is of the bytes read, not of the output
        assert run("preprocess", "--input", str(src), "--out", str(src)) == 0
        manifest = json.loads((tmp_path / "manifest-preprocess.json").read_text())
        assert manifest["inputs"] == {str(src): digest}

    def test_synth_manifest_records_no_inputs(self, tmp_path):
        run("synth", "--seed", "1", "--dims", "12,8,8", "--out", str(tmp_path / "g.sic"))
        manifest = json.loads((tmp_path / "manifest-synth.json").read_text())
        assert manifest["inputs"] == {}

    def test_preprocess_fills_date_gap(self, tmp_path):
        g = data.synth_generate(2, 10, 8, 8)
        gap = data.Grid3(g.frames[[0, 1, 2, 4, 5]], g.dates[[0, 1, 2, 4, 5]],
                         g.land_mask)
        src = tmp_path / "gap.sic"
        data.write_grid(gap, src)
        out = tmp_path / "filled.sic"
        assert run("preprocess", "--input", str(src), "--out", str(out)) == 0
        filled = data.read_grid(out)
        assert filled.shape[0] == 6
        np.testing.assert_allclose(
            filled.frames[3], 0.5 * (gap.frames[2] + gap.frames[3]), atol=1e-6)

    def test_empty_series_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "empty.sic"
        data.write_grid(data.Grid3(np.zeros((0, 4, 4)), np.zeros(0), np.zeros((4, 4), bool)),
                        src)
        assert run("preprocess", "--input", str(src), "--out", str(tmp_path / "x.sic")) == 3
        assert "empty series" in capsys.readouterr().err

    def test_fifo_out_is_data_error_and_kept(self, tmp_path, capsys):
        # a grid replaces only a regular file, never a FIFO or device
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert run("synth", "--dims", "8,8,8", "--out", str(fifo)) == 3
        assert "not a regular file" in capsys.readouterr().err
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("preprocess", "--input", str(tmp_path / "nope.sic"),
                   "--out", str(tmp_path / "x.sic")) == 3

    def test_hostile_header_is_data_error(self, tmp_path):
        # the header claims T=2^18 and H=W=2^11, a 1 TiB missing bitmap; the
        # 2.6 MB file holds just the dates and the land bitmap
        t, h, w = 2 ** 18, 2 ** 11, 2 ** 11
        src = tmp_path / "hostile.sic"
        src.write_bytes(data.MAGIC + np.array([t, h, w], dtype="<u4").tobytes()
                        + bytes(8 * t + h * w // 8))
        tracemalloc.start()
        try:
            with pytest.raises(data.FormatError, match="truncated"):
                data.read_grid(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * src.stat().st_size  # nothing sized by the header
        assert run("preprocess", "--input", str(src), "--out", str(tmp_path / "x.sic")) == 3


def test_model_flag_defaults_are_model_config_defaults():
    # _add_model_flags writes each default of ModelConfig a second time
    a = build_parser().parse_args(["train", "--data", "grid.sic", "--out", "run"])
    assert _config_from_args(a) == model.ModelConfig()


def assert_out_refused(tmp_path, capsys, out, command, *argv):
    """``command`` with ``--out`` at ``out`` under the file tmp_path/file exits 3
    before any work: it prints nothing to stdout and writes nothing."""
    (tmp_path / "file").write_text("not a directory")
    code = run(command, *argv, "--out", str(tmp_path / out))
    captured = capsys.readouterr()
    assert code == 3
    assert "is not a directory" in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "not a directory"


def grid_reader_argv(command, grid, truth):
    """The arguments, apart from ``--out``, of ``command`` reading ``grid``; ``eval``
    scores it against ``truth``."""
    return {"eval": ["--forecast", str(grid), "--truth", str(truth)],
            "preprocess": ["--input", str(grid)],
            "train": ["--data", str(grid), "--in-len", "4", "--out-len", "4",
                      "--hidden", "8", "--fssm", "1", "--epochs", "1"]}[command]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    grid_path = root / "grid.sic"
    run("synth", "--seed", "3", "--dims", "24,8,8", "--out", str(grid_path))
    model_dir = root / "model"
    code = run("train", "--data", str(grid_path), "--out", str(model_dir),
               "--in-len", "4", "--out-len", "4", "--hidden", "8",
               "--fssm", "1", "--epochs", "2", "--batch-size", "4",
               "--seed", "0")
    assert code == 0
    return root, grid_path, model_dir


class TestPipeline:
    def test_train_outputs(self, trained):
        _, grid_path, model_dir = trained
        assert (model_dir / "model.ckpt").exists()
        assert (model_dir / "history.csv").exists()
        config = json.loads((model_dir / "config.json").read_text())
        assert config["in_len"] == 4 and config["seed"] == 0
        manifest = json.loads((model_dir / "manifest-train.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["numpy_version"] == np.__version__
        assert 0 < manifest["elapsed_s"] < 600
        assert 0 < manifest["peak_rss_mb"] < 4096
        assert type(manifest["minor_faults"]) is int and manifest["minor_faults"] >= 0
        assert "started" not in manifest["args"]
        assert manifest["inputs"] == {str(grid_path): sha256(grid_path)}

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"), ("--batch-size", "-1"), ("--epochs", "0"),
        ("--patience", "0"), ("--patience", "-1"),
        ("--lr", "nan"), ("--lr", "-0.001"), ("--stride", "0"), ("--hidden", "0"),
        ("--state-size", "0"), ("--lambda", "nan"), ("--lambda", "inf"),
        ("--val-fraction", "inf"), ("--val-fraction", "nan"), ("--val-fraction", "0"),
        ("--val-fraction", "1"), ("--val-fraction", "-0.5")])
    def test_bad_training_flag_is_usage_error(self, trained, tmp_path, flag, value):
        _, grid_path, _ = trained
        out = tmp_path / "bad"
        code = run("train", "--data", str(grid_path), "--out", str(out), "--in-len", "4",
                   "--out-len", "4", "--hidden", "8", "--fssm", "1", "--epochs", "1", flag, value)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("size", [
        ("--hidden", "100000"), ("--state-size", "1000000000"), ("--fssm", "1000000000"),
        # the smallest block: the most blocks before the budget is reached
        ("--hidden", "2", "--state-size", "1", "--fusion", "sum", "--fssm", "1000000000")],
        ids=["hidden", "state-size", "fssm", "fssm-smallest-block"])
    def test_oversized_model_refused_before_allocating(self, trained, tmp_path, capsys, size):
        _, grid_path, _ = trained
        out = tmp_path / "big"
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = run("train", "--data", str(grid_path), "--out", str(out), "--in-len", "4",
                       "--out-len", "4", "--hidden", "8", "--fssm", "1", "--epochs", "1",
                       *size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert f"over the budget of {model.MAX_PARAMS}" in capsys.readouterr().err
        assert peak < 4 << 20
        assert not out.exists()

    def test_predict_shape(self, trained):
        root, grid_path, model_dir = trained
        out = root / "pred"
        assert run("predict", "--model", str(model_dir), "--data",
                   str(grid_path), "--out", str(out)) == 0
        fc = data.read_grid(out / "forecast.sic")
        assert fc.shape == (4, 8, 8)
        assert np.nanmin(fc.frames) >= 0.0 and np.nanmax(fc.frames) <= 1.0
        manifest = json.loads((out / "manifest-predict.json").read_text())
        assert manifest["inputs"] == {str(p): sha256(p) for p in (
            model_dir / "config.json", model_dir / "model.ckpt", grid_path)}

    def test_recurse_doubles_length(self, trained):
        root, grid_path, model_dir = trained
        out = root / "rec"
        assert run("recurse", "--model", str(model_dir), "--data",
                   str(grid_path), "--steps", "2", "--out", str(out)) == 0
        fc = data.read_grid(out / "forecast.sic")
        assert fc.shape == (8, 8, 8)

    def test_eval_self_is_perfect(self, trained):
        root, grid_path, model_dir = trained
        out = root / "selfeval"
        assert run("eval", "--forecast", str(grid_path), "--truth",
                   str(grid_path), "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overall"]["rmse"] == 0.0
        assert report["overall"]["iou"] == 1.0
        ppms = list(out.glob("bias-day*.ppm"))
        assert len(ppms) == 24

    def test_eval_overforecast_writes_all_red_bias_maps(self, tmp_path):
        # every cell exactly 0.125 too high: full red, no green or blue, each day
        frames = (np.arange(3 * 4 * 5) % 32).reshape(3, 4, 5) / 64
        land = np.zeros((4, 5), dtype=bool)
        fc, truth = tmp_path / "fc.sic", tmp_path / "truth.sic"
        data.write_grid(data.Grid3(frames + 0.125, np.arange(3), land), fc)
        data.write_grid(data.Grid3(frames, np.arange(3), land), truth)
        out = tmp_path / "eval"
        assert run("eval", "--forecast", str(fc), "--truth", str(truth),
                   "--out", str(out)) == 0
        ppms = sorted(out.glob("bias-day*.ppm"))
        assert len(ppms) == 3
        header = b"P6\n5 4\n255\n"
        for ppm in ppms:
            raw = ppm.read_bytes()
            assert raw.startswith(header)
            img = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(4, 5, 3)
            assert (img == [255, 0, 0]).all()

    def test_recurse_over_the_forecast_budget_is_usage_error(self, trained, tmp_path, capsys):
        _, grid_path, model_dir = trained
        out = tmp_path / "out"
        t0 = time.monotonic()
        assert run("recurse", "--model", str(model_dir), "--data", str(grid_path),
                   "--steps", "100000000", "--out", str(out)) == 2
        assert time.monotonic() - t0 < 1.0
        assert "over" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "preprocess", "train"])
    def test_infinite_value_in_input_is_data_error(self, trained, tmp_path, capsys, command):
        # the container stores no inf; a hand-made file holding one is refused
        _, grid_path, _ = trained
        bad = tmp_path / "inf.sic"
        bad.write_bytes(grid_path.read_bytes()[:-4] + np.float32(np.inf).tobytes())
        out = tmp_path / "out"
        assert run(command, *grid_reader_argv(command, bad, grid_path), "--out", str(out)) == 3
        assert "infinite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "preprocess", "train"])
    def test_dates_not_increasing_is_data_error(self, trained, tmp_path, capsys, command):
        # the container's first two dates swapped: they follow the 6-byte
        # magic and three u32 dims
        _, grid_path, _ = trained
        raw = grid_path.read_bytes()
        bad = tmp_path / "swapped.sic"
        bad.write_bytes(raw[:18] + raw[26:34] + raw[18:26] + raw[34:])
        out = tmp_path / "out"
        assert run(command, *grid_reader_argv(command, bad, grid_path), "--out", str(out)) == 3
        assert "dates must be strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_forecast_against_truth(self, trained):
        root, grid_path, model_dir = trained
        pred_dir = root / "pred2"
        run("predict", "--model", str(model_dir), "--data", str(grid_path),
            "--anchor", "16", "--out", str(pred_dir))
        out = root / "eval2"
        assert run("eval", "--forecast", str(pred_dir / "forecast.sic"),
                   "--truth", str(grid_path), "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_lead_day"]) == 4
        assert report["overall"]["rmse"] >= 0.0

    @pytest.mark.parametrize("command", ["train", "predict", "recurse"])
    @pytest.mark.parametrize("damage", ["missing-value", "date-gap"])
    def test_unprocessed_grid_is_data_error(self, trained, tmp_path, capsys, command, damage):
        # every model input is one frame per day with no missing value; the
        # gap falls inside the last input window
        _, grid_path, model_dir = trained
        grid = data.read_grid(grid_path)
        if damage == "missing-value":
            grid.frames[-3, 2, 2] = np.nan
        else:
            keep = np.arange(grid.shape[0]) != grid.shape[0] - 3
            grid = data.Grid3(grid.frames[keep], grid.dates[keep], grid.land_mask)
        bad = tmp_path / "bad.sic"
        data.write_grid(grid, bad)
        out = tmp_path / "out"
        if command == "train":
            args = ["--in-len", "4", "--out-len", "4", "--hidden", "8", "--fssm", "1",
                    "--epochs", "1"]
        else:
            args = ["--model", str(model_dir)]
        assert run(command, "--data", str(bad), "--out", str(out), *args) == 3
        assert "run preprocess first" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["file", "file/run"])
    def test_out_under_a_file_is_refused_before_training(self, trained, tmp_path, capsys, out):
        _, grid_path, _ = trained
        assert_out_refused(tmp_path, capsys, out, "train", "--data", str(grid_path),
                           "--in-len", "4", "--out-len", "4", "--hidden", "8", "--fssm", "1",
                           "--epochs", "1")

    @pytest.mark.parametrize("command", ["predict", "recurse", "eval"])
    @pytest.mark.parametrize("out", ["file", "file/run"])
    def test_out_under_a_file_is_refused_before_loading(self, trained, tmp_path, capsys,
                                                        command, out):
        _, grid_path, model_dir = trained
        inputs = (["--forecast", str(grid_path), "--truth", str(grid_path)] if command == "eval"
                  else ["--model", str(model_dir), "--data", str(grid_path)])
        assert_out_refused(tmp_path, capsys, out, command, *inputs)

    @pytest.mark.parametrize("command", ["scan", "bench-locality", "synth", "preprocess"])
    def test_file_out_under_a_file_is_refused_before_work(self, trained, tmp_path, capsys,
                                                          command):
        # these commands write one file; the directory that holds it is checked
        _, grid_path, _ = trained
        inputs = {"scan": ["--kind", "raster", "--dims", "2,2,2"],
                  "preprocess": ["--input", str(grid_path)]}.get(command, [])
        assert_out_refused(tmp_path, capsys, "file/out", command, *inputs)

    @pytest.mark.parametrize("command", ["scan", "bench-locality", "synth", "preprocess",
                                         "train", "predict", "recurse", "eval"])
    def test_each_command_writes_one_manifest_of_its_own(self, trained, tmp_path, command):
        _, grid_path, model_dir = trained
        out = tmp_path / "out"
        from_model = ["--model", str(model_dir), "--data", str(grid_path), "--out", str(out)]
        argv = {
            "scan": ["--kind", "raster", "--dims", "2,2,2", "--out", str(out / "order.txt")],
            "bench-locality": ["--dims", "2,2,2", "--out", str(out / "loc.csv")],
            "synth": ["--dims", "8,8,8", "--out", str(out / "g.sic")],
            "preprocess": ["--input", str(grid_path), "--out", str(out / "p.sic")],
            "train": ["--data", str(grid_path), "--out", str(out), "--in-len", "4",
                      "--out-len", "4", "--hidden", "8", "--fssm", "1", "--epochs", "1"],
            "predict": from_model,
            "recurse": from_model,
            "eval": ["--forecast", str(grid_path), "--truth", str(grid_path), "--out", str(out)],
        }[command]
        assert run(command, *argv) == 0
        manifests = list(out.glob("manifest-*.json"))
        assert [p.name for p in manifests] == [f"manifest-{command}.json"]
        assert json.loads(manifests[0].read_text())["command"] == command

    @pytest.mark.parametrize("command", ["predict", "recurse"])
    def test_negative_anchor_is_usage_error(self, trained, tmp_path, command):
        _, grid_path, model_dir = trained
        out = tmp_path / "out"
        assert run(command, "--model", str(model_dir), "--data", str(grid_path),
                   "--anchor", "-10", "--out", str(out)) == 2
        assert not out.exists()

    def test_missing_checkpoint_data_error(self, trained, tmp_path):
        root, grid_path, _ = trained
        assert run("predict", "--model", str(tmp_path / "empty"), "--data",
                   str(grid_path), "--out", str(tmp_path / "o")) == 3

    def test_divergent_training_numerical_error(self, trained, tmp_path):
        _, grid_path, _ = trained
        with np.errstate(all="ignore"):
            code = run("train", "--data", str(grid_path), "--out",
                       str(tmp_path / "diverge"), "--in-len", "4", "--out-len",
                       "4", "--hidden", "8", "--fssm", "1", "--epochs", "2",
                       "--lr", "1e8")
        assert code == 4

    @pytest.mark.parametrize("text", ['{"in_len": 4, "colour": "red"}', '{"in_len": 4,',
                                      '[4]', '{"hidden": 0}', '{"lambda_grad": NaN}',
                                      '{"lambda_grad": true}'],
                             ids=["unknown-key", "invalid-json", "not-an-object",
                                  "hidden-zero", "lambda-nan", "lambda-bool"])
    def test_bad_config_is_data_error(self, trained, tmp_path, text):
        # a config.json that does not describe a ModelConfig is a data error
        _, grid_path, model_dir = trained
        bad = tmp_path / "model"
        bad.mkdir()
        (bad / "model.ckpt").write_bytes((model_dir / "model.ckpt").read_bytes())
        (bad / "config.json").write_text(text)
        assert run("predict", "--model", str(bad), "--data", str(grid_path),
                   "--out", str(tmp_path / "o")) == 3

    @pytest.mark.parametrize("key, number", [("in_len", "4.0"), ("hidden", "8.0"),
                                             ("n_fssm", "1e400")])
    def test_config_number_of_the_wrong_type_is_data_error(self, trained, tmp_path, capsys,
                                                           key, number):
        # (8, 3) == (8.0, 3), so the checkpoint check alone lets a float
        # through; JSON reads 1e400 as inf
        _, grid_path, model_dir = trained
        bad = tmp_path / "model"
        bad.mkdir()
        (bad / "model.ckpt").write_bytes((model_dir / "model.ckpt").read_bytes())
        config = json.loads((model_dir / "config.json").read_text())
        (bad / "config.json").write_text(json.dumps({**config, key: "?"}).replace('"?"', number))
        assert run("predict", "--model", str(bad), "--data", str(grid_path),
                   "--out", str(tmp_path / "o")) == 3
        assert f"{key} must be an int" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("damage", ["truncated", "trailing-bytes", "duplicate-name",
                                        "other-config"])
    def test_corrupt_checkpoint_is_data_error(self, trained, tmp_path, capsys, damage):
        _, grid_path, model_dir = trained
        ckpt = (model_dir / "model.ckpt").read_bytes()
        config = json.loads((model_dir / "config.json").read_text())
        if damage == "truncated":
            ckpt = ckpt[:len(ckpt) // 2]
        elif damage == "trailing-bytes":
            ckpt += bytes(4)
        elif damage == "duplicate-name":  # every tensor, then one of them again
            params = nd.load_params(model_dir / "model.ckpt")
            entries = [*params.items(), ("fssm0.mamba.ln_gamma", params["fssm0.mamba.ln_gamma"])]
            ckpt = struct.pack("<Q", len(entries))
            for name, t in entries:
                ckpt += struct.pack(f"<Q{len(name)}sQ{t.data.ndim}Q", len(name), name.encode(),
                                    t.data.ndim, *t.data.shape)
            ckpt += b"".join(t.data.astype("<f4").tobytes() for _, t in entries)
        else:  # names and shapes of a hidden-8 model under a hidden-16 config
            config["hidden"] = 16
        bad = tmp_path / "model"
        bad.mkdir()
        (bad / "model.ckpt").write_bytes(ckpt)
        (bad / "config.json").write_text(json.dumps(config))
        assert run("predict", "--model", str(bad), "--data", str(grid_path),
                   "--out", str(tmp_path / "o")) == 3
        if damage == "duplicate-name":
            assert "names tensor fssm0.mamba.ln_gamma twice" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("hidden", 1_000_000), ("state_size", 10 ** 9), ("n_fssm", 10 ** 9)],
        ids=["hidden", "state_size", "n_fssm"])
    def test_huge_config_is_data_error(self, trained, tmp_path, key, value):
        # each asks for TiB-sized weights or billions of tensors: the
        # checkpoint's names and shapes must be compared with the config's
        # layout, one entry at a time, before any of them is made
        _, grid_path, model_dir = trained
        ckpt = (model_dir / "model.ckpt").read_bytes()
        config = json.loads((model_dir / "config.json").read_text())
        bad = tmp_path / "model"
        bad.mkdir()
        (bad / "model.ckpt").write_bytes(ckpt)
        (bad / "config.json").write_text(json.dumps({**config, key: value}))
        tracemalloc.start()
        try:
            code = run("predict", "--model", str(bad), "--data", str(grid_path),
                       "--out", str(tmp_path / "o"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 2 * len(ckpt) + 2 ** 20  # the file and its tensors, nothing sized by the config

    @pytest.mark.parametrize("key, value, code", [
        ("wavelet_basis", "haar", 0), ("leaky_slope", 0.01, 0), ("channels", 1, 0),
        ("wavelet_basis", "db2", 3), ("leaky_slope", 0.2, 3), ("channels", 2, 3)])
    def test_retired_config_keys(self, trained, tmp_path, key, value, code):
        # config.json files of earlier versions carry these keys; only the
        # value that is now built in still loads
        _, grid_path, model_dir = trained
        old = tmp_path / "model"
        old.mkdir()
        (old / "model.ckpt").write_bytes((model_dir / "model.ckpt").read_bytes())
        config = json.loads((model_dir / "config.json").read_text())
        (old / "config.json").write_text(json.dumps({**config, key: value}))
        assert run("predict", "--model", str(old), "--data", str(grid_path),
                   "--out", str(tmp_path / "o")) == code

    def test_eval_truth_with_missing_values_is_data_error(self, tmp_path, capsys):
        # a NaN in the truth would be scored as a number and written as NaN,
        # which is not JSON; it is refused like any unprocessed model input
        clean = np.full((3, 4, 4), 0.5, dtype=np.float32)
        gappy = clean.copy()
        gappy[1, 2, 3] = np.nan
        land = np.zeros((4, 4), dtype=bool)
        fc, truth = tmp_path / "fc.sic", tmp_path / "truth.sic"
        data.write_grid(data.Grid3(clean, np.arange(3), land), fc)
        data.write_grid(data.Grid3(gappy, np.arange(3), land), truth)
        out = tmp_path / "eval"
        assert run("eval", "--forecast", str(fc), "--truth", str(truth),
                   "--out", str(out)) == 3
        assert "contains missing values; run preprocess first" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_eval_size_mismatch_is_data_error(self, tmp_path):
        fc, truth = tmp_path / "fc.sic", tmp_path / "truth.sic"
        for path, size in ((fc, 4), (truth, 6)):
            data.write_grid(data.Grid3(np.full((3, size, size), 0.5), np.arange(3),
                                       np.zeros((size, size), dtype=bool)), path)
        out = tmp_path / "eval"
        assert run("eval", "--forecast", str(fc), "--truth", str(truth),
                   "--out", str(out)) == 3
        assert not (out / "report.json").exists()

    def test_eval_all_land_truth_is_data_error(self, tmp_path, capsys):
        fc, truth = tmp_path / "fc.sic", tmp_path / "truth.sic"
        for path, land in ((fc, False), (truth, True)):
            data.write_grid(data.Grid3(np.zeros((3, 4, 4)), np.arange(3),
                                       np.full((4, 4), land)), path)
        out = tmp_path / "eval"
        assert run("eval", "--forecast", str(fc), "--truth", str(truth),
                   "--out", str(out)) == 3
        assert "empty ocean mask" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_eval_disjoint_dates_is_data_error(self, tmp_path, capsys):
        fc, truth = tmp_path / "fc.sic", tmp_path / "truth.sic"
        for path, first in ((fc, 0), (truth, 3)):
            data.write_grid(data.Grid3(np.full((3, 4, 4), 0.5), np.arange(first, first + 3),
                                       np.zeros((4, 4), dtype=bool)), path)
        out = tmp_path / "eval"
        assert run("eval", "--forecast", str(fc), "--truth", str(truth),
                   "--out", str(out)) == 3
        assert "share no dates" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_eval_constant_truth_reports_null_nse(self, tmp_path):
        grid = tmp_path / "const.sic"
        data.write_grid(data.Grid3(np.full((3, 4, 4), 0.5), np.arange(3),
                                   np.zeros((4, 4), dtype=bool)), grid)
        out = tmp_path / "eval"
        assert run("eval", "--forecast", str(grid), "--truth", str(grid),
                   "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overall"]["nse"] is None
        assert [row["nse"] for row in report["per_lead_day"]] == [None] * 3
