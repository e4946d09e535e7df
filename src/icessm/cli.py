"""Command-line pipeline: scan orders, synthetic data, train/predict/eval.

Every subcommand writes plain files (CSV/JSON/PPM/binary grids) plus a
manifest recording the arguments, seed and package version. Exit codes:
0 success, 2 usage error, 3 data/format error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, data, hsa, metrics, model, sfc
from .data import FormatError
from .nd import LEAKY_SLOPE, NumericalError, Tensor

KIND_NAMES = {
    "raster": "raster",
    "zorder": "zorder",
    "peano": "peano",
    "hilbert-s": "hilbert_spatial_first",
    "hilbert-t": "hilbert_temporal_first",
}

# config.json keys that earlier versions wrote, each with the one value that
# is now built in; a directory written then still loads if it holds that value
RETIRED_KEYS = {"wavelet_basis": "haar", "leaky_slope": LEAKY_SLOPE, "channels": 1}


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--dims wants T,H,W, got {text!r}")
    return sfc.check_dims(int(p) for p in parts)


def _digests(*paths) -> dict[str, str]:
    """path -> sha256 of each file; taken right after the command reads them,
    before any output could overwrite one."""
    return {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _write_manifest(out_dir: Path, command: str, a: argparse.Namespace,
                    inputs: dict[str, str] | None = None) -> None:
    """Record the run: arguments, versions, the digests of the files the
    command read (``_digests``), wall time since ``main`` set ``a.started``
    and the process's peak resident set and minor page faults."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "inputs": inputs or {},
        "command": command,
        "args": {k: v for k, v in vars(a).items()
                 if v is not None and not callable(v) and k not in ("command", "started")},
        "version": __version__,
        "numpy_version": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_s": round(time.monotonic() - a.started, 3),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "minor_faults": usage.ru_minflt,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"manifest-{command}.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _config_from_args(a) -> model.ModelConfig:
    return model.ModelConfig(
        in_len=a.in_len, out_len=a.out_len, hidden=a.hidden, n_fssm=a.fssm,
        n_routes=a.routes, scan_kind=KIND_NAMES[a.kind], lambda_grad=a.lambda_grad,
        head={"det": "deterministic", "gaussian": "gaussian"}[a.head],
        fusion=a.fusion, state_size=a.state_size,
    )


def cmd_scan(a) -> int:
    dims = _parse_dims(a.dims)
    kind = KIND_NAMES[a.kind]
    table = sfc.routes(kind, dims, a.routes)
    out = Path(a.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sfc.write_orders(out, kind, dims, table)
    _write_manifest(out.parent, "scan", a)
    print(f"wrote {table.shape[1]} order(s) to {out}")
    return 0


def cmd_bench_locality(a) -> int:
    dims = _parse_dims(a.dims)
    rows = [(kind, sfc.locality_score(sfc.make_order(kind, dims), dims))
            for kind in KIND_NAMES.values()]
    out = Path(a.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        f.write("kind,mean_gap,arithmetic_mean_gap,median_gap,max_gap,"
                "t_mean,h_mean,w_mean\n")
        for kind, s in rows:
            f.write(f"{kind},{s.mean_gap:.6f},{s.arithmetic_mean_gap:.6f},"
                    f"{s.median_gap:.6f},{s.max_gap},"
                    f"{s.axis_mean_gaps[0]:.6f},{s.axis_mean_gaps[1]:.6f},"
                    f"{s.axis_mean_gaps[2]:.6f}\n")
    _write_manifest(out.parent, "bench-locality", a)
    print(f"wrote locality table ({len(rows)} kinds) to {out}")
    return 0


def cmd_synth(a) -> int:
    dims = _parse_dims(a.dims)
    grid = data.synth_generate(a.seed, *dims, n_blobs=a.blobs, drift=a.drift)
    out = Path(a.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data.write_grid(grid, out)
    _write_manifest(out.parent, "synth", a)
    print(f"wrote synthetic grid {dims} to {out}")
    return 0


def cmd_preprocess(a) -> int:
    if not 0 <= a.land_threshold <= 1:  # also refuses nan
        raise ValueError(f"--land-threshold must be in [0, 1], got {a.land_threshold}")
    grid = data.read_grid(a.input)
    inputs = _digests(a.input)
    if grid.shape[0] == 0:
        raise FormatError(f"{a.input} holds an empty series (0 frames)")
    out_grid = data.preprocess(grid, land_threshold=a.land_threshold, idw=a.idw)
    out = Path(a.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data.write_grid(out_grid, out)
    _write_manifest(out.parent, "preprocess", a, inputs)
    print(f"preprocessed {a.input} -> {out} ({out_grid.shape[0]} days)")
    return 0


def _load_complete(path) -> data.Grid3:
    """The grid at ``path``, refused if any of its values is missing."""
    grid = data.read_grid(path)
    if np.isnan(grid.frames).any():
        raise FormatError(f"{path} contains missing values; run preprocess first")
    return grid


def _load_series(path) -> data.Grid3:
    """The model-input grid at ``path``: one frame per day, none missing."""
    grid = _load_complete(path)
    if (np.diff(grid.dates) != 1).any():
        raise FormatError(f"{path} has gaps in its dates; run preprocess first")
    return grid


def _check_out_dir(out: str) -> Path:
    """``out`` as a Path, refused before any work if the command could not
    create it once it is done: if it exists and is not a directory, or its
    nearest existing ancestor is not one."""
    out_dir = Path(out)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out_dir}: {existing} is not a directory")
    return out_dir


def cmd_train(a) -> int:
    if not 0 < a.val_fraction < 1:  # also refuses nan
        raise ValueError(f"--val-fraction must be in (0, 1), got {a.val_fraction}")
    config = _config_from_args(a)
    out_dir = _check_out_dir(a.out)
    grid = _load_series(a.data)
    inputs = _digests(a.data)
    wins = data.windows(grid, a.in_len, a.out_len, stride=a.stride)
    n_val = max(1, int(len(wins) * a.val_fraction))
    if len(wins) < 2:
        raise ValueError(f"need at least 2 windows, got {len(wins)}")
    train_set, val_set = wins[:-n_val], wins[-n_val:]

    def log(row):
        print(f"epoch {row['epoch']}: train_loss {row['train_loss']:.5f} "
              f"val_mae {row['val_mae']:.4f}")

    result = model.train(train_set, val_set, config, seed=a.seed,
                         max_epochs=a.epochs, patience=a.patience,
                         batch_size=a.batch_size, lr=a.lr, log=log)
    out_dir.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(out_dir / "model.ckpt", result.params)
    with open(out_dir / "config.json", "w", encoding="utf-8") as f:
        json.dump({**dataclasses.asdict(config), "seed": a.seed}, f,
                  indent=2, sort_keys=True)
        f.write("\n")
    with open(out_dir / "history.csv", "w", encoding="utf-8") as f:
        f.write(model.history_csv(result.history))
    _write_manifest(out_dir, "train", a, inputs)
    print(f"best val MAE {result.best_val_mae:.4f}% at epoch {result.best_epoch}; "
          f"checkpoint in {out_dir}")
    return 0


def _model_files(model_dir: str) -> tuple[Path, Path]:
    """The config and checkpoint a training run writes to ``model_dir``."""
    return Path(model_dir) / "config.json", Path(model_dir) / "model.ckpt"


def _load_model(model_dir: str) -> tuple[model.ModelParams, model.ModelConfig]:
    cfg_path, ckpt_path = _model_files(model_dir)
    if not cfg_path.exists() or not ckpt_path.exists():
        raise FileNotFoundError(f"missing checkpoint or config in {model_dir}")
    try:
        raw = json.loads(cfg_path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise TypeError("expected a JSON object")
        raw.pop("seed", None)
        for key, only in RETIRED_KEYS.items():
            value = raw.pop(key, only)
            if value != only:
                raise ValueError(f"retired key {key}={value!r}; only {only!r} is supported")
        config = model.ModelConfig(**raw)
    except (ValueError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise FormatError(f"bad model config {cfg_path}: {e}") from e
    try:
        return model.load_checkpoint(ckpt_path, config), config
    except ValueError as e:  # truncated, trailing bytes, or not this config's layout
        raise FormatError(f"bad checkpoint {ckpt_path}: {e}") from e


def _forecast_grid(pred: np.ndarray, start_date: int, land_mask) -> data.Grid3:
    frames = pred[:, 0]
    dates = np.arange(start_date, start_date + frames.shape[0], dtype=np.int64)
    return data.Grid3(frames, dates, land_mask)


def _input_window(grid: data.Grid3, in_len: int, anchor: int | None):
    """The in_len frames [in_len, 1, H, W] from index ``anchor`` (default: the
    last in_len), and the date of the first day after them."""
    t = grid.shape[0]
    if t < in_len:
        raise ValueError(f"series too short for in_len {in_len}")
    if anchor is None:
        anchor = t - in_len
    elif anchor < 0:
        raise ValueError(f"--anchor must be >= 0, got {anchor}")
    if anchor + in_len > t:
        raise ValueError(f"anchor {anchor} leaves fewer than {in_len} frames")
    return grid.frames[anchor:anchor + in_len, None, :, :], int(grid.dates[anchor]) + in_len


def cmd_predict(a) -> int:
    out_dir = _check_out_dir(a.out)
    params, config = _load_model(a.model)
    grid = _load_series(a.data)
    inputs = _digests(*_model_files(a.model), a.data)
    window, start = _input_window(grid, config.in_len, a.anchor)
    fc = model.forward(Tensor(window), params, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    data.write_grid(_forecast_grid(fc.mean, start, grid.land_mask),
                    out_dir / "forecast.sic")
    if fc.sigma is not None:
        data.write_grid(_forecast_grid(fc.sigma, start, grid.land_mask),
                        out_dir / "sigma.sic")
    _write_manifest(out_dir, "predict", a, inputs)
    print(f"wrote forecast ({fc.mean.shape[0]} days from day {start}) to {out_dir}")
    return 0


def cmd_recurse(a) -> int:
    out_dir = _check_out_dir(a.out)
    params, config = _load_model(a.model)
    grid = _load_series(a.data)
    inputs = _digests(*_model_files(a.model), a.data)
    window, start = _input_window(grid, config.in_len, a.anchor)
    pred = model.recursive_forecast(window, params, config, steps=a.steps)
    out_dir.mkdir(parents=True, exist_ok=True)
    data.write_grid(_forecast_grid(pred, start, grid.land_mask),
                    out_dir / "forecast.sic")
    _write_manifest(out_dir, "recurse", a, inputs)
    print(f"wrote {pred.shape[0]}-day recursive forecast to {out_dir}")
    return 0


def cmd_eval(a) -> int:
    out_dir = _check_out_dir(a.out)
    fc, truth = _load_complete(a.forecast), _load_complete(a.truth)
    if fc.shape[1:] != truth.shape[1:]:
        raise FormatError(f"forecast grid {fc.shape[1:]} differs from truth {truth.shape[1:]}")
    if truth.land_mask.all():
        raise FormatError(f"empty ocean mask: the land mask of {a.truth} covers every pixel")
    inputs = _digests(a.forecast, a.truth)
    common, fi, ti = np.intersect1d(fc.dates, truth.dates, return_indices=True)
    if common.size == 0:
        raise FormatError("forecast and truth share no dates")
    yhat, y = fc.frames[fi], truth.frames[ti]
    report = metrics.evaluate(yhat, y, ~truth.land_mask)
    # strict JSON: a non-finite score fails here, before any file is written
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(text + "\n", encoding="utf-8")
    for day, bias in zip(common, yhat - y):
        metrics.write_bias_ppm(bias, out_dir / f"bias-day{int(day):05d}.ppm")
    _write_manifest(out_dir, "eval", a, inputs)
    nse = "n/a" if report.nse is None else f"{report.nse:.4f}"
    print(f"rmse {report.rmse:.4f}% mae {report.mae:.4f}% nse {nse} "
          f"iou {report.iou:.4f} ({common.size} days) -> {out_dir}")
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=sorted(KIND_NAMES), default="hilbert-t")
    p.add_argument("--routes", type=int, default=2, choices=(1, 2, 4))
    p.add_argument("--fssm", type=int, default=3)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--lambda", dest="lambda_grad", type=float, default=0.1)
    p.add_argument("--head", choices=("det", "gaussian"), default="det")
    p.add_argument("--fusion", choices=tuple(hsa.FUSERS), default="hsa")
    p.add_argument("--state-size", type=int, default=8)
    p.add_argument("--in-len", type=int, default=14)
    p.add_argument("--out-len", type=int, default=14)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icessm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="emit scan-order golden files")
    p.add_argument("--kind", choices=sorted(KIND_NAMES), required=True)
    p.add_argument("--dims", required=True, help="T,H,W")
    p.add_argument("--routes", type=int, default=1, choices=(1, 2, 4))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bench-locality", help="locality statistics per scan kind")
    p.add_argument("--dims", default="8,8,8")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_locality)

    p = sub.add_parser("synth", help="generate a synthetic concentration grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="120,16,16")
    p.add_argument("--blobs", type=int, default=3)
    p.add_argument("--drift", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="fill dates, detect land, zero land")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--land-threshold", type=float, default=0.95)
    p.add_argument("--idw", action="store_true")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on a grid file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--val-fraction", type=float, default=0.2)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="one forecast window from a checkpoint")
    p.add_argument("--model", required=True, help="training output directory")
    p.add_argument("--data", required=True)
    p.add_argument("--anchor", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("recurse", help="chain forecast windows recursively")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--anchor", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_recurse)

    p = sub.add_parser("eval", help="score a forecast grid against truth")
    p.add_argument("--forecast", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.started = time.monotonic()
        return args.func(args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except (FormatError, FileNotFoundError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
