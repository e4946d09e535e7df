"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload class builds every input from the workload seed in its
constructor (the set-up, which ends with a warm-up call), then
``run()`` performs one timed operation and ``check()`` verifies its output,
raising ``CheckFailed`` when the output is wrong.

Why these three (each stresses layers the others bypass):

- ``train-s16``: the only workload with a taped backward pass and AdamW. The
  scan is short (L = 14*4*4 = 224), so per-step Python, tape and per-route
  overhead dominate.
- ``forecast-s64``: forward only at batch 1 with a long scan (L = 3584) and a
  64x64 decoder; a change that helps only backward or batching should not
  move it.
- ``preprocess``: the ``data`` layer alone (container reads and writes and
  the per-pixel ST-IDW loop); a change to a model layer should not move it.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from icessm import data, metrics, model

IN_LEN = OUT_LEN = 14


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _params_digest(params: model.ModelParams) -> str:
    h = hashlib.sha256()
    for name, t in sorted(params.named_tensors().items()):
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


class TrainS16:
    """Repeated ``model.train`` at 14x1x16x16 with the default config: batch 4,
    16 train windows, 4 validation windows, 2 epochs, a fixed seed."""

    epochs = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config = model.ModelConfig()
        n_train, n_val = 16, 4
        span = IN_LEN + OUT_LEN
        # train windows 0..15 and validation windows share no frame
        grid = data.synth_generate(seed, n_train + n_val + 2 * (span - 1), 16, 16)
        wins = data.windows(grid, IN_LEN, OUT_LEN)
        self.train_set, self.val_set = wins[:n_train], wins[-n_val:]
        self.items = n_train * self.epochs
        self.reference = None
        # warm-up: one optimisation step and one validation pass; builds the routes
        model.train(self.train_set, self.val_set, self.config, seed=seed,
                    max_epochs=1, max_steps=1)

    def run(self):
        return model.train(self.train_set, self.val_set, self.config, seed=self.seed,
                           max_epochs=self.epochs, batch_size=4)

    def check(self, result) -> None:
        _require(len(result.history) == self.epochs, "history has one row per epoch")
        for row in result.history:
            _require(math.isfinite(row["train_loss"]) and math.isfinite(row["val_mae"]),
                     f"non-finite loss in {row}")
        # same seed and data: every round must repeat the first bit for bit
        got = (result.history, _params_digest(result.params))
        if self.reference is None:
            self.reference = got
        _require(got == self.reference, "training round differs from the first round")


class ForecastS64:
    """28-day ``model.recursive_forecast(steps=2)`` at 14x1x64x64 from a seeded
    random anchor, scored by ``metrics.evaluate`` against the truth."""

    steps = 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.config = model.ModelConfig()
        horizon = self.steps * OUT_LEN
        grid = data.synth_generate(seed, 120, 64, 64)
        self.frames = grid.frames[:, None]
        self.ocean = ~grid.land_mask
        self.anchors = rng.integers(0, grid.shape[0] - IN_LEN - horizon + 1, size=1024)
        self.next = 0
        self.items = horizon

        params = model.init_params(np.random.default_rng(seed), self.config)
        ckpt = workdir / "params.ckpt"
        model.save_checkpoint(ckpt, params)
        self.params = model.load_checkpoint(ckpt, self.config)
        _require(_params_digest(self.params) == _params_digest(params),
                 "checkpoint round trip changed the parameters")

        # warm-up, and the one-time check that recursion starts from forward()
        x = self.frames[:IN_LEN]
        first = model.recursive_forecast(x, self.params, self.config, steps=self.steps)
        direct = model.forward(x, self.params, self.config).mean
        _require(np.array_equal(first[:OUT_LEN], direct),
                 "first recursive window differs from model.forward")

    def run(self):
        a = int(self.anchors[self.next % self.anchors.size])
        self.next += 1
        x = self.frames[a:a + IN_LEN]
        truth = self.frames[a + IN_LEN:a + IN_LEN + self.items]
        pred = model.recursive_forecast(x, self.params, self.config, steps=self.steps)
        return pred, truth, metrics.evaluate(pred, truth, ocean_mask=self.ocean)

    def check(self, result) -> None:
        pred, truth, report = result
        h, w = self.frames.shape[-2:]
        _require(pred.shape == (self.items, 1, h, w), f"forecast shape {pred.shape}")
        _require(np.isfinite(pred).all(), "non-finite forecast")
        _require(pred.min() >= 0.0 and pred.max() <= 1.0, "forecast outside [0, 1]")
        err = np.abs(pred.astype(np.float64) - truth)[..., self.ocean]
        _require(math.isclose(report.mae, 100.0 * err.mean(), rel_tol=1e-9)
                 and math.isclose(report.rmse, 100.0 * math.sqrt((err ** 2).mean()),
                                  rel_tol=1e-9),
                 f"scores {report.mae}, {report.rmse} do not match the forecast")


class Preprocess:
    """``read_grid`` -> ``preprocess(idw=True)`` -> ``write_grid`` ->
    ``windows(14, 14)`` on a raw gappy 365x64x64 grid."""

    days, size = 365, 64

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        truth = data.synth_generate(seed, self.days, self.size, self.size)
        self.land = truth.land_mask
        frames = truth.frames.copy()
        frames[:, self.land] = np.nan
        holes = (rng.random(frames.shape) < 0.01) & ~self.land
        frames[holes] = np.nan
        # drop about 8% of the dates, never the first or the last
        dropped = rng.choice(np.arange(1, self.days - 1), size=round(0.08 * self.days),
                             replace=False)
        keep = np.setdiff1d(np.arange(self.days), dropped)
        raw = data.Grid3(frames[keep], truth.dates[keep], np.zeros_like(self.land))
        self.raw_path = workdir / "raw.sic"
        self.clean_path = workdir / "clean.sic"
        data.write_grid(raw, self.raw_path)
        self.items = self.days
        self.check(self.run())  # warm-up

    def run(self):
        clean = data.preprocess(data.read_grid(self.raw_path), idw=True)
        data.write_grid(clean, self.clean_path)
        return clean, len(data.windows(clean, IN_LEN, OUT_LEN))

    def check(self, result) -> None:
        clean, n_windows = result
        _require(clean.shape == (self.days, self.size, self.size), f"shape {clean.shape}")
        _require(not np.isnan(clean.frames).any(), "NaN left after preprocessing")
        _require(np.array_equal(clean.land_mask, self.land), "land mask not recovered")
        _require((clean.frames[:, self.land] == 0).all(), "land pixels not zero")
        back = data.read_grid(self.clean_path)
        _require(np.array_equal(back.frames, clean.frames)
                 and np.array_equal(back.dates, clean.dates)
                 and np.array_equal(back.land_mask, clean.land_mask),
                 "write then read is not bit-identical")
        _require(n_windows == self.days - IN_LEN - OUT_LEN + 1,
                 f"{n_windows} windows from {self.days} days")


WORKLOADS = {"train-s16": TrainS16, "forecast-s64": ForecastS64, "preprocess": Preprocess}
