"""Forecast evaluation: error metrics, extent/overlap scores, bias maps.

All error metrics, and the extents that evaluate reports, are computed over
ocean pixels only (land is excluded via the mask); the errors are reported
as percentages. Extent uses the standard 15% concentration threshold,
EXTENT_THRESHOLD.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

EXTENT_THRESHOLD = 0.15


def _masked(yhat, y, mask):
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if yhat.shape != y.shape:
        raise ValueError(f"shape mismatch {yhat.shape} vs {y.shape}")
    if mask is None:
        return yhat.reshape(-1), y.reshape(-1)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != yhat.shape[-mask.ndim:]:
        raise ValueError(f"mask shape {mask.shape} does not broadcast over {yhat.shape}")
    if not mask.any():
        raise ValueError("empty ocean mask")
    full = np.broadcast_to(mask, yhat.shape)
    return yhat[full], y[full]


def rmse(yhat, y, mask=None) -> float:
    """Root mean square error over ocean pixels, in percent."""
    a, b = _masked(yhat, y, mask)
    return float(np.sqrt(np.mean((a - b) ** 2)) * 100.0)


def mae(yhat, y, mask=None) -> float:
    """Mean absolute error over ocean pixels, in percent."""
    a, b = _masked(yhat, y, mask)
    return float(np.mean(np.abs(a - b)) * 100.0)


def nse(yhat, y, mask=None) -> float:
    """Nash-Sutcliffe efficiency in percent: 100 is perfect, 0 matches the
    masked-mean predictor."""
    a, b = _masked(yhat, y, mask)
    denom = float(np.sum((b - b.mean()) ** 2))
    if denom == 0.0:
        raise ValueError("NSE undefined: target has zero variance over the mask")
    return float((1.0 - np.sum((a - b) ** 2) / denom) * 100.0)


def _nse_or_none(yhat, y, mask) -> float | None:
    """NSE, or None where the target has zero variance over the mask."""
    try:
        return nse(yhat, y, mask)
    except ValueError:
        return None


def sie(frame, cell_area: float = 1.0) -> float:
    """Total area of cells whose concentration is at least EXTENT_THRESHOLD."""
    frame = np.asarray(frame, dtype=np.float64)
    return float((frame >= EXTENT_THRESHOLD).sum() * cell_area)


def iou(yhat, y) -> float:
    """Intersection over union of the extent masks; 1 when both are empty."""
    a = np.asarray(yhat, dtype=np.float64) >= EXTENT_THRESHOLD
    b = np.asarray(y, dtype=np.float64) >= EXTENT_THRESHOLD
    union = int(np.logical_or(a, b).sum())
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def write_bias_ppm(bias: np.ndarray, path) -> None:
    """Render a signed error image to binary PPM: positive errors in the red
    channel, negative in the blue, both scaled by the largest |error|."""
    bias = np.asarray(bias, dtype=np.float32)
    if bias.ndim != 2:
        raise ValueError(f"bias map must be 2D, got {bias.shape}")
    scale = float(np.abs(bias).max()) or 1.0
    h, w = bias.shape
    img = np.zeros((h, w, 3), dtype=np.uint8)
    img[:, :, 0] = np.clip(np.maximum(bias, 0.0) / scale * 255.0, 0, 255).astype(np.uint8)
    img[:, :, 2] = np.clip(np.maximum(-bias, 0.0) / scale * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


@dataclass
class MetricsReport:
    rmse: float
    mae: float
    nse: float | None   # None when the truth has zero variance over the mask
    iou: float
    sie: float          # predicted ocean extent area (last frame)
    sie_true: float
    per_lead_day: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        overall = asdict(self)
        per_lead_day = overall.pop("per_lead_day")
        return {"overall": overall, "per_lead_day": per_lead_day}


def evaluate(yhat, y, ocean_mask=None) -> MetricsReport:
    """Score a [L, 1, H, W] (or [L, H, W]) forecast against ground truth,
    the ocean mask covering one frame. The per-lead scores and the extents
    take the masked pixels once, as [L, P] rows."""
    yhat = np.asarray(yhat, dtype=np.float32)
    y = np.asarray(y, dtype=np.float32)
    if yhat.ndim == 4:
        yhat, y = yhat[:, 0], y[:, 0]
    if ocean_mask is not None and np.ndim(ocean_mask) >= yhat.ndim:
        raise ValueError(f"mask shape {np.shape(ocean_mask)} is not one frame of {yhat.shape}")
    a, b = (v.reshape(len(yhat), -1) for v in _masked(yhat, y, ocean_mask))
    per_day = [{"lead": lead + 1, "rmse": rmse(a[lead], b[lead]), "mae": mae(a[lead], b[lead]),
                "iou": iou(a[lead], b[lead]), "nse": _nse_or_none(a[lead], b[lead], None)}
               for lead in range(len(yhat))]
    return MetricsReport(
        rmse=rmse(yhat, y, ocean_mask),
        mae=mae(yhat, y, ocean_mask),
        nse=_nse_or_none(yhat, y, ocean_mask),
        iou=iou(a, b),
        sie=sie(a[-1]),
        sie_true=sie(b[-1]),
        per_lead_day=per_day,
    )
