"""Independent reference implementations shared by the test modules.

Deliberately written as plain scalar loops so they cannot share bugs with the
vectorized library paths they check.
"""

import math

import numpy as np


def naive_selective_scan(x, p):
    """Per-step, per-channel, per-state recurrence for the selective scan."""
    length, d = x.shape
    a_log = p["a_log"].data
    s = a_log.shape[1]
    w_delta, b_delta = p["w_delta"].data, p["b_delta"].data
    w_b, w_c, d_skip = p["w_b"].data, p["w_c"].data, p["d_skip"].data
    y = np.zeros((length, d), dtype=np.float64)
    h = np.zeros((d, s), dtype=np.float64)
    for l in range(length):
        raw = float(x[l] @ w_delta[:, 0] + b_delta[0])
        dt = math.log1p(math.exp(-abs(raw))) + max(raw, 0.0)
        bl = x[l] @ w_b
        cl = x[l] @ w_c
        for dd in range(d):
            for si in range(s):
                abar = math.exp(dt * -math.exp(a_log[dd, si]))
                h[dd, si] = abar * h[dd, si] + dt * bl[si] * x[l, dd]
            y[l, dd] = float(h[dd] @ cl) + d_skip[dd] * x[l, dd]
    return y.astype(np.float32)


def brute_force_errors(yhat, y, mask):
    """Scalar-loop rmse/mae/nse (percent) over masked pixels."""
    diffs = []
    targets = []
    for idx in np.ndindex(yhat.shape):
        if mask is None or mask[idx[-2], idx[-1]]:
            diffs.append(float(yhat[idx]) - float(y[idx]))
            targets.append(float(y[idx]))
    n = len(diffs)
    mae_v = sum(abs(d) for d in diffs) / n * 100
    rmse_v = (sum(d * d for d in diffs) / n) ** 0.5 * 100
    ybar = sum(targets) / n
    denom = sum((t - ybar) ** 2 for t in targets)
    nse_v = (1 - sum(d * d for d in diffs) / denom) * 100
    return rmse_v, mae_v, nse_v


def brute_force_extent(yhat, y, threshold, cell_area):
    """Scalar-loop sie (of yhat) and iou."""
    inter = union = count = 0
    for idx in np.ndindex(yhat.shape):
        a = float(yhat[idx]) >= threshold
        b = float(y[idx]) >= threshold
        count += a
        inter += a and b
        union += a or b
    sie_v = count * cell_area
    iou_v = 1.0 if union == 0 else inter / union
    return sie_v, iou_v
