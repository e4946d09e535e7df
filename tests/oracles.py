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


def full_history_ssm_recurrence(x, dt, a, b, c, g):
    """nd.ssm_recurrence's output y and the gradients of x, dt, a, b and c
    under an upstream gradient g [L, R, D], from the whole [L, R, S, D] state
    history: the form the chunk-checkpointed primitive replaced, kept to pin
    its forward and backward bit for bit."""
    L, r, d = x.shape
    s = a.shape[1]
    at = np.ascontiguousarray(a.T)
    hist = np.empty((L, r, s, d), dtype=np.float32)
    y = np.empty((L, r, d), dtype=np.float32)
    h = np.zeros((r, s, d), dtype=np.float32)
    for l0 in range(0, L, 64):
        chunk = np.s_[l0:l0 + 64]
        dtc = dt[chunk][..., None]
        abar = np.exp(dtc[..., None] * at)
        hs = hist[chunk]
        np.multiply((dtc * b[chunk])[..., None], x[chunk][:, :, None, :], out=hs)
        for ab, hk in zip(abar, hs):
            ab *= h
            hk += ab
            h = hk
        y[chunk] = np.matmul(c[chunk][:, :, None, :], hs)[:, :, 0]
    dtv = dt[..., None]
    dh = c[..., None] * g[:, :, None, :]
    q = np.exp(dtv[..., None] * at)
    for l in range(L - 1, 0, -1):
        q[l] *= dh[l]
        dh[l - 1] += q[l]
    q[0] = 0.0
    q[1:] *= hist[:-1]
    dh_b = np.matmul(b[:, :, None, :], dh)[:, :, 0]
    qf = q.reshape(L * r, s * d)
    return y, (dtv * dh_b,
               (dh_b * x).sum(axis=-1) + (qf @ at.reshape(-1)).reshape(L, r),
               (dt.reshape(-1) @ qf).reshape(s, d).T,
               dtv * np.matmul(dh, x[..., None])[..., 0],
               np.matmul(hist, g[..., None])[..., 0])


def naive_conv2d(x, k, b=None, stride=1, padding=0, pad_mode="zero"):
    """Cross-correlation by scalar loops; padded taps read zero or the nearest
    edge pixel ("replicate")."""
    t, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((t, co, ho, wo), dtype=np.float64)
    for f, o, oy, ox in np.ndindex(t, co, ho, wo):
        acc = 0.0 if b is None else float(b[o])
        for c, i, j in np.ndindex(ci, kh, kw):
            r, q = oy * stride + i - padding, ox * stride + j - padding
            if pad_mode == "replicate":
                r, q = min(max(r, 0), h - 1), min(max(q, 0), w - 1)
            elif not (0 <= r < h and 0 <= q < w):
                continue
            acc += float(x[f, c, r, q]) * float(k[o, c, i, j])
        out[f, o, oy, ox] = acc
    return out.astype(np.float32)


def naive_conv_transpose2d(y, k, b=None, stride=1, padding=0, output_hw=None):
    """Transposed convolution as a direct scatter: every input pixel adds its
    value times the kernel into the output window it maps to."""
    t, co, ho, wo = y.shape
    _, ci, kh, kw = k.shape
    if output_hw is None:
        output_hw = ((ho - 1) * stride + kh - 2 * padding, (wo - 1) * stride + kw - 2 * padding)
    h, w = output_hw
    out = np.zeros((t, ci, h, w), dtype=np.float64)
    for f, o, oy, ox in np.ndindex(t, co, ho, wo):
        v = float(y[f, o, oy, ox])
        for c, i, j in np.ndindex(ci, kh, kw):
            r, q = oy * stride + i - padding, ox * stride + j - padding
            if 0 <= r < h and 0 <= q < w:
                out[f, c, r, q] += v * float(k[o, c, i, j])
    if b is not None:
        out += np.asarray(b, dtype=np.float64)[None, :, None, None]
    return out.astype(np.float32)


def single_product_conv_cols_adjoint(g, kernels, shape, s):
    """The col2im that nd._conv_cols_adjoint replaced: the whole
    [T, Ci*kh*kw, Ho*Wo] product of the kernels' transpose with g[T, Co, Ho, Wo],
    then each tap's slice scattered into zeros of ``shape``, in tap order; kept
    to pin the per-tap form bit for bit."""
    co, ci, kh, kw = kernels.shape
    t, _, ho, wo = g.shape
    dcols = np.matmul(kernels.reshape(co, -1).T, g.reshape(t, co, ho * wo))
    dcols = dcols.reshape(t, ci, kh, kw, ho, wo)
    dxp = np.zeros(shape, dtype=np.float32)
    for i, j in np.ndindex(kh, kw):
        dxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += dcols[:, :, i, j]
    return dxp


def naive_depthwise_conv2d(x, k, b=None, pad_mode="replicate"):
    """Per-channel stride-1 'same' convolution by scalar loops."""
    t, c, h, w = x.shape
    _, kh, kw = k.shape
    out = np.zeros((t, c, h, w), dtype=np.float64)
    for f, ch, r0, q0 in np.ndindex(t, c, h, w):
        acc = 0.0 if b is None else float(b[ch])
        for i, j in np.ndindex(kh, kw):
            r, q = r0 + i - kh // 2, q0 + j - kw // 2
            if pad_mode == "replicate":
                r, q = min(max(r, 0), h - 1), min(max(q, 0), w - 1)
            elif not (0 <= r < h and 0 <= q < w):
                continue
            acc += float(x[f, ch, r, q]) * float(k[ch, i, j])
        out[f, ch, r0, q0] = acc
    return out.astype(np.float32)


def naive_leaky_relu(x, slope=0.01):
    """Leaky ReLU by a scalar loop: v for v > 0, else slope * v."""
    out = [float(v) if v > 0 else slope * float(v) for v in np.asarray(x).ravel()]
    return np.array(out).reshape(np.shape(x)).astype(np.float32)


def naive_norm(x, gamma, beta, groups=None, axis=1):
    """Layer norm over ``axis`` (groups None) or group norm of x[T, C, H, W],
    in float64 with scalar statistics, then the per-channel affine."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    if groups is None:
        xs = np.moveaxis(x, axis, -1)
        outs = np.moveaxis(out, axis, -1)
        for idx in np.ndindex(xs.shape[:-1]):
            vals = [float(v) for v in xs[idx]]
            m = sum(vals) / len(vals)
            sd = math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals) + 1e-5)
            outs[idx] = [(v - m) / sd * float(g) + float(b) for v, g, b in zip(vals, gamma, beta)]
        return out.astype(np.float32)
    t, c = x.shape[:2]
    size = c // groups
    for f, grp in np.ndindex(t, groups):
        chans = range(grp * size, (grp + 1) * size)
        vals = [float(v) for ch in chans for v in x[f, ch].ravel()]
        m = sum(vals) / len(vals)
        sd = math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals) + 1e-5)
        for ch in chans:
            out[f, ch] = (x[f, ch] - m) / sd * float(gamma[ch]) + float(beta[ch])
    return out.astype(np.float32)


# The masked-select forms that nd's branch-free activations replaced; the
# new forms must give the same bits on every float32 input.
def where_leaky_relu(x, slope=0.01):
    return np.where(x > 0, x, slope * x).astype(np.float32)


def where_leaky_slope(x, slope=0.01):
    return np.where(x > 0, 1.0, slope).astype(np.float32)


def where_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def naive_fill_missing_dates(frames, dates):
    """Per-day gap fill: walk the daily range, copy each present frame and
    fill each absent day with the mean of the last present frame and the
    next one found by a forward scan. Returns (frames, dates)."""
    first, last = int(dates[0]), int(dates[-1])
    full = np.arange(first, last + 1, dtype=np.int64)
    present = {int(d): i for i, d in enumerate(dates)}
    out = np.empty((full.size, *frames.shape[1:]), dtype=np.float32)
    prev_idx = -1
    for k, day in enumerate(full):
        if int(day) in present:
            prev_idx = present[int(day)]
            out[k] = frames[prev_idx]
        else:
            nxt = next(present[d] for d in range(int(day) + 1, last + 1) if d in present)
            out[k] = 0.5 * (frames[prev_idx] + frames[nxt])
    return out, full


def naive_st_idw_fill(frames, spatial_radius=3, temporal_radius=2,
                      bandwidth=2.0, time_scale=1.0):
    """Per-pixel ST-IDW: for each missing pixel in C order, the Gaussian
    weighted mean of the valid pixels in its clipped neighbourhood window."""
    t, h, w = frames.shape
    src = frames
    out = src.copy()
    missing = np.argwhere(np.isnan(src))
    for ti, hi, wi in missing:
        t0, t1 = max(0, ti - temporal_radius), min(t, ti + temporal_radius + 1)
        h0, h1 = max(0, hi - spatial_radius), min(h, hi + spatial_radius + 1)
        w0, w1 = max(0, wi - spatial_radius), min(w, wi + spatial_radius + 1)
        window = src[t0:t1, h0:h1, w0:w1]
        dt, dh, dw = np.ogrid[t0 - ti:t1 - ti, h0 - hi:h1 - hi, w0 - wi:w1 - wi]
        d2 = (dh ** 2 + dw ** 2 + (time_scale * dt) ** 2).astype(np.float64)
        valid = ~np.isnan(window)
        if not valid.any():
            raise ValueError(f"missing pixel (t={ti}, h={hi}, w={wi}) has no "
                             f"valid neighbor within the radius")
        wgt = np.exp(-d2 / (2.0 * bandwidth ** 2)) * valid
        out[ti, hi, wi] = float((wgt * np.nan_to_num(window)).sum() / wgt.sum())
    return out


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
