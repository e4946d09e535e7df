"""One-level 2D Haar wavelet transform and the high-frequency branch.

The transform works on 2x2 blocks. x[..., H, W] is regrouped into block
vectors [..., H/2, W/2, 4] holding (x[2i, 2j], x[2i, 2j+1], x[2i+1, 2j],
x[2i+1, 2j+1]) and multiplied by the orthonormal Haar matrix, whose rows give
the ll, lh, hl and hh coefficients. The matrix is symmetric and its own
inverse, so synthesis is the same product followed by the reverse regrouping.
Both directions are taped autodiff ops and exactly linear.
"""

from __future__ import annotations

import numpy as np

from . import nd
from .nd import Tensor

# rows: ll, lh (detail along W), hl (detail along H), hh (diagonal)
_HAAR = Tensor(0.5 * np.array([[1, 1, 1, 1],
                               [1, -1, 1, -1],
                               [1, 1, -1, -1],
                               [1, -1, -1, 1]]))


def dwt2(x: Tensor) -> Tensor:
    """Haar coefficients [..., H/2, W/2, 4] of x[..., H, W], bands ll, lh,
    hl, hh on the last axis; H and W must be even."""
    *lead, h, w = x.shape
    if h % 2 or w % 2 or h < 2 or w < 2:
        raise ValueError(f"spatial dims must be even and >= 2, got ({h}, {w})")
    blocks = nd.moveaxis(nd.reshape(x, (*lead, h // 2, 2, w // 2, 2)), -3, -2)
    # one flat [N, 4] product: numpy runs a stacked matmul as many small ones
    coeffs = nd.matmul(nd.reshape(blocks, (-1, 4)), _HAAR)
    return nd.reshape(coeffs, (*lead, h // 2, w // 2, 4))


def idwt2(coeffs: Tensor) -> Tensor:
    """Inverse of :func:`dwt2`: [..., H/2, W/2, 4] -> [..., H, W]."""
    *lead, h2, w2, _ = coeffs.shape
    blocks = nd.matmul(nd.reshape(coeffs, (-1, 4)), _HAAR)
    blocks = nd.reshape(blocks, (*lead, h2, w2, 2, 2))
    return nd.reshape(nd.moveaxis(blocks, -2, -3), (*lead, 2 * h2, 2 * w2))


def freq_branch(x: Tensor, gains: Tensor) -> Tensor:
    """Scale the detail subbands of x[..., C, H, W] by per-channel gains[C, 3]
    (columns lh, hl, hh).

    Gains of 1 make this an identity (up to rounding); larger values amplify
    the high-frequency content. Odd spatial sizes are replicate-padded for the
    transform and cropped back.
    """
    c = x.shape[-3]
    if gains.shape != (c, 3):
        raise ValueError(f"gains shape {gains.shape} != ({c}, 3)")
    h, w = x.shape[-2], x.shape[-1]
    padded = x if (h % 2 == 0 and w % 2 == 0) else nd.pad2d(x, (0, h % 2, 0, w % 2))
    scale = nd.reshape(nd.concat([np.ones((c, 1)), gains], axis=1), (1, c, 1, 1, 4))
    out = idwt2(nd.mul(dwt2(padded), scale))
    if out.shape[-2:] != (h, w):
        out = nd.index(out, np.s_[..., :h, :w])
    return out
