"""Dense tensor containers and the bilinear sampling primitive.

Layout conventions used everywhere in this package:

  * feature tensors are channel-major ``(channels, height, width)``,
  * depth maps are ``(height, width)`` metric values in meters, where a
    value <= 0 or non-finite marks a missing measurement,
  * offset fields are ``(2 * tap_count, height, width)`` with per-tap
    channel order ``(dy, dx)`` and taps enumerated row-major over the
    kernel window,
  * pixel coordinates are ``(u, v)`` = (column, row); fractional values
    are sampled bilinearly with zero padding outside the image.

All containers store 32-bit floats and are frozen after construction so
they can be shared read-only across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "FeatureTensor",
    "OffsetField",
    "DepthMap",
    "bilinear_sample",
    "bilinear_sample_grad",
]


def _as_float32(data, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != ndim:
        raise ConfigError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if any(s <= 0 for s in arr.shape):
        raise ConfigError(f"{what} has an empty dimension: shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureTensor:
    """A dense (channels, height, width) grid of finite 32-bit floats."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_float32(self.data, 3, "feature tensor")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("feature tensor contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class OffsetField:
    """Per-output-pixel 2D displacements for every kernel tap.

    Channel ``2n`` holds the row displacement (dy) of tap ``n`` and
    channel ``2n + 1`` the column displacement (dx); ``n`` runs row-major
    over the kernel window, so the channel count is ``2 * N * N`` for an
    ``N x N`` kernel.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_float32(self.data, 3, "offset field")
        c = arr.shape[0]
        if c % 2 != 0:
            raise ConfigError(f"offset field channel count {c} is not 2*N*N")
        n = math.isqrt(c // 2)
        if 2 * n * n != c:
            raise ConfigError(f"offset field channel count {c} is not 2*N*N")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("offset field contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def tap_count(self) -> int:
        return self.data.shape[0] // 2

    @property
    def kernel_size(self) -> int:
        return math.isqrt(self.tap_count)

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @classmethod
    def zeros(cls, kernel_size: int, height: int, width: int) -> "OffsetField":
        return cls(np.zeros((2 * kernel_size * kernel_size, height, width), np.float32))


@dataclass(frozen=True)
class DepthMap:
    """Single-channel metric depth; <= 0 or non-finite marks invalid pixels."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_float32(self.data, 2, "depth map")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.data) & (self.data > 0)


def bilinear_sample(x: FeatureTensor, c: int, u: float, v: float) -> float:
    """Sample channel ``c`` of ``x`` at the fractional position ``(u, v)``.

    The value is the weighted average of the <= 4 integer-grid neighbors
    with per-axis weights ``max(0, 1 - |delta|)``; neighbors outside the
    image contribute zero, so positions beyond one pixel of the border
    evaluate to 0.
    """
    if not (0 <= c < x.channels):
        raise ConfigError(f"channel {c} out of range for {x.channels} channels")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ConfigError(f"sampling position ({u}, {v}) is not finite")
    val = _bilinear_gather(x.data[c : c + 1], np.asarray([u]), np.asarray([v]))[0, 0]
    return float(np.float32(val))


def bilinear_sample_grad(x: FeatureTensor, c: int, u: float, v: float):
    """Analytic partials and neighbor weights of :func:`bilinear_sample`.

    Returns ``(dval_du, dval_dv, weights)`` where ``weights`` is the
    length-4 distribution onto neighbors ordered (top-left, top-right,
    bottom-left, bottom-right); out-of-bounds neighbors get weight 0.
    Weights sum to 1 when the position is fully in-bounds.
    """
    if not (0 <= c < x.channels):
        raise ConfigError(f"channel {c} out of range for {x.channels} channels")
    h, w = x.height, x.width
    u0 = math.floor(u)
    v0 = math.floor(v)
    du = u - u0
    dv = v - v0

    vals = np.zeros((2, 2))  # [row 0/1][col 0/1], zero outside the image
    for i in (0, 1):
        for j in (0, 1):
            vi, ui = v0 + i, u0 + j
            if 0 <= vi < h and 0 <= ui < w:
                vals[i, j] = float(x.data[c, vi, ui])
    inb = np.zeros((2, 2))
    for i in (0, 1):
        for j in (0, 1):
            inb[i, j] = 1.0 if (0 <= v0 + i < h and 0 <= u0 + j < w) else 0.0

    weights = np.array(
        [
            (1 - dv) * (1 - du) * inb[0, 0],
            (1 - dv) * du * inb[0, 1],
            dv * (1 - du) * inb[1, 0],
            dv * du * inb[1, 1],
        ]
    )
    dval_du = (1 - dv) * (vals[0, 1] - vals[0, 0]) + dv * (vals[1, 1] - vals[1, 0])
    dval_dv = (1 - du) * (vals[1, 0] - vals[0, 0]) + du * (vals[1, 1] - vals[0, 1])
    return float(dval_du), float(dval_dv), weights


def _bilinear_gather(data: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized zero-padded bilinear gather.

    ``data`` is ``(C, H, W)``; ``u``/``v`` are broadcast-compatible arrays
    of fractional positions.  Returns float64 samples of shape
    ``(C,) + u.shape``.
    """
    c, h, w = data.shape
    # Past these bounds all four neighbors lie off the image, as they did
    # before clipping, so samples are unchanged; clipping only keeps the
    # int64 casts below defined for positions far off the image.
    u = np.clip(np.asarray(u, dtype=np.float64), -2.0, w + 1.0)
    v = np.clip(np.asarray(v, dtype=np.float64), -2.0, h + 1.0)
    u0 = np.floor(u)
    v0 = np.floor(v)
    du = u - u0
    dv = v - v0
    u0 = u0.astype(np.int64)
    v0 = v0.astype(np.int64)

    out = np.zeros((c,) + u.shape, dtype=np.float64)
    for i, j, wgt in (
        (0, 0, (1 - dv) * (1 - du)),
        (0, 1, (1 - dv) * du),
        (1, 0, dv * (1 - du)),
        (1, 1, dv * du),
    ):
        vi = v0 + i
        ui = u0 + j
        mask = (vi >= 0) & (vi < h) & (ui >= 0) & (ui < w)
        vic = np.clip(vi, 0, h - 1)
        uic = np.clip(ui, 0, w - 1)
        out += (wgt * mask) * data[:, vic, uic]
    return out


def _bilinear_scatter_weights(h: int, w: int, u: np.ndarray, v: np.ndarray):
    """Neighbor indices/weights used to scatter gradients back onto a grid.

    Returns ``(flat_idx, weights, inbounds)`` arrays of shape
    ``(4,) + u.shape`` where ``flat_idx`` indexes a flattened (H, W) grid.
    """
    u = np.clip(np.asarray(u, dtype=np.float64), -2.0, w + 1.0)  # as in _bilinear_gather
    v = np.clip(np.asarray(v, dtype=np.float64), -2.0, h + 1.0)
    u0 = np.floor(u)
    v0 = np.floor(v)
    du = u - u0
    dv = v - v0
    u0 = u0.astype(np.int64)
    v0 = v0.astype(np.int64)

    idx = np.zeros((4,) + u.shape, dtype=np.int64)
    wgt = np.zeros((4,) + u.shape, dtype=np.float64)
    inb = np.zeros((4,) + u.shape, dtype=bool)
    for k, (i, j, ww) in enumerate(
        (
            (0, 0, (1 - dv) * (1 - du)),
            (0, 1, (1 - dv) * du),
            (1, 0, dv * (1 - du)),
            (1, 1, dv * du),
        )
    ):
        vi = v0 + i
        ui = u0 + j
        mask = (vi >= 0) & (vi < h) & (ui >= 0) & (ui < w)
        vic = np.clip(vi, 0, h - 1)
        uic = np.clip(ui, 0, w - 1)
        idx[k] = vic * w + uic
        wgt[k] = ww * mask
        inb[k] = mask
    return idx, wgt, inb
