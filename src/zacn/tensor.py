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

All containers store a read-only 32-bit float copy of their input, so
they can be shared across workers and no caller's array can change them.
The package's own operators hand over a float32 array they just made
through :class:`_Owned`, which the container adopts without a copy.
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
]


@dataclass(frozen=True)
class _Owned:
    """A float32 array that a container adopts without a copy: whoever
    wraps it made it and keeps no other reference, so the container owns it."""

    array: np.ndarray


def _as_float32(data, ndim: int, what: str) -> np.ndarray:
    """A read-only float32 copy of ``data``: the container owns its memory,
    so neither the caller's array nor any view of it can change it, and the
    caller's array stays writable.  The array of an :class:`_Owned` is
    adopted as is when it is C-contiguous float32.  A value too large for
    float32 becomes an infinity, which the containers' finiteness checks
    then reject (a ``DepthMap`` marks it invalid)."""
    with np.errstate(over="ignore"):
        if isinstance(data, _Owned):
            arr = np.asarray(data.array, dtype=np.float32, order="C")
        else:
            arr = np.array(data, dtype=np.float32, order="C")
    if arr.ndim != ndim:
        raise ConfigError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if any(s <= 0 for s in arr.shape):
        raise ConfigError(f"{what} has an empty dimension: shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _all_finite(arr: np.ndarray) -> bool:
    """Whether a non-empty array holds no NaN or infinity, without a
    full-size mask: min and max propagate NaN, and an infinity is one of them."""
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


@dataclass(frozen=True, eq=False)
class FeatureTensor:
    """A dense (channels, height, width) grid of finite 32-bit floats."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_float32(self.data, 3, "feature tensor")
        if not _all_finite(arr):
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


@dataclass(frozen=True, eq=False)
class OffsetField:
    """Per-output-pixel 2D displacements for every kernel tap.

    Channel ``2n`` holds the row displacement (dy) of tap ``n`` and
    channel ``2n + 1`` the column displacement (dx); ``n`` runs row-major
    over the kernel window, so the channel count is ``2 * N * N`` for an
    ``N x N`` kernel.
    """

    data: np.ndarray = field(repr=False)
    # ``zacn.ops`` sampling plans by (KernelSpec, input H, W); ``data`` is
    # owned and read-only, so they never go stale.
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        arr = _as_float32(self.data, 3, "offset field")
        c = arr.shape[0]
        n = math.isqrt(c // 2)
        if 2 * n * n != c:  # odd counts fail too
            raise ConfigError(f"offset field channel count {c} is not 2*N*N")
        if not _all_finite(arr):
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


@dataclass(frozen=True, eq=False)
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
    base, wgt = _bilinear_scatter_weights(x.height, x.width, np.asarray([u]), np.asarray([v]))
    data = x.data[c].reshape(1, -1).astype(np.float64)
    val = _bilinear_gather(data, base, _neighbor_steps(x.width), wgt)[0, 0]
    return float(np.float32(val))


def _neighbor_steps(w: int) -> tuple[int, int, int, int]:
    """Flat index steps from the top-left neighbor to the (top-left,
    top-right, bottom-left, bottom-right) neighbors on a grid ``w`` wide."""
    return 0, 1, w, w + 1


def _bilinear_gather(
    data: np.ndarray,
    base: np.ndarray,
    steps,
    wgt,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> np.ndarray:
    """Zero-padded bilinear samples through a plan of up to 4 neighbors.

    ``data`` is float64 ``(C, H*W)``; ``base`` and ``wgt`` come from
    :func:`_bilinear_scatter_weights`, ``steps`` from
    :func:`_neighbor_steps`, possibly without the neighbor slots that carry
    no weight: slot ``k`` reads ``data`` at ``base + steps[k]``, clipped
    onto the grid, with weight ``wgt[k]``.  Returns float64 samples of
    shape ``(C,) + base.shape``, summed over the neighbors in plan order.
    ``out`` and ``tmp``, if given, are float64 buffers of that shape which
    the gather overwrites, so that a loop over row tiles allocates only
    its indices per step; ``out`` is returned.

    The index of a neighbor on the image is exact.  One off the image has
    weight +0.0, so whichever element its clipped index reads adds a
    signed zero to an accumulator that starts at +0.0 and so never
    becomes -0.0: no bit depends on that element.
    """
    shape = (data.shape[0],) + base.shape
    out = np.empty(shape, dtype=np.float64) if out is None else out
    tmp = np.empty(shape, dtype=np.float64) if tmp is None else tmp
    idx = np.empty(base.shape, dtype=np.intp)
    out.fill(0.0)
    for step, w in zip(steps, wgt):
        np.add(base, step, out=idx)
        np.take(data, idx, axis=1, out=tmp, mode="clip")
        tmp *= w
        out += tmp
    return out


def _bilinear_scatter_weights(h: int, w: int, u: np.ndarray, v: np.ndarray):
    """The 4-neighbor bilinear plan of fractional positions on an (H, W) grid.

    Returns ``(base, weights)``: ``base`` of shape ``u.shape`` holds the
    flat index ``v0 * w + u0`` of each position's top-left neighbor, with
    ``u0, v0`` the floors of the positions clipped to ``[-2, w + 1]`` and
    ``[-2, h + 1]`` and no clipping onto the grid, so that neighbor ``k``
    is at ``base + _neighbor_steps(w)[k]``.  It is int32 unless those
    indices need int64.  ``weights`` of shape ``(4,) + u.shape`` are the
    float64 weights of the neighbors (top-left, top-right, bottom-left,
    bottom-right), +0.0 for neighbors off the image.  Gathers and gradient
    scatters both use it.
    """
    # Past these bounds all four neighbors lie off the image, as they did
    # before clipping, so weights are unchanged; clipping only keeps the
    # integer casts below defined for positions far off the image.
    u = np.clip(np.asarray(u, dtype=np.float64), -2.0, w + 1.0)
    v = np.clip(np.asarray(v, dtype=np.float64), -2.0, h + 1.0)
    u0 = np.floor(u)
    v0 = np.floor(v)
    du = np.subtract(u, u0, out=u)  # the clipped copies are ours to overwrite
    dv = np.subtract(v, v0, out=v)
    # the flat indices reach from -2*w - 2 up to (h + 3)*w + 2
    itype = np.int32 if (h + 3) * w + 2 <= np.iinfo(np.int32).max else np.int64
    u0 = u0.astype(itype)
    v0 = v0.astype(itype)

    wgt = np.empty((4,) + u.shape, dtype=np.float64)
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        vi = v0 + i
        ui = u0 + j
        np.multiply(dv if i else 1 - dv, du if j else 1 - du, out=wgt[k])
        wgt[k] *= (vi >= 0) & (vi < h) & (ui >= 0) & (ui < w)
    return v0 * w + u0, wgt
