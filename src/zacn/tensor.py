"""Dense float32 containers: features, offsets and depth.

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
An :class:`OffsetField` keeps no sampling plan: ``zacn.ops`` builds one
per row tile from the field, samples through it, and caches only its
border statistics on the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError

__all__ = [
    "FeatureTensor",
    "OffsetField",
    "DepthMap",
]


@dataclass(frozen=True)
class _Owned:
    """A float32 array that a container adopts without a copy: whoever
    wraps it made it and keeps no other reference, so the container owns it."""

    array: np.ndarray


@dataclass(frozen=True, eq=False)
class _Container:
    """The base of the containers: ``data`` as a read-only float32 copy, or
    the array of an :class:`_Owned` adopted as is when it is C-contiguous
    float32.  A value too large for float32 becomes an infinity.  Each
    subclass names its ``_ndim``, its ``_what`` and ``_non_finite``, the
    message that rejects a NaN or an infinity, or None to keep them (a
    ``DepthMap`` marks them invalid).  Containers compare by identity."""

    data: np.ndarray = field(repr=False)
    _ndim: ClassVar[int]
    _what: ClassVar[str]
    _non_finite: ClassVar[str | None]

    def __post_init__(self):
        with np.errstate(over="ignore"):
            if isinstance(self.data, _Owned):
                arr = np.asarray(self.data.array, dtype=np.float32, order="C")
            else:
                arr = np.array(self.data, dtype=np.float32, order="C")
        if arr.ndim != self._ndim:
            raise ConfigError(
                f"{self._what} must be {self._ndim}-dimensional, got shape {arr.shape}"
            )
        if any(s <= 0 for s in arr.shape):
            raise ConfigError(f"{self._what} has an empty dimension: shape {arr.shape}")
        arr.setflags(write=False)
        # min and max propagate NaN, and an infinity is one of them: no full-size mask
        if self._non_finite and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise ConfigError(self._non_finite)
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[-2]

    @property
    def width(self) -> int:
        return self.data.shape[-1]


@dataclass(frozen=True, eq=False)
class FeatureTensor(_Container):
    """A dense (channels, height, width) grid of finite 32-bit floats."""

    _ndim, _what, _non_finite = 3, "feature tensor", "feature tensor contains non-finite values"

    @property
    def channels(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True, eq=False)
class OffsetField(_Container):
    """Per-output-pixel 2D displacements for every kernel tap.

    Channel ``2n`` holds the row displacement (dy) of tap ``n`` and
    channel ``2n + 1`` the column displacement (dx); ``n`` runs row-major
    over the kernel window, so the channel count is ``2 * N * N`` for an
    ``N x N`` kernel.
    """

    _ndim, _what, _non_finite = 3, "offset field", "offset field contains non-finite values"
    # ``zacn.ops.OpSummary`` border statistics, no plan, by (KernelSpec,
    # input H, W); ``data`` is owned and read-only, so they never go stale.
    _summaries: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        c = self.data.shape[0]
        n = math.isqrt(c // 2)
        if 2 * n * n != c:  # odd counts fail too
            raise ConfigError(f"offset field channel count {c} is not 2*N*N")

    @property
    def tap_count(self) -> int:
        return self.data.shape[0] // 2

    @property
    def kernel_size(self) -> int:
        return math.isqrt(self.tap_count)

    @classmethod
    def zeros(cls, kernel_size: int, height: int, width: int) -> "OffsetField":
        return cls(np.zeros((2 * kernel_size * kernel_size, height, width), np.float32))


@dataclass(frozen=True, eq=False)
class DepthMap(_Container):
    """Single-channel metric depth; <= 0 or non-finite marks invalid pixels."""

    _ndim, _what, _non_finite = 2, "depth map", None

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.data) & (self.data > 0)
