"""Pinhole geometry and the depth-guided sampling-offset pipeline.

Coordinate conventions (standard computer vision):

  * camera frame is right-handed: X right, Y down, Z forward (meters),
  * image frame: ``u`` = column, ``v`` = row, origin at the top-left
    pixel center, so back-projection is
    ``X = (u - cu) * Z / fu``, ``Y = (v - cv) * Z / fv``.

The offset pipeline, per output pixel ``p``, is one batch stage per
formula, run by ``_offset_block`` over a tile of output rows;
``compute_offsets`` sizes the tiles by a byte budget and shares them
between the calling thread and its worker threads:

  1. gather the regular receptive field on the depth map (coordinates
     clamped to the image),
  2. ``_back_project`` the valid-depth taps into a 3D point cloud,
  3. ``_plane_normals``: least-squares plane through the back-projected
     center ``P0`` (smallest eigenvector of the scatter matrix of
     ``Pi - P0``), as components ``(n1, n2, n3)``,
  4. ``_plane_basis``: orthonormal in-plane basis with a horizontal x axis,
     as component tuples ``(x1, 0.0, x3)`` and ``(y1, y2, y3)``,
  5. ``_plane_grid``: a regular grid on the plane through the center
     pixel's unit-depth ray ``P0 / z0``, with steps that make a
     fronto-parallel plane reproduce the dilated pixel grid exactly, summed
     from one term per kernel column and one per kernel row; the grid
     through ``P0`` is this one times ``z0`` and projects to the same pixels,
  6. ``_project`` the 3D grid back to the image; the offsets are the
     projected positions minus the regular grid positions.

The public ``back_project``, ``project``, ``fit_plane`` and
``basis_from_normal`` check their input and run the same stages on one
point or neighborhood.

Pixels with invalid center depth, fewer than 3 valid neighbors, a
rank-deficient (collinear) neighborhood, or a grid that reaches behind
the camera fall back to zero offsets, which reduces the adapted
operators to their standard counterparts there.
"""

from __future__ import annotations

import math
import numbers
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BehindCameraError,
    ConfigError,
    DegenerateBasisError,
    DegenerateNeighborhoodError,
    InvalidDepthError,
)
from .tensor import DepthMap, OffsetField, _Owned

__all__ = [
    "CameraIntrinsics",
    "KernelSpec",
    "OffsetSummary",
    "back_project",
    "project",
    "fit_plane",
    "basis_from_normal",
    "compute_offsets",
]

# Unit-length tolerance for normals and the degenerate-basis zone width.
_FRAME_TOL = 1e-6
# Relative eigenvalue gap, and relative size of the scatter matrix's second
# invariant, below which a neighborhood counts as collinear.
_RANK_TOL = 1e-9
# Components smaller than this count as zero in the normal-sign tie-break.
# Set to the degenerate-basis zone width (n2^2 >= 1 - 1e-6 implies
# |n1|, |n3| <= 1e-3) so every normal in that zone tie-breaks to n2 >= 0
# and the fallback frame is constant there instead of flipping on noise.
_SIGN_TOL = 1e-3
# Byte budget of a ``_row_tiles`` run: one float64 (taps, rows, out_w)
# temporary of ``compute_offsets`` (a tile makes a few dozen; 0.75-1.5 MiB
# ran fastest at 480x640), the float64 (ci*taps, rows, out_w) samples of a
# ``zacn.ops`` tile, and a tile plan's temporaries.  Peak memory grows with it.
_TILE_BYTES = 1 << 20


def _check_int(name, value, low):
    """``value`` as an int; :class:`ConfigError` unless it is an integer >= ``low``."""
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def _check_real(name, value, low=None, strict=False):
    """:class:`ConfigError` unless ``value`` is a finite real number, and, when
    ``low`` is given, at least ``low`` (above it if ``strict``)."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and (low is None or (value > low if strict else value >= low))):
        bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
        raise ConfigError(f"{name} must be finite{bound}, got {value}")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters: focal lengths and principal point, in pixels."""

    fu: float
    fv: float
    cu: float
    cv: float

    def __post_init__(self):
        for name in ("fu", "fv"):
            _check_real(f"focal length {name}", getattr(self, name), 0, strict=True)
        for name in ("cu", "cv"):
            _check_real(f"principal point {name}", getattr(self, name))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel geometry of the regular sampling grid.

    ``size`` must be odd so a center tap exists; taps are enumerated
    row-major and placed by :meth:`tap_positions`.
    """

    size: int
    dilation: int = 1
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        for name, low in (("size", 1), ("dilation", 1), ("stride", 1), ("padding", 0)):
            _check_int(f"kernel {name}", getattr(self, name), low)
        if self.size % 2 == 0:
            raise ConfigError(f"kernel size must be odd, got {self.size}")

    @classmethod
    def same(cls, size: int, dilation: int = 1, stride: int = 1) -> "KernelSpec":
        """Spec whose padding keeps unit-stride output the input size."""
        return cls(size, dilation, stride, dilation * (size - 1) // 2)

    @property
    def tap_count(self) -> int:
        return self.size * self.size

    @property
    def offset_channels(self) -> int:
        return 2 * self.size * self.size

    @property
    def center(self) -> int:
        return (self.size - 1) // 2

    def span(self) -> int:
        """Extent of the dilated window in pixels."""
        return self.dilation * (self.size - 1) + 1

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        oh = (height + 2 * self.padding - self.span()) // self.stride + 1
        ow = (width + 2 * self.padding - self.span()) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ConfigError(
                f"kernel {self.size}x{self.size} (dilation {self.dilation}, "
                f"padding {self.padding}) does not fit a {height}x{width} input"
            )
        return oh, ow

    def tap_positions(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """Regular int64 input positions ``(v, u)`` of every tap of the output
        pixels ``rows`` x ``cols``, ``stride * (y, x) - padding + dilation *
        (i, j)`` for tap ``(i, j)``: ``(N*N, len(rows), len(cols))`` broadcast views."""
        i, j = np.divmod(np.arange(self.tap_count)[:, None, None], self.size)
        v = np.asarray(rows, dtype=np.int64)[:, None] * self.stride - self.padding
        u = np.asarray(cols, dtype=np.int64) * self.stride - self.padding
        return np.broadcast_arrays(v + self.dilation * i, u + self.dilation * j)


@dataclass(frozen=True)
class OffsetSummary:
    """Bookkeeping for one offset-field computation.

    The last four fields split ``degenerate_pixels`` by why each pixel fell
    back to zero offsets; a pixel counts under the first cause that holds,
    in their order: an invalid center depth, fewer than 3 valid neighbors,
    a collinear window, a grid that reaches behind the camera.
    """

    total_pixels: int
    degenerate_pixels: int
    basis_fallback_pixels: int
    invalid_center_pixels: int = 0
    few_neighbors_pixels: int = 0
    collinear_pixels: int = 0
    behind_camera_pixels: int = 0

    def as_dict(self) -> dict:
        """The fields as a JSON-ready dict."""
        return asdict(self)


def _back_project(u, v, z, K: CameraIntrinsics):
    """Camera-frame ``(X, Y, Z)`` of pixels ``(u, v)`` with depth ``z``."""
    return (u - K.cu) * z / K.fu, (v - K.cv) * z / K.fv, z


def _scatter_sums(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> list[np.ndarray]:
    """The scatter matrices of ``(n, h, w)`` neighborhoods whose points
    ``Pi - P0`` are ``dx``, ``dy``, ``dz``, excluded points set to zero: their
    six distinct entries ``(xx, yy, zz, xy, xz, yz)``, each ``(h, w)``."""
    return [np.einsum("nhw,nhw->hw", a, b)
            for a, b in ((dx, dx), (dy, dy), (dz, dz), (dx, dy), (dx, dz), (dy, dz))]


def _plane_normals(a00, a11, a22, a01, a02, a12):
    """Batch form of :func:`fit_plane` from the six :func:`_scatter_sums` of
    each neighborhood, so that its points can be freed before the solve.
    Returns the normal's components ``(n1, n2, n3)``, each of the sums'
    shape, and the mask of collinear or single-point neighborhoods.

    On an exactly rank-1 matrix the trigonometric solve can leave ``lam_mid``
    at about ``4e-9 * lam_max``, so the sum of the 2x2 principal minors
    ``c2``, which is about ``1e-16 * trace^2`` there, flags it as well.
    """
    (_, lam_mid, lam_max), normal = _smallest_eigenpair_sym3(a00, a11, a22, a01, a02, a12)
    c2 = (a00 * a11 - a01 * a01) + (a00 * a22 - a02 * a02) + (a11 * a22 - a12 * a12)
    trace = a00 + a11 + a22
    collinear = (lam_mid <= _RANK_TOL * lam_max) | (c2 <= _RANK_TOL * trace * trace)
    return normal, (lam_max <= 0.0) | collinear


def _smallest_eigenpair_sym3(a00, a11, a22, a01, a02, a12):
    """Closed-form eigendecomposition of symmetric 3x3 matrices ``S``.

    The arguments are the six distinct entries ``S[i, j]`` (``i <= j``),
    float64 arrays of one shape ``(...)``.  Returns ``((lam_min, lam_mid,
    lam_max), (v1, v2, v3))`` where ``v``, in components of that shape, is
    the unit eigenvector of the smallest eigenvalue with the deterministic
    sign convention ``v3 >= 0`` (ties: ``v1 >= 0``, then ``v2 >= 0``).
    Eigenvalues come from the trigonometric solution of the characteristic
    cubic; the eigenvector is the largest cross product of rows of
    ``S - lam*I``, which is exact for the fronto-parallel (block-diagonal)
    case.
    """
    # Each temporary is freed, or overwritten in place, after its last use;
    # the in-place steps apply the operations of the formula in their
    # comment in the same order, so every bit is kept.
    q = (a00 + a11 + a22) / 3.0
    b00 = a00 - q
    b11 = a11 - q
    b22 = a22 - q
    # p = sqrt((b00^2 + b11^2 + b22^2 + 2 (a01^2 + a02^2 + a12^2)) / 6)
    p = b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)
    np.sqrt(np.divide(p, 6.0, out=p), out=p)
    det = (
        b00 * (b11 * b22 - a12 * a12)
        - a01 * (a01 * b22 - a12 * a02)
        + a02 * (a01 * a12 - b11 * a02)
    )
    del b00, b11, b22
    # phi = arccos(clip(det / (2 psafe^3), -1, 1)) / 3, psafe = p or 1 where p is 0
    psafe = np.where(p > 0.0, p, 1.0)
    np.multiply(2.0, np.power(psafe, 3, out=psafe), out=psafe)
    phi = np.divide(det, psafe, out=det)
    del psafe
    np.divide(np.arccos(np.clip(phi, -1.0, 1.0, out=phi), out=phi), 3.0, out=phi)
    lam_max = q + 2.0 * p * np.cos(phi)
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    del phi, p
    lam_mid = 3.0 * q - lam_max - lam_min
    del q

    # Rows of S - lam_min*I; the eigenvector is orthogonal to all of them.
    # Component by component: each cross product in np.cross's expression
    # order and each squared norm in einsum's ((x^2 + z^2) + y^2), so that
    # near-ties pick the same product as the stacked np.cross/einsum/argmax
    # form, which tests keep as the byte-for-byte reference.
    r0 = (a00 - lam_min, a01, a02)
    r1 = (a01, a11 - lam_min, a12)
    r2 = (a02, a12, a22 - lam_min)
    v = best = None
    for (x0, y0, z0), (x1, y1, z1) in ((r0, r1), (r0, r2), (r1, r2)):
        c = (y0 * z1 - z0 * y1, z0 * x1 - x0 * z1, x0 * y1 - y0 * x1)
        norm2 = (c[0] * c[0] + c[2] * c[2]) + c[1] * c[1]
        if v is None:
            v, best = c, norm2
        else:
            take = norm2 > best  # the first maximum wins, as in argmax
            for vn, cn in zip(v, c):
                np.copyto(vn, cn, where=take)
            np.maximum(best, norm2, out=best)
        del c, norm2
    del r0, r1, r2

    # Isotropic or rank-deficient: no informative cross product; fall back
    # to the deterministic convention (callers flag these via eigenvalues).
    unusable = ~(best > 0.0)
    vx, vy, vz = v
    del v, best
    np.copyto(vx, 0.0, where=unusable)
    np.copyto(vy, 0.0, where=unusable)
    np.copyto(vz, 1.0, where=unusable)
    norm = np.sqrt((vx * vx + vy * vy) + vz * vz)
    vx /= norm
    vy /= norm
    vz /= norm
    del norm

    sign = np.select([np.abs(vz) > _SIGN_TOL, np.abs(vx) > _SIGN_TOL, np.abs(vy) > _SIGN_TOL],
                     [np.sign(vz), np.sign(vx), np.sign(vy)], 1.0)
    vx *= sign
    vy *= sign
    vz *= sign
    return (lam_min, lam_mid, lam_max), (vx, vy, vz)


def _plane_basis(n1, n2, n3):
    """Batch form of :func:`basis_from_normal` for normal components of one shape.

    Where ``n2^2 >= 1 - 1e-6`` the fallback frame ``x = (1, 0, 0)``,
    ``y = (0, 0, -sign(n2))`` is used.  Returns ``(x_axis, y_axis,
    fallback)`` with the axes as components ``(x1, 0.0, x3)``, ``(y1, y2, y3)``.
    """
    s2 = 1.0 - n2 * n2
    fallback = s2 <= _FRAME_TOL
    inv = 1.0 / np.sqrt(np.maximum(s2, _FRAME_TOL))
    x_axis = (np.where(fallback, 1.0, n3 * inv), 0.0, np.where(fallback, 0.0, -n1 * inv))
    y_axis = (
        np.where(fallback, 0.0, -n1 * n2 * inv),
        np.where(fallback, 0.0, s2 * inv),
        np.where(fallback, np.where(n2 >= 0.0, -1.0, 1.0), -n2 * n3 * inv),
    )
    return x_axis, y_axis, fallback


def _plane_grid(ru, rv, x_axis, y_axis, spec: KernelSpec, K: CameraIntrinsics):
    """Regular ``N x N`` grid of 3D taps on the plane through the center
    pixel's unit-depth ray ``(ru, rv, 1)``.

    ``tap[i, j] = (ru, rv, 1) + a[j]*x + b[i]*y`` with column terms ``a[j] =
    (j - c)*dilation/fu`` and row terms ``b[i] = (i - c)*dilation/fv``, so that
    on a fronto-parallel plane the taps project exactly onto the dilated pixel
    grid.  Returns X and Z of shape ``(N, N) + shape``, indexed ``[i, j]``,
    with ``shape`` that of the axis components, and Y, constant along a kernel
    row, ``(N, 1) + shape``.
    """
    steps = np.arange(-spec.center, spec.center + 1.0).reshape((-1,) + (1,) * np.ndim(x_axis[0]))
    a = steps * (spec.dilation / K.fu)
    b = steps[:, None] * (spec.dilation / K.fv)
    tx = ru + a * x_axis[0] + b * y_axis[0]
    ty = rv + b * y_axis[1]  # x axis has zero Y component
    tz = 1.0 + a * x_axis[2] + b * y_axis[2]
    return tx, ty, tz


def _project(x, y, z, K: CameraIntrinsics):
    """Fractional pixel ``(u, v)`` of camera-frame points ``(x, y, z)``,
    float64 arrays of which ``y`` may broadcast against the other two:
    ``fu*x/z + cu`` and ``fv*y/z + cv``, evaluated in that order in place
    into ``x`` and then ``z``, which are returned."""
    np.divide(np.multiply(K.fu, x, out=x), z, out=x)
    np.add(x, K.cu, out=x)
    np.divide(K.fv * y, z, out=z)
    np.add(z, K.cv, out=z)
    return x, z


def back_project(u: float, v: float, z: float, K: CameraIntrinsics) -> np.ndarray:
    """Lift pixel ``(u, v)`` with depth ``z`` (meters) into the camera frame.

    Returns the float64 point ``(X, Y, Z)``, shape ``(3,)``.
    """
    if not (math.isfinite(z) and z > 0):
        raise InvalidDepthError(f"depth must be positive and finite, got {z}")
    return np.array(_back_project(u, v, z, K), dtype=np.float64)


def project(p, K: CameraIntrinsics) -> tuple[float, float]:
    """Perspective-project a camera-frame 3-vector to fractional pixels."""
    x, y, z = (np.array(float(t)) for t in p)
    if z <= 0:
        raise BehindCameraError(f"cannot project point with Z={z} <= 0")
    u, v = _project(x, y, z, K)
    return float(u), float(v)


def fit_plane(points, center) -> np.ndarray:
    """Least-squares plane normal through ``center`` for a 3D neighborhood.

    ``points`` is an ``(n, 3)`` array-like and ``center`` a 3-vector.
    Minimizes the summed squared point-plane distances
    ``sum_i (n . (Pi - P0))^2`` over unit normals ``n``; the minimizer is
    the smallest eigenvector of the 3x3 scatter matrix of the
    center-relative points.  The sign is fixed so ``n3 >= 0`` (ties
    broken by ``n1 >= 0`` then ``n2 >= 0``; components within 1e-3 of
    zero count as ties so noise cannot flip near-axis-aligned normals).

    Raises :class:`DegenerateNeighborhoodError` when fewer than 3 finite
    points remain or the neighborhood is collinear, and
    :class:`ConfigError` for a non-finite ``center``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ConfigError(f"expected an (n, 3) array of 3D points, got shape {pts.shape}")
    center = np.asarray(center, dtype=np.float64)
    if not np.all(np.isfinite(center)):
        raise ConfigError(f"plane center must be finite, got {center}")
    pts = pts[np.all(np.isfinite(pts), axis=1)]
    if pts.shape[0] < 3:
        raise DegenerateNeighborhoodError(
            f"plane fit needs >= 3 valid points, got {pts.shape[0]}"
        )
    d = (pts - center).T[:, :, None, None]
    normal, rank_deficient = _plane_normals(*_scatter_sums(d[0], d[1], d[2]))
    if rank_deficient[0, 0]:
        raise DegenerateNeighborhoodError("neighborhood is collinear or a single point")
    return np.array([c[0, 0] for c in normal])


def basis_from_normal(n) -> tuple[np.ndarray, np.ndarray]:
    """In-plane orthonormal basis ``(x, y)`` with horizontal ``x``.

    ``x = (n3, 0, -n1) / sqrt(1 - n2^2)`` and
    ``y = (-n1*n2, 1 - n2^2, -n2*n3) / sqrt(1 - n2^2)``, which satisfies
    ``n x xAxis = yAxis``.  Raises :class:`DegenerateBasisError` when
    ``n2^2 >= 1 - 1e-6`` (normal nearly along camera Y), where the offset
    generator uses the fallback frame ``(1,0,0) / (0,0,-sign(n2))``.
    """
    n = np.asarray(n, dtype=np.float64)
    if n.shape != (3,):
        raise ConfigError(f"normal must be a 3-vector, got shape {n.shape}")
    if abs(np.linalg.norm(n) - 1.0) > _FRAME_TOL:
        raise ConfigError(f"normal must be unit length, got |n|={np.linalg.norm(n)}")
    x, y, fallback = _plane_basis(*n)
    if fallback:
        raise DegenerateBasisError(f"normal {n} is too close to the camera Y axis")
    return np.array(x), np.array(y)


def _row_tiles(rows: int, row_bytes: int) -> list[tuple[int, int]]:
    """Runs ``(r0, r1)`` of ``rows`` rows of ``row_bytes`` bytes each, as many
    rows as fit ``_TILE_BYTES`` (at least one) in every run but the last."""
    step = max(1, _TILE_BYTES // row_bytes)
    return [(r, min(r + step, rows)) for r in range(0, rows, step)]


def _offset_block(
    depth64: np.ndarray,
    valid_depth: np.ndarray,
    K: CameraIntrinsics,
    spec: KernelSpec,
    rows: tuple[int, int],
    out: np.ndarray,
) -> tuple[int, ...]:
    """Write the offsets of output rows ``[row_start, row_stop)`` into
    ``out[:, row_start:row_stop]``; returns the fallback-basis pixel count of
    those rows and their degenerate pixel counts by cause, in the order of
    :class:`OffsetSummary`.  Tiles that do not overlap touch disjoint parts
    of ``out``, so they can run concurrently."""
    row_start, row_stop = rows
    h, w = depth64.shape
    center_tap = spec.center * spec.size + spec.center

    # Nominal (unclamped) tap coordinates p + p_n, shape (n2, rows, ow).
    tv, tu = spec.tap_positions(range(row_start, row_stop), range(out.shape[2]))
    # tv varies only down the rows and tu only along them: clip and
    # back-project those (n2, rows, 1) and (n2, 1, ow) slices, and broadcast
    tvc = np.clip(tv[:, :, :1], 0, h - 1)
    tuc = np.clip(tu[:, :1], 0, w - 1)

    flat = tvc * w + tuc
    z = depth64.ravel().take(flat)
    valid = valid_depth.ravel().take(flat)
    del flat
    center_valid = valid[center_tap]
    neighbor_count = valid.sum(axis=0) - center_valid.astype(np.int64)

    # Each stage frees the full-size (n2, rows, ow) arrays it no longer
    # needs and works in place where the bits allow, so a tile keeps a few
    # of them alive at once, not a dozen.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        px, py, _ = _back_project(tuc, tvc, z, K)
        ru, rv, _ = _back_project(tuc[center_tap], tvc[center_tap], 1.0, K)
        invalid = ~valid
        del valid
        # Pi - P0 in place, excluded taps zero: np.where(valid, a - a0, 0.0);
        # numpy copies the center row a0 = a[center_tap] before overwriting it
        for a in (px, py, z):
            np.subtract(a, a[center_tap], out=a)
            np.copyto(a, 0.0, where=invalid)
        sums = _scatter_sums(px, py, z)
        del px, py, z, invalid  # the solve needs only the sums
        normal, rank_deficient = _plane_normals(*sums)
        del sums
        x_axis, y_axis, fallback = _plane_basis(*normal)
        tx, ty, tz = _plane_grid(ru, rv, x_axis, y_axis, spec, K)
        behind = ~((tz > 0.0) & np.isfinite(tz)).all(axis=(0, 1))  # grid behind the camera
        proj_u, proj_v = _project(tx, ty, tz, K)
        del tx, ty, tz

        # each pixel counts under the first cause that holds
        degenerate = np.zeros(behind.shape, dtype=bool)
        causes = []
        for cause in (~center_valid, neighbor_count < 3, rank_deficient, behind):
            causes.append(int(np.count_nonzero(cause & ~degenerate)))
            degenerate |= cause
        for parity, proj, regular in ((0, proj_v.reshape(tv.shape), tv),
                                      (1, proj_u.reshape(tu.shape), tu)):
            proj -= regular
            np.copyto(proj, 0.0, where=degenerate)
            out[parity::2, row_start:row_stop] = proj

    return (int(np.count_nonzero(fallback & ~degenerate)), *causes)


def compute_offsets(
    depth: DepthMap,
    K: CameraIntrinsics,
    spec: KernelSpec,
    out_h: int,
    out_w: int,
    workers: int | None = None,
) -> tuple[OffsetField, OffsetSummary]:
    """Depth-adapted sampling offsets for every output pixel.

    The output has ``2 * N * N`` channels of shape ``(out_h, out_w)``:
    channel ``2n`` is the row displacement and ``2n + 1`` the column
    displacement of tap ``n`` from :meth:`KernelSpec.tap_positions`.
    ``(out_h, out_w)`` must match the convolution output shape implied by
    ``spec`` on the depth dimensions.

    Output rows are processed in tiles of as many rows as keep one float64
    ``(N*N, rows, out_w)`` temporary within ``_TILE_BYTES``, so the working
    set stays cache-sized whatever the image size.  ``workers`` (an integer
    >= 1; ``None`` means 1) is the number of threads that compute tiles,
    never more than there are tiles: the calling thread takes every
    ``workers``-th tile and a pool of ``workers - 1`` threads the rest.
    The caller works rather than waits because each pool thread's malloc
    arena holds on to its tiles' temporaries, so every extra thread costs
    peak memory.  The tiles depend only on the shapes and the counts are
    summed, so results are bit-identical for any worker count.

    Raises :class:`ConfigError` for a ``workers`` that is not an integer
    >= 1 or output dims that do not match ``spec`` on the depth map.
    """
    workers = 1 if workers is None else _check_int("workers", workers, 1)
    expected = spec.output_shape(depth.height, depth.width)
    if expected != (out_h, out_w):
        raise ConfigError(
            f"output dims ({out_h}, {out_w}) inconsistent with depth "
            f"{depth.height}x{depth.width} under {spec}; expected {expected}"
        )
    depth64 = depth.data.astype(np.float64)
    valid = depth.valid_mask()
    out = np.empty((spec.offset_channels, out_h, out_w), dtype=np.float32)

    tiles = _row_tiles(out_h, spec.tap_count * out_w * 8)
    nworkers = min(workers, len(tiles))

    def run(share):
        return [_offset_block(depth64, valid, K, spec, rows, out) for rows in share]

    # Each pool thread's glibc malloc arena keeps its tiles' temporaries
    # after they are freed, so no thread only waits: the calling thread
    # computes the first share.  A pool starts its threads only as shares
    # are submitted, so one worker starts none.
    shares = [tiles[k::nworkers] for k in range(nworkers)]
    with ThreadPoolExecutor(max_workers=max(nworkers - 1, 1)) as pool:
        others = pool.map(run, shares[1:])
        counts = run(shares[0])
        counts += [c for share in others for c in share]
    fb, *causes = (sum(c) for c in zip(*counts))
    return OffsetField(_Owned(out)), OffsetSummary(out_h * out_w, sum(causes), fb, *causes)
