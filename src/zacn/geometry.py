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
     ``Pi - P0``),
  4. ``_plane_basis``: orthonormal in-plane basis with a horizontal x axis,
  5. ``_plane_grid``: a regular grid on the plane, scaled so that a
     fronto-parallel plane reproduces the dilated pixel grid exactly,
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
# Relative eigenvalue gap below which a neighborhood counts as collinear.
_RANK_TOL = 1e-9
# Components smaller than this count as zero in the normal-sign tie-break.
# Set to the degenerate-basis zone width (n2^2 >= 1 - 1e-6 implies
# |n1|, |n3| <= 1e-3) so every normal in that zone tie-breaks to n2 >= 0
# and the fallback frame is constant there instead of flipping on noise.
_SIGN_TOL = 1e-3
# Byte budget of a ``_row_tiles`` run: one float64 (taps, rows, out_w)
# temporary of ``compute_offsets`` (a tile makes a few dozen; 0.75-1.5 MiB
# ran fastest at 480x640), and the float64 (ci*taps, rows, out_w) samples
# of a ``zacn.ops`` convolution or pooling tile.  Peak memory grows with it.
_TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters: focal lengths and principal point, in pixels."""

    fu: float
    fv: float
    cu: float
    cv: float

    def __post_init__(self):
        for name in ("fu", "fv", "cu", "cv"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ConfigError(f"intrinsic {name}={val} is not finite")
        if self.fu <= 0 or self.fv <= 0:
            raise ConfigError(f"focal lengths must be positive, got ({self.fu}, {self.fv})")


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
        if self.size < 1 or self.size % 2 == 0:
            raise ConfigError(f"kernel size must be odd and >= 1, got {self.size}")
        if self.dilation < 1:
            raise ConfigError(f"dilation must be >= 1, got {self.dilation}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ConfigError(f"padding must be >= 0, got {self.padding}")

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
    """Bookkeeping for one offset-field computation."""

    total_pixels: int
    degenerate_pixels: int
    basis_fallback_pixels: int

    def as_dict(self) -> dict:
        """The fields as a JSON-ready dict."""
        return asdict(self)


def _back_project(u, v, z, K: CameraIntrinsics):
    """Camera-frame ``(X, Y, Z)`` of pixels ``(u, v)`` with depth ``z``."""
    return (u - K.cu) * z / K.fu, (v - K.cv) * z / K.fv, z


def _plane_normals(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray):
    """Batch form of :func:`fit_plane` over ``(n, h, w)`` neighborhoods.

    ``dx``, ``dy``, ``dz`` hold ``Pi - P0``, excluded points set to zero.
    Returns normals ``(h, w, 3)`` and the mask of collinear or
    single-point neighborhoods.
    """
    sums = [np.einsum("nhw,nhw->hw", a, b)
            for a, b in ((dx, dx), (dy, dy), (dz, dz), (dx, dy), (dx, dz), (dy, dz))]
    (_, lam_mid, lam_max), normal = _smallest_eigenpair_sym3(*sums)
    return normal, (lam_max <= 0.0) | (lam_mid <= _RANK_TOL * lam_max)


def _smallest_eigenpair_sym3(a00, a11, a22, a01, a02, a12):
    """Closed-form eigendecomposition of symmetric 3x3 matrices ``S``.

    The arguments are the six distinct entries ``S[i, j]`` (``i <= j``),
    float64 arrays of one shape ``(...)``.  Returns ``((lam_min, lam_mid,
    lam_max), v_min)`` where ``v_min`` (shape ``(..., 3)``) is the unit
    eigenvector of the smallest eigenvalue with the deterministic sign
    convention ``n3 >= 0`` (ties: ``n1 >= 0``, then ``n2 >= 0``).
    Eigenvalues come from the trigonometric solution of the characteristic
    cubic; the eigenvector is the largest cross product of rows of
    ``S - lam*I``, which is exact for the fronto-parallel (block-diagonal)
    case.
    """
    q = (a00 + a11 + a22) / 3.0
    b00 = a00 - q
    b11 = a11 - q
    b22 = a22 - q
    p2 = b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)
    p = np.sqrt(p2 / 6.0)
    psafe = np.where(p > 0.0, p, 1.0)
    det = (
        b00 * (b11 * b22 - a12 * a12)
        - a01 * (a01 * b22 - a12 * a02)
        + a02 * (a01 * a12 - b11 * a02)
    )
    r = np.clip(det / (2.0 * psafe**3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam_max = q + 2.0 * p * np.cos(phi)
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    lam_mid = 3.0 * q - lam_max - lam_min

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
            v = tuple(np.where(take, cn, vn) for cn, vn in zip(c, v))
            best = np.maximum(best, norm2)

    # Isotropic or rank-deficient: no informative cross product; fall back
    # to the deterministic convention (callers flag these via eigenvalues).
    usable = best > 0.0
    vx = np.where(usable, v[0], 0.0)
    vy = np.where(usable, v[1], 0.0)
    vz = np.where(usable, v[2], 1.0)
    norm = np.sqrt((vx * vx + vy * vy) + vz * vz)
    vx, vy, vz = vx / norm, vy / norm, vz / norm

    sign = np.where(
        np.abs(vz) > _SIGN_TOL,
        np.sign(vz),
        np.where(
            np.abs(vx) > _SIGN_TOL,
            np.sign(vx),
            np.where(np.abs(vy) > _SIGN_TOL, np.sign(vy), 1.0),
        ),
    )
    return (lam_min, lam_mid, lam_max), np.stack([vx * sign, vy * sign, vz * sign], axis=-1)


def _plane_basis(normal: np.ndarray):
    """Batch form of :func:`basis_from_normal` for normals ``(..., 3)``.

    Where ``n2^2 >= 1 - 1e-6`` the fallback frame ``x = (1, 0, 0)``,
    ``y = (0, 0, -sign(n2))`` is used.  Returns ``(x_axis, y_axis,
    fallback)`` with the axes component-first, shape ``(3, ...)``.
    """
    n1 = normal[..., 0]
    nY = normal[..., 1]
    n3 = normal[..., 2]
    s2 = 1.0 - nY * nY
    fallback = s2 <= _FRAME_TOL
    inv = 1.0 / np.sqrt(np.maximum(s2, _FRAME_TOL))
    sgn = np.where(nY >= 0.0, 1.0, -1.0)
    x_axis = np.stack(
        [np.where(fallback, 1.0, n3 * inv), np.zeros_like(s2), np.where(fallback, 0.0, -n1 * inv)]
    )
    y_axis = np.stack(
        [
            np.where(fallback, 0.0, -n1 * nY * inv),
            np.where(fallback, 0.0, s2 * inv),
            np.where(fallback, -sgn, -nY * n3 * inv),
        ]
    )
    return x_axis, y_axis, fallback


def _plane_grid(x0, y0, z0, x_axis, y_axis, spec: KernelSpec, K: CameraIntrinsics):
    """Regular ``N x N`` grid of 3D taps on the plane through ``P0``.

    ``tap[i, j] = P0 + ku*(j - c)*x + kv*(i - c)*y`` with
    ``ku = dilation * z0 / fu`` and ``kv = dilation * z0 / fv``, so that on
    a fronto-parallel plane the taps project exactly onto the dilated
    pixel grid.  Returns the tap coordinates ``(X, Y, Z)``, each of shape
    ``(N*N,) + z0.shape`` with taps row-major.
    """
    ii, jj = np.divmod(np.arange(spec.tap_count), spec.size)
    steps = (-1,) + (1,) * np.ndim(z0)
    a = (jj - spec.center).astype(np.float64).reshape(steps) * (spec.dilation * z0 / K.fu)
    b = (ii - spec.center).astype(np.float64).reshape(steps) * (spec.dilation * z0 / K.fv)
    tx = x0 + a * x_axis[0] + b * y_axis[0]
    ty = y0 + b * y_axis[1]  # x axis has zero Y component
    tz = z0 + a * x_axis[2] + b * y_axis[2]
    return tx, ty, tz


def _project(x, y, z, K: CameraIntrinsics):
    """Fractional pixel ``(u, v)`` of camera-frame points ``(x, y, z)``."""
    return K.fu * x / z + K.cu, K.fv * y / z + K.cv


def back_project(u: float, v: float, z: float, K: CameraIntrinsics) -> np.ndarray:
    """Lift pixel ``(u, v)`` with depth ``z`` (meters) into the camera frame.

    Returns the float64 point ``(X, Y, Z)``, shape ``(3,)``.
    """
    if not (math.isfinite(z) and z > 0):
        raise InvalidDepthError(f"depth must be positive and finite, got {z}")
    return np.array(_back_project(u, v, z, K), dtype=np.float64)


def project(p, K: CameraIntrinsics) -> tuple[float, float]:
    """Perspective-project a camera-frame 3-vector to fractional pixels."""
    x, y, z = (float(t) for t in p)
    if z <= 0:
        raise BehindCameraError(f"cannot project point with Z={z} <= 0")
    return _project(x, y, z, K)


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
    normal, rank_deficient = _plane_normals(d[0], d[1], d[2])
    if rank_deficient[0, 0]:
        raise DegenerateNeighborhoodError("neighborhood is collinear or a single point")
    return normal[0, 0]


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
    x, y, fallback = _plane_basis(n)
    if fallback:
        raise DegenerateBasisError(f"normal {n} is too close to the camera Y axis")
    return x, y


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
) -> tuple[int, int]:
    """Write the offsets of output rows ``[row_start, row_stop)`` into
    ``out[:, row_start:row_stop]``; returns the degenerate and fallback-basis
    pixel counts of those rows.  Tiles that do not overlap touch disjoint
    parts of ``out``, so they can run concurrently."""
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
        x0 = px[center_tap].copy()
        y0 = py[center_tap].copy()
        z0 = z[center_tap].copy()
        invalid = ~valid
        del valid
        # Pi - P0 in place, excluded taps zero: np.where(valid, a - a0, 0.0)
        for a, a0 in ((px, x0), (py, y0), (z, z0)):
            np.subtract(a, a0, out=a)
            np.copyto(a, 0.0, where=invalid)
        normal, rank_deficient = _plane_normals(px, py, z)
        del px, py, z, invalid
        x_axis, y_axis, fallback = _plane_basis(normal)
        tx, ty, tz = _plane_grid(x0, y0, z0, x_axis, y_axis, spec, K)
        behind = ~((tz > 0.0) & np.isfinite(tz)).all(axis=0)  # grid behind the camera
        proj_u, proj_v = _project(tx, ty, tz, K)
        del tx, ty, tz

        degenerate = ~center_valid | (neighbor_count < 3) | rank_deficient | behind
        for parity, proj, regular in ((0, proj_v, tv), (1, proj_u, tu)):
            proj -= regular
            np.copyto(proj, 0.0, where=degenerate)
            out[parity::2, row_start:row_stop] = proj

    return int(np.count_nonzero(degenerate)), int(np.count_nonzero(fallback & ~degenerate))


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
    try:
        workers = 1 if workers is None else operator.index(workers)
    except TypeError as exc:
        raise ConfigError(f"workers must be an integer, got {workers!r}") from exc
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
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
    # computes the first share, and one worker starts no pool at all.
    if nworkers == 1:
        counts = run(tiles)
    else:
        shares = [tiles[k::nworkers] for k in range(nworkers)]
        with ThreadPoolExecutor(max_workers=nworkers - 1) as pool:
            others = pool.map(run, shares[1:])
            counts = run(shares[0])
            counts += [c for share in others for c in share]
    deg = sum(d for d, _ in counts)
    fb = sum(f for _, f in counts)
    return OffsetField(_Owned(out)), OffsetSummary(out_h * out_w, deg, fb)
