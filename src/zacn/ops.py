"""Depth-adapted convolution and average pooling, forward and backward.

The adapted operators consume a precomputed offset field: each kernel tap
samples the input at ``regular position + offset`` with zero-padded
bilinear interpolation, so a zero offset field reproduces the standard
operator exactly.  The standard convolution and pooling are that: the
adapted operator on a zero field.  Offsets never receive gradients;
backward only produces gradients for the input and the weights.

Each row tile of the output builds its own bilinear plan from the field,
as Deformable ConvNets' im2col computes its coefficients where it reads
them; no plan is cached.  A tile's plan holds the int32 flat index of
each tap sample's top-left neighbor, unclipped, and the float64 weights
(+0.0 off the image) of the neighbor slots that carry weight in the tile;
slot ``k`` reads the input at that index plus the slot's step, clipped
onto the image.  The field caches only the border statistics of
:class:`OpSummary`.  This module holds the whole plan: the weight kernel
:func:`_bilinear_scatter_weights` builds it, :func:`_bilinear_gather`
reads it, and :func:`bilinear_sample` is its scalar view.

One walker, :func:`_sample_rows`, gathers the samples a row tile at a
time from a float64 band of the input rows that the tile reaches, so no
call holds a float64 copy of the whole input (a walk whose bands add up to
many image heights reads one whole-image copy instead): each convolution
contraction is one float64 matmul over the joint ``ci*taps`` axis per tile
(:func:`_conv_gemm`), and pooling sums each tile's taps in order.  Backward
converts ``grad_out`` to float64 a tile at a time and scatters the input
gradient through each tile's weights, in row tiles that fit four slots'
weights.  Sums are float64; outputs are rounded once into the float32
arrays that the results adopt.  :func:`gather_samples` returns the all-tap
samples, which forward and backward accept as ``samples`` in place of
their own gather, with the same bits, so training over a fixed field
gathers once.

The tiles depend only on the shapes and each scatter is a sequential
bincount, so outputs are bit-identical across runs and across BLAS thread
counts (OpenBLAS never splits the contracted axis over threads).
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import geometry
from .errors import ConfigError
from .geometry import KernelSpec
from .tensor import FeatureTensor, OffsetField, _Container, _Owned

__all__ = [
    "ConvWeights",
    "OpSummary",
    "bilinear_sample",
    "conv_param_count",
    "standard_conv",
    "za_conv_forward",
    "za_conv_backward",
    "gather_samples",
    "standard_avg_pool",
    "za_avg_pool",
]


@dataclass(frozen=True, eq=False)
class ConvWeights(_Container):
    """Dense kernel bank, layout (out_channels, in_channels, N, N)."""

    _ndim, _what, _non_finite = 4, "weights", "weights contain non-finite values"

    def __post_init__(self):
        super().__post_init__()
        if self.data.shape[2] != self.data.shape[3]:
            raise ConfigError(f"weights must be (co, ci, N, N), got shape {self.data.shape}")

    @property
    def out_channels(self) -> int:
        return self.data.shape[0]

    @property
    def in_channels(self) -> int:
        return self.data.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.data.shape[2]

    @property
    def param_count(self) -> int:
        return int(self.data.size)


@dataclass(frozen=True)
class OpSummary:
    """Border statistics of one adapted-operator invocation.

    ``degenerate_pixels`` counts output pixels where at least one tap
    sampled fully outside the input (contributing nothing);
    ``oob_sample_fraction`` is the fraction of all (pixel, tap) samples
    whose bilinear weights were clipped by the border at all.  Both depend
    only on the field, the spec and the input shape; no timing is kept.
    """

    degenerate_pixels: int
    oob_sample_fraction: float

    def __post_init__(self):
        if not (0.0 <= self.oob_sample_fraction <= 1.0):
            raise ConfigError(
                f"out-of-bounds fraction {self.oob_sample_fraction} outside [0, 1]"
            )

    def as_dict(self) -> dict:
        """The fields as a JSON-ready dict."""
        return asdict(self)


def conv_param_count(in_channels: int, out_channels: int, size: int) -> int:
    """Learnable parameter count of an NxN conv; identical for the
    standard and the depth-adapted operator (offsets are not learned)."""
    return out_channels * in_channels * size * size


def _check_conv_shapes(x: FeatureTensor, w: ConvWeights, spec: KernelSpec):
    if w.kernel_size != spec.size:
        raise ConfigError(
            f"weights are {w.kernel_size}x{w.kernel_size} but spec says {spec.size}x{spec.size}"
        )
    if w.in_channels != x.channels:
        raise ConfigError(
            f"weights expect {w.in_channels} input channels, tensor has {x.channels}"
        )


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
    r0 = min(max(math.floor(v), 0), x.height - 1)  # the weighted rows: floor(v) and the next
    data = x.data[c, r0:r0 + 2].reshape(1, -1).astype(np.float64)
    val = _bilinear_gather(data, base, _neighbor_steps(x.width), wgt, start=r0 * x.width)[0, 0]
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
    start: int = 0,
) -> np.ndarray:
    """Zero-padded bilinear samples through a plan of up to 4 neighbors.

    ``data`` is a float64 band of whole rows of the ``(C, H*W)`` grid,
    ``(C, n)``, whose first element is the grid's flat index ``start``: the
    whole grid, or only the rows that the plan's weighted neighbors lie in.
    ``base`` and ``wgt`` come from :func:`_bilinear_scatter_weights`,
    ``steps`` from :func:`_neighbor_steps`, possibly without the neighbor
    slots that carry no weight: slot ``k`` reads the band at ``base +
    steps[k] - start``, clipped onto the band, with weight ``wgt[k]``.
    Returns float64 samples of
    shape ``(C,) + base.shape``, summed over the neighbors in plan order.
    ``out``, if given, is a float64 buffer of that shape and ``tmp`` one of
    the samples of some ``cc`` channels; the gather overwrites both, reading
    ``cc`` channels at a time, so that a loop over row tiles allocates only
    its indices per slot; ``out`` is returned.

    The index of a neighbor on the image is exact, as long as the band
    holds its row.  One off the image has weight +0.0, so whichever element
    its clipped index reads adds a signed zero to an accumulator that
    starts at +0.0 and so never becomes -0.0: no bit depends on that element.
    """
    shape = (data.shape[0],) + base.shape
    out = np.empty(shape, dtype=np.float64) if out is None else out
    tmp = np.empty(shape, dtype=np.float64) if tmp is None else tmp
    cc = tmp.size // base.size  # channels per part
    idx = np.empty(base.shape, dtype=np.intp)
    out.fill(0.0)
    for step, w in zip(steps, wgt):
        np.add(base, step - start, out=idx)
        for c0 in range(0, data.shape[0], cc):
            part = out[c0:c0 + cc]
            t = tmp.reshape(-1)[:part.size].reshape(part.shape)
            np.take(data[c0:c0 + cc], idx, axis=1, out=t, mode="clip")
            t *= w
            part += t
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
    # Per-axis factors with each neighbor's in-image test folded in: the same
    # bits as masking their product, since both factors are finite and >= 0.
    ay = ((1 - dv) * ((v0 >= 0) & (v0 < h)), dv * ((v0 >= -1) & (v0 < h - 1)))
    bx = ((1 - du) * ((u0 >= 0) & (u0 < w)), du * ((u0 >= -1) & (u0 < w - 1)))
    # the flat indices reach from -2*w - 2 up to (h + 3)*w + 2
    itype = np.int32 if (h + 3) * w + 2 <= np.iinfo(np.int32).max else np.int64
    base = v0.astype(itype) * w + u0.astype(itype)
    del u, v, du, dv, u0, v0  # the weights need only the factors
    wgt = np.empty((4,) + base.shape, dtype=np.float64)
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        np.multiply(ay[i], bx[j], out=wgt[k])
    return base, wgt


# Bytes that one tap sample takes while its plan is built: its float64
# position (u, v) and the weight kernel's temporaries (about 74 bytes).
_PLAN_BYTES = 96


def _tile_plan(h: int, w: int, v: np.ndarray, u: np.ndarray, off: np.ndarray, counts=None):
    """The plan ``(base, steps, wgt)`` of a row tile on an ``h`` x ``w`` input
    from its regular ``(taps, rows, ow)`` tap positions ``v, u`` and float32
    ``(taps, 2, rows, ow)`` offsets ``off``: each tap sample's top-left
    neighbor index, and the steps and weights of the K slots that carry
    weight in the tile, as :func:`_bilinear_gather` takes them.  The weight
    kernel runs on as many taps at a time as fit ``geometry._TILE_BYTES``.
    Adds the tile's ``[degenerate pixels, clipped samples]`` to ``counts``."""
    taps, rows, ow = u.shape
    groups = geometry._row_tiles(taps, rows * ow * _PLAN_BYTES)
    degenerate = np.zeros((rows, ow), dtype=bool)
    for n0, n1 in groups:
        # float32 offsets add exactly in float64
        un, vn = u[n0:n1] + off[n0:n1, 1], v[n0:n1] + off[n0:n1, 0]
        if counts is not None:
            # pixels with a tap wholly off the image; samples the border clips
            degenerate |= ((un <= -1.0) | (un >= w) | (vn <= -1.0) | (vn >= h)).any(axis=0)
            inside = (un >= 0.0) & (un <= w - 1) & (vn >= 0.0) & (vn <= h - 1)
            counts[1] += inside.size - int(np.count_nonzero(inside))
        b, wn = _bilinear_scatter_weights(h, w, un, vn)
        if len(groups) == 1:  # one call: its arrays are the plan
            base, wgt = b, wn
        else:
            if n0 == 0:
                base, wgt = np.empty(u.shape, b.dtype), np.empty((4,) + u.shape)
            base[n0:n1], wgt[:, n0:n1] = b, wn
    if counts is not None:
        counts[0] += int(np.count_nonzero(degenerate))
    # A slot whose weight is 0 in every sample of the tile only adds exact
    # zeros to accumulators that start at +0.0, so dropping it changes no bit.
    keep = [k for k in range(4) if wgt[k].any()]
    wgt = wgt if len(keep) == 4 else wgt[keep]  # a full plan is not copied
    return base, tuple(_neighbor_steps(w)[k] for k in keep), wgt


def _plans(x: FeatureTensor, offsets: OffsetField, spec: KernelSpec, tiles):
    """Yield ``(r0, r1, plan)``, the :func:`_tile_plan` of each row tile of
    ``tiles``; the first walk over a field caches its border statistics."""
    (h, w), (oh, ow) = x.data.shape[1:], offsets.data.shape[1:]
    key = (spec, h, w)
    counts = None if key in offsets._summaries else [0, 0]
    v, u = spec.tap_positions(range(oh), range(ow))
    off = offsets.data.reshape(spec.tap_count, 2, oh, ow)
    for r0, r1 in tiles:
        yield r0, r1, _tile_plan(h, w, v[:, r0:r1], u[:, r0:r1], off[:, :, r0:r1], counts)
    if counts is not None:
        offsets._summaries[key] = OpSummary(counts[0], counts[1] / (spec.tap_count * oh * ow))


# A walk whose bands have converted more input rows than this many image
# heights converts the whole image once, the widest band, and reads it for
# the rest of the walk, so a field whose tiles each reach a wide band costs
# at most this many image conversions more than one whole-image copy, not a
# wide band a tile.  With 16 channels, a corridor field's bands add up to
# 2.1 heights at 120x160 and 6.5 at 480x640 (one-row tiles).
_BAND_HEIGHTS = 16


def _summary(x: FeatureTensor, offsets: OffsetField, spec: KernelSpec) -> OpSummary:
    """The border statistics of ``offsets`` under ``spec`` on ``x``, walked once."""
    key = (spec, x.height, x.width)
    if key not in offsets._summaries:  # samples= on a field never walked: count row by row
        for _ in _plans(x, offsets, spec, [(r, r + 1) for r in range(offsets.height)]):
            pass
    return offsets._summaries[key]


def _sample_rows(src, out=None):
    """The row tiles of the float64 ``(k, oh, ow)`` samples of ``src``, an
    ``(x, offsets, spec)`` triple (``k = ci*taps``) or an array ``(..., oh,
    ow)``.  Returns ``(k, oh, ow, rows)``, ``rows`` the largest tile's, and an
    iterator of ``(r0, r1, t)`` per run of rows that fits
    ``geometry._TILE_BYTES``: ``t`` is the rows' ``(k, (r1 - r0) * ow)``
    samples, a view of the array or gathered through the tile's own plan
    into a buffer that the next tile overwrites, a quarter of the channels
    at a time so that the gather's scratch is a quarter tile, or into the
    rows of ``out``, a float64 ``(ci, taps, oh, ow)`` array, if given.
    (Tiles of half the rows slowed the toy training's small matmuls.)

    A gather reads a float64 band of the input: the rows that the tile's
    weighted neighbors can lie in, converted into one buffer that later
    tiles reuse.  Once the walk has converted more than ``_BAND_HEIGHTS``
    image heights, it converts the whole image, the widest band, once and
    reads it for every later tile."""
    x, offsets, spec = src if isinstance(src, tuple) else (None, None, None)
    *lead, oh, ow = src.shape if x is None else (x.channels, spec.tap_count, *offsets.data.shape[1:])
    k = math.prod(lead)
    tiles = geometry._row_tiles(oh, k * ow * 8)

    def gather():
        _SCRATCH.buf = None  # plans take the most memory of a walk: drop the kept scratch
        c, h, w = x.data.shape
        image = x.data.reshape(c, -1)
        band, data = np.empty(0), np.empty((c, 0))  # data: the band's rows, as (c, n)
        rows, converted = (0, 0), 0  # the input rows in data; the rows converted so far
        cc = -(-c // 4)  # channels per part
        tile = np.empty(k * tiles[0][1] * ow) if out is None else None
        tmp = np.empty(spec.tap_count * tiles[0][1] * ow * cc)  # one part's samples
        for r0, r1, (base, steps, wgt) in _plans(x, offsets, spec, tiles):
            if steps and rows != (0, h):  # a band of the whole image serves every tile
                # every weighted neighbor lies in rows base.min() // w through
                # (base.max() + w + 1) // w, so its index into the band is exact
                lo = min(max(int(base.min()) // w, 0), h - 1)
                rows = (lo, max(lo + 1, min((int(base.max()) + w + 1) // w + 1, h)))
                converted += rows[1] - rows[0]
                if converted > _BAND_HEIGHTS * h:
                    rows = (0, h)
                n = c * (rows[1] - rows[0]) * w
                band = band if band.size >= n else np.empty(n)
                data = band[:n].reshape(c, -1)
                np.copyto(data, image[:, rows[0] * w:rows[1] * w])
            t = (tile[:k * (r1 - r0) * ow].reshape(*lead, r1 - r0, ow) if out is None
                 else out[..., r0:r1, :])
            _bilinear_gather(data, base, steps, wgt, t, tmp[:cc * base.size], rows[0] * w)
            yield r0, r1, t.reshape(k, -1)  # a view: only the rows are a slice

    views = ((r0, r1, src[..., r0:r1, :].reshape(k, -1)) for r0, r1 in tiles)
    return (k, oh, ow, tiles[0][1]), views if x is None else gather()


def _rows64(a: np.ndarray, r0: int, r1: int, buf: np.ndarray | None) -> np.ndarray:
    """The rows ``r0:r1`` of an ``(n, oh, ow)`` array as float64 ``(n, (r1 -
    r0) * ow)``: a view of a float64 ``a``, else converted into the flat
    float64 ``buf``, which the next call overwrites."""
    rows = a[:, r0:r1].reshape(len(a), -1)
    if a.dtype == np.float64:
        return rows
    out = buf[:rows.size].reshape(rows.shape)
    np.copyto(out, rows)
    return out


# Each thread's float64 scratch for the tile buffers of :func:`_conv_gemm`,
# kept from call to call until a walk gathers, so that a loop of products
# over ``samples`` (the toy training's steps) neither allocates them again
# nor faults their pages in.  No result is a view of it.
_SCRATCH = threading.local()


def _scratch(n: int) -> np.ndarray:
    """``n`` float64 elements of this thread's scratch, which the next call
    overwrites; fresh ones past two tiles, which the scratch does not keep."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < n:
        buf = np.empty(n)
        if n <= 2 * geometry._TILE_BYTES // 8:
            _SCRATCH.buf = buf
    return buf[:n]


def _conv_gemm(src, w2=None, g=None):
    """One float64 matmul per row tile of a :func:`_sample_rows` source,
    over its joint ``k = ci*taps`` axis.  Returns ``(out, grad_w)``: for
    ``w2`` ``(co, k)`` the fresh float32 ``(co, oh, ow)`` output ``w2 @
    samples``, each tile summed in one float64 tile buffer and rounded
    once; for ``g`` ``(co, oh, ow)``, float32 or float64, the float64 ``(co,
    k)`` weight gradient ``g @ samples.T``, summed over the tiles in order,
    each tile of a float32 ``g`` converted as it comes.  Both tile buffers
    are this thread's scratch.  The tiles and the matmul shapes depend only
    on the shapes, so either source, and any scratch, give the same bits."""
    (k, oh, ow, rows), walk = _sample_rows(src)
    n = 0 if w2 is None else len(w2) * rows * ow
    m = 0 if g is None or g.dtype == np.float64 else len(g) * rows * ow
    scratch = _scratch(n + m)
    buf, gbuf = scratch[:n], scratch[n:]
    out = None if w2 is None else np.empty((len(w2), oh, ow), np.float32)
    grad_w = None if g is None else np.zeros((len(g), k))
    for r0, r1, t in walk:
        if out is not None:
            # one output row makes a gemv, whose bits follow the tile's strides
            y = np.matmul(w2, t if len(w2) > 1 else np.ascontiguousarray(t),
                          out=buf[:len(w2) * t.shape[1]].reshape(len(w2), -1))
            with np.errstate(over="ignore"):  # FeatureTensor rejects a float32 inf
                out[:, r0:r1] = y.reshape(len(w2), r1 - r0, ow)
        if grad_w is not None:
            grad_w += _rows64(g, r0, r1, gbuf) @ t.T
    return out, grad_w


def standard_conv(x: FeatureTensor, w: ConvWeights, spec: KernelSpec) -> FeatureTensor:
    """Convolution over the regular dilated grid with zero padding: the
    adapted convolution on a zero offset field."""
    out_h, out_w = spec.output_shape(x.height, x.width)
    return za_conv_forward(x, w, OffsetField.zeros(spec.size, out_h, out_w), spec)[0]


def _source(x: FeatureTensor, offsets: OffsetField, spec: KernelSpec, samples=None):
    """The :func:`_sample_rows` source: checked ``samples``, or else ``(x,
    offsets, spec)``.  Raises :class:`ConfigError` unless ``offsets`` has
    the spec's tap count and the output shape of ``spec`` on ``x``."""
    if offsets.tap_count != spec.tap_count:
        raise ConfigError(f"offset field has {offsets.tap_count} taps, spec needs {spec.tap_count}")
    want = (x.channels, spec.tap_count) + spec.output_shape(x.height, x.width)
    if (offsets.height, offsets.width) != want[2:]:
        raise ConfigError(f"offset field is {offsets.height}x{offsets.width}, "
                          f"output is {want[2]}x{want[3]}")
    if samples is not None and (samples.shape != want or samples.dtype != np.float64):
        raise ConfigError(
            f"samples are {samples.dtype} {samples.shape}, expected float64 {want}"
        )
    return (x, offsets, spec) if samples is None else samples


def gather_samples(x: FeatureTensor, offsets: OffsetField, spec: KernelSpec) -> np.ndarray:
    """The read-only float64 ``(ci, taps, oh, ow)`` bilinear samples of ``x``
    at every tap position of ``offsets``, gathered a row tile at a time: the
    ``samples`` that :func:`za_conv_forward` and :func:`za_conv_backward`
    accept in place of their own gather, each tile straight into its rows."""
    src = _source(x, offsets, spec)
    samples = np.empty((x.channels, spec.tap_count, offsets.height, offsets.width))
    for _ in _sample_rows(src, out=samples)[1]:
        pass
    samples.setflags(write=False)
    return samples


def za_conv_forward(
    x: FeatureTensor,
    w: ConvWeights,
    offsets: OffsetField,
    spec: KernelSpec,
    samples: np.ndarray | None = None,
) -> tuple[FeatureTensor, OpSummary]:
    """Depth-adapted convolution: taps read ``regular grid + offset``.

    Each row tile of the output is one float64 matmul of the ``(co,
    ci*taps)`` weights with the tile's bilinear samples, gathered one tile
    at a time unless ``samples``, the :func:`gather_samples` of ``x``, are given.
    """
    _check_conv_shapes(x, w, spec)
    w2 = w.data.astype(np.float64).reshape(w.out_channels, -1)
    out, _ = _conv_gemm(_source(x, offsets, spec, samples), w2=w2)
    return FeatureTensor(_Owned(out)), _summary(x, offsets, spec)


def za_conv_backward(
    x: FeatureTensor,
    w: ConvWeights,
    offsets: OffsetField,
    spec: KernelSpec,
    grad_out: FeatureTensor,
    samples: np.ndarray | None = None,
    need_grad_x: bool = True,
) -> tuple[FeatureTensor | None, ConvWeights]:
    """Gradients of the adapted convolution w.r.t. input and weights.

    ``grad_w[o,i,n] = sum_p grad_out[o,p] * sample(x, i, pos_n(p))``;
    ``grad_x`` scatters ``grad_out * w`` through the bilinear weights onto
    the neighbors of each sample, a row tile of the output at a time, into
    float64 sums rounded to float32 once.  The offsets get no gradient.
    ``samples``, the :func:`gather_samples` of ``x``, spares the gather;
    ``need_grad_x=False`` skips the scatter and returns ``None`` for it.
    """
    _check_conv_shapes(x, w, spec)
    src = _source(x, offsets, spec, samples)
    want = (w.out_channels, offsets.height, offsets.width)
    if grad_out.data.shape != want:
        raise ConfigError(f"grad_out shape {grad_out.data.shape} does not match output {want}")
    g = grad_out.data
    grad_w = ConvWeights(_conv_gemm(src, g=g)[1].reshape(w.data.shape))
    if not need_grad_x:
        return None, grad_w
    with np.errstate(over="ignore"):  # FeatureTensor rejects a float32 inf
        grad_x = _scatter_grad_x(x, w, offsets, spec, g).astype(np.float32)
    return FeatureTensor(_Owned(grad_x.reshape(x.data.shape))), grad_w


def _scatter_grad_x(x: FeatureTensor, w: ConvWeights, offsets: OffsetField, spec: KernelSpec,
                    g: np.ndarray) -> np.ndarray:
    """The float64 ``(ci, H*W)`` input-gradient sums of float32 ``grad_out``
    ``g``, scattered a row tile at a time.  The tiles fit four slots' weights
    whatever a tile keeps, so that its indices and contributions fit a tile
    and the sums' order does not follow the trim; each tile of ``g`` is
    converted to float64 as it comes."""
    acc = np.zeros((x.channels, x.height * x.width))
    taps = spec.tap_count
    w3 = w.data.astype(np.float64).reshape(len(g), x.channels, taps).transpose(1, 2, 0)
    tiles = geometry._row_tiles(offsets.height, 4 * taps * offsets.width * 8)
    gbuf = np.empty(len(g) * (tiles[0][1] - tiles[0][0]) * offsets.width)
    for r0, r1, (base, steps, wgt) in _plans(x, offsets, spec, tiles):
        if not steps:  # no sample of these rows reaches the image
            continue
        wgt = wgt.reshape(len(steps), taps, -1)
        # Each slot's indices, clipped onto the image: an off-image neighbor
        # adds its +-0 contribution to some bin, which changes no bin's bits.
        idx = np.add.outer(np.array(steps, np.intp), base.reshape(taps, -1))
        np.clip(idx, 0, acc.shape[1] - 1, out=idx)
        lo = idx.min()  # each bincount spans only the bins that the tile reaches
        idx -= lo
        gt = _rows64(g, r0, r1, gbuf)
        contrib = np.empty_like(wgt)
        for i in range(x.channels):
            np.multiply(w3[i] @ gt, wgt, out=contrib)  # channel i's per-tap gradient
            b = np.bincount(idx.ravel(), weights=contrib.ravel())
            acc[i, lo:lo + len(b)] += b
    return acc


def standard_avg_pool(x: FeatureTensor, spec: KernelSpec) -> FeatureTensor:
    """Average pooling over the regular grid, divisor N*N: the adapted
    pooling on a zero offset field."""
    out_h, out_w = spec.output_shape(x.height, x.width)
    return za_avg_pool(x, OffsetField.zeros(spec.size, out_h, out_w), spec)[0]


def za_avg_pool(
    x: FeatureTensor, offsets: OffsetField, spec: KernelSpec
) -> tuple[FeatureTensor, OpSummary]:
    """Depth-adapted average pooling.

    The divisor stays at the full tap count N*N even when deformed taps
    fall outside the input (they contribute zero), which darkens borders
    rather than re-weighting them.
    """
    (_, oh, ow, _), walk = _sample_rows(_source(x, offsets, spec))
    out = np.empty((x.channels, oh, ow), np.float32)
    for r0, r1, t in walk:
        # the taps in order, so the tiles change no bit
        t = t.reshape(x.channels, spec.tap_count, -1)
        sums = np.zeros((x.channels, t.shape[2]))
        for n in range(spec.tap_count):
            sums += t[:, n]
        # a mean of float32 values cannot overflow
        np.divide(sums.reshape(x.channels, r1 - r0, ow), spec.tap_count, out=out[:, r0:r1])
    return FeatureTensor(_Owned(out)), _summary(x, offsets, spec)
