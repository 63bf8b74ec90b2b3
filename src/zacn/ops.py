"""Depth-adapted convolution and average pooling, forward and backward.

The adapted operators consume a precomputed offset field: each kernel tap
samples the input at ``regular position + offset`` with zero-padded
bilinear interpolation, so a zero offset field reproduces the standard
operator exactly.  The standard convolution and pooling are that: the
adapted operator on a zero field.  Offsets never receive gradients;
backward only produces gradients for the input and the weights.

The adapted operators sample through one bilinear plan per (offset field,
kernel spec, input shape), cached on the field: for every tap sample, the
int32 flat index of its top-left bilinear neighbor, unclipped, and the
float64 weights (+0.0 off the image) of the neighbor slots that carry
weight somewhere, plus the border statistics.  Slot ``k`` reads the input
at that index plus the slot's flat step, clipped onto the image.  Zero and
integer fields keep one slot (12 bytes per tap sample), fields fractional
only in x two, and others four (36 bytes).  Positions far off the image
sample zero padding.

The plan is a deformable im2col.  One walker, :func:`_sample_rows`,
gathers it a row tile of the output at a time: each convolution
contraction is one float64 matmul over the joint ``ci*taps`` axis per
tile (:func:`_conv_gemm`), and pooling sums each tile's taps in plan
order.  Backward scatters the input gradient through the plan's weights
in row tiles of the same size, clipped per tile.
Sums are float64; outputs are rounded once into the float32 arrays that
the results adopt.  :func:`gather_samples` returns the all-tap samples,
which forward and backward accept as ``samples`` in place of their own
gather, with the same bits, so training over a fixed field gathers once.

The tiles depend only on the shapes and each scatter is a sequential
bincount, so outputs are bit-identical across runs and across BLAS thread
counts (OpenBLAS never splits the contracted axis over threads).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import geometry
from .errors import ConfigError
from .geometry import KernelSpec
from .tensor import (
    FeatureTensor,
    OffsetField,
    _all_finite,
    _as_float32,
    _bilinear_gather,
    _bilinear_scatter_weights,
    _neighbor_steps,
    _Owned,
)

__all__ = [
    "ConvWeights",
    "OpSummary",
    "conv_param_count",
    "standard_conv",
    "za_conv_forward",
    "za_conv_backward",
    "gather_samples",
    "standard_avg_pool",
    "za_avg_pool",
]


@dataclass(frozen=True, eq=False)
class ConvWeights:
    """Dense kernel bank, layout (out_channels, in_channels, N, N)."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_float32(self.data, 4, "weights")
        if arr.shape[2] != arr.shape[3]:
            raise ConfigError(f"weights must be (co, ci, N, N), got shape {arr.shape}")
        if not _all_finite(arr):
            raise ConfigError("weights contain non-finite values")
        object.__setattr__(self, "data", arr)

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


def _tap_positions(spec: KernelSpec, offsets: OffsetField):
    """Yield each tap's deformed sampling positions ``(u, v)``, each
    ``(out_h, out_w)`` float64."""
    v, u = spec.tap_positions(range(offsets.height), range(offsets.width))
    off = offsets.data.reshape(spec.tap_count, 2, offsets.height, offsets.width)
    for n in range(spec.tap_count):  # float32 offsets add exactly in float64
        yield u[n] + off[n, 1], v[n] + off[n, 0]


@dataclass(frozen=True)
class _SamplingPlan:
    base: np.ndarray  # (N*N, out_h, out_w) unclipped flat index of each top-left neighbor, int32
    # unless the image needs int64; slot k reads base + steps[k], clipped onto the image
    steps: tuple  # the flat index step of each kept neighbor slot, from (0, 1, W, W + 1)
    wgt: np.ndarray  # (K, N*N, out_h, out_w) float64 weights of the K kept slots, +0.0 off the image
    degenerate: int  # the border statistics of OpSummary
    oob_fraction: float


def _sampling_plan(x: FeatureTensor, offsets: OffsetField, spec: KernelSpec) -> _SamplingPlan:
    """The plan of ``offsets`` under ``spec`` on the input ``x``, cached on the
    field.  Raises :class:`ConfigError` unless the field has the spec's tap
    count and the output shape of ``spec`` on ``x``."""
    if offsets.tap_count != spec.tap_count:
        raise ConfigError(
            f"offset field has {offsets.tap_count} taps, spec needs {spec.tap_count}"
        )
    out_h, out_w = spec.output_shape(x.height, x.width)
    if (offsets.height, offsets.width) != (out_h, out_w):
        raise ConfigError(
            f"offset field is {offsets.height}x{offsets.width}, "
            f"output is {out_h}x{out_w}"
        )
    h, w = x.height, x.width
    key = (spec, h, w)
    plan = offsets._plans.get(key)
    if plan is None:
        shape = (spec.tap_count, out_h, out_w)
        base = None
        wgt = np.empty((4,) + shape)
        degenerate = np.zeros((out_h, out_w), dtype=bool)
        clipped = 0
        # tap by tap keeps the builder's temporaries to one tap's positions
        for n, (u, v) in enumerate(_tap_positions(spec, offsets)):
            # the border statistics: pixels with a tap wholly off the image,
            # and samples whose bilinear footprint the border cuts
            degenerate |= (u <= -1.0) | (u >= w) | (v <= -1.0) | (v >= h)
            inside = (u >= 0.0) & (u <= w - 1) & (v >= 0.0) & (v <= h - 1)
            clipped += inside.size - int(np.count_nonzero(inside))
            b, wn = _bilinear_scatter_weights(h, w, u, v)
            if base is None:
                base = np.empty(shape, dtype=b.dtype)
            base[n], wgt[:, n] = b, wn
        # A neighbor slot whose weight is 0 everywhere only adds exact zeros
        # to accumulators that start at +0.0, so dropping it changes no bit.
        keep = [k for k in range(4) if wgt[k].any()]
        if len(keep) < 4:  # a full plan is kept as is: a copy would double its memory
            wgt = wgt[keep]
        for a in (base, wgt):
            a.setflags(write=False)
        plan = offsets._plans[key] = _SamplingPlan(
            base,
            tuple(_neighbor_steps(w)[k] for k in keep),
            wgt,
            int(np.count_nonzero(degenerate)),
            clipped / (spec.tap_count * out_h * out_w),
        )
    return plan


def _sample_rows(src):
    """The row tiles of the float64 ``(k, oh, ow)`` samples of ``src``, an
    ``(x, plan)`` pair (``k = ci*taps``) or an array ``(..., oh, ow)``.
    Returns ``(k, oh, ow, rows)``, ``rows`` the largest tile's, and an
    iterator of ``(r0, r1, t)`` per run of rows that fits
    ``geometry._TILE_BYTES``: ``t`` is the rows' ``(k, (r1 - r0) * ow)``
    samples, a view of the array or gathered into a buffer that the next
    tile overwrites, a quarter of the channels at a time so that the
    gather's scratch is a quarter tile.
    (Tiles of half the rows slowed the toy training's small matmuls.)"""
    x, plan = src if isinstance(src, tuple) else (None, None)
    *lead, oh, ow = src.shape if x is None else (x.channels,) + plan.base.shape
    k = math.prod(lead)
    tiles = geometry._row_tiles(oh, k * ow * 8)

    def gather():
        data = x.data.astype(np.float64).reshape(x.channels, -1)
        cc = -(-x.channels // 4)  # channels per part
        tile = np.empty(k * tiles[0][1] * ow)
        tmp = np.empty(tile.size // x.channels * cc)  # one part's samples
        for r0, r1 in tiles:
            t = tile[:k * (r1 - r0) * ow].reshape(*lead, r1 - r0, ow)
            base, wgt = plan.base[:, r0:r1], plan.wgt[:, :, r0:r1]
            for c0 in range(0, x.channels, cc):
                part = t[c0:c0 + cc]
                _bilinear_gather(data[c0:c0 + cc], base, plan.steps, wgt, part,
                                 tmp[:part.size].reshape(part.shape))
            yield r0, r1, t.reshape(k, -1)

    views = ((r0, r1, src[..., r0:r1, :].reshape(k, -1)) for r0, r1 in tiles)
    return (k, oh, ow, tiles[0][1]), views if x is None else gather()


def _conv_gemm(src, w2=None, g=None):
    """One float64 matmul per row tile of a :func:`_sample_rows` source,
    over its joint ``k = ci*taps`` axis.  Returns ``(out, grad_w)``: for
    ``w2`` ``(co, k)`` the float32 ``(co, oh, ow)`` output ``w2 @ samples``,
    each tile summed in one reused float64 buffer and rounded once; for
    ``g`` ``(co, oh, ow)`` the float64 ``(co, k)`` weight gradient ``g @
    samples.T``, summed over the tiles in order.  The tiles and the matmul
    shapes depend only on the shapes, so either source gives the same bits."""
    (k, oh, ow, rows), walk = _sample_rows(src)
    buf = None if w2 is None else np.empty(len(w2) * rows * ow)
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
            grad_w += g[:, r0:r1].reshape(len(g), -1) @ t.T
    return out, grad_w


def standard_conv(x: FeatureTensor, w: ConvWeights, spec: KernelSpec) -> FeatureTensor:
    """Convolution over the regular dilated grid with zero padding: the
    adapted convolution on a zero offset field."""
    out_h, out_w = spec.output_shape(x.height, x.width)
    return za_conv_forward(x, w, OffsetField.zeros(spec.size, out_h, out_w), spec)[0]


def _source(x: FeatureTensor, plan: _SamplingPlan, samples: np.ndarray | None):
    """The :func:`_sample_rows` source: checked ``samples``, or else ``(x, plan)``."""
    want = (x.channels,) + plan.base.shape
    if samples is not None and (samples.shape != want or samples.dtype != np.float64):
        raise ConfigError(
            f"samples are {samples.dtype} {samples.shape}, expected float64 {want}"
        )
    return (x, plan) if samples is None else samples


def gather_samples(x: FeatureTensor, offsets: OffsetField, spec: KernelSpec) -> np.ndarray:
    """The read-only float64 ``(ci, taps, oh, ow)`` bilinear samples of ``x``
    at every tap position of ``offsets``, read through the cached plan: the
    ``samples`` that :func:`za_conv_forward` and :func:`za_conv_backward`
    accept in place of their own gather."""
    plan = _sampling_plan(x, offsets, spec)
    data = x.data.astype(np.float64).reshape(x.channels, -1)
    samples = _bilinear_gather(data, plan.base, plan.steps, plan.wgt)
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
    plan = _sampling_plan(x, offsets, spec)
    w2 = w.data.astype(np.float64).reshape(w.out_channels, -1)
    out, _ = _conv_gemm(_source(x, plan, samples), w2=w2)
    return FeatureTensor(_Owned(out)), OpSummary(plan.degenerate, plan.oob_fraction)


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
    plan = _sampling_plan(x, offsets, spec)
    want = (w.out_channels,) + plan.base.shape[1:]
    if grad_out.data.shape != want:
        raise ConfigError(f"grad_out shape {grad_out.data.shape} does not match output {want}")
    g = grad_out.data.astype(np.float64)
    grad_w = ConvWeights(_conv_gemm(_source(x, plan, samples), g=g)[1].reshape(w.data.shape))
    if not need_grad_x:
        return None, grad_w
    # The input gradient, summed tile by tile in float64 and rounded once.  The
    # tiles are those of the plan's weights, so each tile's indices and
    # contributions fit a tile too, whatever the channel count.
    acc = np.zeros((x.channels, x.height * x.width))
    taps, slots = spec.tap_count, len(plan.steps)
    w3 = w.data.astype(np.float64).reshape(len(g), x.channels, taps).transpose(1, 2, 0)
    if slots:  # else no sample reaches the image and grad_x is zero
        for r0, r1 in geometry._row_tiles(plan.base.shape[1], plan.wgt[:, :, :1].nbytes):
            wgt = plan.wgt[:, :, r0:r1].reshape(slots, taps, -1)
            # Each slot's indices, clipped onto the image: an off-image neighbor
            # adds its +-0 contribution to some bin, which changes no bin's bits.
            idx = np.add.outer(np.array(plan.steps, np.intp), plan.base[:, r0:r1].reshape(taps, -1))
            np.clip(idx, 0, acc.shape[1] - 1, out=idx)
            lo = idx.min()  # each bincount spans only the bins that the tile reaches
            idx -= lo
            gt = g[:, r0:r1].reshape(len(g), -1)
            contrib = np.empty_like(wgt)
            for i in range(x.channels):
                np.multiply(w3[i] @ gt, wgt, out=contrib)  # channel i's per-tap gradient
                b = np.bincount(idx.ravel(), weights=contrib.ravel())
                acc[i, lo:lo + len(b)] += b
    with np.errstate(over="ignore"):  # FeatureTensor rejects a float32 inf
        grad_x = acc.astype(np.float32).reshape(x.data.shape)
    return FeatureTensor(_Owned(grad_x)), grad_w


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
    plan = _sampling_plan(x, offsets, spec)
    (_, oh, ow, _), walk = _sample_rows((x, plan))
    out = np.empty((x.channels, oh, ow), np.float32)
    for r0, r1, t in walk:
        # the taps in plan order, so the tiles change no bit
        t = t.reshape(x.channels, spec.tap_count, -1)
        sums = np.zeros((x.channels, t.shape[2]))
        for n in range(spec.tap_count):
            sums += t[:, n]
        # a mean of float32 values cannot overflow
        np.divide(sums.reshape(x.channels, r1 - r0, ow), spec.tap_count, out=out[:, r0:r1])
    return FeatureTensor(_Owned(out)), OpSummary(plan.degenerate, plan.oob_fraction)
