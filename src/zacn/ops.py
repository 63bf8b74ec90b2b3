"""Depth-adapted convolution and average pooling, forward and backward.

The adapted operators consume a precomputed offset field: each kernel tap
samples the input at ``regular position + offset`` with zero-padded
bilinear interpolation, so a zero offset field reproduces the standard
operator exactly.  The standard convolution and pooling are that: the
adapted operator on a zero field.  Offsets never receive gradients;
backward only produces gradients for the input and the weights.

Accumulation happens in float64 and is cast to float32 at the end.  The
adapted operators sample through one bilinear plan per (offset field,
kernel spec, input shape), cached on the field: the flat indices and
float64 weights (0 off the image) of the bilinear neighbors of every tap
sample, plus the border statistics.  The plan keeps only the neighbor
slots that carry weight somewhere, so zero and integer fields read one
neighbor per sample, fields fractional only in x two, and others four.
Positions far off the image sample zero padding.

The plan is a deformable im2col: every convolution contraction, forward
and backward, is one float64 matmul over the joint ``ci*taps`` axis per
row tile of the output (:func:`_conv_gemm`), gathered tile by tile;
pooling sums the same tiles' taps in plan order.  Backward scatters the
input gradient through the plan.  :func:`gather_samples` returns the
all-tap samples, which forward and backward accept as ``samples`` in
place of their own gather, with the same bits, so training over a fixed
field gathers once.  Backward with ``need_grad_x=False`` skips the scatter.

The tiles depend only on the shapes and the scatter is a sequential
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


@dataclass(frozen=True)
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


def _sample_positions(spec: KernelSpec, offsets: OffsetField):
    """Deformed sampling positions (u, v), each (N*N, out_h, out_w) float64."""
    oh, ow = offsets.height, offsets.width
    v, u = spec.tap_positions(range(oh), range(ow))
    off = offsets.data.reshape(spec.tap_count, 2, oh, ow)  # float32, added exactly in float64
    return u + off[:, 1], v + off[:, 0]


def _oob_stats(h: int, w: int, u: np.ndarray, v: np.ndarray) -> tuple[int, float]:
    inside_u = (u >= 0.0) & (u <= w - 1)
    inside_v = (v >= 0.0) & (v <= h - 1)
    clipped = ~(inside_u & inside_v)  # any part of the bilinear footprint lost
    fully_out = (u <= -1.0) | (u >= w) | (v <= -1.0) | (v >= h)
    degenerate = int(np.count_nonzero(fully_out.any(axis=0)))
    frac = float(np.count_nonzero(clipped)) / clipped.size
    return degenerate, frac


@dataclass(frozen=True)
class _SamplingPlan:
    idx: np.ndarray  # (K, N*N, out_h, out_w) flat neighbor indices into (H*W)
    wgt: np.ndarray  # (K, N*N, out_h, out_w) float64 weights, 0 off the image
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
        u, v = _sample_positions(spec, offsets)
        idx = np.empty((4,) + u.shape, dtype=np.int64)
        wgt = np.empty((4,) + u.shape, dtype=np.float64)
        for n in range(spec.tap_count):  # tap by tap keeps the builder's temporaries small
            idx[:, n], wgt[:, n] = _bilinear_scatter_weights(h, w, u[n], v[n])
        # A neighbor slot whose weight is 0 everywhere only adds exact zeros
        # to accumulators that start at +0.0, so dropping it changes no bit.
        keep = [k for k in range(4) if wgt[k].any()]
        if len(keep) < 4:  # a full plan is kept as is: a copy would double its memory
            idx, wgt = idx[keep], wgt[keep]
        for a in (idx, wgt):
            a.setflags(write=False)
        plan = offsets._plans[key] = _SamplingPlan(idx, wgt, *_oob_stats(h, w, u, v))
    return plan


def _samples_shape(src) -> tuple[int, int, int]:
    """``(k, oh, ow)``: ``k`` samples per output pixel of a :func:`_sample_tiles` source."""
    shape = (src[0].channels,) + src[1].idx.shape[1:] if isinstance(src, tuple) else src.shape
    return math.prod(shape[:-2]), *shape[-2:]


def _sample_tiles(src):
    """Yield ``(r0, r1, samples[..., r0:r1, :])`` for the row tiles of the
    float64 samples ``src``, or of an ``(x, plan)`` pair's ``(ci, taps, oh,
    ow)`` samples gathered into two buffers that the next tile overwrites.
    A tile is a run of rows whose samples fit ``geometry._TILE_BYTES``."""
    k, oh, ow = _samples_shape(src)
    tiles = geometry._row_tiles(oh, k * ow * 8)
    if not isinstance(src, tuple):
        yield from ((r0, r1, src[..., r0:r1, :]) for r0, r1 in tiles)
        return
    x, plan = src
    data = x.data.astype(np.float64).reshape(x.channels, -1)
    buf = np.empty((2, k * tiles[0][1] * ow))
    for r0, r1 in tiles:
        rows = np.s_[..., r0:r1, :]
        bufs = (b[:k * (r1 - r0) * ow].reshape(x.channels, -1, r1 - r0, ow) for b in buf)
        yield r0, r1, _bilinear_gather(data, plan.idx[rows], plan.wgt[rows], *bufs)


def _conv_gemm(src, w2=None, g=None):
    """One float64 matmul per row tile over the joint ``k = ci*taps`` axis
    of the ``(k, oh, ow)`` samples of ``src``, a :func:`_sample_tiles`
    source.  Returns ``(out, grad_w)``: for ``w2`` of shape ``(co, k)`` the
    ``(co, oh, ow)`` output ``w2 @ samples``, and for ``g`` of shape ``(co,
    oh, ow)`` the ``(co, k)`` weight gradient ``g @ samples.T``, summed over
    the tiles in order.  The tiles and the matmul shapes depend only on the
    shapes, so either source gives the same bits."""
    k, oh, ow = _samples_shape(src)
    out = None if w2 is None else np.empty((len(w2), oh, ow))
    grad_w = None if g is None else np.zeros((len(g), k))
    for r0, r1, t in _sample_tiles(src):
        t = t.reshape(k, -1)
        if out is not None:
            # one output row makes a gemv, whose bits follow the tile's strides
            np.matmul(w2, t if len(w2) > 1 else np.ascontiguousarray(t),
                      out=out[:, r0:r1].reshape(len(w2), -1))
        if grad_w is not None:
            grad_w += g[:, r0:r1].reshape(len(g), -1) @ t.T
    return out, grad_w


def _pool_sum(x: FeatureTensor, plan: _SamplingPlan) -> np.ndarray:
    """The float64 ``(ci, oh, ow)`` sum of all taps of ``x`` through ``plan``,
    added in plan order within each row tile, so the tiles change no bit."""
    out = np.zeros((x.channels,) + plan.idx.shape[2:])
    for r0, r1, t in _sample_tiles((x, plan)):
        for n in range(t.shape[1]):
            out[:, r0:r1] += t[:, n]
    return out


def standard_conv(x: FeatureTensor, w: ConvWeights, spec: KernelSpec) -> FeatureTensor:
    """Convolution over the regular dilated grid with zero padding: the
    adapted convolution on a zero offset field."""
    out_h, out_w = spec.output_shape(x.height, x.width)
    return za_conv_forward(x, w, OffsetField.zeros(spec.size, out_h, out_w), spec)[0]


def _check_samples(samples: np.ndarray | None, x: FeatureTensor, plan: _SamplingPlan):
    want = (x.channels,) + plan.idx.shape[1:]
    if samples is not None and (samples.shape != want or samples.dtype != np.float64):
        raise ConfigError(
            f"samples are {samples.dtype} {samples.shape}, expected float64 {want}"
        )


def gather_samples(x: FeatureTensor, offsets: OffsetField, spec: KernelSpec) -> np.ndarray:
    """The read-only float64 ``(ci, taps, oh, ow)`` bilinear samples of ``x``
    at every tap position of ``offsets``, read through the cached plan: the
    ``samples`` that :func:`za_conv_forward` and :func:`za_conv_backward`
    accept in place of their own gather."""
    plan = _sampling_plan(x, offsets, spec)
    samples = _bilinear_gather(x.data.astype(np.float64).reshape(x.channels, -1), plan.idx, plan.wgt)
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
    _check_samples(samples, x, plan)
    w2 = w.data.astype(np.float64).reshape(w.out_channels, -1)
    out, _ = _conv_gemm((x, plan) if samples is None else samples, w2=w2)
    return FeatureTensor(out), OpSummary(plan.degenerate, plan.oob_fraction)


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

    ``grad_w[o,i,n] = sum_p grad_out[o,p] * sample(x, i, pos_n(p))`` and
    ``grad_x`` distributes ``grad_out * w`` through the bilinear weights
    onto the four integer neighbors of each sample.  The offsets receive
    no gradient.  ``samples``, the :func:`gather_samples` of ``x``, spares
    the gather; with ``need_grad_x=False`` the scatter is skipped too and
    ``grad_x`` is returned as ``None``.
    """
    _check_conv_shapes(x, w, spec)
    plan = _sampling_plan(x, offsets, spec)
    want = (w.out_channels,) + plan.idx.shape[2:]
    if grad_out.data.shape != want:
        raise ConfigError(f"grad_out shape {grad_out.data.shape} does not match output {want}")
    _check_samples(samples, x, plan)
    g = grad_out.data.astype(np.float64)
    grad_w = _conv_gemm((x, plan) if samples is None else samples, g=g)[1].reshape(w.data.shape)
    if not need_grad_x:
        return None, ConvWeights(grad_w)

    # Per-tap upstream gradient for each input channel, then bilinear scatter.
    w2 = w.data.astype(np.float64).reshape(w.out_channels, -1)
    gpix = _conv_gemm(g, w2=w2.T)[0].reshape((x.channels,) + plan.idx.shape[1:])
    flat_idx = plan.idx.ravel()
    grad_x = np.empty((x.channels, x.height * x.width), dtype=np.float64)
    contrib = np.empty_like(plan.wgt)
    for i in range(x.channels):
        np.multiply(gpix[i], plan.wgt, out=contrib)
        grad_x[i] = np.bincount(
            flat_idx, weights=contrib.ravel(), minlength=x.height * x.width
        )
    grad_x = grad_x.reshape(x.channels, x.height, x.width)
    return FeatureTensor(grad_x), ConvWeights(grad_w)


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
    out = _pool_sum(x, plan)
    out /= spec.tap_count
    return FeatureTensor(out), OpSummary(plan.degenerate, plan.oob_fraction)
