import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zacn import (
    ConfigError,
    ConvWeights,
    FeatureTensor,
    KernelSpec,
    OffsetField,
    conv_param_count,
    gather_samples,
    standard_avg_pool,
    standard_conv,
    za_avg_pool,
    za_conv_backward,
    za_conv_forward,
)
from zacn import compute_offsets, geometry, ops
from zacn.harness import generate_scene
from zacn.ops import _bilinear_scatter_weights, _conv_gemm, _neighbor_steps, _sample_rows, _tile_plan

from conftest import rand_feature, rand_offsets, rand_weights
from oracles import (masked_bilinear_weights, naive_standard_conv, naive_za_conv,
                     naive_za_conv_backward, naive_za_pool, whole_image_ops)


class TestStandardConv:
    def test_1x1_identity(self, rng):
        x = rand_feature(rng, 1, 5, 6)
        w = ConvWeights(np.ones((1, 1, 1, 1), np.float32))
        y = standard_conv(x, w, KernelSpec(1))
        np.testing.assert_array_equal(y.data, x.data)

    def test_impulse_response(self):
        x = np.zeros((1, 7, 7), np.float32)
        x[0, 3, 3] = 1.0
        w = ConvWeights(np.ones((1, 1, 3, 3), np.float32))
        y = standard_conv(FeatureTensor(x), w, KernelSpec.same(3))
        expected = np.zeros((7, 7), np.float32)
        expected[2:5, 2:5] = 1.0
        np.testing.assert_array_equal(y.data[0], expected)

    @pytest.mark.parametrize("spec", [KernelSpec.same(3), KernelSpec(3, dilation=2, stride=2, padding=2), KernelSpec(5, padding=0)])
    def test_matches_naive_loop(self, rng, spec):
        x = rand_feature(rng, 2, 7, 8)
        w = rand_weights(rng, 3, 2, spec.size)
        y = standard_conv(x, w, spec)
        ref = naive_standard_conv(
            x.data.astype(np.float64), w.data.astype(np.float64),
            spec.size, spec.dilation, spec.stride, spec.padding,
        )
        np.testing.assert_allclose(y.data, ref, rtol=1e-6, atol=1e-6)

    def test_shape_mismatch(self, rng):
        x = rand_feature(rng, 2, 7, 8)
        w = rand_weights(rng, 3, 3, 3)  # wrong in_channels
        with pytest.raises(ConfigError):
            standard_conv(x, w, KernelSpec.same(3))
        with pytest.raises(ConfigError):
            standard_conv(x, rand_weights(rng, 3, 2, 5), KernelSpec.same(3))


class TestZaConvForward:
    def test_zero_offsets_equal_standard_bitwise(self, rng):
        x = rand_feature(rng, 3, 9, 10)
        spec = KernelSpec.same(3)
        w = rand_weights(rng, 4, 3, 3)
        y_std = standard_conv(x, w, spec)
        y_za, _ = za_conv_forward(x, w, OffsetField.zeros(3, 9, 10), spec)
        np.testing.assert_array_equal(y_za.data, y_std.data)

    def test_integer_shift_equivalence(self, rng):
        # dx=+1 on every tap samples one column to the right, which equals
        # a standard convolution of the input shifted left by one column
        # (zero-fill matches zero padding when padding=0).
        x = rand_feature(rng, 2, 8, 9)
        spec = KernelSpec(3, padding=0)
        oh, ow = spec.output_shape(8, 9)
        w = rand_weights(rng, 2, 2, 3)
        off = np.zeros((18, oh, ow), np.float32)
        off[1::2] = 1.0
        y, _ = za_conv_forward(x, w, OffsetField(off), spec)
        shifted = np.zeros_like(x.data)
        shifted[:, :, :-1] = x.data[:, :, 1:]
        ref = standard_conv(FeatureTensor(shifted), w, spec)
        np.testing.assert_array_equal(y.data, ref.data)

    def test_matches_naive_loop(self, rng):
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 2, 5, 5)
        w = rand_weights(rng, 3, 2, 3)
        off = rand_offsets(rng, 3, 5, 5, scale=1.5)
        y, _ = za_conv_forward(x, w, off, spec)
        ref = naive_za_conv(
            x.data.astype(np.float64), w.data.astype(np.float64), off.data.astype(np.float64),
            spec.size, spec.dilation, spec.stride, spec.padding,
        )
        np.testing.assert_allclose(y.data, ref, atol=1e-5)

    def test_linear_in_input_and_weights(self, rng):
        spec = KernelSpec.same(3)
        x1 = rand_feature(rng, 2, 6, 6)
        x2 = rand_feature(rng, 2, 6, 6)
        w = rand_weights(rng, 2, 2, 3)
        off = rand_offsets(rng, 3, 6, 6)
        y1, _ = za_conv_forward(x1, w, off, spec)
        y2, _ = za_conv_forward(x2, w, off, spec)
        ysum, _ = za_conv_forward(FeatureTensor(x1.data + x2.data), w, off, spec)
        np.testing.assert_allclose(ysum.data, y1.data + y2.data, atol=1e-5)
        alpha = 2.75
        ya, _ = za_conv_forward(x1, ConvWeights(alpha * w.data), off, spec)
        np.testing.assert_allclose(ya.data, alpha * y1.data, atol=1e-5)

    def test_determinism(self, rng):
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 2, 10, 10)
        w = rand_weights(rng, 2, 2, 3)
        off = rand_offsets(rng, 3, 10, 10)
        a, _ = za_conv_forward(x, w, off, spec)
        b, _ = za_conv_forward(x, w, off, spec)
        np.testing.assert_array_equal(a.data, b.data)

    def test_offset_mismatch_rejected(self, rng):
        x = rand_feature(rng, 2, 8, 8)
        w = rand_weights(rng, 2, 2, 3)
        g = rand_feature(rng, 2, 8, 8)
        spec = KernelSpec.same(3)
        entry_points = [
            lambda off: za_conv_forward(x, w, off, spec),
            lambda off: za_conv_backward(x, w, off, spec, g),
            lambda off: za_avg_pool(x, off, spec),
            lambda off: gather_samples(x, off, spec),
        ]
        for run in entry_points:
            with pytest.raises(ConfigError, match="offset field has 25 taps, spec needs 9"):
                run(OffsetField.zeros(5, 8, 8))
            with pytest.raises(ConfigError, match="offset field is 7x8, output is 8x8"):
                run(OffsetField.zeros(3, 7, 8))

    def test_summary_counts_border_clipping(self, rng):
        x = rand_feature(rng, 1, 6, 6)
        w = rand_weights(rng, 1, 1, 3)
        _, summary = za_conv_forward(x, w, OffsetField.zeros(3, 6, 6), KernelSpec.same(3))
        # same-padded 3x3: every border pixel has taps at -1 or 6, which
        # contribute exactly zero, so all 20 border pixels count
        assert summary.degenerate_pixels == 20
        assert 0.0 < summary.oob_sample_fraction < 1.0
        with_valid = za_conv_forward(x, w, OffsetField.zeros(3, 4, 4), KernelSpec(3, padding=0))
        assert with_valid[1].degenerate_pixels == 0
        assert with_valid[1].oob_sample_fraction == 0.0
        big = np.full((18, 6, 6), 50.0, np.float32)
        _, summary2 = za_conv_forward(x, w, OffsetField(big), KernelSpec.same(3))
        assert summary2.degenerate_pixels == 36
        assert summary2.oob_sample_fraction == 1.0


def test_far_off_sampling_positions_are_defined(rng):
    # Positions far past the border (|u| >= ~1e19 px overflows an int64
    # cast) must sample zero padding like any other off-image position:
    # no cast warning, and the same outputs as a merely distant offset.
    spec = KernelSpec.same(3)
    x = rand_feature(rng, 2, 6, 7)
    w = rand_weights(rng, 3, 2, 3)
    g = rand_feature(rng, 3, 6, 7)
    base = rand_offsets(rng, 3, 6, 7).data

    def run(offset):
        off = base.copy()
        off[5, 2, 3] = offset  # dx of tap 2 at output pixel (2, 3)
        off[0, 4, 1] = -offset  # dy of tap 0 at output pixel (4, 1)
        off = OffsetField(off)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = za_conv_forward(x, w, off, spec)
            p, _ = za_avg_pool(x, off, spec)
            gx, gw = za_conv_backward(x, w, off, spec, g)
        return y.data, p.data, gx.data, gw.data

    for far, near in zip(run(np.float32(3e19)), run(np.float32(1e4))):
        np.testing.assert_array_equal(far, near)


def test_one_field_under_two_specs_matches_fresh_fields(rng):
    # The border statistics are cached on the field per (spec, input shape):
    # reusing one field under two of them, in either order, must give the
    # bytes of a fresh field each time.
    off = rand_offsets(rng, 3, 5, 5, scale=2.5)
    w = rand_weights(rng, 3, 2, 3)
    g = rand_feature(rng, 3, 5, 5)
    cases = [(KernelSpec.same(3), rand_feature(rng, 2, 5, 5)), (KernelSpec(3), rand_feature(rng, 2, 7, 7))]

    def run(field, spec, x):
        y, sy = za_conv_forward(x, w, field, spec)
        p, sp = za_avg_pool(x, field, spec)
        gx, gw = za_conv_backward(x, w, field, spec, g)
        return [a.tobytes() for a in (y.data, p.data, gx.data, gw.data)] + [
            sy.as_dict(), sp.as_dict()]

    fresh = [run(OffsetField(off.data.copy()), spec, x) for spec, x in cases]
    for (spec, x), want in zip(cases + cases[::-1], fresh + fresh[::-1]):
        assert run(off, spec, x) == want


# (field kind, neighbor slots its sampling plan keeps)
FIELD_KINDS = [("zero", 1), ("integer", 1), ("x-fractional", 2), ("general", 4), ("off-image", 0),
               ("far", 4)]


def kind_field(rng, kind, spec, h, w):
    oh, ow = spec.output_shape(h, w)
    off = np.zeros((2 * spec.tap_count, oh, ow))
    if kind == "integer":
        off = rng.integers(-2, 3, off.shape).astype(np.float64)
    elif kind == "x-fractional":  # integral dy, dx half-way between columns
        off[1::2] = rng.integers(-2, 3, off[1::2].shape) + 0.5
    elif kind == "general":
        off = rng.uniform(-2.0, 2.0, off.shape)
    elif kind == "off-image":
        off[:] = 50.0
    elif kind == "far":  # every other output row jumps 40 px, so unclipped indices wrap rows
        off = rng.uniform(-2.0, 2.0, off.shape)
        off[:, ::2] += rng.choice([-40.0, 40.0], off[:, ::2].shape)
    return OffsetField(off.astype(np.float32))


def tile_plan(x, field, spec, r0, r1):
    """The plan of the output rows ``r0:r1`` of ``field`` under ``spec`` on ``x``."""
    v, u = spec.tap_positions(range(r0, r1), range(field.width))
    off = field.data[:, r0:r1].reshape(spec.tap_count, 2, r1 - r0, field.width)
    return _tile_plan(x.height, x.width, v, u, off)


def whole_plan(x, field, spec):
    """The plan of ``field``'s rows in one tile."""
    return tile_plan(x, field, spec, 0, field.height)


def plan_bytes_per_sample(plan):
    base, _, wgt = plan
    return (base.nbytes + wgt.nbytes) / base.size


def scatter_row_bytes(spec, co, ow):
    """The bytes of one output row of backward's scatter tiles: ``_PLAN_BYTES``
    a tap sample and ``co`` channels of float64 ``grad_out``."""
    return (ops._PLAN_BYTES * spec.tap_count + 8 * co) * ow


def all_slot_plans(monkeypatch):
    """Make every tile plan keep all four neighbor slots, straight from the
    bilinear weights of its positions; return the slot counts it gave."""
    trimmed, slots = ops._tile_plan, []

    def full(h, w, v, u, off, counts=None):
        trimmed(h, w, v, u, off, counts)  # the border statistics
        base, wgt = _bilinear_scatter_weights(h, w, u + off[:, 1], v + off[:, 0])
        slots.append(len(wgt))
        return base, _neighbor_steps(w), wgt

    monkeypatch.setattr(ops, "_tile_plan", full)
    return slots


class TestSamplingPlan:
    @pytest.mark.parametrize("kind, slots", FIELD_KINDS)
    def test_keeps_only_weighted_neighbors(self, rng, kind, slots):
        spec = KernelSpec.same(3)
        field = kind_field(rng, kind, spec, 6, 7)
        base, steps, wgt = whole_plan(rand_feature(rng, 1, 6, 7), field, spec)
        assert base.shape == (9, 6, 7) and base.dtype == np.int32
        assert len(steps) == len(wgt) == slots
        assert set(steps) <= set(_neighbor_steps(7))
        assert all(a.shape == (9, 6, 7) and a.dtype == np.float64 for a in wgt)
        # int32 indices and float64 weights: 12 bytes a tap sample per slot
        assert plan_bytes_per_sample((base, steps, wgt)) == 4 + 8 * slots

    @pytest.mark.parametrize("kind", [k for k, _ in FIELD_KINDS])
    @pytest.mark.parametrize("spec", [KernelSpec(1), KernelSpec.same(3), KernelSpec(3, dilation=2, stride=2, padding=2)])
    def test_trimmed_plan_matches_full_plan(self, rng, monkeypatch, kind, spec):
        # dropped slots only ever added exact zeros, and an off-image neighbor
        # reads whatever its clipped index finds with weight +0.0: forward,
        # pooling, backward, gathered samples and the summaries keep every
        # bit of tile plans that keep all four slots, in tiles of 1, 3 and
        # all output rows
        h, w = 7, 8
        oh, ow = spec.output_shape(h, w)
        x, g = rand_feature(rng, 2, h, w), rand_feature(rng, 3, oh, ow)
        wts = rand_weights(rng, 3, 2, spec.size)
        data = kind_field(rng, kind, spec, h, w).data

        def run():
            field = OffsetField(data)  # nothing cached
            y, sy = za_conv_forward(x, wts, field, spec)
            p, sp = za_avg_pool(x, field, spec)
            gx, gw = za_conv_backward(x, wts, field, spec, g)
            s = gather_samples(x, OffsetField(data), spec)
            return [a.tobytes() for a in (y.data, p.data, gx.data, gw.data, s)] + [sy.as_dict(), sp.as_dict()]

        # a row of the gathers (2 input channels), and of the scatter
        row_bytes = (2 * spec.tap_count * ow * 8, scatter_row_bytes(spec, 3, ow))
        for rows, row in itertools.product((1, 3, oh), row_bytes):
            monkeypatch.setattr(geometry, "_TILE_BYTES", rows * row)
            trimmed = run()
            with monkeypatch.context() as m:
                slots = all_slot_plans(m)
                assert run() == trimmed
            assert slots and set(slots) == {4}

    def test_plan_is_at_most_36_bytes_a_tap_sample(self, rng):
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 1, 30, 40)
        general = whole_plan(x, kind_field(rng, "general", spec, 30, 40), spec)
        zero = whole_plan(x, kind_field(rng, "zero", spec, 30, 40), spec)
        assert len(general[2]) == 4 and plan_bytes_per_sample(general) <= 36
        assert plan_bytes_per_sample(zero) <= 12

    def test_each_tile_keeps_its_own_slots(self, rng):
        # an integer field with one fractional row: only that row's tile keeps
        # the slots that its fractions weigh
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 1, 6, 7)
        off = kind_field(rng, "integer", spec, 6, 7).data.copy()
        off[0::2, 4] += 0.25  # dy of every tap in output row 4
        field = OffsetField(off)
        slots = [len(tile_plan(x, field, spec, r, r + 1)[1]) for r in range(6)]
        assert slots == [1, 1, 1, 1, 2, 1]
        assert whole_plan(x, field, spec)[1] == (0, 7)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_weight_kernel_runs_on_taps_that_fit_the_budget(self, rng, monkeypatch, rows):
        # one kernel call per tile when all taps fit the budget, else runs of
        # taps whose plans the tile assembles, with the same bits
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 1, 6, 7)
        field = kind_field(rng, "general", spec, 6, 7)
        whole = whole_plan(x, field, spec)
        calls = []
        kernel = ops._bilinear_scatter_weights
        monkeypatch.setattr(ops, "_bilinear_scatter_weights",
                            lambda h, w, u, v: calls.append(u.shape[0]) or kernel(h, w, u, v))
        monkeypatch.setattr(geometry, "_TILE_BYTES", rows * 6 * 7 * ops._PLAN_BYTES)
        split = whole_plan(x, field, spec)
        assert calls == [rows] * (9 // rows)
        assert split[1] == whole[1]
        for a, b in zip((split[0], split[2]), (whole[0], whole[2])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_field_caches_no_plan(self, rng):
        # after every entry point the field holds the two border statistics
        # per (spec, input shape), and no array
        spec = KernelSpec.same(3)
        x, g = rand_feature(rng, 2, 6, 7), rand_feature(rng, 3, 6, 7)
        wts = rand_weights(rng, 3, 2, 3)
        field = kind_field(rng, "general", spec, 6, 7)
        _, summary = za_conv_forward(x, wts, field, spec)
        za_avg_pool(x, field, spec)
        za_conv_backward(x, wts, field, spec, g)
        gather_samples(x, field, spec)
        assert field._summaries == {(spec, 6, 7): summary}
        assert not any(isinstance(v, np.ndarray) for v in vars(summary).values())

    def test_border_statistics_come_from_the_first_walk(self, rng, monkeypatch):
        # the first walk over a field's plans counts its border statistics,
        # later walks do not, and a call given samples walks nothing once
        # they are cached
        spec = KernelSpec.same(3)
        x, g = rand_feature(rng, 2, 6, 7), rand_feature(rng, 3, 6, 7)
        wts = rand_weights(rng, 3, 2, 3)
        data = kind_field(rng, "general", spec, 6, 7).data
        walks = []
        tile_plan = ops._tile_plan
        monkeypatch.setattr(ops, "_tile_plan", lambda *a: walks.append(a[-1] is not None) or tile_plan(*a))
        fresh = OffsetField(data)
        samples = gather_samples(x, fresh, spec)
        assert walks and all(walks)
        walks.clear()
        y, summary = za_conv_forward(x, wts, fresh, spec, samples=samples)
        za_conv_backward(x, wts, fresh, spec, g, samples=samples, need_grad_x=False)
        assert walks == []
        za_avg_pool(x, fresh, spec)
        assert walks and not any(walks)
        # samples on a field that has not been walked: one walk to count
        walks.clear()
        other = OffsetField(data)
        assert za_conv_forward(x, wts, other, spec, samples=samples)[1] == summary
        assert walks and all(walks)
        assert summary == za_conv_forward(x, wts, OffsetField(data), spec)[1]

    def test_far_field_indices_wrap_rows(self, rng):
        # the unclipped top-left indices of 40 px jumps leave the flat image
        # or wrap into other rows; the outputs still match per-pixel loops
        spec = KernelSpec.same(3)
        x, wts = rand_feature(rng, 2, 7, 8), rand_weights(rng, 3, 2, 3)
        field = kind_field(rng, "far", spec, 7, 8)
        base = whole_plan(x, field, spec)[0]
        assert base.min() < 0 and base.max() >= 7 * 8
        x64, off = x.data.astype(np.float64), field.data.astype(np.float64)
        ref = naive_za_conv(x64, wts.data.astype(np.float64), off, 3, 1, 1, 1)
        np.testing.assert_allclose(za_conv_forward(x, wts, field, spec)[0].data, ref, rtol=1e-6, atol=1e-6)
        ref = naive_za_pool(x64, off, 3, 1, 1, 1)
        np.testing.assert_allclose(za_avg_pool(x, field, spec)[0].data, ref, rtol=1e-6, atol=1e-6)

    def test_all_taps_off_image(self, rng):
        spec = KernelSpec.same(3)
        x, g = rand_feature(rng, 2, 6, 7), rand_feature(rng, 3, 6, 7)
        wts = rand_weights(rng, 3, 2, 3)
        field = kind_field(rng, "off-image", spec, 6, 7)
        y, sy = za_conv_forward(x, wts, field, spec)
        p, sp = za_avg_pool(x, field, spec)
        gx, gw = za_conv_backward(x, wts, field, spec, g)
        for a in (y.data, p.data, gx.data, gw.data, gather_samples(x, field, spec)):
            assert not np.signbit(a).any() and not a.any()
        assert sy == sp and sy.degenerate_pixels == 42 and sy.oob_sample_fraction == 1.0

    def test_flat_indices_widen_only_when_int32_overflows(self):
        u, v = np.array([-5.0, 3.5, 1e9]), np.array([2.0, 1e9, -1e9])
        for h, w, dtype in ((100, 100, np.int32), (2**16, 2**15, np.int64)):
            base, _ = _bilinear_scatter_weights(h, w, u, v)
            assert base.dtype == dtype
            assert base.tolist() == [2 * w - 2, (h + 1) * w + 3, -2 * w + w + 1]


@st.composite
def kernel_positions(draw):
    # integral, fractional, border, far-off positions; a grid whose flat
    # indices fit int32 and one that needs int64
    h, w = draw(st.sampled_from([(1, 1), (5, 7), (40, 3), (2**16, 2**15)]))
    n = draw(st.integers(1, 40))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def axis(size):
        picks = [r.uniform(-3.0, size + 2.0, n), np.round(r.uniform(-3.0, size + 2.0, n)),
                 r.choice([-1.0, 0.0, size - 1.0, float(size), -0.5, size - 0.5], n),
                 r.choice([-1e6, 1e6], n) * r.uniform(0.5, 1.0, n)]
        return np.choose(r.integers(0, 4, n), picks)

    return h, w, axis(w), axis(h)


@settings(max_examples=60, deadline=None)
@given(kernel_positions())
def test_weight_kernel_keeps_the_bits_of_masked_products(case):
    h, w, u, v = case
    base, wgt = _bilinear_scatter_weights(h, w, u.copy(), v.copy())
    ref_base, ref_wgt = masked_bilinear_weights(h, w, u.copy(), v.copy())
    assert base.dtype == ref_base.dtype and base.tobytes() == ref_base.tobytes()
    assert wgt.tobytes() == ref_wgt.tobytes()


SPLIT_SPECS = [KernelSpec(1), KernelSpec.same(3), KernelSpec(3, dilation=2, stride=2, padding=2)]


class TestGatheredSamples:
    @pytest.mark.parametrize("kind", [k for k, _ in FIELD_KINDS])
    @pytest.mark.parametrize("spec", SPLIT_SPECS)
    def test_samples_and_skipped_grad_x_keep_every_bit(self, rng, kind, spec):
        h, w = 7, 8
        oh, ow = spec.output_shape(h, w)
        x, g = rand_feature(rng, 2, h, w), rand_feature(rng, 3, oh, ow)
        wts = rand_weights(rng, 3, 2, spec.size)
        field = kind_field(rng, kind, spec, h, w)
        samples = gather_samples(x, field, spec)
        assert samples.shape == (2, spec.tap_count, oh, ow) and samples.dtype == np.float64
        assert not samples.flags.writeable

        y, sy = za_conv_forward(x, wts, field, spec)
        ys, sys_ = za_conv_forward(x, wts, field, spec, samples=samples)
        assert ys.data.tobytes() == y.data.tobytes()
        assert sys_.as_dict() == sy.as_dict()

        gx, gw = za_conv_backward(x, wts, field, spec, g)
        for kwargs in ({"samples": samples}, {"need_grad_x": False},
                       {"samples": samples, "need_grad_x": False}):
            gx2, gw2 = za_conv_backward(x, wts, field, spec, g, **kwargs)
            assert gw2.data.tobytes() == gw.data.tobytes()
            if kwargs.get("need_grad_x", True):
                assert gx2.data.tobytes() == gx.data.tobytes()
            else:
                assert gx2 is None

    def test_wrong_samples_rejected(self, rng):
        spec = KernelSpec.same(3)
        x, g = rand_feature(rng, 2, 5, 6), rand_feature(rng, 3, 5, 6)
        wts = rand_weights(rng, 3, 2, 3)
        field = rand_offsets(rng, 3, 5, 6)
        samples = gather_samples(x, field, spec)
        bad = [samples[:, :8], samples[:1], samples[..., :5], samples.reshape(2, 3, 3, 5, 6),
               samples.astype(np.float32)]
        for s in bad:
            with pytest.raises(ConfigError):
                za_conv_forward(x, wts, field, spec, samples=s)
            with pytest.raises(ConfigError):
                za_conv_backward(x, wts, field, spec, g, samples=s)
        with pytest.raises(ConfigError):
            gather_samples(x, rand_offsets(rng, 3, 4, 6), spec)


# (input h, w, spec): a 1-wide output, a 1-row output and stride 2
TILE_CASES = [(13, 1, KernelSpec.same(3)), (1, 9, KernelSpec.same(3)),
              (15, 11, KernelSpec(3, dilation=2, stride=2, padding=2))]


class TestRowTiles:
    @pytest.mark.parametrize("h, w, spec", TILE_CASES)
    @pytest.mark.parametrize("co", [1, 3])
    def test_samples_keep_every_bit_for_any_tile(self, rng, monkeypatch, h, w, spec, co):
        oh, ow = spec.output_shape(h, w)
        x, g = rand_feature(rng, 2, h, w), rand_feature(rng, co, oh, ow)
        wts = rand_weights(rng, co, 2, spec.size)
        field = kind_field(rng, "general", spec, h, w)
        samples = gather_samples(x, field, spec)
        gathered = (x, field, spec)
        w2, g64 = wts.data.astype(np.float64).reshape(co, -1), g.data.astype(np.float64)
        row_bytes = 2 * spec.tap_count * ow * 8  # the float64 samples of one output row
        whole, _ = za_conv_forward(x, wts, field, spec)
        gx_whole, _ = za_conv_backward(x, wts, field, spec, g)
        # pooling adds the taps in plan order; the float32 mean of these taps
        # hides the order, which test_pool_adds_taps_in_plan_order shows
        pool_sum = np.zeros((2, oh, ow))
        for n in range(spec.tap_count):
            pool_sum += samples[:, n]
        pooled = (pool_sum / spec.tap_count).astype(np.float32)
        for rows in (1, 3, 7, oh):
            monkeypatch.setattr(geometry, "_TILE_BYTES", rows * row_bytes)
            _, walk = _sample_rows(gathered)
            # the walker reuses its tile buffer, so each tile is copied as it comes
            walked = np.concatenate([t.reshape(-1, r1 - r0, ow).copy() for r0, r1, t in walk], axis=1)
            assert walked.tobytes() == samples.tobytes()
            for a, b in zip(_conv_gemm(gathered, w2, g64), _conv_gemm(samples, w2, g64)):
                assert a.tobytes() == b.tobytes()
            assert za_avg_pool(x, field, spec)[0].data.tobytes() == pooled.tobytes()
            y, _ = za_conv_forward(x, wts, field, spec)
            assert za_conv_forward(x, wts, field, spec, samples=samples)[0].data.tobytes() == y.data.tobytes()
            np.testing.assert_allclose(y.data, whole.data, rtol=1e-6, atol=1e-6)
            gx, gw = za_conv_backward(x, wts, field, spec, g)
            gx2, gw2 = za_conv_backward(x, wts, field, spec, g, samples=samples)
            assert gx2.data.tobytes() == gx.data.tobytes()
            assert gw2.data.tobytes() == gw.data.tobytes()
            # the input gradient's float64 sums are added tile by tile, so
            # only its float32 rounding may move: by one unit in the last place
            np.testing.assert_allclose(gx.data, gx_whole.data, rtol=2 * F32_UNIT, atol=1e-12)

    @pytest.mark.parametrize("h, w, spec", TILE_CASES)
    def test_gathered_samples_keep_every_bit_for_any_tile(self, rng, monkeypatch, h, w, spec):
        # five channels gather in parts of two, the last part short
        oh, ow = spec.output_shape(h, w)
        x = rand_feature(rng, 5, h, w)
        field = kind_field(rng, "general", spec, h, w)
        first = None
        for rows in (1, 3, oh):
            monkeypatch.setattr(geometry, "_TILE_BYTES", rows * 5 * spec.tap_count * ow * 8)
            _, walk = _sample_rows((x, field, spec))
            walked = np.concatenate([t.reshape(-1, r1 - r0, ow).copy() for r0, r1, t in walk], axis=1)
            samples = gather_samples(x, field, spec)
            assert samples.tobytes() == walked.tobytes()
            first = first or samples.tobytes()
            assert samples.tobytes() == first

    @pytest.mark.parametrize("h, w, spec", TILE_CASES)
    @pytest.mark.parametrize("co", [1, 3])
    def test_gemm_into_given_buffers_keeps_every_bit(self, rng, monkeypatch, h, w, spec, co):
        oh, ow = spec.output_shape(h, w)
        x = rand_feature(rng, 2, h, w)
        field = kind_field(rng, "general", spec, h, w)
        samples = gather_samples(x, field, spec)
        # a transposed weight matrix, as the toy head's backward passes it
        w2 = rng.standard_normal((2 * spec.tap_count, co)).T
        g = rng.standard_normal((co, oh, ow))
        for rows in (1, 3, oh):
            monkeypatch.setattr(geometry, "_TILE_BYTES", rows * 2 * spec.tap_count * ow * 8)
            for src, gg in itertools.product(((x, field, spec), samples), (g, g.astype(np.float32))):
                ops._SCRATCH.buf = None
                y, gw = _conv_gemm(src, w2, gg)
                # the thread's scratch already holds other values, and is too long
                ops._SCRATCH.buf = np.full(2 * co * oh * ow + 7, np.nan)
                y2, gw2 = _conv_gemm(src, w2, gg)
                assert y2.tobytes() == y.tobytes() and gw2.tobytes() == gw.tobytes()

    @pytest.mark.parametrize("h, w, spec", TILE_CASES)
    def test_pool_adds_taps_in_plan_order(self, monkeypatch, h, w, spec):
        # An integer field points the taps of every output pixel at four
        # pixels that hold 2**60, -2**60, 1 and 3, so channel 0 sums the
        # taps 1, 3, 2**60, 1, -2**60, 3, 3, 1, 1.  A float64 sum drops a
        # small term added to +-2**60 and keeps it once those cancel: in
        # plan order it is 8, pairwise 1, a move that the float32 mean keeps
        # where random-normal taps would round it away.
        oh, ow = spec.output_shape(h, w)
        x = np.zeros((2, h * w), np.float32)
        x[0, :4] = 2.0**60, -2.0**60, 1, 3
        x[1, :4] = 1, 3, 2.0**60, -2.0**60
        x = FeatureTensor(x.reshape(2, h, w))
        pick = np.array([2, 3, 0, 2, 1, 3, 3, 2, 2])[:, None, None]  # the pixel of each tap
        ki, kj = np.divmod(np.arange(spec.tap_count)[:, None, None], spec.size)
        oy, ox = np.mgrid[:oh, :ow] * spec.stride - spec.padding
        off = np.stack([pick // w - oy - spec.dilation * ki, pick % w - ox - spec.dilation * kj], 1)
        field = OffsetField(off.reshape(-1, oh, ow).astype(np.float32))
        samples = gather_samples(x, field, spec)
        plan_order = np.zeros((2, oh, ow))
        for n in range(spec.tap_count):
            plan_order += samples[:, n]
        want = (plan_order / spec.tap_count).astype(np.float32)
        pairwise = np.ascontiguousarray(np.moveaxis(samples, 1, -1)).sum(axis=-1)
        assert (pairwise / spec.tap_count).astype(np.float32)[0].tobytes() != want[0].tobytes()
        for rows in (1, 3, 7, oh):
            monkeypatch.setattr(geometry, "_TILE_BYTES", rows * 2 * spec.tap_count * ow * 8)
            assert za_avg_pool(x, field, spec)[0].data.tobytes() == want.tobytes()

    # 240x320, 16 -> 16 channels: the operators' largest arrays are their
    # results, and they read the input through bands of the rows that a tile
    # reaches, so no whole-image float64 copy of the input or of grad_out
    # (9.4 MiB each) fits under these bounds.
    PEAK_SHAPE = (16, 240, 320)

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_forward_memory_is_tiled(self, rng):
        # On a field of four neighbor slots that no call has used: the
        # float32 output and a few tiles, with their plans and bands.
        # Gathering all 9 taps at once would take 84 MiB, a float64 output
        # copied to float32 at the end another 9.4 MiB, and a whole-image
        # plan 24 MiB.
        spec = KernelSpec.same(3)
        c, h, w = self.PEAK_SHAPE
        x, wts = rand_feature(rng, c, h, w), rand_weights(rng, c, c, 3)
        field = kind_field(rng, "general", spec, h, w)
        (y, _), peak = self._peak(lambda: za_conv_forward(x, wts, field, spec))
        assert y.data.shape == (c, h, w)
        assert peak < y.data.nbytes + 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_pool_memory_is_tiled(self, rng):
        # as for the forward; whole-image sample and temporary buffers per
        # tap would take 42 MiB
        spec = KernelSpec.same(3)
        c, h, w = self.PEAK_SHAPE
        x = rand_feature(rng, c, h, w)
        field = kind_field(rng, "general", spec, h, w)
        (y, _), peak = self._peak(lambda: za_avg_pool(x, field, spec))
        assert y.data.shape == (c, h, w)
        assert peak < y.data.nbytes + 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("kind", ["integer", "general"])
    def test_backward_memory_holds_no_float64_grad_x(self, rng, kind):
        # Fields of one and of four neighbor slots that no call has used: the
        # float64 input-gradient sums, the float32 grad_x and a few tiles
        # with their plans, bands and converted rows of grad_out.  Whole-image
        # per-tap gradients, indices and contributions made the peak several
        # times larger, and a whole-image plan takes 24 MiB on the general one.
        spec = KernelSpec.same(3)
        c, h, w = self.PEAK_SHAPE
        x, g = rand_feature(rng, c, h, w), rand_feature(rng, c, h, w)
        wts = rand_weights(rng, c, c, 3)
        field = kind_field(rng, kind, spec, h, w)
        (gx, _), peak = self._peak(lambda: za_conv_backward(x, wts, field, spec, g))
        acc64 = c * h * w * 8
        bound = acc64 + gx.data.nbytes + 4 * 2**20
        assert gx.data.shape == (c, h, w)
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"

    def test_infer_item_memory(self, rng):
        # one item of the benchmark's inference loop at 120x160, 16 -> 16
        # channels: offsets, adapted conv, ReLU and adapted pooling.  The
        # bound is the pool's: the offset field, five float32 maps (input,
        # conv, ReLU, its copy, pool) and a few tiles with their plans and
        # bands.  Whole-image float64 outputs and 64-byte plan samples made
        # the peak 22 MiB, a cached whole-image plan of 36 bytes a sample
        # another 6.2 MiB, and a float64 copy of the pool's input 2.3 MiB.
        h, w, c = 120, 160, 16
        spec = KernelSpec.same(3)
        scene = generate_scene("corridor", h, w, seed=0, focal=519.0 / 4)
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        wts = rand_weights(rng, c, c, 3, scale=0.1)
        tracemalloc.start()
        try:
            field, _ = compute_offsets(scene.depth, scene.intrinsics, spec, h, w)
            y, _ = za_conv_forward(FeatureTensor(x), wts, field, spec)
            hidden = FeatureTensor(np.maximum(y.data, 0.0))
            za_avg_pool(hidden, field, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(whole_plan(hidden, field, spec)[2]) == 4  # the corridor's offsets are fractional
        bound = field.data.nbytes + 5 * c * h * w * 4 + 2 * geometry._TILE_BYTES
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def band_field(rng, kind, spec, h, w):
    """A general field whose taps reach far: ``reach`` sends tap 0 anywhere
    between the first and the last row, so every band is the whole image;
    ``wide`` sends it up to a quarter of the height, so each band is about
    half the image; ``off-image`` sends two taps 1e13 px off the image."""
    oh, ow = spec.output_shape(h, w)
    off = rng.uniform(-2.0, 2.0, (2 * spec.tap_count, oh, ow))
    if kind == "reach":
        off[0] = rng.uniform(-h, h, (oh, ow))
    elif kind == "wide":
        off[0] = rng.uniform(-h / 4, h / 4, (oh, ow))
    elif kind == "off-image":
        off[3, ::2] = 1e13  # dx of tap 1
        off[2 * spec.tap_count - 2, 1::2] = -1e13  # dy of the last tap
    return OffsetField(off.astype(np.float32))


class TestBands:
    """Each row tile gathers from a float64 band of the input rows that its
    plan reaches, and backward converts ``grad_out`` a tile at a time: every
    output keeps the bits of whole-image float64 copies."""

    @pytest.mark.parametrize("kind", ["reach", "wide", "off-image"])
    @pytest.mark.parametrize("spec", [KernelSpec.same(3), KernelSpec(5, 2, 2, 0), KernelSpec(3, 2, 1, 2)])
    def test_outputs_match_whole_image_copies(self, rng, monkeypatch, kind, spec):
        h, w, ci, co = 40, 23, 3, 2
        oh, ow = spec.output_shape(h, w)
        x, g = rand_feature(rng, ci, h, w), rand_feature(rng, co, oh, ow)
        wts = rand_weights(rng, co, ci, spec.size)
        off = band_field(rng, kind, spec, h, w).data
        for rows in (1, 3, oh):
            monkeypatch.setattr(geometry, "_TILE_BYTES", rows * ci * spec.tap_count * ow * 8)
            ref = whole_image_ops(
                x.data, wts.data, off, g.data, spec.size, spec.dilation, spec.stride, spec.padding,
                geometry._row_tiles(oh, ci * spec.tap_count * ow * 8),
                geometry._row_tiles(oh, scatter_row_bytes(spec, co, ow)))
            summary = {k: ref[k] for k in ("degenerate_pixels", "oob_sample_fraction")}
            # a fresh field per call, so that each call walks it and counts
            y, sy = za_conv_forward(x, wts, OffsetField(off), spec)
            p, sp = za_avg_pool(x, OffsetField(off), spec)
            gx, gw = za_conv_backward(x, wts, OffsetField(off), spec, g)
            samples = gather_samples(x, OffsetField(off), spec)
            assert samples.tobytes() == ref["samples"].tobytes()
            assert y.data.tobytes() == ref["forward"].tobytes()
            assert p.data.tobytes() == ref["pool"].tobytes()
            assert gx.data.tobytes() == ref["grad_x"].tobytes()
            assert gw.data.tobytes() == ref["grad_w"].tobytes()
            assert sy.as_dict() == sp.as_dict() == summary
            field = OffsetField(off)
            gather_samples(x, field, spec)  # a walk with samples= counts row by row
            assert za_conv_forward(x, wts, field, spec, samples=samples)[1].as_dict() == summary

    def test_a_walk_that_converts_many_rows_reads_the_whole_image(self, rng, monkeypatch):
        # One-row tiles whose bands are each about half the image: the walk
        # converts bands until they add up to ops._BAND_HEIGHTS heights, then
        # reads one whole-image copy, without converting it again.
        spec = KernelSpec.same(3)
        h, w = 80, 23
        x = rand_feature(rng, 2, h, w)
        field = band_field(rng, "wide", spec, h, w)
        monkeypatch.setattr(geometry, "_TILE_BYTES", 2 * spec.tap_count * w * 8)
        bands, copies, gather, copyto = [], [], ops._bilinear_gather, np.copyto

        def spy(data, base, steps, wgt, out=None, tmp=None, start=0):
            bands.append((start, data.shape[1]))
            return gather(data, base, steps, wgt, out, tmp, start)

        def counting_copyto(dst, src, *args, **kwargs):
            copies.append(dst.size)
            return copyto(dst, src, *args, **kwargs)

        monkeypatch.setattr(ops, "_bilinear_gather", spy)
        monkeypatch.setattr(ops.np, "copyto", counting_copyto)
        gather_samples(x, field, spec)
        monkeypatch.undo()
        whole = bands.index((0, h * w))
        assert len(bands) == h and 0 < whole < h - 1
        assert all(n < h * w for _, n in bands[:whole]) and set(bands[whole:]) == {(0, h * w)}
        assert sum(copies[:whole]) <= ops._BAND_HEIGHTS * 2 * h * w < sum(copies)
        assert len(copies) == whole + 1 and copies[-1] == 2 * h * w


# Unit roundoff of float32: the operators accumulate in float64 and round
# each output element once to float32, within a relative 2**-24.
F32_UNIT = 2.0**-24


@st.composite
def adjoint_cases(draw):
    size = draw(st.sampled_from([1, 3, 5]))
    dilation = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, dilation * (size - 1) // 2 + 1))
    span = dilation * (size - 1) + 1
    least = max(1, span - 2 * padding)  # smallest input the kernel fits
    h, w = draw(st.integers(least, least + 8)), draw(st.integers(least, least + 8))
    ci, co = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # up to far past the border; integral offsets put taps on lattice lines
    reach = draw(st.sampled_from([0.0, 0.7, 3.0, 2.0 * max(h, w), 1e6]))
    integral = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    spec = KernelSpec(size, dilation, stride, padding)
    oh, ow = spec.output_shape(h, w)
    r = np.random.default_rng(seed)
    off = r.uniform(-reach, reach, (2 * size * size, oh, ow))
    if integral:
        off = np.round(off)
    return (spec, rand_feature(r, ci, h, w), rand_weights(r, co, ci, size),
            OffsetField(off.astype(np.float32)), rand_feature(r, co, oh, ow))


def _dot(a, b):
    return float(np.sum(a.astype(np.float64) * b.astype(np.float64)))


@settings(max_examples=80, deadline=None)
@given(adjoint_cases())
def test_adjoint_identity(case):
    """<za_conv(x), g> == <x, grad_x(g)> == <w, grad_w(g)> for fixed offsets.

    All three pairings sum the same product terms g * w * bilinear weight
    * x; let S be the sum of their absolute values, which is the forward
    of |x| and |w| paired with |g| (bilinear weights are >= 0).  Rounding
    y, grad_x and grad_w to float32 moves each pairing by at most
    F32_UNIT * S, so two pairings differ by at most 2 * F32_UNIT * S.  A
    third F32_UNIT * S covers the float64 accumulation (fewer than 2**11
    terms per sum, so below 2**-42 * S) and the float32 rounding of S.
    """
    spec, x, w, off, g = case
    y, _ = za_conv_forward(x, w, off, spec)
    gx, gw = za_conv_backward(x, w, off, spec, g)
    ax, aw = FeatureTensor(np.abs(x.data)), ConvWeights(np.abs(w.data))
    s = _dot(za_conv_forward(ax, aw, off, spec)[0].data, np.abs(g.data))
    tol = 3 * F32_UNIT * s
    assert abs(_dot(y.data, g.data) - _dot(x.data, gx.data)) <= tol
    assert abs(_dot(y.data, g.data) - _dot(w.data, gw.data)) <= tol


class TestZaConvBackward:
    def test_zero_grad_out(self, rng):
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 2, 5, 5)
        w = rand_weights(rng, 2, 2, 3)
        off = rand_offsets(rng, 3, 5, 5)
        gx, gw = za_conv_backward(x, w, off, spec, FeatureTensor(np.zeros((2, 5, 5), np.float32)))
        assert np.count_nonzero(gx.data) == 0
        assert np.count_nonzero(gw.data) == 0

    @pytest.mark.parametrize("kind", ["general", "far", "off-image"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_matches_naive_loop(self, rng, monkeypatch, kind, rows):
        # Tiles of 1 and 3 output rows, in turn for the weight gradient's
        # samples and for the plan weights that the input gradient is scattered
        # through: each tile's bounded bincount must add every contribution
        # once, where the unclipped indices wrap rows (far), where they clip
        # at the border, and where the plan keeps no slot (off-image).
        spec = KernelSpec.same(3)
        h, w = 7, 8
        x, g = rand_feature(rng, 4, h, w), rand_feature(rng, 3, h, w)
        wts = rand_weights(rng, 3, 4, 3)
        field = kind_field(rng, kind, spec, h, w)
        ref_x, ref_w = naive_za_conv_backward(
            x.data, wts.data, field.data, g.data, spec.size, spec.dilation, spec.stride, spec.padding)
        # a row of the samples (4 input channels), and of the scatter
        for row in (4 * spec.tap_count * w * 8, scatter_row_bytes(spec, 3, w)):
            monkeypatch.setattr(geometry, "_TILE_BYTES", rows * row)
            gx, gw = za_conv_backward(x, wts, field, spec, g)
            np.testing.assert_allclose(gx.data, ref_x, rtol=1e-5, atol=1e-5)
            np.testing.assert_allclose(gw.data, ref_w, rtol=1e-5, atol=1e-5)

    def test_scatter_tiles_fit_the_budget(self, rng, monkeypatch):
        # Given samples=, only the scatter walks plans.  _PLAN_BYTES a tap
        # sample covers four slots' weights, clipped indices and
        # contributions: at 120x160 with 16 channels, tiles sized to four
        # slots' weights alone were 22 rows, 3.3 MiB.
        spec = KernelSpec.same(3)
        c, h, w = 16, 120, 160
        x, g = rand_feature(rng, c, h, w), rand_feature(rng, c, h, w)
        wts = rand_weights(rng, c, c, 3)
        field = kind_field(rng, "general", spec, h, w)
        samples = gather_samples(x, field, spec)
        walks, plans = [], ops._plans

        def spy(x, offsets, spec, tiles):
            walks.append(list(tiles))
            return plans(x, offsets, spec, tiles)

        monkeypatch.setattr(ops, "_plans", spy)
        za_conv_backward(x, wts, field, spec, g, samples=samples)
        [tiles] = walks
        assert [r for t in tiles for r in range(*t)] == list(range(h))
        row_bytes = scatter_row_bytes(spec, c, w)
        assert all(r1 - r0 == 1 or (r1 - r0) * row_bytes <= geometry._TILE_BYTES
                   for r0, r1 in tiles)

    def test_grad_w_matches_finite_differences(self, rng):
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 2, 4, 4)
        w = rand_weights(rng, 2, 2, 3)
        off = rand_offsets(rng, 3, 4, 4, lattice_margin=1e-2)
        g = rand_feature(rng, 2, 4, 4)
        _, gw = za_conv_backward(x, w, off, spec, g)
        h = 1e-3
        for idx in ((0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0), (1, 0, 0, 2)):
            wp = w.data.copy()
            wp[idx] += h
            wm = w.data.copy()
            wm[idx] -= h
            yp, _ = za_conv_forward(x, ConvWeights(wp), off, spec)
            ym, _ = za_conv_forward(x, ConvWeights(wm), off, spec)
            fd = float(
                ((yp.data.astype(np.float64) - ym.data.astype(np.float64)) * g.data).sum()
            ) / (2 * h)
            assert gw.data[idx] == pytest.approx(fd, abs=1e-3)

    def test_grad_x_matches_finite_differences(self, rng):
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 2, 4, 4)
        w = rand_weights(rng, 2, 2, 3)
        off = rand_offsets(rng, 3, 4, 4, lattice_margin=1e-2)
        g = rand_feature(rng, 2, 4, 4)
        gx, _ = za_conv_backward(x, w, off, spec, g)
        h = 1e-3
        for idx in ((0, 0, 0), (1, 3, 3), (0, 2, 1), (1, 1, 2)):
            xp = x.data.copy()
            xp[idx] += h
            xm = x.data.copy()
            xm[idx] -= h
            yp, _ = za_conv_forward(FeatureTensor(xp), w, off, spec)
            ym, _ = za_conv_forward(FeatureTensor(xm), w, off, spec)
            fd = float(
                ((yp.data.astype(np.float64) - ym.data.astype(np.float64)) * g.data).sum()
            ) / (2 * h)
            assert gx.data[idx] == pytest.approx(fd, abs=1e-3)

    def test_grad_shapes_and_validation(self, rng):
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 2, 5, 5)
        w = rand_weights(rng, 3, 2, 3)
        off = rand_offsets(rng, 3, 5, 5)
        g = rand_feature(rng, 3, 5, 5)
        gx, gw = za_conv_backward(x, w, off, spec, g)
        assert gx.data.shape == x.data.shape
        assert gw.data.shape == w.data.shape
        with pytest.raises(ConfigError):
            za_conv_backward(x, w, off, spec, rand_feature(rng, 2, 5, 5))


class TestAvgPool:
    def test_constant_input(self, rng):
        x = FeatureTensor(np.full((2, 6, 6), 3.25, np.float32))
        y = standard_avg_pool(x, KernelSpec.same(3))
        # interior pixels average nine copies of the constant
        np.testing.assert_allclose(y.data[:, 1:-1, 1:-1], 3.25, atol=1e-6)

    def test_three_by_three_window_average(self):
        x = FeatureTensor(np.arange(1.0, 10.0, dtype=np.float32).reshape(1, 3, 3))
        y = standard_avg_pool(x, KernelSpec(3, padding=0))
        assert y.data.shape == (1, 1, 1)
        assert y.data[0, 0, 0] == pytest.approx(5.0)

    @pytest.mark.parametrize("spec", [KernelSpec.same(3), KernelSpec(3, dilation=2, stride=2, padding=2), KernelSpec(5, padding=0)])
    def test_standard_matches_naive(self, rng, spec):
        x = rand_feature(rng, 3, 9, 11)
        y = standard_avg_pool(x, spec)
        oh, ow = spec.output_shape(9, 11)
        ref = naive_za_pool(
            x.data.astype(np.float64), np.zeros((2 * spec.tap_count, oh, ow)),
            spec.size, spec.dilation, spec.stride, spec.padding,
        )
        np.testing.assert_allclose(y.data, ref, atol=1e-6)

    def test_zero_offsets_equal_standard(self, rng):
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 2, 7, 7)
        y_std = standard_avg_pool(x, spec)
        y_za, _ = za_avg_pool(x, OffsetField.zeros(3, 7, 7), spec)
        np.testing.assert_array_equal(y_za.data, y_std.data)

    def test_constant_input_arbitrary_inbounds_offsets(self, rng):
        x = FeatureTensor(np.full((1, 8, 8), 2.5, np.float32))
        spec = KernelSpec(3, padding=0)
        oh, ow = spec.output_shape(8, 8)
        off = rand_offsets(rng, 3, oh, ow, scale=0.45)
        y, _ = za_avg_pool(x, off, spec)
        # interior windows keep every deformed tap inside the image, so
        # averaging a constant stays constant; border windows may clip
        np.testing.assert_allclose(y.data[:, 1:-1, 1:-1], 2.5, atol=1e-5)

    def test_matches_naive(self, rng):
        spec = KernelSpec.same(3)
        x = rand_feature(rng, 2, 6, 6)
        off = rand_offsets(rng, 3, 6, 6)
        y, _ = za_avg_pool(x, off, spec)
        ref = naive_za_pool(
            x.data.astype(np.float64), off.data.astype(np.float64),
            spec.size, spec.dilation, spec.stride, spec.padding,
        )
        np.testing.assert_allclose(y.data, ref, atol=1e-5)

    def test_output_bounds_for_nonnegative_input(self, rng):
        spec = KernelSpec.same(3)
        x = FeatureTensor(rng.uniform(0.5, 2.0, size=(1, 8, 8)).astype(np.float32))
        off = rand_offsets(rng, 3, 8, 8, scale=2.0)
        y, _ = za_avg_pool(x, off, spec)
        assert y.data.max() <= x.data.max() + 1e-6
        assert y.data.min() >= 0.0  # zero padding can only darken


class TestParamCount:
    def test_adapted_adds_no_parameters(self):
        # the offset generator is not learned, so both operators carry
        # exactly the same weight tensor
        assert conv_param_count(8, 8, 3) == 576
        w = ConvWeights(np.zeros((8, 8, 3, 3), np.float32))
        assert w.param_count == conv_param_count(8, 8, 3)

    @pytest.mark.parametrize("bad", [np.zeros((0, 2, 3, 3)), np.zeros((2, 2, 3, 2)),
                                     np.full((2, 2, 3, 3), np.nan), np.full((1, 1, 1, 1), -np.inf)])
    def test_malformed_weights_rejected(self, bad):
        with pytest.raises(ConfigError):
            ConvWeights(bad)
