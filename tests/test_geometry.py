import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from zacn import (
    BehindCameraError,
    CameraIntrinsics,
    ConfigError,
    DegenerateBasisError,
    DegenerateNeighborhoodError,
    DepthMap,
    InvalidDepthError,
    KernelSpec,
    back_project,
    basis_from_normal,
    compute_offsets,
    fit_plane,
    project,
)
from zacn import geometry
from zacn.geometry import _plane_basis, _plane_grid, _project
from zacn.harness import generate_scene

from conftest import noisy_scene_depth, nyu_like_intrinsics, smooth_depth
from oracles import (
    full_plane_grid,
    plane_residual,
    ref_offsets_eigh,
    stacked_eigenpair_sym3,
    stacked_plane_basis,
)

INV_SQRT5 = 1.0 / np.sqrt(5.0)
# Unit roundoff of float32: a correctly rounded float32 value is within a
# relative 2**-24 of the real number it stands for.
F32_UNIT = 2.0**-24


class TestBackProjectProject:
    def test_principal_point_is_optical_axis(self):
        K = CameraIntrinsics(400.0, 410.0, 320.0, 240.0)
        p = back_project(320.0, 240.0, 2.0, K)
        assert p.dtype == np.float64 and p.shape == (3,)
        assert tuple(p) == (0.0, 0.0, 2.0)

    def test_one_focal_length_off_axis(self):
        # NYUv2-scale focal: one focal length across maps to a unit
        # lateral offset at unit depth.
        K = CameraIntrinsics(519.0, 519.0, 100.0, 80.0)
        p = back_project(100.0 + 519.0, 80.0, 1.0, K)
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == 0.0
        assert p[2] == 1.0

    def test_round_trip_identity(self, rng):
        K = CameraIntrinsics(519.0, 481.0, 321.4, 239.1)
        for _ in range(1000):
            u = float(rng.uniform(-50, 700))
            v = float(rng.uniform(-50, 500))
            z = float(rng.uniform(0.1, 20.0))
            uu, vv = project(back_project(u, v, z, K), K)
            assert uu == pytest.approx(u, abs=1e-6)
            assert vv == pytest.approx(v, abs=1e-6)

    def test_project_optical_axis(self):
        K = CameraIntrinsics(222.0, 333.0, 17.0, 23.0)
        assert project((0.0, 0.0, 5.0), K) == (17.0, 23.0)

    def test_project_unit_point_small_focal(self):
        K = CameraIntrinsics(100.0, 100.0, 0.0, 0.0)
        assert project(np.array([1.0, 0.0, 1.0]), K) == (100.0, 0.0)

    def test_projection_scale_invariant(self, rng):
        K = CameraIntrinsics(300.0, 280.0, 10.0, 12.0)
        for _ in range(50):
            p = np.array(rng.uniform(-2, 2, size=2).tolist() + [float(rng.uniform(0.2, 5))])
            s = float(rng.uniform(0.01, 90.0))
            u0, v0 = project(p, K)
            u1, v1 = project(s * p, K)
            assert u1 == pytest.approx(u0, rel=1e-12, abs=1e-9)
            assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-9)

    def test_invalid_depth_rejected(self):
        K = CameraIntrinsics(100.0, 100.0, 0.0, 0.0)
        for z in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidDepthError):
                back_project(1.0, 1.0, z, K)

    def test_behind_camera_rejected(self):
        K = CameraIntrinsics(100.0, 100.0, 0.0, 0.0)
        with pytest.raises(BehindCameraError):
            project((1.0, 1.0, -0.5), K)

    def test_intrinsics_validation(self):
        with pytest.raises(ConfigError, match="focal length fu must be finite and > 0, got 0.0"):
            CameraIntrinsics(0.0, 100.0, 0.0, 0.0)
        with pytest.raises(ConfigError, match="principal point cu must be finite, got nan"):
            CameraIntrinsics(100.0, 100.0, float("nan"), 0.0)
        with pytest.raises(ConfigError, match="focal length fu must be a real number, got '500'"):
            CameraIntrinsics("500", 500, 1, 1)
        with pytest.raises(ConfigError, match="principal point cv must be a real number, got None"):
            CameraIntrinsics(500, 500, 1, None)
        K = CameraIntrinsics(np.float32(500), 500, 0, -1.5)  # any real number
        assert (K.fu, K.fv, K.cu, K.cv) == (500, 500, 0, -1.5)


class TestFitPlane:
    def test_fronto_parallel_nine_points(self):
        pts = [(float(x), float(y), 2.0) for x in (-1, 0, 1) for y in (-1, 0, 1)]
        n = fit_plane(pts, (0.0, 0.0, 2.0))
        np.testing.assert_allclose(n, [0.0, 0.0, 1.0], atol=1e-12)

    def test_analytic_slanted_plane(self):
        # Z = 2 + 0.5*X  =>  normal proportional to (-0.5, 0, 1)
        pts = np.array([(x, y, 2.0 + 0.5 * x) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)])
        center = np.array([0.0, 0.0, 2.0])
        n = fit_plane(pts, center)
        np.testing.assert_allclose(n, [-INV_SQRT5, 0.0, 2 * INV_SQRT5], atol=1e-12)
        assert plane_residual(n, pts, center) < 1e-24

    def test_noisy_set_beats_random_unit_vectors(self, rng):
        pts = rng.normal(size=(9, 3)) * np.array([1.0, 1.0, 0.15])
        center = pts[4]
        n = fit_plane(pts, center)
        res = plane_residual(n, pts, center)
        v = rng.normal(size=(10000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        rand = np.sum(((pts - center) @ v.T) ** 2, axis=0)
        assert res <= rand.min() + 1e-12

    def test_matches_eigh_direction(self, rng):
        for _ in range(100):
            pts = rng.normal(size=(9, 3))
            center = pts[4]
            n = fit_plane(pts, center)
            d = pts - center
            _, vecs = np.linalg.eigh(d.T @ d)
            assert abs(float(vecs[:, 0] @ n)) == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points(self):
        pts = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)]
        with pytest.raises(DegenerateNeighborhoodError):
            fit_plane(pts, (0.0, 0.0, 1.0))

    def test_non_finite_points_are_dropped(self):
        pts = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (float("nan"),) * 3, (0.0, 1.0, 1.0)]
        n = fit_plane(pts, (0.0, 0.0, 1.0))
        np.testing.assert_allclose(n, [0.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("center", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0)])
    def test_non_finite_center_rejected(self, center):
        pts = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError):
                fit_plane(pts, center)

    def test_collinear_points_degenerate(self):
        pts = np.array([(t, 2.0 * t, 1.0 + t) for t in np.linspace(-1, 1, 7)])
        with pytest.raises(DegenerateNeighborhoodError):
            fit_plane(pts, pts[3])


def _symmetric_batch(rng, kind, n=4000):
    """``n`` symmetric 3x3 matrices ``(n, 3, 3)`` of one kind."""
    if kind == "scatter":  # what the plane fit builds: sums of outer products
        a = rng.normal(size=(n, 3, 9)) * 10.0 ** rng.uniform(-4, 4, (n, 1, 1))
        return a @ a.transpose(0, 2, 1)
    if kind in ("rank1", "rank2"):  # collinear and coplanar neighborhoods
        a = rng.normal(size=(n, 3, 1 if kind == "rank1" else 2))
        return a @ a.transpose(0, 2, 1)
    if kind == "indefinite":
        b = rng.normal(size=(n, 3, 3))
        return b + b.transpose(0, 2, 1)
    if kind == "integer":  # exact ties among the cross products
        a = rng.integers(-2, 3, size=(n, 3, 3)).astype(np.float64)
        return a @ a.transpose(0, 2, 1)
    if kind == "isotropic":
        return rng.uniform(0.0, 3.0, (n, 1, 1)) * np.eye(3)
    if kind == "axis":  # diagonal, with the smallest entry on any axis
        diag = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
        return diag[:, :, None] * np.eye(3)
    if kind == "non_finite":  # invalid window centres feed NaN and infinity
        s = _symmetric_batch(rng, "scatter", n)
        s[::3, 0, 1] = s[::3, 1, 0] = np.nan
        s[1::3, 2, 2] = np.inf
        return s
    raise ValueError(kind)


class TestEigenpair:
    @pytest.mark.parametrize(
        "kind", ["scatter", "rank1", "rank2", "indefinite", "integer", "isotropic", "axis",
                 "non_finite"])
    def test_byte_equal_to_stacked_reference(self, rng, kind):
        s = _symmetric_batch(rng, kind).reshape(40, 100, 3, 3)
        entries = (s[..., 0, 0], s[..., 1, 1], s[..., 2, 2], s[..., 0, 1], s[..., 0, 2], s[..., 1, 2])
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            lams, v = geometry._smallest_eigenpair_sym3(*entries)
            v = np.stack(v, axis=-1)
            ref_lams, ref_v = stacked_eigenpair_sym3(*entries, sign_tol=geometry._SIGN_TOL)
        assert v.shape == ref_v.shape == (40, 100, 3)
        for got, want in zip(lams + (v,), ref_lams + (ref_v,)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestBasis:
    def test_fronto_parallel_reduces_to_image_axes(self):
        x, y = basis_from_normal(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(x, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(y, [0.0, 1.0, 0.0], atol=1e-15)

    def test_slanted_plane_basis(self):
        n = np.array([-INV_SQRT5, 0.0, 2 * INV_SQRT5])
        x, y = basis_from_normal(n)
        np.testing.assert_allclose(x, [2 * INV_SQRT5, 0.0, INV_SQRT5], atol=1e-12)
        np.testing.assert_allclose(y, [0.0, 1.0, 0.0], atol=1e-12)
        # orthonormality, numerically
        for a, b in ((x, x), (y, y)):
            assert float(a @ b) == pytest.approx(1.0, abs=1e-12)
        for a, b in ((x, y), (x, n), (y, n)):
            assert float(a @ b) == pytest.approx(0.0, abs=1e-12)

    def test_right_handedness_for_random_normals(self, rng):
        for _ in range(300):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            if n[1] * n[1] >= 1 - 1e-5:
                continue
            x, y = basis_from_normal(n)
            np.testing.assert_allclose(np.cross(n, x), y, atol=1e-6)
            assert abs(x[1]) == 0.0

    def test_degenerate_normal_raises(self):
        with pytest.raises(DegenerateBasisError):
            basis_from_normal(np.array([0.0, 1.0, 0.0]))
        eps = 1e-4
        n = np.array([eps, np.sqrt(1 - eps * eps), 0.0])
        with pytest.raises(DegenerateBasisError):
            basis_from_normal(n)

    def test_fallback_frame_is_valid(self):
        for sign in (1.0, -1.0):
            n = np.array([0.0, sign, 0.0])
            x, y, fallback = _plane_basis(*n)
            assert fallback
            np.testing.assert_array_equal(x, [1.0, 0.0, 0.0])
            np.testing.assert_array_equal(y, [0.0, 0.0, -sign])
            np.testing.assert_allclose(np.cross(n, x), y, atol=1e-15)


def _grid_taps(*args):
    """``_plane_grid``'s tap coordinates ``(X, Y, Z)``, broadcast and
    flattened to ``(N*N,)`` with taps row-major."""
    return [t.reshape(-1) for t in np.broadcast_arrays(*_plane_grid(*args))]


def _grid_steps(spec, K):
    """Grid steps ``(ku, kv)`` read off ``_plane_grid`` taps laid out with
    image-aligned axes on the optical axis (exact: steps times 1.0)."""
    tx, ty, _ = _grid_taps(
        0.0, 0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), spec, K
    )
    c = spec.center
    return tx[c * spec.size + c + 1], ty[(c + 1) * spec.size + c]


class TestScaleFactors:
    def test_direct_formula(self):
        K = CameraIntrinsics(100.0, 100.0, 0.0, 0.0)
        assert _grid_steps(KernelSpec(3), K) == (0.01, 0.01)

    def test_dilated_nyu_focal(self):
        K = CameraIntrinsics(519.0, 519.0, 0.0, 0.0)
        ku, kv = _grid_steps(KernelSpec(3, dilation=2), K)
        assert ku == pytest.approx(2.0 / 519.0, rel=1e-15)
        assert kv == pytest.approx(2.0 / 519.0, rel=1e-15)

    def test_invalid_depth(self, rng):
        # a pixel without a positive, finite center depth has no plane
        # through its center and falls back to zero offsets
        K = nyu_like_intrinsics(9, 9)
        for z in (0.0, -1.0, np.nan, np.inf):
            depth = smooth_depth(rng, 9, 9)
            depth[4, 4] = z
            field, summary = compute_offsets(DepthMap(depth), K, KernelSpec.same(3), 9, 9)
            assert summary.degenerate_pixels == 1
            assert np.count_nonzero(field.data[:, 4, 4]) == 0


class TestGrid3D:
    def test_single_tap_equals_origin(self):
        x, y, _ = _plane_basis(0.0, 0.0, 1.0)
        K = CameraIntrinsics(100.0, 100.0, 0.0, 0.0)
        tx, ty, tz = _grid_taps(0.3, -0.2, x, y, KernelSpec(1), K)
        assert np.shape(tx) == (1,)
        np.testing.assert_allclose([tx[0], ty[0], tz[0]], [0.3, -0.2, 1.0])

    def test_fronto_parallel_projects_to_dilated_grid(self):
        K = CameraIntrinsics(128.0, 128.0, 31.5, 23.5)
        u0, v0 = 20.0, 14.0
        ray = back_project(u0, v0, 1.0, K)
        x, y, _ = _plane_basis(0.0, 0.0, 1.0)
        spec = KernelSpec(3, dilation=2)
        taps = np.stack(_grid_taps(*ray[:2], x, y, spec, K), axis=-1).reshape(3, 3, 3)
        for i in range(3):
            for j in range(3):
                u, v = project(taps[i, j], K)
                assert u == pytest.approx(u0 + 2 * (j - 1), abs=1e-9)
                assert v == pytest.approx(v0 + 2 * (i - 1), abs=1e-9)

    def test_center_tap_and_planarity(self, rng):
        K = CameraIntrinsics(200.0, 220.0, 0.0, 0.0)
        spec = KernelSpec(5, dilation=2)
        for _ in range(50):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            if n[1] * n[1] >= 1 - 1e-4:
                continue
            origin = np.array(rng.uniform(-1, 1, size=2).tolist() + [1.0])
            x, y, _ = _plane_basis(*n)
            taps = np.stack(_grid_taps(*origin[:2], x, y, spec, K), axis=-1).reshape(5, 5, 3)
            np.testing.assert_allclose(taps[2, 2], origin, atol=1e-15)
            rel = taps - origin
            np.testing.assert_allclose(rel @ n, 0.0, atol=1e-6)

    @pytest.mark.parametrize("size", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_byte_equal_to_stacked_reference(self, rng, size, dilation):
        # the component basis, the broadcast grid and its projection keep the
        # bytes of the stacked basis and the full-size (taps, ...) grid
        n = rng.normal(size=(600, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        # normals in and just outside the fallback zone n2^2 >= 1 - 1e-6
        n[:200:2, [0, 2]] = rng.uniform(-1.5e-3, 1.5e-3, (100, 2))
        n[:200:2, 1] = np.sqrt(1.0 - n[:200:2, 0] ** 2 - n[:200:2, 2] ** 2)
        n[:200:4, 1] *= -1.0
        n[200:204] = [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        for k, bad in enumerate((np.nan, np.inf, -np.inf)):
            n[210 + k :: 30, k] = bad
            n[220 + k :: 45, (k + 1) % 3] = bad
        ru, rv = rng.normal(size=(2, 20, 30))
        normal = n.reshape(20, 30, 3)
        K = CameraIntrinsics(519.0, 522.5, 319.5, 239.5)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x, y, fallback = _plane_basis(*np.moveaxis(normal, -1, 0))
            ref_x, ref_y, ref_fallback = stacked_plane_basis(normal)
            assert fallback.any() and fallback.tobytes() == ref_fallback.tobytes()
            for got, want in zip(x + y, tuple(ref_x) + tuple(ref_y)):
                assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()

            taps = _plane_grid(ru, rv, x, y, KernelSpec(size, dilation), K)
            ref = full_plane_grid(ru, rv, np.ones((20, 30)), ref_x, ref_y, size, dilation,
                                  K.fu, K.fv)
            assert [t.shape for t in taps] == [(size, size, 20, 30), (size, 1, 20, 30),
                                               (size, size, 20, 30)]
            for got, want in zip(taps, ref):
                assert np.broadcast_to(got, (size, size, 20, 30)).tobytes() == want.tobytes()
            proj = _project(*taps, K)
            ref_proj = (K.fu * ref[0] / ref[2] + K.cu, K.fv * ref[1] / ref[2] + K.cv)
            for got, want in zip(proj, ref_proj):
                assert got.shape == (size, size, 20, 30)
                assert got.tobytes() == want.tobytes()


class TestComputeOffsets:
    @pytest.mark.parametrize("size", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_fronto_parallel_is_zero(self, size, dilation):
        K = CameraIntrinsics(83.0, 131.0, 7.2, 11.9)  # arbitrary intrinsics
        depth = DepthMap(np.full((20, 26), 1.7, np.float32))
        spec = KernelSpec.same(size, dilation=dilation)
        field, summary = compute_offsets(depth, K, spec, 20, 26)
        assert np.abs(field.data).max() < 1e-5
        assert summary.total_pixels == 20 * 26

    def test_matches_scalar_reference(self, rng):
        depth = smooth_depth(rng, 18, 22)
        K = nyu_like_intrinsics(18, 22, f=180.0)
        for spec in (KernelSpec.same(3), KernelSpec(3, dilation=2, stride=2, padding=0), KernelSpec(5, stride=1, padding=4, dilation=2)):
            oh, ow = spec.output_shape(18, 22)
            field, summary = compute_offsets(DepthMap(depth), K, spec, oh, ow)
            assert summary.degenerate_pixels == 0
            ref = ref_offsets_eigh(
                depth.astype(np.float64), K.fu, K.fv, K.cu, K.cv,
                spec.size, spec.dilation, spec.stride, spec.padding,
            )
            np.testing.assert_allclose(field.data, ref, atol=1e-5)

    def test_depth_scale_invariance(self, rng):
        K = nyu_like_intrinsics(16, 20, f=110.0)
        spec = KernelSpec.same(3)
        for _ in range(10):
            depth = smooth_depth(rng, 16, 20)
            base, _ = compute_offsets(DepthMap(depth), K, spec, 16, 20)
            for s in (0.1, 3.7, 10.0):
                scaled, _ = compute_offsets(DepthMap(depth * np.float32(s)), K, spec, 16, 20)
                np.testing.assert_allclose(scaled.data, base.data, atol=1e-5)

    @pytest.mark.parametrize("kind", ["corridor", "ramp"])
    def test_power_of_two_depth_scale_is_exact(self, kind):
        # every stage is homogeneous in depth and a power of two rounds
        # nothing, so scaling the depth by 2**k leaves every offset bit
        depth, K = noisy_scene_depth(kind, 120, 160, seed=5)
        for spec in (KernelSpec.same(3), KernelSpec.same(5, 2), KernelSpec(3, 1, 2, 0)):
            shape = spec.output_shape(120, 160)
            base, base_summary = compute_offsets(depth, K, spec, *shape)
            for k in (-6, -1, 1, 3, 10):
                scaled = DepthMap(depth.data * np.float32(2.0**k))
                field, summary = compute_offsets(scaled, K, spec, *shape)
                assert field.data.tobytes() == base.data.tobytes(), (spec, k)
                assert summary == base_summary

    def test_fixed_normal_gives_same_bits_at_any_center_depth(self, rng, monkeypatch):
        # the grid is built at unit depth from the center pixel's ray, so
        # with the plane normal held fixed the center depth cannot show
        n = np.array([0.3, -0.4, 0.8]) / np.linalg.norm([0.3, -0.4, 0.8])

        def tilted(*sums):  # the six scatter sums, each of the tile's pixel shape
            return tuple(np.full(sums[0].shape, c) for c in n), np.zeros(sums[0].shape, bool)

        monkeypatch.setattr(geometry, "_plane_normals", tilted)
        K = nyu_like_intrinsics(24, 32)
        spec = KernelSpec.same(5, 2)
        pattern = 1.0 + 0.01 * rng.standard_normal((24, 32))
        fields = []
        for z0 in (0.37, 1.0, 1.7, 5.3, 41.0):
            field, summary = compute_offsets(
                DepthMap((z0 * pattern).astype(np.float32)), K, spec, 24, 32)
            assert summary == geometry.OffsetSummary(24 * 32, 0, 0)
            fields.append(field.data)
        assert np.abs(fields[0]).max() > 0.1
        for z0, field in zip((1.0, 1.7, 5.3, 41.0), fields[1:]):
            assert field.tobytes() == fields[0].tobytes(), z0

    def test_bit_identical_across_runs_and_workers(self, rng, monkeypatch):
        depth_arr = smooth_depth(rng, 30, 40)
        depth_arr[rng.random((30, 40)) < 0.05] = 0.0  # holes give nonzero counts
        depth = DepthMap(depth_arr)
        K = nyu_like_intrinsics(30, 40)
        spec = KernelSpec.same(3)
        row_bytes = spec.tap_count * 40 * 8  # one float64 (taps, 1, out_w) row
        monkeypatch.setattr(geometry, "_TILE_BYTES", 30 * row_bytes)  # one tile
        a, sa = compute_offsets(depth, K, spec, 30, 40)
        b, sb = compute_offsets(depth, K, spec, 30, 40)
        assert np.array_equal(a.data, b.data) and sa == sb
        assert sa.degenerate_pixels > 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the worker threads often
        try:
            # 1 and 3 rows divide the 30 rows; 7 leaves an uneven 2-row last tile
            for rows in (1, 3, 7):
                monkeypatch.setattr(geometry, "_TILE_BYTES", rows * row_bytes)
                for workers in (1, 2, 3, 8):  # 8 exceeds the 5 tiles of 7 rows
                    c, sc = compute_offsets(depth, K, spec, 30, 40, workers=workers)
                    assert a.data.tobytes() == c.data.tobytes()
                    assert sa == sc
        finally:
            sys.setswitchinterval(interval)

    def test_calling_thread_computes_a_share_of_the_tiles(self, rng, monkeypatch):
        depth = DepthMap(smooth_depth(rng, 30, 40))
        K = nyu_like_intrinsics(30, 40)
        spec = KernelSpec.same(3)
        monkeypatch.setattr(geometry, "_TILE_BYTES", 3 * spec.tap_count * 40 * 8)  # 10 tiles
        threads = []
        block = geometry._offset_block

        def recording_block(*args):
            threads.append(threading.get_ident())
            return block(*args)

        monkeypatch.setattr(geometry, "_offset_block", recording_block)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        for workers in (1, 2, 3):
            threads.clear()
            started.clear()
            compute_offsets(depth, K, spec, 30, 40, workers=workers)
            assert len(threads) == 10
            assert threading.get_ident() in threads
            assert len(set(threads)) <= workers
            assert len(started) <= workers - 1  # one worker starts no thread

    @pytest.mark.parametrize("workers", [0, -3, "2", 2.9])
    def test_invalid_worker_count_rejected(self, rng, workers):
        depth = DepthMap(smooth_depth(rng, 16, 16))
        K = nyu_like_intrinsics(16, 16)
        with pytest.raises(ConfigError, match="workers"):
            compute_offsets(depth, K, KernelSpec.same(3), 16, 16, workers=workers)

    def test_tile_peak_memory_is_a_few_tile_arrays(self, rng):
        h, w = 22, 640  # one 1 MiB tile of a 3x3 field at 640 columns
        depth = DepthMap(smooth_depth(rng, h, w))
        K = nyu_like_intrinsics(h, w)
        spec = KernelSpec.same(3)
        assert geometry._row_tiles(h, spec.tap_count * w * 8) == [(0, h)]
        depth64 = depth.data.astype(np.float64)
        valid = depth.valid_mask()
        out = np.empty((spec.offset_channels, h, w), np.float32)
        tracemalloc.start()
        try:
            geometry._offset_block(depth64, valid, K, spec, (0, h), out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 (taps, rows, out_w) array is 0.97 MiB; the tile keeps
        # about five of them alive at its peak, and held eight before it freed
        # the points ahead of the eigen solve and projected in place
        assert peak < 7 * spec.tap_count * h * w * 8

    def test_peak_memory_is_bounded_by_tiles(self, rng):
        h, w = 480, 640
        depth = DepthMap(smooth_depth(rng, h, w))
        K = nyu_like_intrinsics(h, w)
        tracemalloc.start()
        try:
            compute_offsets(depth, K, KernelSpec.same(3), h, w, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float32 result, which the OffsetField adopts without a copy, is
        # 21 MiB; the rest is the float64 depth and the two workers' tiles
        # (about 34 MiB in all).  Whole-image float64 temporaries would take
        # over 300 MiB.
        assert peak < 48 * 2**20

    def test_shape_mismatch_rejected(self, rng):
        depth = DepthMap(smooth_depth(rng, 16, 16))
        K = nyu_like_intrinsics(16, 16)
        with pytest.raises(ConfigError):
            compute_offsets(depth, K, KernelSpec.same(3), 15, 16)
        with pytest.raises(ConfigError):
            compute_offsets(depth, K, KernelSpec(3, padding=0), 16, 16)

    def test_all_invalid_depth_gives_zero_field(self):
        depth = DepthMap(np.full((8, 8), np.nan, np.float32))
        K = nyu_like_intrinsics(8, 8)
        field, summary = compute_offsets(depth, K, KernelSpec.same(3), 8, 8)
        assert np.count_nonzero(field.data) == 0
        assert summary.degenerate_pixels == 64

    def test_invalid_center_pixel_falls_back_to_zero(self, rng):
        depth = smooth_depth(rng, 12, 12)
        depth[5, 6] = -1.0  # invalid marker
        K = nyu_like_intrinsics(12, 12)
        field, summary = compute_offsets(DepthMap(depth), K, KernelSpec.same(3), 12, 12)
        assert summary.degenerate_pixels == 1
        assert np.count_nonzero(field.data[:, 5, 6]) == 0
        # neighbors still get offsets from the valid part of their windows
        assert np.count_nonzero(field.data[:, 5, 5]) > 0

    # (depth, fu, cu, dilation) -> (invalid center, few neighbors, collinear,
    # behind camera) on a 9x9 map; the first cause that holds wins
    @pytest.mark.parametrize("case, counts", [
        # one hole in a smooth map
        ("hole", (1, 0, 0, 0)),
        # two valid pixels side by side: each has one valid neighbor, and every
        # other pixel, whose window holds fewer than 3 too, has no center depth
        ("pair", (79, 2, 0, 0)),
        # one valid corner pixel: its window, clamped onto the image, reads it
        # four times, so it has 3 neighbors at its own position
        ("corner", (80, 0, 1, 0)),
        # a side wall at x = -1 under a 2-pixel focal length and a dilated
        # window: every grid reaches behind the camera, and one hole wins over it
        ("wall", (1, 0, 0, 80)),
    ])
    def test_fallback_causes(self, rng, case, counts):
        depth = np.full((9, 9), np.nan, np.float32)
        K, spec = CameraIntrinsics(519.0, 519.0, 4.0, 4.0), KernelSpec.same(3)
        if case == "hole":
            depth = smooth_depth(rng, 9, 9)
            depth[4, 4] = 0.0
        elif case == "pair":
            depth[4, 4:6] = 2.0
        elif case == "corner":
            depth[0, 0] = 2.0
        else:
            K, spec = CameraIntrinsics(2.0, 2.0, 10.0, 4.0), KernelSpec.same(3, dilation=3)
            depth[:] = 2.0 / (10.0 - np.arange(9.0))
            depth[2, 3] = 0.0
        field, summary = compute_offsets(DepthMap(depth), K, spec, 9, 9)
        got = (summary.invalid_center_pixels, summary.few_neighbors_pixels,
               summary.collinear_pixels, summary.behind_camera_pixels)
        assert got == counts
        assert summary.degenerate_pixels == sum(counts)
        # every degenerate pixel has a zero field, and the others do not here
        zero = ~field.data.any(axis=0)
        assert np.count_nonzero(zero) == sum(counts)

    @pytest.mark.parametrize("values, collinear", [
        # a constant row is a line in space: every window is collinear,
        # although the solve leaves its lam_mid above _RANK_TOL * lam_max
        (np.full(9, 2.0), 9),
        # the points of any one image row lie in a plane through the camera
        # centre, so a ramp row is fitted exactly and edge-on, not collinear
        (2.0 + 0.1 * np.arange(9.0), 0),
    ])
    def test_one_valid_row(self, values, collinear):
        depth = np.full((9, 9), np.nan, np.float32)
        depth[6] = values  # off the principal point's row
        K = CameraIntrinsics(519.0, 519.0, 4.0, 4.0)
        field, summary = compute_offsets(DepthMap(depth), K, KernelSpec.same(5), 9, 9)
        assert summary.invalid_center_pixels == 72
        assert summary.collinear_pixels == collinear
        assert summary.degenerate_pixels == 72 + collinear
        if collinear:
            assert not field.data[:, 6].any()
        else:  # the edge-on plane pulls each tap row, up to 2 px off, onto row 6
            tap_rows = np.repeat(np.arange(5) - 2, 5)[:, None]
            np.testing.assert_allclose(field.data[0::2, 6] + tap_rows, 0.0, atol=1e-6)

    def test_fallback_causes_add_up_for_any_tiles_and_workers(self, rng, monkeypatch):
        # the side wall of test_fallback_causes beside a fronto-parallel one,
        # with a fifth of the pixels holes
        h, w = 30, 40
        u = np.arange(w, dtype=np.float64)
        depth = np.broadcast_to(np.where(u < 20, 2.0 / (45.0 - u), 0.1), (h, w)).copy()
        depth[rng.random((h, w)) < 0.2] = 0.0
        depth = DepthMap(depth.astype(np.float32))
        K = CameraIntrinsics(2.0, 2.0, 45.0, 15.0)
        spec = KernelSpec.same(3, dilation=3)
        row_bytes = spec.tap_count * w * 8
        summaries = []
        for rows in (1, 7, h):
            monkeypatch.setattr(geometry, "_TILE_BYTES", rows * row_bytes)
            for workers in (1, 2, 3):
                summaries.append(compute_offsets(depth, K, spec, h, w, workers=workers)[1])
        s = summaries[0]
        causes = (s.invalid_center_pixels, s.few_neighbors_pixels, s.collinear_pixels,
                  s.behind_camera_pixels)
        assert sum(causes) == s.degenerate_pixels
        assert all(c > 0 for c in causes[:2] + causes[3:]), causes
        assert all(other == s for other in summaries[1:])

    def test_near_vertical_plane_uses_fallback_basis(self):
        # floor-like surface: Y = (v - cv) * Z / fv constant => normal ~ (0,1,0)
        fv = 10.0
        cv = -0.5
        v = np.arange(12, dtype=np.float64)[:, None]
        depth = ((10.0 / (v - cv)) * np.ones((12, 16))).astype(np.float32)
        K = CameraIntrinsics(10.0, fv, 7.5, cv)
        field, summary = compute_offsets(DepthMap(depth), K, KernelSpec.same(3), 12, 16)
        assert summary.basis_fallback_pixels > 0
        assert np.all(np.isfinite(field.data))
        ref = ref_offsets_eigh(depth.astype(np.float64), K.fu, K.fv, K.cu, K.cv, 3, 1, 1, 1)
        np.testing.assert_allclose(field.data, ref, atol=1e-5)

    @pytest.mark.parametrize("size", [3, 5])
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_exact_plane_reproduction(self, rng, size, dilation):
        """Adapted taps of any exact plane land on the plane's own grid.

        Each scene is a random plane ``n . P = d`` (``n2^2 < 0.9``) rendered
        as float32 depth by ray-plane intersection.  At every pixel whose
        window lies inside the image, tap ``(i, j)`` at ``regular grid +
        offset`` must match the projection of
        ``P0 + ku*(j-c)*x + kv*(i-c)*y``, with ``P0``, ``ku = dilation*z0/fu``
        and ``kv`` from the float32 center depth ``z0`` and ``x, y`` from the
        true normal.

        Grazing planes: the grid's depth is ``z0 * (1 + (j-c)*dilation/fu*x3
        + (i-c)*dilation/fv*y3)``, the same multiple of ``z0`` at every
        pixel, so a plane's grids reach behind the camera everywhere or
        nowhere.  A further 40 planes per case are seen with ``fu = fv = 2``,
        where a tap step is ``dilation*z0/2`` and steep walls put taps behind
        the camera.  Every pixel of such a plane must fall back: zero offsets,
        counted as degenerate.  Planes whose reference grid depth comes within
        ``1e-3*z0`` of zero are skipped, since float32 rounding of the normal
        may put them on either side.

        Tolerance, to first order in float32 depth rounding, doubled to
        cover higher-order terms:
          * rounding moves a point along its ray by a relative F32_UNIT,
            i.e. off the plane by at most F32_UNIT*|d|, so each of the m
            neighbors is off by at most 2*F32_UNIT*|d| relative to P0;
          * the least-squares normal then tilts by at most
            g = 2*F32_UNIT*|d|*sqrt(m) / sigma, sigma the smallest singular
            value of the neighbors' in-plane coordinates;
          * the axes turn by at most g*(1 + 1/sqrt(1 - n2^2)), which moves
            tap (i, j) by (ku*|j-c| + kv*|i-c|) times that;
          * projection scales a 3D error at T by at most
            max(fu, fv)/Tz * sqrt(1 + (Tx^2 + Ty^2)/Tz^2);
          * the float32 offset adds |offset|*F32_UNIT, and float64
            evaluation noise stays below 1e-9 px.
        """
        spec = KernelSpec.same(size, dilation=dilation)
        h, w = 20, 26
        c = spec.center
        ii, jj = np.divmod(np.arange(spec.tap_count), size)
        di, dj = dilation * (ii - c), dilation * (jj - c)
        r = dilation * c
        v0, u0 = (a.ravel() for a in np.mgrid[r : h - r, r : w - r])
        behind_planes = 0
        for focal in [None] * 60 + [2.0] * 40:
            n, d, K, depth = _random_plane_scene(rng, h, w, focal)
            field, summary = compute_offsets(DepthMap(depth), K, spec, h, w)

            s = math.sqrt(1.0 - n[1] ** 2)
            x_axis = np.array([n[2], 0.0, -n[0]]) / s
            y_axis = np.cross(n, x_axis)
            z0 = depth[v0, u0].astype(np.float64)[:, None]
            ku = dilation * z0 / K.fu
            kv = dilation * z0 / K.fv
            p0 = np.stack([(u0 - K.cu) * z0[:, 0] / K.fu, (v0 - K.cv) * z0[:, 0] / K.fv, z0[:, 0]], -1)
            taps = (
                p0[:, None, :]
                + (ku * (jj - c))[..., None] * x_axis
                + (kv * (ii - c))[..., None] * y_axis
            )  # (pixels, taps, 3)
            nearest = np.min(taps[..., 2] / z0)
            if abs(nearest) < 1e-3:
                continue
            if nearest < 0.0:
                behind_planes += 1
                assert summary.degenerate_pixels == h * w, f"plane {n}"
                assert not field.data.any(), f"plane {n}"
                continue
            ref_u = K.fu * taps[..., 0] / taps[..., 2] + K.cu
            ref_v = K.fv * taps[..., 1] / taps[..., 2] + K.cv
            got_v = v0[:, None] + di + field.data[0::2, v0, u0].T.astype(np.float64)
            got_u = u0[:, None] + dj + field.data[1::2, v0, u0].T.astype(np.float64)

            # exact neighbors (float64) for the in-plane conditioning sigma
            rays = np.stack(
                [
                    (u0[:, None] + dj - K.cu) / K.fu,
                    (v0[:, None] + di - K.cv) / K.fv,
                    np.ones((len(v0), spec.tap_count)),
                ],
                -1,
            )
            pts = (d / (rays @ n))[..., None] * rays
            rel = pts - pts[:, c * size + c][:, None]
            t = np.stack([rel @ x_axis, rel @ y_axis], -1)
            sigma = np.sqrt(np.linalg.eigvalsh(np.einsum("pti,ptj->pij", t, t))[:, 0])
            g = 2 * F32_UNIT * abs(d) * math.sqrt(spec.tap_count - 1) / sigma
            shift = (ku * np.abs(jj - c) + kv * np.abs(ii - c)) * (1 + 1 / s) * g[:, None]
            gain = max(K.fu, K.fv) / taps[..., 2] * np.sqrt(
                1 + (taps[..., 0] ** 2 + taps[..., 1] ** 2) / taps[..., 2] ** 2
            )
            offset = np.maximum(np.abs(ref_u - u0[:, None] - dj), np.abs(ref_v - v0[:, None] - di))
            tol = 2 * gain * shift + offset * F32_UNIT + 1e-9
            err = np.maximum(np.abs(got_u - ref_u), np.abs(got_v - ref_v))
            assert np.all(err <= tol), f"worst err/tol {np.max(err / tol):.3g} for plane {n}"
        # at fu = fv = 2 the nearest tap is at z0 * (1 - dilation*c/2 * (|x3| + |y3|)), and
        # |x3| + |y3| <= sqrt(1 + n2^2) < 1.4, so only dilation*c >= 2 reaches behind the camera
        assert (behind_planes > 0) == (dilation * c >= 2)

    def test_tap_order_on_exact_corridor_is_pinned(self):
        # Both side walls have n3 = 0, so the sign tie-break gives both the
        # normal (1, 0, 0), and the in-plane x axis follows that sign: the
        # left wall's middle tap row comes out mirrored, the right wall's
        # does not. This pins today's convention; changing it must be deliberate.
        scene = generate_scene("corridor", 48, 64, seed=0)
        spec = KernelSpec.same(3)
        field, _ = compute_offsets(scene.depth, scene.intrinsics, spec, 48, 64)
        _, tu = spec.tap_positions(range(48), range(64))
        u = tu + field.data[1::2]  # sampled column of every tap
        mirrored = u[5] < u[3]  # tap (i, j) is 3 * i + j: tap (1, 2) lands left of (1, 0)
        counts = {name: (int(mirrored[scene.labels == k].sum()), int((scene.labels == k).sum()))
                  for k, name in enumerate(("back", "left", "right"))}
        assert counts == {"back": (0, 1248), "left": (864, 912), "right": (0, 912)}

    @pytest.mark.parametrize("size", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("padding", ["same", 0, 1])
    def test_stride_two_is_every_second_pixel_of_stride_one(self, size, dilation, padding):
        depth, K = noisy_scene_depth("corridor", 120, 160, seed=3)

        def spec(stride):
            if padding == "same":
                return KernelSpec.same(size, dilation, stride)
            return KernelSpec(size, dilation, stride, padding)

        f1, _ = compute_offsets(depth, K, spec(1), *spec(1).output_shape(120, 160))
        f2, _ = compute_offsets(depth, K, spec(2), *spec(2).output_shape(120, 160))
        strided = f1.data[:, ::2, ::2]
        assert f2.data.shape == strided.shape
        assert f2.data.tobytes() == strided.tobytes()

    def test_kernel_spec_validation(self):
        with pytest.raises(ConfigError):
            KernelSpec(2)
        with pytest.raises(ConfigError):
            KernelSpec(3, dilation=0)
        with pytest.raises(ConfigError):
            KernelSpec(3, stride=0)
        with pytest.raises(ConfigError):
            KernelSpec(3, padding=-1)
        with pytest.raises(ConfigError):
            KernelSpec(9, padding=0).output_shape(4, 4)
        for args in ((3.0,), (3, 1.5), (3, 1, 2.0), (3, 1, 1, 0.5), ("3",)):
            with pytest.raises(ConfigError, match="must be an integer"):
                KernelSpec(*args)
        assert KernelSpec(*np.array([3, 2, 1, 0])).span() == 5  # numpy integers are integers


def _random_plane_scene(rng, h, w, focal=None):
    """Random plane ``n . P = d`` in front of a random camera, with its
    float32 depth rendered by ray-plane intersection in float64.

    With ``focal``, the camera has ``fu = fv = focal`` and a principal point
    drawn anew with each plane, within one image size of the image, so that
    steep planes can fill a wide field of view."""
    K = CameraIntrinsics(
        *rng.uniform(25.0, 120.0, size=2), *rng.uniform([0.3 * w, 0.3 * h], [0.7 * w, 0.7 * h])
    )
    v, u = np.mgrid[0:h, 0:w].astype(np.float64)
    while True:
        if focal is not None:
            K = CameraIntrinsics(focal, focal, *rng.uniform([-w, -h], [2 * w, 2 * h]))
        n = rng.normal(size=3)
        n /= math.sqrt(n @ n)
        if n[2] < 0:
            n = -n
        if n[1] ** 2 >= 0.9 or n[2] < 0.1:
            continue
        d = n[2] * rng.uniform(0.5, 5.0)  # the plane meets the optical axis at depth d/n3
        denom = n[0] * (u - K.cu) / K.fu + n[1] * (v - K.cv) / K.fv + n[2]
        # keep the whole plane in front of the camera and its depth range moderate
        if denom.min() > 0 and denom.max() / denom.min() <= 20:
            return n, d, K, (d / denom).astype(np.float32)
