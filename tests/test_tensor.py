import numpy as np
import pytest

from zacn import (
    ConfigError,
    ConvWeights,
    DepthMap,
    FeatureTensor,
    OffsetField,
    bilinear_sample,
)
from zacn.harness import generate_scene
from zacn.ops import _bilinear_scatter_weights
from zacn.tensor import _Owned

from conftest import rand_feature
from oracles import naive_bilinear


class TestContainers:
    def test_feature_tensor_dims(self, rng):
        t = rand_feature(rng, 3, 4, 5)
        assert (t.channels, t.height, t.width) == (3, 4, 5)
        assert t.data.dtype == np.float32

    def test_feature_tensor_rejects_non_finite(self):
        bad = np.zeros((1, 2, 2), np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ConfigError):
            FeatureTensor(bad)

    def test_feature_tensor_immutable(self, rng):
        t = rand_feature(rng, 1, 2, 2)
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_offset_field_channel_validation(self):
        with pytest.raises(ConfigError):
            OffsetField(np.zeros((7, 3, 3), np.float32))  # 7 != 2*N*N
        with pytest.raises(ConfigError):
            OffsetField(np.zeros((12, 3, 3), np.float32))  # 6 taps is not square
        f = OffsetField(np.zeros((18, 3, 3), np.float32))
        assert f.tap_count == 9
        assert f.kernel_size == 3

    def test_offset_field_owns_its_data(self):
        # a field built from a view must not see later writes through the
        # view's base: the adapted operators cache sampling plans on it
        base = np.zeros((2, 18, 3, 3), np.float32)
        f = OffsetField(base[0])
        base[0, 0, 0, 0] = 5.0
        assert f.data[0, 0, 0] == 0.0
        assert not f.data.flags.writeable

    @pytest.mark.parametrize("make, shape", [
        (FeatureTensor, (2, 3, 3)),
        (OffsetField, (18, 3, 3)),
        (DepthMap, (3, 3)),
        (ConvWeights, (2, 2, 3, 3)),
    ])
    def test_owned_array_is_adopted_and_still_checked(self, make, shape):
        # the package's operators hand over arrays they just made: no copy,
        # but the same read-only flag and the same checks as a copy
        arr = np.ones(shape, np.float32)
        t = make(_Owned(arr))
        assert t.data is arr and not arr.flags.writeable
        bad = np.ones(shape, np.float32)
        bad[(0,) * len(shape)] = np.inf
        bad[(-1,) * len(shape)] = np.nan
        if make is DepthMap:  # kept, and marked invalid
            d = make(_Owned(bad))
            assert d.data is bad and np.count_nonzero(~d.valid_mask()) == 2
        else:
            with pytest.raises(ConfigError, match="non-finite"):
                make(_Owned(bad))
        # the wrong dimension count, an empty dimension, and the class's own
        # rule: 2*N*N offset channels, a square kernel
        own = {OffsetField: (7, 3, 3), ConvWeights: (2, 2, 3, 2)}.get(make, shape + (1,))
        for wrong in (shape[1:], (0,) + shape[1:], own):
            with pytest.raises(ConfigError):
                make(_Owned(np.ones(wrong, np.float32)))

    @pytest.mark.parametrize("make, shape", [
        (FeatureTensor, (2, 3, 3)),
        (OffsetField, (18, 3, 3)),
        (DepthMap, (3, 3)),
        (ConvWeights, (2, 2, 3, 3)),
    ])
    def test_container_copies_caller_array(self, make, shape):
        # the container neither freezes the caller's array nor sees writes
        # through a view of it taken before construction
        a = np.ones(shape, np.float32)
        v = a.view()
        c = make(a)
        v[(0,) * len(shape)] = 5.0
        a[(1,) * len(shape)] = 7.0  # still writable
        np.testing.assert_array_equal(c.data, np.ones(shape, np.float32))
        assert not c.data.flags.writeable

    @pytest.mark.parametrize("make, shape", [
        (FeatureTensor, (2, 3, 3)),
        (OffsetField, (18, 3, 3)),
        (DepthMap, (3, 3)),
        (ConvWeights, (2, 2, 3, 3)),
    ])
    def test_containers_compare_by_identity(self, make, shape):
        a, b = make(np.ones(shape, np.float32)), make(np.ones(shape, np.float32))
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1

    def test_scene_compares_by_identity(self):
        a, b = (generate_scene("corridor", 16, 16, seed=0) for _ in range(2))
        assert a == a and a != b
        assert {a: 1, b: 2}[b] == 2

    def test_depth_map_valid_mask(self):
        d = DepthMap(np.array([[1.0, -1.0], [np.nan, np.inf]], np.float32))
        assert d.valid_mask().tolist() == [[True, False], [False, False]]


class TestBilinearSample:
    def test_integer_positions_exact(self, rng):
        t = rand_feature(rng, 2, 6, 7)
        for c, v, u in ((0, 0, 0), (1, 5, 6), (0, 3, 2)):
            assert bilinear_sample(t, c, float(u), float(v)) == pytest.approx(
                float(t.data[c, v, u]), abs=0
            )

    def test_midpoint_average(self):
        x = FeatureTensor(np.array([[[0.0, 2.0], [4.0, 6.0]]], np.float32))
        assert bilinear_sample(x, 0, 0.5, 0.5) == pytest.approx(3.0, abs=1e-7)

    def test_matches_naive_oracle(self, rng):
        t = rand_feature(rng, 3, 9, 11)
        for _ in range(500):
            c = int(rng.integers(0, 3))
            u = float(rng.uniform(-2.5, 12.5))
            v = float(rng.uniform(-2.5, 10.5))
            assert bilinear_sample(t, c, u, v) == pytest.approx(
                naive_bilinear(t.data, c, u, v), abs=1e-6
            )

    def test_fully_outside_is_zero(self, rng):
        t = rand_feature(rng, 1, 4, 4)
        for u, v in ((-1.0, 2.0), (4.0, 2.0), (2.0, -1.0), (2.0, 4.0), (-7.3, -2.1)):
            assert bilinear_sample(t, 0, u, v) == 0.0

    def test_continuity(self, rng):
        # |f(u+delta) - f(u)| <= 2 * max|x| * delta for small delta
        t = rand_feature(rng, 1, 8, 8)
        bound = 2.0 * float(np.abs(t.data).max())
        delta = 1e-3
        for _ in range(200):
            u = float(rng.uniform(-1.5, 8.5))
            v = float(rng.uniform(-1.5, 8.5))
            df = abs(bilinear_sample(t, 0, u + delta, v) - bilinear_sample(t, 0, u, v))
            assert df <= bound * delta + 1e-9

    def test_channel_out_of_range(self, rng):
        t = rand_feature(rng, 2, 4, 4)
        with pytest.raises(ConfigError):
            bilinear_sample(t, 2, 1.0, 1.0)


def _neighbor_weights(h, w, u, v):
    """The weights that gathers and gradient scatters give the (top-left,
    top-right, bottom-left, bottom-right) neighbors of ``(u, v)``."""
    return _bilinear_scatter_weights(h, w, np.asarray([u]), np.asarray([v]))[1][:, 0]


class TestBilinearGrad:
    def test_grid_node_interior_weights(self):
        np.testing.assert_allclose(_neighbor_weights(5, 5, 2.0, 3.0), [1.0, 0.0, 0.0, 0.0])

    def test_weights_sum_to_one_inside(self, rng):
        for _ in range(200):
            u = float(rng.uniform(0.0, 5.0))
            v = float(rng.uniform(0.0, 5.0))
            weights = _neighbor_weights(6, 6, u, v)
            assert np.all(weights >= 0)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_at_most_one(self, rng):
        for _ in range(200):
            u = float(rng.uniform(-2.0, 7.0))
            v = float(rng.uniform(-2.0, 7.0))
            weights = _neighbor_weights(6, 6, u, v)
            assert np.all(weights >= 0)
            assert weights.sum() <= 1.0 + 1e-12

    def test_fully_outside_all_zero(self):
        np.testing.assert_array_equal(_neighbor_weights(4, 4, -3.0, -3.0), 0.0)
