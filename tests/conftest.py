import numpy as np
import pytest

from zacn import CameraIntrinsics, ConvWeights, DepthMap, FeatureTensor, OffsetField
from zacn.harness import generate_scene


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_feature(rng, c, h, w, scale=1.0):
    return FeatureTensor((scale * rng.standard_normal((c, h, w))).astype(np.float32))


def rand_weights(rng, co, ci, n, scale=1.0):
    return ConvWeights((scale * rng.standard_normal((co, ci, n, n))).astype(np.float32))


def rand_offsets(rng, n, h, w, scale=1.5, lattice_margin=None):
    """Random offset field; with lattice_margin, fractional parts of the
    sampled positions stay at least that far from integer lattice lines."""
    off = rng.uniform(-scale, scale, size=(2 * n * n, h, w))
    if lattice_margin is not None:
        frac = off - np.floor(off)
        frac = np.clip(frac, lattice_margin, 1.0 - lattice_margin)
        off = np.floor(off) + frac
    return OffsetField(off.astype(np.float32))


def smooth_depth(rng, h, w, base=(1.0, 3.0), tilt=0.004, wobble=0.05):
    """Random smooth positive depth: affine plane plus gentle sinusoids.

    Smoothness keeps per-pixel plane fits well conditioned, which is what
    the offset generator is meant to consume (real depth is piecewise
    smooth, not white noise).
    """
    u = np.arange(w, dtype=np.float64)[None, :]
    v = np.arange(h, dtype=np.float64)[:, None]
    z = rng.uniform(*base) + rng.uniform(-tilt, tilt) * u + rng.uniform(-tilt, tilt) * v
    for _ in range(2):
        lam = rng.uniform(8.0, 24.0)
        phase = rng.uniform(0, 2 * np.pi)
        direction = rng.uniform(0, 2 * np.pi)
        z = z + wobble * np.sin(2 * np.pi * (np.cos(direction) * u + np.sin(direction) * v) / lam + phase)
    return np.maximum(z, 0.25).astype(np.float32)


def nyu_like_intrinsics(h, w, f=519.0):
    return CameraIntrinsics(fu=f, fv=f, cu=(w - 1) / 2, cv=(h - 1) / 2)


def noisy_scene_depth(kind, h, w, seed, noise=0.01, holes=0.05):
    """A synthetic scene's exact depth with multiplicative Gaussian noise of
    relative size ``noise`` and a fraction ``holes`` of invalid (zero)
    pixels, plus the scene's intrinsics."""
    scene = generate_scene(kind, h, w, seed=0)  # the depth does not depend on the seed
    rng = np.random.default_rng(seed)
    depth = scene.depth.data * (1.0 + noise * rng.standard_normal((h, w)))
    depth[rng.random((h, w)) < holes] = 0.0
    return DepthMap(depth.astype(np.float32)), scene.intrinsics
