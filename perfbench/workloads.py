"""The three workloads: seeded inputs, one timed item, and its output check.

Each workload class splits one item into the parts that run in different
places: ``make_inputs`` (parent process, before any timing), ``load``
(measured process, untimed), ``run`` (measured process, timed),
``save`` (measured process, untimed) and ``check`` (parent process, after
the measured process has exited, so the reference code adds nothing to
its peak RSS).  Only ``run`` calls into the package under test.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracles

SPEC = (3, 1, 1, 1)  # size, dilation, stride, padding: 3x3 "same"
DEPTH_NOISE = 1e-3  # relative sigma of the light depth noise
HOLES = 6  # rectangles of invalid (zero) depth per frame


def noisy_depth(zacn, kind, h, w, seed, focal):
    """A synthetic planar scene's depth with noise and holes, plus intrinsics."""
    scene = zacn.harness.generate_scene(kind, h, w, seed=int(seed), focal=focal)
    rng = np.random.default_rng([int(seed), 7])
    z = scene.depth.data.astype(np.float64)
    z = z * (1.0 + DEPTH_NOISE * rng.standard_normal(z.shape))
    for _ in range(HOLES):
        hh, hw = rng.integers(2, h // 8), rng.integers(2, w // 8)
        r, c = rng.integers(0, h - hh), rng.integers(0, w - hw)
        z[r:r + hh, c:c + hw] = 0.0
    K = scene.intrinsics
    return z.astype(np.float32), [K.fu, K.fv, K.cu, K.cv]


def sample_pixels(seed, item, h, w, count):
    rng = np.random.default_rng([seed, item, 11])
    return list(zip(rng.integers(0, h, count).tolist(), rng.integers(0, w, count).tolist()))


class Workload:
    SETUP_SAMPLES = 3  # fresh interpreters whose set-up time is taken

    def __init__(self, seed, inputs_dir):
        self.seed = seed
        self.dir = inputs_dir


class OffsetsCli(Workload):
    """``zacn offsets`` on a 480x640 PFM, in process, default worker count."""

    H, W = 480, 640
    FOCAL = 519.0
    FRAMES = 8
    PIXELS = 64

    def make_inputs(self, zacn):
        rng = np.random.default_rng([self.seed, 1])
        intrinsics = []
        for k in range(self.FRAMES):
            kind = ("corridor", "ramp")[k % 2]
            depth, K = noisy_depth(zacn, kind, self.H, self.W, rng.integers(2**31), self.FOCAL)
            oracles.write_pfm(depth, self._frame(k))
            intrinsics.append(K)
        with open(os.path.join(self.dir, "intrinsics.json"), "w") as f:
            json.dump(intrinsics, f)

    def _frame(self, k):
        return os.path.join(self.dir, f"frame{k % self.FRAMES}.pfm")

    def load(self, item):
        with open(os.path.join(self.dir, "intrinsics.json")) as f:
            fu, fv, cu, cv = json.load(f)[item % self.FRAMES]
        return ["offsets", "--depth", self._frame(item), "--fu", repr(fu), "--fv", repr(fv),
                "--cu", repr(cu), "--cv", repr(cv), "--kernel", str(SPEC[0])]

    def run(self, zacn, argv, out):
        return zacn.cli.main(argv + ["--out", out + ".zacn"])

    def save(self, result, out):
        with open(out + ".rc", "w") as f:
            f.write(str(result))

    def check(self, item, out):
        with open(out + ".rc") as f:
            if f.read() != "0":
                return ["zacn offsets exited with a nonzero code"]
        field = oracles.read_container(out + ".zacn")
        n2 = SPEC[0] * SPEC[0]
        if field.shape != (2 * n2, self.H, self.W):
            return [f"offset container has shape {field.shape}"]
        if not np.all(np.isfinite(field)):
            return ["offset container holds non-finite values"]
        with open(out + ".zacn.json") as f:
            summary = json.load(f)
        failures = []
        if summary.get("total_pixels") != self.H * self.W:
            failures.append(f"summary total_pixels {summary.get('total_pixels')} != H*W")
        with open(os.path.join(self.dir, "intrinsics.json")) as f:
            K = json.load(f)[item % self.FRAMES]
        depth = oracles.read_pfm(self._frame(item))
        pixels = sample_pixels(self.seed, item, self.H, self.W, self.PIXELS)
        failures += oracles.check_offsets(depth, K, SPEC, field, pixels)[0]
        return failures

    def working_set_bytes(self):
        # depth f32, offsets f32 out, and the float64 (taps, H, W) window
        # arrays of depth and both back-projected coordinates
        hw = self.H * self.W
        n2 = SPEC[0] * SPEC[0]
        return hw * (4 + 2 * n2 * 4 + 3 * n2 * 8)


class Infer(Workload):
    """Offsets, adapted 3x3 conv (16 -> 16), ReLU and adapted 3x3 average
    pool on one 160x120 frame; conv and pool share the offsets."""

    H, W = 120, 160
    FOCAL = 519.0 / 4  # stride 4 of a VGA camera
    CHANNELS = 16
    FRAMES = 32
    PIXELS = 24

    def make_inputs(self, zacn):
        rng = np.random.default_rng([self.seed, 2])
        c = self.CHANNELS
        n = SPEC[0]
        weights = rng.standard_normal((c, c, n, n)) * math.sqrt(2.0 / (c * n * n))
        np.save(os.path.join(self.dir, "weights.npy"), weights.astype(np.float32))
        for k in range(self.FRAMES):
            kind = ("corridor", "ramp")[k % 2]
            depth, K = noisy_depth(zacn, kind, self.H, self.W, rng.integers(2**31), self.FOCAL)
            x = rng.standard_normal((c, self.H, self.W)).astype(np.float32)
            np.savez(self._frame(k), depth=depth, x=x, K=np.array(K))

    def _frame(self, k):
        return os.path.join(self.dir, f"frame{k % self.FRAMES}.npz")

    def load(self, item):
        with np.load(self._frame(item)) as f:
            frame = {k: f[k] for k in f.files}
        frame["w"] = np.load(os.path.join(self.dir, "weights.npy"))
        return frame

    def run(self, zacn, frame, out):
        geometry, ops, tensor = zacn.geometry, zacn.ops, zacn.tensor
        spec = geometry.KernelSpec(*SPEC)
        K = geometry.CameraIntrinsics(*frame["K"].tolist())
        field, _ = geometry.compute_offsets(tensor.DepthMap(frame["depth"]), K, spec, self.H, self.W)
        y, _ = ops.za_conv_forward(tensor.FeatureTensor(frame["x"]), ops.ConvWeights(frame["w"]),
                                   field, spec)
        hidden = tensor.FeatureTensor(np.maximum(y.data, 0.0))
        pooled, _ = ops.za_avg_pool(hidden, field, spec)
        return field.data, y.data, pooled.data

    def save(self, result, out):
        field, y, pooled = result
        np.savez(out + ".npz", offsets=field, conv=y, pool=pooled)

    def check(self, item, out):
        with np.load(out + ".npz") as f:
            field, y, pooled = f["offsets"], f["conv"], f["pool"]
        frame = self.load(item)
        c, n2 = self.CHANNELS, SPEC[0] * SPEC[0]
        shapes = {"offsets": (field.shape, (2 * n2, self.H, self.W)),
                  "conv": (y.shape, (c, self.H, self.W)), "pool": (pooled.shape, (c, self.H, self.W))}
        bad = [f"{k} has shape {got}" for k, (got, want) in shapes.items() if got != want]
        if bad:
            return bad
        if not all(np.all(np.isfinite(a)) for a in (field, y, pooled)):
            return ["outputs hold non-finite values"]
        pixels = sample_pixels(self.seed, item, self.H, self.W, self.PIXELS)
        failures = oracles.check_offsets(frame["depth"], frame["K"].tolist(), SPEC, field, pixels)[0]
        failures += oracles.check_conv(frame["x"], frame["w"], field, SPEC, y, pixels)
        failures += oracles.check_pool(np.maximum(y, 0.0), field, SPEC, pooled, pixels)
        return failures

    def working_set_bytes(self):
        # x f32, offsets f32, float64 positions (u, v) of every tap, one
        # float64 gathered tap and the float64 accumulator, f32 outputs
        hw = self.H * self.W
        c, n2 = self.CHANNELS, SPEC[0] * SPEC[0]
        return hw * (c * 4 + 2 * n2 * 4 + 2 * n2 * 8 + 2 * c * 8 + 2 * c * 4)


class ToyTrain(Workload):
    """One ``paired_toy_runs([0], ("adapted", "standard"))``: the defaults of
    ``zacn toytrain`` (corridor, 48x64, 150 epochs).  The toy seed is fixed
    so that every run trains the same models and mIoU stays comparable."""

    TOY_SEEDS = [0]
    OPERATORS = ("adapted", "standard")
    H, W, C_IN, HIDDEN, CLASSES, SCENES = 48, 64, 3, 24, 3, 3
    # an item takes 15-22 s on 2 CPUs, so two set-up samples keep a run
    # near a minute
    SETUP_SAMPLES = 2

    def make_inputs(self, zacn):
        pass

    def load(self, item):
        return list(self.TOY_SEEDS)

    def run(self, zacn, seeds, out):
        return zacn.harness.paired_toy_runs(seeds, self.OPERATORS)

    def save(self, rows, out):
        with open(out + ".json", "w") as f:
            json.dump(rows, f)

    def rows(self, out):
        with open(out + ".json") as f:
            return json.load(f)

    def check(self, item, out):
        n = SPEC[0]
        params = self.HIDDEN * self.C_IN * n * n + self.CLASSES * self.HIDDEN
        return oracles.check_toy_rows(self.rows(out), params, math.log(self.CLASSES))

    def working_set_bytes(self):
        # per scene: features, offsets, hidden activations (f32), the float64
        # tap positions and the float64 (ci, taps, H, W) samples of backward
        hw = self.H * self.W
        n2 = SPEC[0] * SPEC[0]
        per_scene = hw * (self.C_IN * 4 + 2 * n2 * 4 + 2 * self.HIDDEN * 4
                          + 2 * n2 * 8 + 2 * self.C_IN * n2 * 8)
        return self.SCENES * per_scene


WORKLOADS = {"offsets_cli": OffsetsCli, "infer_160x120": Infer, "toy_train": ToyTrain}
