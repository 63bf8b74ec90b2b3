"""Synthetic RGB-D scenes and a tiny trainable network.

The scenes are axis-aligned planes (corridor walls, floor, back wall)
with analytically exact depth.  Surface textures are sinusoid stripes
painted in world coordinates plus iid noise; every surface draws from
the same distribution family (same amplitude, same noise, random phase),
and the class identity is carried only by the stripe period along the
surface, in meters.  Under projection the apparent period mixes with
depth, so a fixed 2D sampling grid sees overlapping appearance across
classes; sampling that follows the 3D plane separates them.  That makes
the label recoverable through geometry rather than photometry alone.

The toy model is two layers: a 3x3 convolution (standard grid or
depth-adapted), a ReLU, and a 1x1 convolution into per-pixel class
logits trained with softmax cross-entropy and plain full-batch gradient
descent.  Both operator choices of the 3x3 layer run through the adapted
kernels (the standard one with an all-zero offset field, which is
exactly the standard convolution), so parameter counts match by
construction.  The 1x1 head runs ``ops._conv_gemm``, the adapted
convolution's matmul, for the float32 logits and ``dhidden`` and the
float64 ``dw2``, so it is the adapted 1x1 convolution on a zero field.
Offsets never change, so training gathers each scene's layer-1 samples
once and never forms the layer-1 input gradient, which nothing reads.
Each step writes its float64 hidden activations into a buffer of the run,
freed with the epochs before ``evaluate``; its float32 logits and
``dhidden`` are fresh, and their containers adopt them without a copy.

The experiment has one fixed setup: a 3x3 first layer with "same"
padding, trained on two 48x64 corridor scenes per seed and evaluated on
one held-out scene of the same kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingError
from .geometry import (CameraIntrinsics, KernelSpec, _back_project, _check_int, _check_real,
                       compute_offsets)
from .ops import ConvWeights, _conv_gemm, gather_samples, za_conv_backward, za_conv_forward
from .tensor import DepthMap, FeatureTensor, OffsetField, _Owned

__all__ = [
    "SyntheticScene",
    "TrainConfig",
    "TrainResult",
    "generate_scene",
    "train_toy",
    "evaluate",
    "segmentation_metrics",
    "paired_toy_runs",
]

SCENE_KINDS = ("ramp", "corridor")
OPERATORS = ("adapted", "standard")  # the paired comparison, in the order it runs

# Corridor layout: the back wall occupies the central band of the image,
# side walls recede toward it.  Stripe frequencies are set in units of
# cycles per dilated sampling step: the back wall's fixed frequency lies
# inside the band the left wall sweeps over its depth range, so a fixed
# 2D grid cannot tell them apart by frequency alone, while the right
# wall's band stays disjoint.  Sampling grids that follow the receding
# walls collapse sideways onto near-duplicate positions (correlated
# noise), which separates walls from the fronto-parallel back wall.
_BACK_DELTA = 0.30
_LEFT_DELTA = 0.45
_RIGHT_DELTA = 0.12
_NOISE_SIGMA = 0.1
_BACK_FRACTION = 0.2  # halfwidth of the back wall as a fraction of image width
# The toy model's first layer.  It is fixed: the experiment compares the
# standard and the adapted sampling grid, not kernel shapes.
_SPEC = KernelSpec.same(3)


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    """A rendered planar scene with exact depth and per-pixel labels."""

    depth: DepthMap
    features: FeatureTensor
    labels: np.ndarray = field(repr=False)
    intrinsics: CameraIntrinsics
    description: dict

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.depth.height, self.depth.width):
            raise ConfigError("label grid does not match depth dimensions")
        labels = np.ascontiguousarray(labels)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class TrainConfig:
    """The toy experiment's hyperparameters and their only defaults; fully seeded."""

    learning_rate: float = 0.5
    epochs: int = 150
    seed: int = 0
    operator: str = "adapted"  # one of OPERATORS
    hidden: int = 24
    assumed_focal: float | None = None  # override scene intrinsics for offsets

    def __post_init__(self):
        if self.operator not in OPERATORS:
            raise ConfigError(f"unknown operator {self.operator!r}")
        _check_real("learning rate", self.learning_rate, 0)
        if self.assumed_focal is not None:
            _check_real("assumed focal", self.assumed_focal, 0, strict=True)
        _check_int("epochs", self.epochs, 1)
        _check_int("seed", self.seed, 0)
        _check_int("hidden size", self.hidden, 1)


@dataclass(frozen=True)
class TrainResult:
    weights: tuple[ConvWeights, ConvWeights]
    losses: list[float]
    miou: float
    pixel_acc: float

    @property
    def param_count(self) -> int:
        return sum(w.param_count for w in self.weights)


def generate_scene(kind: str, h: int, w: int, seed: int, focal: float = 519.0) -> SyntheticScene:
    """Render a planar scene with exact depth, stripes, and labels.

    ``corridor``: left/right walls receding to a fronto-parallel back
    wall (3 classes, depths symmetric about the vertical centerline).
    ``ramp``: a floor receding to a back wall (2 classes).
    """
    if kind not in SCENE_KINDS:
        raise ConfigError(f"unknown scene kind {kind!r}, expected one of {SCENE_KINDS}")
    if h < 16 or w < 16:
        raise ConfigError(f"scene dims must be >= 16, got {h}x{w}")
    _check_int("scene seed", seed, 0)
    rng = np.random.default_rng(seed)
    K = CameraIntrinsics(fu=focal, fv=focal, cu=(w - 1) / 2, cv=(h - 1) / 2)
    u, v = np.arange(w, dtype=np.float64)[None, :], np.arange(h, dtype=np.float64)[:, None]
    zb = 4.0

    if kind == "corridor":
        half = _BACK_FRACTION * w * zb / focal  # corridor halfwidth in meters
        du = u - K.cu
        with np.errstate(divide="ignore"):
            z_wall = np.where(np.abs(du) > 0, half * focal / np.abs(du), np.inf)
        z_wall = np.broadcast_to(z_wall, (h, w))
        depth = np.minimum(zb, z_wall)
        labels = np.where(z_wall <= zb, np.where(du < 0, 1, 2), 0).astype(np.int64)
        planes = [
            {"label": 0, "name": "back", "normal": (0.0, 0.0, 1.0), "offset": zb,
             "period": zb / (focal * _BACK_DELTA), "axis": (0.0, 1.0, 0.0)},
            {"label": 1, "name": "left", "normal": (1.0, 0.0, 0.0), "offset": -half,
             "period": zb / (focal * _LEFT_DELTA), "axis": (0.0, 1.0, 0.0)},
            {"label": 2, "name": "right", "normal": (1.0, 0.0, 0.0), "offset": half,
             "period": zb / (focal * _RIGHT_DELTA), "axis": (0.0, 1.0, 0.0)},
        ]
    else:  # ramp
        drop = 0.35 * h * zb / focal  # floor height below the optical axis
        dv = v - K.cv
        with np.errstate(divide="ignore"):
            z_floor = np.where(dv > 0, drop * focal / np.maximum(dv, 1e-12), np.inf)
        z_floor = np.broadcast_to(z_floor, (h, w))
        depth = np.minimum(zb, z_floor)
        labels = np.where(z_floor <= zb, 1, 0).astype(np.int64)
        planes = [
            {"label": 0, "name": "back", "normal": (0.0, 0.0, 1.0), "offset": zb,
             "period": zb / (focal * _BACK_DELTA), "axis": (1.0, 0.0, 0.0)},
            {"label": 1, "name": "floor", "normal": (0.0, 1.0, 0.0), "offset": drop,
             "period": zb / (focal * _LEFT_DELTA), "axis": (1.0, 0.0, 0.0)},
        ]

    # True back-projection of every pixel (the scene generator knows the
    # real intrinsics; the offset generator may later assume other ones).
    points = np.stack(_back_project(u, v, depth, K), axis=-1)

    period_map = np.zeros((h, w))
    phase_map = np.zeros((h, w))
    axis_map = np.zeros((h, w, 3))
    for plane in planes:
        mask = labels == plane["label"]
        phase = float(rng.uniform(0.0, 1.0))
        plane["phase"] = phase
        period_map[mask] = plane["period"]
        phase_map[mask] = phase
        axis_map[mask] = plane["axis"]

    coord = np.einsum("hwk,hwk->hw", points, axis_map)
    t = 2.0 * np.pi * (coord / period_map + phase_map)
    feats = np.stack(
        [
            np.sin(t) + _NOISE_SIGMA * rng.standard_normal((h, w)),
            np.cos(t) + _NOISE_SIGMA * rng.standard_normal((h, w)),
            rng.standard_normal((h, w)),
        ]
    ).astype(np.float32)

    description = {
        "kind": kind,
        "seed": seed,
        "focal": focal,
        "noise_sigma": _NOISE_SIGMA,
        "planes": planes,
    }
    return SyntheticScene(
        depth=DepthMap(depth.astype(np.float32)),
        features=FeatureTensor(feats),
        labels=labels,
        intrinsics=K,
        description=description,
    )


def segmentation_metrics(pred: np.ndarray, labels: np.ndarray, num_classes: int):
    """(mIoU, pixel accuracy) over an integer label grid.

    mIoU averages intersection-over-union across the classes that appear
    in either the prediction or the reference.
    """
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    pixel_acc = float(np.mean(pred == labels))
    ious = []
    for k in range(num_classes):
        inter = np.count_nonzero((pred == k) & (labels == k))
        union = np.count_nonzero((pred == k) | (labels == k))
        if union > 0:
            ious.append(inter / union)
    miou = float(np.mean(ious)) if ious else 0.0
    return miou, pixel_acc


def _scene_offsets(scene: SyntheticScene, cfg: TrainConfig) -> OffsetField:
    h, w = scene.depth.height, scene.depth.width
    if cfg.operator == "standard":
        return OffsetField.zeros(_SPEC.size, h, w)
    K = scene.intrinsics
    if cfg.assumed_focal is not None:
        K = CameraIntrinsics(cfg.assumed_focal, cfg.assumed_focal, K.cu, K.cv)
    field, _ = compute_offsets(scene.depth, K, _SPEC, h, w)
    return field


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """float64 ``(num_classes, H, W)`` indicator of ``labels``."""
    return (np.arange(num_classes)[:, None, None] == labels[None]).astype(np.float64)


def _softmax_cross_entropy(logits: np.ndarray, onehot: np.ndarray):
    """Mean cross-entropy of float32 ``logits`` against one-hot labels, and its
    gradient w.r.t. the logits: rounded to float32, returned as float64."""
    p = logits.astype(np.float64)
    p -= p.max(axis=0)
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    npix = onehot[0].size
    loss = float(-(np.log(p + 1e-12) * onehot).sum() / npix)
    p -= onehot
    p /= npix
    np.copyto(p, p.astype(np.float32))
    return loss, p


def _head(w2: ConvWeights) -> np.ndarray:
    """The 1x1 head's float64 (classes, hidden) matrix."""
    return w2.data[:, :, 0, 0].astype(np.float64)


def _forward(x, w1, head, offsets, samples=None, buf=None):
    """Layer-1 activity mask, float64 hidden activations (in the flat ``buf``
    if given), and logits."""
    pre = za_conv_forward(x, w1, offsets, _SPEC, samples=samples)[0].data
    hidden = (np.empty(pre.size) if buf is None else buf[:pre.size]).reshape(pre.shape)
    np.maximum(pre, 0.0, out=hidden)  # a float32 maximum, widened exactly
    return pre > 0, hidden, FeatureTensor(_Owned(_conv_gemm(hidden, w2=head)[0]))


def train_toy(scenes, cfg: TrainConfig, eval_scenes) -> TrainResult:
    """Train the two-layer toy segmenter with full-batch gradient descent.

    The metrics are :func:`evaluate` on ``eval_scenes``; pass the training
    scenes again to score the fit.  Runs are bit-reproducible for a
    fixed config.  Raises :class:`ConfigError` for an empty list of training
    or evaluation scenes, and :class:`TrainingError` naming the epoch if an
    activation, a gradient or a weight goes non-finite.
    """
    scenes, eval_scenes = list(scenes), list(eval_scenes)
    if not scenes:
        raise ConfigError("need at least one training scene")
    if not eval_scenes:
        raise ConfigError("need at least one evaluation scene")
    num_classes = max(s.num_classes for s in scenes)
    c_in = scenes[0].features.channels
    k = _SPEC.size
    rng = np.random.default_rng(cfg.seed)

    w1 = ConvWeights(
        (rng.standard_normal((cfg.hidden, c_in, k, k))
         * np.sqrt(2.0 / (c_in * k * k))).astype(np.float32)
    )
    w2 = ConvWeights(
        (rng.standard_normal((num_classes, cfg.hidden, 1, 1))
         * np.sqrt(2.0 / cfg.hidden)).astype(np.float32)
    )

    w1, w2, losses = _descend(scenes, w1, w2, num_classes, cfg)
    miou, acc = evaluate(eval_scenes, (w1, w2), cfg)
    return TrainResult(weights=(w1, w2), losses=losses, miou=miou, pixel_acc=acc)


def _descend(scenes, w1, w2, num_classes, cfg: TrainConfig):
    """The weights after ``cfg.epochs`` steps from ``(w1, w2)``, and the losses."""
    # Offsets are fixed, so each scene's layer-1 samples and one-hot labels
    # are the same in every epoch: build them once.
    prepared = []
    for s in scenes:
        offsets = _scene_offsets(s, cfg)
        samples = gather_samples(s.features, offsets, _SPEC)
        prepared.append((s.features, offsets, samples, _one_hot(s.labels, num_classes)))
    # Each step's float64 hidden activations.  No container adopts them.
    hid = np.empty(cfg.hidden * max(s.labels.size for s in scenes))
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        # Shapes are fixed by construction, so a ConfigError here is a container's
        # finiteness check: an activation, a gradient or a weight went non-finite.
        try:
            total_loss = 0.0
            gw1, gw2 = np.zeros(w1.data.shape), np.zeros(w2.data.shape)
            head = _head(w2)
            for x, offsets, samples, onehot in prepared:
                active, hidden, logits = _forward(x, w1, head, offsets, samples, hid)
                loss, g = _softmax_cross_entropy(logits.data, onehot)
                total_loss += loss
                gw2 += _conv_gemm(hidden, g=g)[1].astype(np.float32)[:, :, None, None]
                dhidden = _conv_gemm(g, w2=head.T)[0]
                np.multiply(dhidden, active, out=dhidden)
                _, dw1 = za_conv_backward(x, w1, offsets, _SPEC, FeatureTensor(_Owned(dhidden)),
                                          samples=samples, need_grad_x=False)
                gw1 += dw1.data
            w1 = ConvWeights((w1.data - cfg.learning_rate * gw1 / len(prepared)).astype(np.float32))
            w2 = ConvWeights((w2.data - cfg.learning_rate * gw2 / len(prepared)).astype(np.float32))
        except ConfigError as exc:
            raise TrainingError(f"training diverged at epoch {epoch}: {exc}", epoch=epoch) from exc
        losses.append(total_loss / len(prepared))
    return w1, w2, losses


def evaluate(scenes, weights, cfg: TrainConfig):
    """Mean (mIoU, pixel accuracy) of a trained model over scenes."""
    scenes = list(scenes)
    if not scenes:
        raise ConfigError("need at least one evaluation scene")
    w1, w2 = weights
    head = _head(w2)
    mious = []
    accs = []
    for scene in scenes:
        _, _, logits = _forward(scene.features, w1, head, _scene_offsets(scene, cfg))
        pred = np.argmax(logits.data, axis=0)
        miou, acc = segmentation_metrics(pred, scene.labels, w2.out_channels)
        mious.append(miou)
        accs.append(acc)
    return float(np.mean(mious)), float(np.mean(accs))


def paired_toy_runs(seeds, operators=OPERATORS, **settings) -> list[dict]:
    """Paired experiment rows: every operator sees identical scenes per seed.

    Each seed gets two 48x64 corridor training scenes plus one held-out
    corridor scene; returns one dict per (seed, operator) suitable for
    CSV/JSON.  ``settings`` are further :class:`TrainConfig` fields, and
    its defaults apply to the rest; ``assumed_focal`` moves only the
    adapted operator, whose offsets are the only ones that read it.
    """
    rows = []
    for seed in seeds:
        # the configs first, so a bad seed is reported as given
        cfgs = [TrainConfig(seed=seed, operator=op, **settings) for op in operators]
        train = [generate_scene("corridor", 48, 64, seed=1000 + 10 * seed + i) for i in range(2)]
        evals = [generate_scene("corridor", 48, 64, seed=9000 + seed)]
        for cfg in cfgs:
            result = train_toy(train, cfg, evals)
            rows.append({"seed": seed, "operator": cfg.operator, "epochs": cfg.epochs,
                         "final_loss": result.losses[-1], "miou": result.miou,
                         "pixel_acc": result.pixel_acc, "param_count": result.param_count})
    return rows
