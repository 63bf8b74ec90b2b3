import tracemalloc

import numpy as np
import pytest

from zacn import (
    ConfigError,
    ConvWeights,
    FeatureTensor,
    KernelSpec,
    OffsetField,
    TrainingError,
    compute_offsets,
    conv_param_count,
    za_conv_backward,
    za_conv_forward,
)
from zacn import geometry, harness
from zacn.harness import (TrainConfig, generate_scene, paired_toy_runs, segmentation_metrics,
                          train_toy)

from oracles import scene_plane_residuals


class TestGenerateScene:
    def test_corridor_symmetric_about_centerline(self):
        s = generate_scene("corridor", 32, 48, seed=5)
        d = s.depth.data
        np.testing.assert_allclose(d, d[:, ::-1], atol=1e-6)
        # left and right walls mirror onto each other
        assert np.array_equal(s.labels[:, ::-1] == 1, s.labels == 2)

    @pytest.mark.parametrize("kind", ["ramp", "corridor"])
    def test_plane_residuals_tiny(self, kind):
        s = generate_scene(kind, 32, 40, seed=11)
        res = scene_plane_residuals(s)
        assert np.nanmax(res) <= 1e-4
        assert np.all(s.depth.data > 0)

    def test_textures_share_marginals(self):
        # same amplitude sinusoid + same noise on every surface: per-class
        # means and variances of the stripe channel agree closely
        s = generate_scene("corridor", 64, 96, seed=2)
        stats = []
        for k in range(3):
            vals = s.features.data[0][s.labels == k]
            stats.append((abs(float(vals.mean())), float(vals.std())))
        for mean, std in stats:
            assert mean < 0.12
            assert 0.6 < std < 0.85

    def test_deterministic(self):
        a = generate_scene("corridor", 24, 32, seed=9)
        b = generate_scene("corridor", 24, 32, seed=9)
        assert np.array_equal(a.features.data, b.features.data)
        assert np.array_equal(a.depth.data, b.depth.data)

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_scene("spiral", 32, 32, seed=0)
        with pytest.raises(ConfigError):
            generate_scene("ramp", 8, 32, seed=0)
        with pytest.raises(ConfigError, match="scene seed must be >= 0, got -10"):
            generate_scene("corridor", 32, 32, seed=-10)
        with pytest.raises(ConfigError, match="scene seed must be an integer, got 1.5"):
            generate_scene("corridor", 32, 32, seed=1.5)


class TestMetrics:
    def test_perfect_prediction(self):
        labels = np.array([[0, 1], [2, 1]])
        miou, acc = segmentation_metrics(labels, labels, 3)
        assert miou == 1.0 and acc == 1.0

    def test_hand_computed_confusion(self):
        labels = np.array([[0, 0, 1, 1]])
        pred = np.array([[0, 1, 1, 1]])
        # class 0: inter 1, union 2; class 1: inter 2, union 3
        miou, acc = segmentation_metrics(pred, labels, 2)
        assert miou == pytest.approx((1 / 2 + 2 / 3) / 2)
        assert acc == pytest.approx(0.75)

    def test_absent_class_skipped(self):
        labels = np.zeros((2, 2), dtype=int)
        miou, _ = segmentation_metrics(labels, labels, 5)
        assert miou == 1.0


def _reference_train(scenes, cfg):
    """The toy training loop through the public ops alone: every call
    gathers its own layer-1 samples, layer-1 backward builds the unused
    input gradient, and the 1x1 head is the adapted conv on a zero field."""
    spec, head = KernelSpec.same(3), KernelSpec(1)
    classes = max(s.num_classes for s in scenes)
    c_in, k = scenes[0].features.channels, 3
    rng = np.random.default_rng(cfg.seed)
    w1 = ConvWeights((rng.standard_normal((cfg.hidden, c_in, k, k))
                      * np.sqrt(2.0 / (c_in * k * k))).astype(np.float32))
    w2 = ConvWeights((rng.standard_normal((classes, cfg.hidden, 1, 1))
                      * np.sqrt(2.0 / cfg.hidden)).astype(np.float32))
    fields = []
    for s in scenes:
        h, w = s.depth.height, s.depth.width
        if cfg.operator == "adapted":
            field, _ = compute_offsets(s.depth, s.intrinsics, spec, h, w)
        else:
            field = OffsetField.zeros(k, h, w)
        fields.append((s, field, OffsetField.zeros(1, h, w)))
    losses = []
    for _ in range(cfg.epochs):
        total = 0.0
        gw1, gw2 = np.zeros(w1.data.shape), np.zeros(w2.data.shape)
        for s, field, zero1 in fields:
            pre, _ = za_conv_forward(s.features, w1, field, spec)
            hidden = FeatureTensor(np.maximum(pre.data, 0.0))
            logits, _ = za_conv_forward(hidden, w2, zero1, head)
            z = logits.data.astype(np.float64)
            z = z - z.max(axis=0, keepdims=True)
            ez = np.exp(z)
            p = ez / ez.sum(axis=0, keepdims=True)
            onehot = (np.arange(classes)[:, None, None] == s.labels[None]).astype(np.float64)
            total += float(-(onehot * np.log(p + 1e-12)).sum() / s.labels.size)
            dlogits = FeatureTensor(((p - onehot) / s.labels.size).astype(np.float32))
            dhidden, dw2 = za_conv_backward(hidden, w2, zero1, head, dlogits)
            dpre = FeatureTensor(dhidden.data * (pre.data > 0))
            _, dw1 = za_conv_backward(s.features, w1, field, spec, dpre)
            gw1 += dw1.data
            gw2 += dw2.data
        losses.append(total / len(fields))
        w1 = ConvWeights((w1.data - cfg.learning_rate * gw1 / len(fields)).astype(np.float32))
        w2 = ConvWeights((w2.data - cfg.learning_rate * gw2 / len(fields)).astype(np.float32))
    return losses, w1, w2


class TestTrainToy:
    def _scenes(self):
        train = [generate_scene("corridor", 32, 48, seed=41), generate_scene("corridor", 32, 48, seed=42)]
        evals = [generate_scene("corridor", 32, 48, seed=43)]
        return train, evals

    def test_zero_learning_rate_is_noop(self):
        train, _ = self._scenes()
        cfg = TrainConfig(learning_rate=0.0, epochs=2, seed=1, operator="standard", hidden=4)
        result = train_toy(train, cfg, train)
        assert result.losses[0] == result.losses[1]
        rng = np.random.default_rng(1)
        w1_init = (rng.standard_normal((4, 3, 3, 3)) * np.sqrt(2.0 / 27)).astype(np.float32)
        np.testing.assert_array_equal(result.weights[0].data, w1_init)

    def test_seeded_runs_identical(self):
        train, evals = self._scenes()
        cfg = TrainConfig(epochs=4, seed=7, operator="adapted", hidden=4)
        r1 = train_toy(train, cfg, evals)
        r2 = train_toy(train, cfg, evals)
        assert r1.losses == r2.losses
        assert r1.miou == r2.miou
        assert np.array_equal(r1.weights[0].data, r2.weights[0].data)

    def test_loss_decreases(self):
        train, _ = self._scenes()
        cfg = TrainConfig(epochs=30, seed=0, operator="standard", hidden=8)
        result = train_toy(train, cfg, train)
        assert result.losses[-1] < result.losses[0]

    def test_divergence_names_epoch(self):
        train, _ = self._scenes()
        cfg = TrainConfig(learning_rate=1e9, epochs=20, seed=0, operator="standard", hidden=4)
        with pytest.raises(TrainingError) as exc:
            train_toy(train, cfg, train)
        assert exc.value.epoch is not None
        assert str(exc.value.epoch) in str(exc.value)

    def test_divergence_chains_the_container_error(self):
        train, _ = self._scenes()
        cfg = TrainConfig(learning_rate=1e9, epochs=20, seed=0, operator="standard", hidden=4)
        with pytest.raises(TrainingError, match=r"^training diverged at epoch \d+: ") as exc:
            train_toy(train, cfg, train)
        assert type(exc.value.__cause__) is ConfigError
        assert str(exc.value) == f"training diverged at epoch {exc.value.epoch}: {exc.value.__cause__}"

    def test_param_count_matches_both_operators(self):
        train, evals = self._scenes()
        results = {}
        for op in ("adapted", "standard"):
            cfg = TrainConfig(epochs=1, seed=3, operator=op, hidden=6)
            results[op] = train_toy(train, cfg, evals)
        assert results["adapted"].param_count == results["standard"].param_count
        expected = conv_param_count(3, 6, 3) + conv_param_count(6, 3, 1)
        assert results["adapted"].param_count == expected

    @pytest.mark.parametrize("operator", ["adapted", "standard"])
    def test_matches_reference_loop_bitwise(self, operator):
        train = [generate_scene("corridor", 24, 32, seed=s) for s in (51, 52)]
        cfg = TrainConfig(epochs=10, seed=5, operator=operator, hidden=6)
        result = train_toy(train, cfg, train)
        losses, w1, w2 = _reference_train(train, cfg)
        assert result.losses == losses
        assert result.weights[0].data.tobytes() == w1.data.tobytes()
        assert result.weights[1].data.tobytes() == w2.data.tobytes()

    @pytest.mark.parametrize("operator", ["adapted", "standard"])
    def test_matches_reference_loop_bitwise_over_row_tiles(self, operator):
        # At 176x64 the layer-1 samples and the hidden activations each span
        # three row tiles, so every product of a step walks all three (a walk
        # that drops one fails here).  The float32 rounding of the weight
        # gradients hides the order of their float64 tile sums, which
        # TestRowTiles in test_ops.py checks.
        h, w, c, taps, hidden = 176, 64, 3, 9, 24
        assert len(geometry._row_tiles(h, c * taps * w * 8)) == 3
        assert len(geometry._row_tiles(h, hidden * w * 8)) == 3
        train = [generate_scene("corridor", h, w, seed=s) for s in (61, 62)]
        cfg = TrainConfig(epochs=3, seed=6, operator=operator, hidden=hidden)
        result = train_toy(train, cfg, train)
        losses, w1, w2 = _reference_train(train, cfg)
        assert result.losses == losses
        assert result.weights[0].data.tobytes() == w1.data.tobytes()
        assert result.weights[1].data.tobytes() == w2.data.tobytes()

    @pytest.mark.parametrize("operator", ["adapted", "standard"])
    def test_memory_is_what_the_epochs_hold_and_two_tiles(self, operator):
        # The experiment's 48x64 scenes.  The epochs hold each training scene's
        # float64 samples and one-hot labels and its float32 offset field, and
        # one float64 hidden for all steps, and a step its float32 dhidden; an
        # operator's tile and its plan take the rest.  Evaluating while the
        # last step's arrays were still alive peaked at 6.6 MiB here.
        h, w, c, classes, taps = 48, 64, 3, 3, 9
        train = [generate_scene("corridor", h, w, seed=1000 + i) for i in range(2)]
        evals = [generate_scene("corridor", h, w, seed=9000)]
        cfg = TrainConfig(epochs=3, operator=operator)
        train_toy(train, TrainConfig(epochs=1, operator=operator), evals)  # one-time allocations
        tracemalloc.start()
        try:
            train_toy(train, cfg, evals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scene = (c * taps * 8 + classes * 8 + 2 * taps * 4) * h * w
        held = len(train) * scene + cfg.hidden * h * w * (8 + 4)
        bound = held + 2 * geometry._TILE_BYTES
        assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"

    def test_empty_scene_list_rejected(self):
        with pytest.raises(ConfigError):
            train_toy([], TrainConfig(), [])

    def test_config_validation(self, monkeypatch):
        for lr in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"learning rate must be finite and >= 0, got {lr}"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ConfigError, match="learning rate must be a real number, got '0.5'"):
            TrainConfig(learning_rate="0.5")
        for focal in (-5.0, 0.0, float("nan")):
            with pytest.raises(ConfigError, match=f"assumed focal must be finite and > 0, got {focal}"):
                TrainConfig(assumed_focal=focal)
        with pytest.raises(ConfigError, match="assumed focal must be a real number, got '500'"):
            TrainConfig(assumed_focal="500")
        assert TrainConfig(assumed_focal=500).assumed_focal == 500
        # a bad focal is reported before any scene is generated
        monkeypatch.setattr(harness, "generate_scene", None)
        with pytest.raises(ConfigError, match="assumed focal must be finite and > 0, got -5.0"):
            paired_toy_runs([0], ("adapted",), epochs=1, assumed_focal=-5.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError, match="unknown operator 'zigzag'"):
            TrainConfig(operator="zigzag")
        with pytest.raises(ConfigError, match="hidden size must be >= 1, got 0"):
            TrainConfig(hidden=0)
        with pytest.raises(ConfigError, match="hidden size must be >= 1, got -1"):
            TrainConfig(hidden=-1)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        for field, value in (("epochs", 1.5), ("hidden", 2.5), ("seed", 1.5)):
            with pytest.raises(ConfigError, match=f"must be an integer, got {value}"):
                TrainConfig(**{field: value})
