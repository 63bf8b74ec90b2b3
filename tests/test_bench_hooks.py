"""The benchmark's trace hooks still find their targets in the package.

``perfbench/tracing.py`` wraps package functions by (module, attribute)
name and reads their arguments and results; a renamed function or a
changed return type would only show up as a missing or failing benchmark
metric, and a call inlined out of a hooked function as a metric that reads
0.  Each traced test runs one workload's calls and checks that the layers
that workload calls read above 0.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from zacn import cli, geometry, harness, ops, tensor
from zacn.io import write_depth

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked_modules(tracing):
    return {mod: importlib.import_module(mod) for mod, *_ in tracing.HOOKS}


def test_every_hook_target_exists(tracing):
    modules = _hooked_modules(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, *_ in tracing.HOOKS if not hasattr(modules[mod], attr)]
    assert missing == []


def _installed_tracer(tracing, monkeypatch):
    modules = _hooked_modules(tracing)
    for mod, attr, *_ in tracing.HOOKS:  # monkeypatch restores the originals afterwards
        monkeypatch.setattr(modules[mod], attr, getattr(modules[mod], attr))
    tracer = tracing.Tracer()
    assert tracer.install(modules) == []
    tracer.item = 0
    return tracer


def test_traced_toy_run_records_spans_and_counts(tracing, monkeypatch):
    tracer = _installed_tracer(tracing, monkeypatch)
    rows = harness.paired_toy_runs([0], epochs=2)  # a count function that raises fails here
    assert [r["epochs"] for r in rows] == [2, 2]

    names = {s["name"] for s in tracer.spans}
    assert {"ops.za_conv_forward", "ops.za_conv_backward", "tensor.gather"} <= names
    for s in tracer.spans:
        if s["name"] == "ops.za_conv_forward":
            assert s["macs"] > 0 and s["samples"] > 0 and 0.0 <= s["oob"] <= 1.0
        elif s["name"] == "tensor.gather":
            assert s["samples"] > 0
    metrics = tracing.layer_metrics(tracer.spans, [], 1)
    for name in ("tensor.gather_ms", "tensor.scatter_ms", "ops.za_conv_forward_ms",
                 "ops.za_conv_backward_ms", "ops.macs", "harness.train_self_ms",
                 "harness.epochs_per_s"):
        assert metrics[name] > 0, name


def test_traced_offsets_run_records_spans_and_counts(tracing, monkeypatch, tmp_path):
    # 120x160 makes two row tiles of the offset field, so both workers compute
    scene = harness.generate_scene("corridor", 120, 160, seed=0)
    write_depth(scene.depth, tmp_path / "d.pfm")
    monkeypatch.setenv("ZACN_THREADS", "2")
    tracer = _installed_tracer(tracing, monkeypatch)
    rc = cli.main(["offsets", "--depth", str(tmp_path / "d.pfm"), "--fu", "519", "--fv", "519",
                   "--out", str(tmp_path / "o.zacn")])
    assert rc == 0

    names = {s["name"] for s in tracer.spans}
    assert {"cli.cmd_offsets", "geometry.compute_offsets", "io.read_depth", "io.write_offsets"} <= names
    metrics = tracing.layer_metrics(tracer.spans, [], 1)
    for name in ("cli.offsets_self_ms", "geometry.compute_offsets_ms", "io.write_offsets_ms",
                 "io.bytes_written"):
        assert metrics[name] > 0, name


def test_traced_infer_run_records_spans_and_counts(tracing, monkeypatch):
    # the inference workload's calls, through the module attributes it uses:
    # offsets, adapted conv, ReLU and adapted pooling on one 120x160 frame
    scene = harness.generate_scene("ramp", 120, 160, seed=0, focal=519.0 / 4)
    rng = np.random.default_rng(0)
    x = tensor.FeatureTensor(rng.standard_normal((16, 120, 160)).astype(np.float32))
    w = ops.ConvWeights(0.1 * rng.standard_normal((16, 16, 3, 3)).astype(np.float32))
    tracer = _installed_tracer(tracing, monkeypatch)
    spec = geometry.KernelSpec.same(3)
    field, _ = geometry.compute_offsets(scene.depth, scene.intrinsics, spec, 120, 160)
    y, _ = ops.za_conv_forward(x, w, field, spec)
    ops.za_avg_pool(tensor.FeatureTensor(np.maximum(y.data, 0.0)), field, spec)

    names = {s["name"] for s in tracer.spans}
    assert {"geometry.compute_offsets", "ops.za_conv_forward", "ops.za_avg_pool",
            "tensor.gather", "tensor.scatter"} <= names
    metrics = tracing.layer_metrics(tracer.spans, [], 1)
    for name in ("tensor.scatter_ms", "tensor.gather_ms", "ops.za_conv_forward_ms",
                 "ops.za_avg_pool_ms", "geometry.compute_offsets_ms", "ops.macs"):
        assert metrics[name] > 0, name
    assert 0.0 < metrics["ops.oob_sample_fraction"] < 1.0
