"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import zacn  # noqa: E402
import zacn.harness  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (1, None), (99, None), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = run.tail_percentile(n)
    assert p == expected
    if p is not None:
        values = list(range(n))
        beyond = sum(1 for v in values if v > run.nearest_rank(values, p))
        assert beyond >= 10


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 500) == 50
    assert run.nearest_rank(values, 900) == 90
    assert run.nearest_rank([7.0], 500) == 7.0


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "item": 0}


def test_self_time_on_nested_and_overlapping_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
        _span("c", 6.0, 8.0, 0),  # overlaps b; the union is counted once
        _span("late", 9.5, 12.0, 0),  # runs past its parent; clipped
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx([10.0 - 3.0 - 3.0 - 0.5, 2.0, 1.0, 2.0, 2.0, 2.5])


def test_layer_metrics_missing_and_not_called():
    spans = [
        {**_span("ops.za_conv_forward", 0.0, 0.5, -1), "macs": 100, "samples": 10, "oob": 0.5},
        {**_span("tensor.gather", 0.1, 0.3, 0), "samples": 40},
    ]
    m = tracing.layer_metrics(spans, ["tensor.scatter"], items=2)
    assert m["ops.za_conv_forward_ms"] == pytest.approx(250.0)
    assert m["ops.self_ms"] is None  # needs the missing scatter hook
    assert m["tensor.scatter_ms"] is None
    assert m["tensor.samples_per_s"] is None
    assert m["tensor.gather_ms"] == pytest.approx(100.0)
    assert m["ops.macs"] == 50
    assert m["ops.oob_sample_fraction"] == pytest.approx(0.5)
    assert m["io.read_depth_ms"] == 0.0  # hook present, never called
    assert set(m) == set(tracing.PER_LAYER)


def test_tracer_records_parent_item_and_counts():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.span("inner", inner, lambda a, k, r: {"samples": r})
    outer = tracer.span("outer", lambda x: wrapped_inner(x) * 2)
    tracer.item = 3
    assert outer(4) == 10
    names = [(s["name"], s["parent"], s["item"]) for s in tracer.spans]
    assert names == [("outer", -1, 3), ("inner", 0, 3)]
    assert tracer.spans[1]["samples"] == 5


def test_install_reports_missing_hooks():
    class Empty:
        pass

    modules = {name: Empty() for name, *_ in tracing.HOOKS}
    missing = tracing.Tracer().install(modules)
    assert sorted(set(missing)) == sorted({name for _, _, name, _ in tracing.HOOKS})


# ---------------------------------------------------------------------------
# oracles


@pytest.fixture(scope="module")
def frame():
    depth, K = workloads.noisy_depth(zacn, "ramp", 40, 56, seed=5, focal=60.0)
    spec = zacn.KernelSpec(*workloads.SPEC)
    field, _ = zacn.compute_offsets(zacn.DepthMap(depth), zacn.CameraIntrinsics(*K), spec, 40, 56)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 40, 56)).astype(np.float32)
    w = rng.standard_normal((5, 4, 3, 3)).astype(np.float32)
    y, _ = zacn.za_conv_forward(zacn.FeatureTensor(x), zacn.ConvWeights(w), field, spec)
    pooled, _ = zacn.za_avg_pool(zacn.FeatureTensor(np.maximum(y.data, 0)), field, spec)
    pixels = workloads.sample_pixels(1, 0, 40, 56, 30) + [(0, 0), (39, 55)]
    return depth, K, field.data, x, w, y.data, pooled.data, pixels


def test_offset_oracle_accepts_library_and_rejects_perturbation(frame):
    depth, K, field, *_, pixels = frame
    failures, checked = oracles.check_offsets(depth, K, workloads.SPEC, field, pixels)
    assert failures == [] and checked == len(pixels)
    oy, ox = pixels[3]
    bad = field.copy()
    bad[5, oy, ox] += 1e-3
    failures, _ = oracles.check_offsets(depth, K, workloads.SPEC, bad, pixels)
    assert len(failures) == 1 and f"({oy},{ox})" in failures[0]


def test_offset_oracle_rejects_a_swapped_tap_order(frame):
    depth, K, field, *_, pixels = frame
    swapped = field.reshape(9, 2, *field.shape[1:])[::-1].reshape(field.shape)
    failures, _ = oracles.check_offsets(depth, K, workloads.SPEC, swapped, pixels)
    assert failures


def test_conv_and_pool_oracles_reject_perturbation(frame):
    _, _, field, x, w, y, pooled, pixels = frame
    assert oracles.check_conv(x, w, field, workloads.SPEC, y, pixels) == []
    assert oracles.check_pool(np.maximum(y, 0), field, workloads.SPEC, pooled, pixels) == []
    oy, ox = pixels[0]
    y_bad = y.copy()
    y_bad[2, oy, ox] *= 1.0 + 1e-3
    assert len(oracles.check_conv(x, w, field, workloads.SPEC, y_bad, pixels)) == 1
    p_bad = pooled.copy()
    p_bad[1, oy, ox] += 1e-3
    assert len(oracles.check_pool(np.maximum(y, 0), field, workloads.SPEC, p_bad, pixels)) == 1
    off_bad = field.copy()
    off_bad[1, oy, ox] += 0.25  # conv with shifted taps no longer matches
    assert oracles.check_conv(x, w, off_bad, workloads.SPEC, y, pixels)


def test_toy_oracle_rejects_perturbed_rows():
    rows = [
        {"seed": 0, "operator": "adapted", "epochs": 150, "final_loss": 0.13, "miou": 0.9,
         "pixel_acc": 0.95, "param_count": 720},
        {"seed": 0, "operator": "standard", "epochs": 150, "final_loss": 0.19, "miou": 0.86,
         "pixel_acc": 0.92, "param_count": 720},
    ]
    chance = math.log(3)
    assert oracles.check_toy_rows(rows, 720, chance) == []
    for key, value in (("final_loss", float("nan")), ("final_loss", 0.9), ("param_count", 721),
                       ("miou", 0.5)):
        bad = [dict(rows[0], **{key: value}), rows[1]]
        assert oracles.check_toy_rows(bad, 720, chance), (key, value)
    assert oracles.check_toy_rows(rows[:1], 720, chance)


def test_own_file_formats_match_the_package(tmp_path, frame):
    depth = frame[0]
    oracles.write_pfm(depth, tmp_path / "d.pfm")
    np.testing.assert_array_equal(zacn.read_depth(tmp_path / "d.pfm").data, depth)
    np.testing.assert_array_equal(oracles.read_pfm(tmp_path / "d.pfm"), depth)
    zacn.write_tensor(frame[2], tmp_path / "o.zacn")
    np.testing.assert_array_equal(oracles.read_container(tmp_path / "o.zacn"), frame[2])


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: (unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()}
    per_layer["trace.overhead_fraction"] = ("fraction", "lower")
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_fails_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits nonzero without printing a result."""
    import shutil
    import subprocess

    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy_train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
