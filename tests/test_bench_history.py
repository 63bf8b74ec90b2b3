"""The benchmark history script aggregates run.py result records.

The script at the repository root is loaded by path; the records are
fabricated in the layout that ``perfbench/run.py`` writes, so no
benchmark runs here.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def history():
    spec = importlib.util.spec_from_file_location("bench_history", ROOT / "bench_history.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 15,
    "workloads": [{"name": "slow"}, {"name": "fast"}],
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ],
}
ENV = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31",
       "blas_threads_env": {"OPENBLAS_NUM_THREADS": None}, "ZACN_THREADS": "2",
       "nproc": 2, "cpu_count": 2, "cpu_model": "x", "caches": {}, "git_commit": "abc"}


def _record(workload, seed, attempted, failed, latency, rss):
    metrics = {"latency_p50_ms": {"value": latency, "unit": "ms"}}
    if rss is not None:
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return {"args": {"workload": workload, "seed": seed, "trace": 0}, "env": ENV,
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def test_counts_and_quartiles_per_workload(history):
    records = [_record("fast", 1, 10, 0, 4.0, 30.0)]
    records += [_record("slow", s, 5, s % 2, lat, 90.0)
                for s, lat in zip((1, 2, 3, 4, 5), (120.0, 100.0, 140.0, 110.0, 130.0))]
    out = history.summarize(BENCHMARK, records)
    assert list(out["workloads"]) == ["slow", "fast"]
    slow = out["workloads"]["slow"]
    assert (slow["seeds"], slow["attempted"], slow["failed"]) == ([1, 2, 3, 4, 5], 25, 3)
    lat = slow["metrics"]["latency_p50_ms"]
    assert lat["values"] == [120.0, 100.0, 140.0, 110.0, 130.0]
    assert lat["spread"] == {"q1": 110.0, "median": 120.0, "q3": 130.0}
    assert (lat["unit"], lat["better"]) == ("ms", "lower")
    fast = out["workloads"]["fast"]["metrics"]
    assert fast["latency_p50_ms"]["spread"] == {"q1": 4.0, "median": 4.0, "q3": 4.0}
    assert fast["peak_rss_mb"]["spread"]["median"] == 30.0
    assert out["run_seconds"] == 15
    assert out["env"] == ENV
    json.dumps(out)  # the file is JSON


def test_quartiles_interpolate_between_runs(history):
    records = [_record("slow", s, 1, 0, lat, 1.0) for s, lat in zip((1, 2, 3, 4), (1.0, 2.0, 3.0, 5.0))]
    spread = history.summarize(BENCHMARK, records)["workloads"]["slow"]["metrics"]["latency_p50_ms"]
    assert spread["spread"] == {"q1": 1.75, "median": 2.5, "q3": 3.5}


def test_missing_metrics_and_workloads(history):
    records = [_record("slow", 1, 3, 3, 9.0, None), _record("slow", 2, 3, 0, 7.0, None)]
    out = history.summarize(BENCHMARK, records)
    rss = out["workloads"]["slow"]["metrics"]["peak_rss_mb"]
    assert rss["values"] == [None, None] and rss["spread"] is None
    fast = out["workloads"]["fast"]
    assert (fast["seeds"], fast["attempted"], fast["failed"]) == ([], 0, 0)
    assert fast["metrics"]["latency_p50_ms"]["spread"] is None


LAYERS = [{"name": "ops.self_ms", "unit": "ms", "better": "lower"},
          {"name": "tensor.samples_per_s", "unit": "1/s", "better": "higher"}]


def _traced(workload, seed, metrics):
    return {"args": {"workload": workload, "seed": seed, "trace": 1}, "env": ENV,
            "result": {"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}}


def test_trace_layers_row(history):
    bench = {**BENCHMARK, "per_layer": LAYERS}
    records = [_traced("fast", 7, {"ops.self_ms": 2.5, "trace.overhead_fraction": 0.1}),
               _traced("slow", 7, {"ops.self_ms": None, "tensor.samples_per_s": 40.0})]
    row = history.trace_layers(bench, records)
    assert list(row) == ["fast", "slow"]
    assert (row["fast"]["seed"], row["fast"]["attempted"], row["fast"]["failed"]) == (7, 3, 0)
    # every declared metric, in the declared order, null where the run has none
    assert row["fast"]["metrics"] == {
        "ops.self_ms": {"unit": "ms", "better": "lower", "value": 2.5},
        "tensor.samples_per_s": {"unit": "1/s", "better": "higher", "value": None},
    }
    assert [m["value"] for m in row["slow"]["metrics"].values()] == [None, 40.0]
    json.dumps(row)


def test_run_workload_reads_the_record_of_its_trace_setting(history, monkeypatch, tmp_path):
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    commands = []

    def run(cmd, cwd, check, stdout):
        commands.append(cmd)
        trace = cmd[cmd.index("--trace") + 1]
        (out / f"result-fast-seed4-trace{trace}.json").write_text(json.dumps({"trace": trace}))

    monkeypatch.setattr(history, "ROOT", tmp_path)
    monkeypatch.setattr(history.subprocess, "run", run)
    assert history.run_workload(BENCHMARK, "fast", 4, trace=1) == {"trace": "1"}
    assert history.run_workload(BENCHMARK, "fast", 4) == {"trace": "0"}
    assert commands[0] == ["python3", "perfbench/run.py", "--workload", "fast", "--seed", "4",
                           "--seconds", "15", "--trace", "1"]
    assert commands[1][-1] == "0"


def test_rejects_anything_but_one_output_path(history, capsys):
    assert history.main([]) == 2
    assert history.main(["a.json", "b.json"]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
def test_offsets_hwm_row(history):
    row = history.offsets_hwm(48, 64, runs=2)
    assert (row["runs"], row["shape"], row["seed"]) == (2, [48, 64], history.HWM_SEED)
    assert 5 < row["threads_unset_mb"] < 500 and 5 < row["threads_1_mb"] < 500


def test_operator_peaks_row(history):
    row = history.operator_peaks([[16, 24], [48, 64]], channels=2)
    assert (row["channels"], row["seed"]) == (2, history.PEAK_SEED)
    assert list(row["peaks_mib"]) == ["16x24", "48x64"]
    for peaks in row["peaks_mib"].values():
        assert list(peaks) == ["compute_offsets", "za_conv_forward", "za_avg_pool", "za_conv_backward"]
        assert all(0 < mib < 50 for mib in peaks.values())
    # the operators' memory grows with the image
    small, large = row["peaks_mib"].values()
    assert all(large[name] > small[name] for name in small)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
def test_toy_run_row(history):
    row = history.toy_run(epochs=2)
    assert (row["seed"], row["settings"]) == (history.TOY_SEED, {"epochs": 2})
    assert 5 < row["vmhwm_mb"] < 500
    assert "runs" not in row


def test_main_writes_each_row_once(history, monkeypatch, tmp_path, capsys):
    bench = {**BENCHMARK, "per_layer": LAYERS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.setattr(history, "ROOT", tmp_path)
    monkeypatch.setattr(history, "run_workload", lambda benchmark, name, seed, trace=0: (
        _traced(name, seed, {"ops.self_ms": 2.5}) if trace else _record(name, seed, 3, 0, 9.0, 40.0)))
    monkeypatch.setattr(history, "uncommitted_changes", lambda: False)
    monkeypatch.setattr(history, "offsets_hwm", lambda h, w, runs: {
        "runs": runs, "shape": [h, w], "seed": history.HWM_SEED,
        "threads_unset_mb": 68.9, "threads_1_mb": 62.7})
    monkeypatch.setattr(history, "operator_peaks", lambda shapes, channels: {
        "channels": channels, "seed": history.PEAK_SEED,
        "peaks_mib": {f"{h}x{w}": {"za_conv_forward": 1.0} for h, w in shapes}})
    monkeypatch.setattr(history, "toy_run", lambda **settings: {
        "seed": history.TOY_SEED, "settings": settings, "vmhwm_mb": 41.6})
    out = tmp_path / "BENCH.json"
    assert history.main([str(out)]) == 0
    written = json.loads(out.read_text())
    assert list(written) == ["run_seconds", "env", "workloads", "offsets_vmhwm",
                             "operator_peaks", "toy_run", "trace_layers"]
    assert written["env"]["uncommitted_changes"] is False
    # one line each: the offsets VmHWM, the peaks per shape, the toy run, each traced workload
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(history.PEAK_SHAPES) + 1 + len(bench["workloads"])
