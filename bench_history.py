"""Write one benchmark history file from every workload of BENCHMARK.json.

Usage, from any directory:

    python3 bench_history.py BENCH_<n>.json

For each workload that ``BENCHMARK.json`` declares, runs its command
(``perfbench/run.py``) with ``--trace 0`` once per seed of ``SEEDS``, for
the declared ``run_seconds``, and reads the result record that run.py
writes to ``perfbench/out/``.  The output file holds, per workload, the
attempted and failed item counts summed over the seeds and the median and
quartiles of each end-to-end metric, with each seed's value; and the
environment of the runs.  It also holds one row that the benchmark's
process tree cannot raise: the ``VmHWM`` of a child that this script starts,
which runs ``zacn offsets`` ``HWM_RUNS`` times on a seeded corridor depth
map, once with ``ZACN_THREADS`` unset and once with it set to 1 (Linux).
Another row holds the tracemalloc peaks of the operators, which the host's
load does not move: one child calls ``compute_offsets``, ``za_conv_forward``,
``za_avg_pool`` and ``za_conv_backward`` (with ``grad_x``) on a seeded
corridor scene at each shape of ``PEAK_SHAPES``, 16 -> 16 channels, each
operator on a fresh offset field.  The ``toy_run`` row holds the ``VmHWM``
of one child that runs ``paired_toy_runs([TOY_SEED])`` twice (Linux).
No row counts page faults: the length of a child's script text or path
moves them, so they are compared by hand, in alternating runs of two
checkouts with equal-length paths through one copy of a child script.
The ``trace_layers`` row holds one ``--trace 1`` run per workload at
``TRACE_SEED``: its item counts and the value of each per-layer metric that
``BENCHMARK.json`` declares, which place a change of the end-to-end time
in the layers (host load moves them as it moves the end-to-end ones).
A run that exits with an error stops the script.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SEEDS = (1, 2, 3, 4, 5)
# The offsets VmHWM row: runs of ``zacn offsets`` in one child, on a seeded
# corridor depth map of this shape.
HWM_RUNS = 10
HWM_SHAPE = (480, 640)
HWM_SEED = 26
# The operator_peaks row: tracemalloc peaks of the operators in one child.
PEAK_SHAPES = ((120, 160), (480, 640))
PEAK_CHANNELS = 16
PEAK_SEED = 27
# The toy_run row: one child runs the paired toy experiment at this seed.
TOY_SEED = 0
# The trace_layers row: one traced run per workload at this seed.
TRACE_SEED = 1

_SCENE_CHILD = r"""
import sys
from zacn import write_depth
from zacn.harness import generate_scene
path, h, w, seed = sys.argv[1:]
write_depth(generate_scene("corridor", int(h), int(w), seed=int(seed)).depth, path)
"""
# exec resets VmHWM, so the child reads the peak of its own image only; the
# rusage peak of a child starts at its parent's
_HWM_CHILD = r"""
import sys
from zacn.cli import main
depth, out, runs = sys.argv[1:]
for _ in range(int(runs)):
    if main(["offsets", "--depth", depth, "--fu", "519", "--fv", "519", "--out", out]) != 0:
        sys.exit("zacn offsets failed")
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
"""

# each operator runs on a fresh copy of the field, so that nothing the field
# caches from an earlier call lowers the peak; the result is freed before the
# next call
_PEAKS_CHILD = r"""
import json, sys, tracemalloc
import numpy as np
from zacn import (ConvWeights, FeatureTensor, KernelSpec, OffsetField, compute_offsets,
                  za_avg_pool, za_conv_backward, za_conv_forward)
from zacn.harness import generate_scene
shapes, c, seed = json.loads(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
spec = KernelSpec.same(3)
def operators(h, w):
    scene = generate_scene("corridor", h, w, seed=seed, focal=519.0 * w / 640)
    rng = np.random.default_rng(seed)
    x, g = (FeatureTensor(rng.standard_normal((c, h, w)).astype(np.float32)) for _ in "xg")
    wts = ConvWeights((rng.standard_normal((c, c, 3, 3)) * 0.1).astype(np.float32))
    field, _ = compute_offsets(scene.depth, scene.intrinsics, spec, h, w)
    return field, {
        "compute_offsets": lambda f: compute_offsets(scene.depth, scene.intrinsics, spec, h, w),
        "za_conv_forward": lambda f: za_conv_forward(x, wts, f, spec),
        "za_avg_pool": lambda f: za_avg_pool(x, f, spec),
        "za_conv_backward": lambda f: za_conv_backward(x, wts, f, spec, g),
    }
row = {}
for h, w in shapes:
    field, calls = operators(h, w)
    peaks = row[f"{h}x{w}"] = {}
    for name, call in calls.items():
        fresh = OffsetField(field.data)
        tracemalloc.start()
        try:
            call(fresh)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
print(json.dumps(row))
"""

# the VmHWM is this process's own, after a warm paired run and a second one
_TOY_CHILD = r"""
import json, sys
from zacn.harness import paired_toy_runs
seed, settings = int(sys.argv[1]), json.loads(sys.argv[2])
paired_toy_runs([seed], **settings)
paired_toy_runs([seed], **settings)
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
"""


def spread(values):
    """Median and quartiles (the inclusive method) of the non-null ``values``,
    or None when every value is null."""
    values = sorted(v for v in values if v is not None)
    if not values:
        return None
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(benchmark: dict, records: list[dict]) -> dict:
    """The history entry of run.py result ``records`` under the ``benchmark``
    declaration: counts and metric spreads per workload, in the declared
    order, and the environment of the first record."""
    workloads = {}
    for wl in benchmark["workloads"]:
        runs = [r for r in records if r["args"]["workload"] == wl["name"]]
        metrics = {}
        for m in benchmark["end_to_end"]:
            values = [(r["result"]["metrics"].get(m["name"]) or {}).get("value") for r in runs]
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "spread": spread(values), "values": values}
        workloads[wl["name"]] = {
            "seeds": [r["args"]["seed"] for r in runs],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": metrics,
        }
    return {
        "run_seconds": benchmark["run_seconds"],
        "env": dict(records[0]["env"]) if records else {},
        "workloads": workloads,
    }


def run_workload(benchmark: dict, name: str, seed: int, trace: int = 0) -> dict:
    """Run one workload at one seed, traced if ``trace`` is 1, and return
    run.py's result record."""
    record = ROOT / "perfbench" / "out" / f"result-{name}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)
    cmd = benchmark["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads(record.read_text())


def trace_layers(benchmark: dict, records: list[dict]) -> dict:
    """The row of traced run.py result ``records``, one per workload in the
    order given: the seed, the item counts, and the value of each per-layer
    metric of the ``benchmark`` declaration, null where the run reports none."""
    row = {}
    for r in records:
        result = r["result"]
        row[r["args"]["workload"]] = {
            "seed": r["args"]["seed"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"],
                                    "value": (result["metrics"].get(m["name"]) or {}).get("value")}
                        for m in benchmark["per_layer"]},
        }
    return row


def run_python(args, env=None) -> str:
    """The standard output of a child ``python args``, run with ``env``
    (default: this process's environment) and this checkout's ``src`` first
    on ``PYTHONPATH``; raises if the child fails."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def offsets_hwm(h: int, w: int, runs: int) -> dict:
    """The ``VmHWM`` (MB, Linux) of one child that runs ``zacn offsets``
    ``runs`` times in process on a seeded ``h`` x ``w`` corridor PFM, with
    ``ZACN_THREADS`` unset and with it set to 1."""
    env = {k: v for k, v in os.environ.items() if k != "ZACN_THREADS"}
    row = {"runs": runs, "shape": [h, w], "seed": HWM_SEED}
    with tempfile.TemporaryDirectory() as tmp:
        depth = os.path.join(tmp, "depth.pfm")
        run_python(["-c", _SCENE_CHILD, depth, str(h), str(w), str(HWM_SEED)], env)
        for key, threads in (("threads_unset_mb", {}), ("threads_1_mb", {"ZACN_THREADS": "1"})):
            out = run_python(["-c", _HWM_CHILD, depth, os.path.join(tmp, "o.zacn"), str(runs)],
                             {**env, **threads})
            row[key] = int(out) / 1024
    return row


def operator_peaks(shapes, channels: int) -> dict:
    """The tracemalloc peaks (MiB) of the offsets and of each adapted operator
    in one child, per ``(h, w)`` of ``shapes``: a seeded corridor scene,
    ``channels`` -> ``channels``, a fresh offset field per call."""
    out = run_python(["-c", _PEAKS_CHILD, json.dumps(shapes), str(channels), str(PEAK_SEED)])
    return {"channels": channels, "seed": PEAK_SEED, "peaks_mib": json.loads(out)}


def toy_run(**settings) -> dict:
    """The ``VmHWM`` (MB, Linux) of one child that runs
    ``paired_toy_runs([TOY_SEED], **settings)`` twice."""
    out = run_python(["-c", _TOY_CHILD, str(TOY_SEED), json.dumps(settings)])
    return {"seed": TOY_SEED, "settings": settings, "vmhwm_mb": int(out) / 1024}


def uncommitted_changes():
    """Whether tracked files differ from the commit that run.py records as
    ``git_commit``; None outside a git checkout."""
    try:  # a checkout without .git must not report an enclosing repository
        git = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(git.stdout.strip()) if git.returncode == 0 else None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 bench_history.py OUT.json", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [run_workload(benchmark, wl["name"], seed)
               for wl in benchmark["workloads"] for seed in SEEDS]
    history = summarize(benchmark, records)
    history["env"]["uncommitted_changes"] = uncommitted_changes()
    history["offsets_vmhwm"] = offsets_hwm(*HWM_SHAPE, HWM_RUNS)
    history["operator_peaks"] = operator_peaks(PEAK_SHAPES, PEAK_CHANNELS)
    history["toy_run"] = toy_run()
    history["trace_layers"] = trace_layers(
        benchmark, [run_workload(benchmark, wl["name"], TRACE_SEED, trace=1)
                    for wl in benchmark["workloads"]])
    out = Path(argv[0])
    out.write_text(json.dumps(history, indent=1) + "\n")
    hwm = history["offsets_vmhwm"]
    print(f"offsets VmHWM: {hwm['threads_unset_mb']:.1f} MB with ZACN_THREADS unset, "
          f"{hwm['threads_1_mb']:.1f} MB with 1")
    for shape, peaks in history["operator_peaks"]["peaks_mib"].items():
        print(f"operator peaks at {shape}: "
              + ", ".join(f"{name} {mib:.1f} MiB" for name, mib in peaks.items()))
    print(f"toy run VmHWM: {history['toy_run']['vmhwm_mb']:.2f} MB")
    for name, run in history["trace_layers"].items():
        called = {k: m["value"] for k, m in run["metrics"].items() if m["value"]}
        print(f"traced {name}: " + ", ".join(f"{k} {v:.4g}" for k, v in called.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
