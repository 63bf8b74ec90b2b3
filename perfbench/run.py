"""Benchmark of the zacn package: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload offsets_cli --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): ``offsets_cli``, ``infer_160x120``,
``toy_train``.  Each is a closed loop with one client: the next item
starts when the previous one has ended.  Every process here runs one
thing at a time; the package's own threads (the CLI's offset workers) are
the only parallelism.

``--trace 0`` measures the end-to-end metrics.  Set-up is taken several
times (``SETUP_SAMPLES`` of the workload), each in a fresh interpreter that
imports zacn and completes the workload's first, untimed item; the last of
these interpreters then runs the timed items for ``--seconds`` seconds of
item time.  ``--trace 1``
runs the same timed window untraced and then again traced, and reports
the per-layer metrics from the traced one.  Inputs are generated from
``--seed`` before any timing and handed to the measured process as files;
every output is checked by the parent process after the measured process
has exited.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, with the
environment, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 160

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("offsets_cli", "infer_160x120", "toy_train"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    p.add_argument("--tag", default="", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(sorted_values, permille: int):
    """The ``permille``/10 percentile by the nearest-rank rule."""
    rank = -(-permille * len(sorted_values) // 1000)
    return sorted_values[max(rank, 1) - 1]


def tail_percentile(n: int, candidates=(999, 990, 900)):
    """Highest percentile, in per mille, that leaves at least ten of ``n``
    samples beyond it by the nearest-rank rule; None if there is none."""
    for p in candidates:
        if n - -(-p * n // 1000) >= 10:
            return p
    return None


# ---------------------------------------------------------------------------
# measured process


def child(args) -> int:
    t0 = time.perf_counter()
    import zacn
    import zacn.cli
    import zacn.harness
    import_s = time.perf_counter() - t0
    if not Path(zacn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported zacn from {zacn.__file__}, not from {SRC}")

    from tracing import Tracer
    from workloads import WORKLOADS

    run_dir = Path(args.dir)
    wl = WORKLOADS[args.workload](args.seed, str(run_dir / "inputs"))
    report = {"items": [], "errors": []}
    index = 0

    def run_item():
        """Run the next item; return (seconds it took, whether it completed)."""
        nonlocal index
        item_id = f"{args.role}{args.tag}-{index}"
        payload = wl.load(index)
        out = str(run_dir / "items" / item_id)
        start = time.perf_counter()
        try:
            result = wl.run(zacn, payload, out)
            ok = True
        except Exception as exc:  # an item that raises is a failed item
            report["errors"].append(f"{item_id}: {type(exc).__name__}: {exc}")
            ok = False
        elapsed = time.perf_counter() - start
        if ok:
            wl.save(result, out)
            report["items"].append([item_id, index])
        index += 1
        return elapsed, ok

    def window(tracer=None):
        """Closed loop until the items have taken ``--seconds``; the wall-clock
        cap only ends a loop of items that fail at once."""
        latencies, busy, wall0 = [], 0.0, time.perf_counter()
        while busy < args.seconds and time.perf_counter() - wall0 < 3 * args.seconds + 60:
            if tracer is not None:
                tracer.item = index
            elapsed, ok = run_item()
            busy += elapsed
            if ok:
                latencies.append(elapsed)
        return latencies, busy

    first, ok = run_item()
    report["setup_s"] = import_s + first if ok else None
    if args.role == "measure":
        report["latencies"], report["window_s"] = window()
        if args.trace:
            tracer = Tracer()
            modules = {name: sys.modules[name] for name in
                       ("zacn.cli", "zacn.io", "zacn.geometry", "zacn.ops", "zacn.harness")}
            report["missing_hooks"] = tracer.install(modules)
            report["traced_latencies"], report["traced_window_s"] = window(tracer)
            with open(run_dir / "spans.jsonl", "w") as f:
                for span in tracer.spans:
                    f.write(json.dumps(span) + "\n")
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


def spawn(args, role, run_dir, tag=""):
    cmd = [sys.executable, str(BENCH / "run.py"), "--role", role, "--tag", tag,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--dir", str(run_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu_model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    try:  # a checkout without .git must not report an enclosing repository
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "ZACN_THREADS": os.environ.get("ZACN_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": commit,
    }


def _cache_bytes(size):
    if not size:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


# ---------------------------------------------------------------------------
# parent


def check_items(wl, run_dir, items, errors):
    """Check every saved output; returns (attempted, failed, messages)."""
    failures = [f"raised: {e}" for e in errors]
    failed = len(errors)
    for item_id, index in items:
        try:
            bad = wl.check(index, str(run_dir / "items" / item_id))
        except Exception as exc:  # an unreadable output is a failed check
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        if bad:
            failed += 1
            failures += [f"{item_id}: {b}" for b in bad[:3]]
    return len(items) + len(errors), failed, failures


def end_to_end(args, wl, reports, run_dir, items, attempted, failed):
    """End-to-end metrics of an untraced run, and the lines that explain them."""
    measure = reports[-1]
    lat = sorted(measure["latencies"])
    n = len(lat)
    setups = [r["setup_s"] for r in reports if r["setup_s"] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": n / measure["window_s"],
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "peak_rss_mb": measure["peak_rss_kb"] / 1024,
    }
    lines = [
        f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setups)} fresh interpreters)",
        f"items_per_s = {metrics['items_per_s']:.4f} 1/s "
        f"({n} items in {measure['window_s']:.3f} s of item time)",
        f"latency_p50_ms = {metrics['latency_p50_ms']:.3f} ms (n={n})",
    ]
    tail = tail_percentile(n)
    if tail is None:
        lines.append(f"latency_p90_ms: not reported, n={n} < 100 leaves fewer than "
                     "10 samples beyond p90")
    else:
        lines.append(f"latency_p{tail / 10:g}_ms = {1e3 * nearest_rank(lat, tail):.3f} ms (n={n})")
    lines.append(f"error_rate = {failed / attempted:.4f} ({failed} of {attempted} items)")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB (measured process)")
    if args.workload == "toy_train":
        rows = [r for item_id, _ in items for r in wl.rows(str(run_dir / "items" / item_id))]
        mean = {op: statistics.fmean(r["miou"] for r in rows if r["operator"] == op)
                for op in wl.OPERATORS}
        lines.append(f"miou_gap = {mean['adapted'] - mean['standard']:.6f} "
                     f"(adapted {mean['adapted']:.6f} - standard {mean['standard']:.6f}, "
                     f"toy seeds {wl.TOY_SEEDS}, {len(rows) // 2} paired runs)")
    return metrics, dict(END_TO_END), lines


def per_layer(args, measure, run_dir):
    """Per-layer metrics of a traced run, and the lines that explain them."""
    from tracing import PER_LAYER, layer_metrics

    with open(run_dir / "spans.jsonl") as f:
        spans = [json.loads(line) for line in f]
    shutil.copy(run_dir / "spans.jsonl", OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    traced = measure["traced_latencies"]
    metrics = layer_metrics(spans, measure["missing_hooks"], len(traced))
    untraced_ips = len(measure["latencies"]) / measure["window_s"]
    traced_ips = len(traced) / measure["traced_window_s"]
    metrics["trace.overhead_fraction"] = untraced_ips / traced_ips - 1.0
    units = {name: spec[0] for name, spec in PER_LAYER.items()}
    units["trace.overhead_fraction"] = "fraction"
    lines = [f"traced {len(traced)} items after {len(measure['latencies'])} untraced; "
             f"{len(spans)} spans; missing hooks: {measure['missing_hooks'] or 'none'}"]
    called = {s["name"] for s in spans}
    for name, value in metrics.items():
        note = "missing" if value is None else f"{value:.6g} {units[name]}"
        if value == 0 and name in PER_LAYER and PER_LAYER[name][2][0] not in called:
            note += " (layer not called on this workload)"
        lines.append(f"{name} = {note}")
    return metrics, units, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        return child(args)
    if not (SRC / "zacn" / "__init__.py").is_file():
        print(f"error: no zacn package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import zacn
    import zacn.harness
    from workloads import WORKLOADS

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    (run_dir / "inputs").mkdir(parents=True)
    (run_dir / "items").mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, str(run_dir / "inputs"))
        wl.make_inputs(zacn)
        setups = 1 if args.trace else wl.SETUP_SAMPLES
        reports = [spawn(args, "setup", run_dir, str(k)) for k in range(setups - 1)]
        reports.append(spawn(args, "measure", run_dir))

        items = [it for r in reports for it in r["items"]]
        errors = [e for r in reports for e in r["errors"]]
        attempted, failed, failures = check_items(wl, run_dir, items, errors)
        if not reports[-1]["latencies"]:
            print("\n".join(failures[:10]), file=sys.stderr)
            print("error: no timed item completed", file=sys.stderr)
            return 1

        env = environment()
        if args.trace:
            metrics, units, lines = per_layer(args, reports[-1], run_dir)
        else:
            metrics, units, lines = end_to_end(args, wl, reports, run_dir, items,
                                               attempted, failed)
        ws = wl.working_set_bytes()
        l3 = _cache_bytes(env["caches"].get("L3"))
        lines.append(f"working set (computed, not measured) = {ws / 2**20:.2f} MiB per item; "
                     f"L3 = {env['caches'].get('L3')}" + (f" ({ws / l3:.2f} of L3)" if l3 else ""))
        lines += [f"FAILED {f}" for f in failures[:10]]

        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record = {"args": vars(args), "env": env, "result": result,
                  "latencies_s": reports[-1]["latencies"],
                  "setup_samples_s": [r["setup_s"] for r in reports], "failures": failures}
        with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
            json.dump(record, f, indent=1)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
        print(f"env {json.dumps(env, sort_keys=True)}")
        print("\n".join(lines))
        print(json.dumps(result))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
