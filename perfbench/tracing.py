"""Spans around the package's public calls, and the per-layer metrics.

The traced run replaces each hooked function at the name its caller looks
up (``zacn.cli.compute_offsets``, not ``zacn.geometry.compute_offsets``,
for the CLI) with a wrapper that records a span: name, start, end, parent
span and item id, plus counts computed from the call's shapes and
results.  Spans stay in memory until the run ends.  A hook whose target
no longer exists is reported as missing, and so is every metric that
needs it; nothing is reported as zero in its place.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np


def _offset_counts(args, kwargs, result):
    summary = result[1]
    return {"pixels": summary.total_pixels, "degenerate": summary.degenerate_pixels}


def _conv_shape(x, w, offsets):
    taps = offsets.tap_count * offsets.height * offsets.width
    return w.out_channels * x.channels * taps, taps


def _forward_counts(args, kwargs, result):
    macs, samples = _conv_shape(*args[:3])
    return {"macs": macs, "samples": samples, "oob": result[1].oob_sample_fraction}


def _backward_counts(args, kwargs, result):
    macs, _ = _conv_shape(*args[:3])
    return {"macs": 2 * macs}  # grad_w and grad_x


def _pool_counts(args, kwargs, result):
    x, offsets = args[:2]
    samples = offsets.tap_count * offsets.height * offsets.width
    return {"macs": x.channels * samples, "samples": samples, "oob": result[1].oob_sample_fraction}


def _gather_counts(args, kwargs, result):
    return {"samples": result.size}


def _scatter_counts(args, kwargs, result):
    return {"samples": int(np.size(args[2]))}


def _read_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _epoch_counts(args, kwargs, result):
    return {"epochs": sum(row["epochs"] for row in result)}


# (module, attribute, span name, counts from (args, kwargs, result))
HOOKS = [
    ("zacn.cli", "cmd_offsets", "cli.cmd_offsets", None),
    ("zacn.cli", "compute_offsets", "geometry.compute_offsets", _offset_counts),
    ("zacn.io", "read_depth", "io.read_depth", _read_counts),
    ("zacn.io", "write_offsets", "io.write_offsets", _write_counts),
    ("zacn.geometry", "compute_offsets", "geometry.compute_offsets", _offset_counts),
    ("zacn.ops", "za_conv_forward", "ops.za_conv_forward", _forward_counts),
    ("zacn.ops", "za_avg_pool", "ops.za_avg_pool", _pool_counts),
    ("zacn.ops", "_bilinear_gather", "tensor.gather", _gather_counts),
    ("zacn.ops", "_bilinear_scatter_weights", "tensor.scatter", _scatter_counts),
    ("zacn.harness", "paired_toy_runs", "harness.paired_toy_runs", _epoch_counts),
    ("zacn.harness", "generate_scene", "harness.generate_scene", None),
    ("zacn.harness", "compute_offsets", "geometry.compute_offsets", _offset_counts),
    ("zacn.harness", "za_conv_forward", "ops.za_conv_forward", _forward_counts),
    ("zacn.harness", "za_conv_backward", "ops.za_conv_backward", _backward_counts),
]


class Tracer:
    """Records nested spans from one thread; ``spans`` holds dicts with
    ``name, start, end, parent`` (index or -1), ``item`` and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.item = None
        self._stack: list[int] = []

    def span(self, name, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": self._stack[-1] if self._stack else -1, "item": self.item}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                rec.update(counts(args, kwargs, result))
            return result

        return wrapper

    def install(self, modules) -> list[str]:
        """Wrap every hook found in ``modules`` (name -> module); return the
        span names of hooks whose target is missing."""
        missing = []
        for mod_name, attr, name, counts in HOOKS:
            mod = modules[mod_name]
            if hasattr(mod, attr):
                setattr(mod, attr, self.span(name, getattr(mod, attr), counts))
            else:
                missing.append(name)
        return missing


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


# name -> (unit, better, span names it needs); the first span names the
# layer.  Which end-to-end metric each should move, on which workload:
#   cli.*, io.*        latency and items_per_s on offsets_cli only
#   geometry.*         offsets_cli latency and peak_rss_mb; infer_160x120
#                      latency a little; not toy_train
#   tensor.gather_ms   infer_160x120 and toy_train; never offsets_cli
#   tensor.scatter_ms  toy_train only
#   ops forward, pool  infer_160x120; forward and backward move toy_train
#   harness.*          toy_train only
PER_LAYER = {
    "cli.offsets_self_ms": ("ms", "lower", ["cli.cmd_offsets", "io.read_depth", "io.write_offsets",
                                            "geometry.compute_offsets"]),
    "io.read_depth_ms": ("ms", "lower", ["io.read_depth"]),
    "io.write_offsets_ms": ("ms", "lower", ["io.write_offsets"]),
    "io.bytes_read": ("bytes", "lower", ["io.read_depth"]),
    "io.bytes_written": ("bytes", "lower", ["io.write_offsets"]),
    "geometry.compute_offsets_ms": ("ms", "lower", ["geometry.compute_offsets"]),
    "geometry.pixels_per_s": ("1/s", "higher", ["geometry.compute_offsets"]),
    "geometry.fallback_fraction": ("fraction", "lower", ["geometry.compute_offsets"]),
    "tensor.gather_ms": ("ms", "lower", ["tensor.gather"]),
    "tensor.scatter_ms": ("ms", "lower", ["tensor.scatter"]),
    "tensor.samples_per_s": ("1/s", "higher", ["tensor.gather", "tensor.scatter"]),
    "ops.za_conv_forward_ms": ("ms", "lower", ["ops.za_conv_forward"]),
    "ops.za_avg_pool_ms": ("ms", "lower", ["ops.za_avg_pool"]),
    "ops.za_conv_backward_ms": ("ms", "lower", ["ops.za_conv_backward"]),
    "ops.self_ms": ("ms", "lower", ["ops.za_conv_forward", "ops.za_avg_pool",
                                    "ops.za_conv_backward", "tensor.gather", "tensor.scatter"]),
    "ops.macs": ("count", "lower", ["ops.za_conv_forward", "ops.za_avg_pool", "ops.za_conv_backward"]),
    "ops.oob_sample_fraction": ("fraction", "lower", ["ops.za_conv_forward", "ops.za_avg_pool"]),
    "harness.train_self_ms": ("ms", "lower", ["harness.paired_toy_runs", "harness.generate_scene",
                                              "geometry.compute_offsets", "ops.za_conv_forward",
                                              "ops.za_conv_backward"]),
    "harness.generate_scene_ms": ("ms", "lower", ["harness.generate_scene"]),
    "harness.epochs_per_s": ("1/s", "higher", ["harness.paired_toy_runs"]),
}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, missing, items: int) -> dict:
    """Per-item layer metrics from the spans of ``items`` traced items.

    A layer the workload never calls reads 0; a metric whose hook is
    missing reads None.
    """
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    count: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        name = s["name"]
        busy[name] = busy.get(name, 0.0) + s["end"] - s["start"]
        own[name] = own.get(name, 0.0) + self_s
        for key in ("pixels", "degenerate", "macs", "samples", "bytes", "epochs"):
            if key in s:
                count[f"{name}:{key}"] = count.get(f"{name}:{key}", 0) + s[key]
        if "oob" in s:
            count["oob_weighted"] = count.get("oob_weighted", 0.0) + s["oob"] * s["samples"]
            count["oob_samples"] = count.get("oob_samples", 0) + s["samples"]

    def b(name):
        return busy.get(name, 0.0)

    def c(key):
        return count.get(key, 0)

    def per_item_ms(seconds):
        return 1e3 * seconds / items

    geo = "geometry.compute_offsets"
    ops_names = ("ops.za_conv_forward", "ops.za_avg_pool", "ops.za_conv_backward")
    tensor_samples = c("tensor.gather:samples") + c("tensor.scatter:samples")
    values = {
        "cli.offsets_self_ms": per_item_ms(own.get("cli.cmd_offsets", 0.0)),
        "io.read_depth_ms": per_item_ms(b("io.read_depth")),
        "io.write_offsets_ms": per_item_ms(b("io.write_offsets")),
        "io.bytes_read": c("io.read_depth:bytes") / items,
        "io.bytes_written": c("io.write_offsets:bytes") / items,
        "geometry.compute_offsets_ms": per_item_ms(b(geo)),
        "geometry.pixels_per_s": _ratio(c(f"{geo}:pixels"), b(geo)),
        "geometry.fallback_fraction": _ratio(c(f"{geo}:degenerate"), c(f"{geo}:pixels")),
        "tensor.gather_ms": per_item_ms(b("tensor.gather")),
        "tensor.scatter_ms": per_item_ms(b("tensor.scatter")),
        "tensor.samples_per_s": _ratio(tensor_samples, b("tensor.gather") + b("tensor.scatter")),
        "ops.za_conv_forward_ms": per_item_ms(b("ops.za_conv_forward")),
        "ops.za_avg_pool_ms": per_item_ms(b("ops.za_avg_pool")),
        "ops.za_conv_backward_ms": per_item_ms(b("ops.za_conv_backward")),
        "ops.self_ms": per_item_ms(sum(own.get(n, 0.0) for n in ops_names)),
        "ops.macs": sum(c(f"{n}:macs") for n in ops_names) / items,
        "ops.oob_sample_fraction": _ratio(c("oob_weighted"), c("oob_samples")),
        "harness.train_self_ms": per_item_ms(own.get("harness.paired_toy_runs", 0.0)),
        "harness.generate_scene_ms": per_item_ms(b("harness.generate_scene")),
        "harness.epochs_per_s": _ratio(c("harness.paired_toy_runs:epochs"),
                                       b("harness.paired_toy_runs")),
    }
    gone = set(missing)
    return {
        name: (None if gone.intersection(needs) else values[name])
        for name, (_, _, needs) in PER_LAYER.items()
    }
