"""Command-line front-end.

Subcommands: ``offsets`` (depth -> offset field container + JSON summary),
``conv`` / ``pool`` (run operators on tensor containers), ``viz`` (SVG of
standard vs adapted sampling positions over the depth map), and
``toytrain`` (the paired toy segmentation experiment).

Exit codes are a stable scripting contract: 0 success, 1 IO/parse
failure, 2 configuration or shape mismatch.  Every machine-readable
output (containers, CSV, JSON) is byte-reproducible for identical inputs,
flags, and seeds; no output holds a wall-clock time.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import io as zio
from .errors import ConfigError, ParseError, ZacnError
from .geometry import CameraIntrinsics, KernelSpec, _check_int, compute_offsets
from .harness import OPERATORS, TrainConfig, paired_toy_runs
from .ops import (
    ConvWeights,
    standard_avg_pool,
    standard_conv,
    za_avg_pool,
    za_conv_forward,
)
from .tensor import DepthMap, FeatureTensor

USAGE_AT = "expected --at 'u,v' or --at 'u,v;u,v;...' with integer pixel coordinates"


def _workers() -> int:
    env = os.environ.get("ZACN_THREADS")
    if env is None:
        # the CPUs this process may run on, not all of the machine's
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError as exc:
        raise ConfigError(f"ZACN_THREADS must be an integer, got {env!r}") from exc
    return _check_int("ZACN_THREADS", n, 1)


def _spec_from_args(args) -> KernelSpec:
    if args.padding == "same":
        return KernelSpec.same(args.kernel, args.dilation, args.stride)
    try:
        padding = int(args.padding)
    except ValueError as exc:
        raise ConfigError(f"--padding must be an integer or 'same', got {args.padding!r}") from exc
    return KernelSpec(args.kernel, args.dilation, args.stride, padding)


def _load_intrinsics(args, depth: DepthMap) -> CameraIntrinsics:
    if args.intrinsics is not None:
        return zio.read_intrinsics(args.intrinsics)
    if args.fu is None or args.fv is None:
        raise ConfigError("need --intrinsics FILE or inline --fu/--fv values")
    cu = args.cu if args.cu is not None else (depth.width - 1) / 2
    cv = args.cv if args.cv is not None else (depth.height - 1) / 2
    return CameraIntrinsics(fu=args.fu, fv=args.fv, cu=cu, cv=cv)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path, rows: list[dict]) -> None:
    # the header is the first row's keys; csv writes str(value), and
    # str(float) is the shortest round-trip repr
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _summary_path(args) -> str:
    # a JSON summary always accompanies the binary output so runs diff in CI
    return args.summary if args.summary else f"{args.out}.json"


# Values per sorted chunk (1 MiB of uint32) and most values in the sample of
# _abs_percentiles; a bracket spans _MARGIN_SD binomial deviations each side.
_CHUNK = 1 << 18
_SAMPLE = 1 << 16
_MARGIN_SD = 6.0


def _chunk_pass(bits, low, high):
    """Per bracket ``[low[k], high[k]]``, the counts below and up to each end and the
    sorted values inside, from sorted chunks of sign-cleared ``bits``; and the max."""
    buf = np.empty(min(bits.size, _CHUNK), dtype=np.uint32)
    counts, inner, top = 0, [[] for _ in low], 0
    for start in range(0, bits.size, buf.size):
        part = buf[:bits.size - start]
        np.bitwise_and(bits[start:start + part.size], 0x7FFFFFFF, out=part)
        part.sort()
        top = max(top, part[-1])
        at = np.array([np.searchsorted(part, e, s) for e in (low, high) for s in ("left", "right")])
        counts = counts + at
        for k, (a, b) in enumerate(zip(at[1], at[2])):
            inner[k].append(part[a:b].copy())  # buf is reused by the next chunk
    return counts, [np.sort(np.concatenate(v)) for v in inner], top


def _abs_percentiles(x: np.ndarray, percents) -> tuple[np.ndarray, float]:
    """``np.percentile(np.abs(x, dtype=np.float64), percents)`` and the max of
    ``|x|``, byte for byte, for a finite float32 ``x``, which is left untouched.

    Holds no copy of ``x``: finite float32 values with the sign bit cleared
    sort like their bits, so a sorted sample of every ``ceil(n / _SAMPLE)``-th
    value brackets each rank, and one pass over sorted chunks counts the
    values below each bracket and keeps those inside.  A rank outside its
    bracket widens that side to the end of the range for one more pass: a
    sample that misses costs memory, up to the whole array, never a value.
    """
    bits = np.ravel(x).view(np.uint32)
    n = bits.size
    # numpy's "linear" method interpolates between the order statistics at the
    # floor of (n - 1) * q and the next rank, or takes the last one for q = 1
    virtual = (n - 1) * np.true_divide(percents, 100)
    lo = np.floor(virtual).astype(np.int64)
    ranks = np.stack([lo, np.minimum(lo + 1, n - 1)], axis=1)
    sample = np.sort(bits[::-(-n // _SAMPLE)] & 0x7FFFFFFF)
    m, f = sample.size, (lo + 1) / n
    margin = _MARGIN_SD * np.sqrt(m * f * (1 - f)) + 2
    # brackets of ranks lo and lo + 1; 0xFFFFFFFF is above every |x|
    ends = np.concatenate([[0], sample, [0xFFFFFFFF]]).astype(np.uint32)
    low = ends[np.clip(np.floor(lo * m / n - margin).astype(np.int64) + 1, 0, m + 1)]
    high = ends[np.clip(np.ceil((lo + 2) * m / n + margin).astype(np.int64) + 1, 0, m + 1)]
    pairs = np.empty(ranks.shape, dtype=np.uint32)
    todo = np.arange(lo.size)
    while todo.size:
        (lt_low, le_low, lt_high, le_high), inner, top = _chunk_pass(bits, low[todo], high[todo])
        below, beyond = ranks[todo, 0] < lt_low, ranks[todo, 1] >= le_high
        for k in np.flatnonzero(~(below | beyond)):
            i = todo[k]
            for j, r in enumerate(ranks[i] - le_low[k]):
                pairs[i, j] = low[i] if r < 0 else inner[k][r] if r < inner[k].size else high[i]
        low[todo[below]] = 0
        high[todo[beyond]] = 0xFFFFFFFF
        todo = todo[below | beyond]
    a, b = pairs.view(np.float32).astype(np.float64).T
    gamma = virtual - lo
    # numpy's _lerp, with its branch for t >= 0.5
    diff_b_a = b - a
    out = a + diff_b_a * gamma
    np.subtract(b, diff_b_a * (1 - gamma), out=out, where=gamma >= 0.5)
    return out, float(np.uint32(top).view(np.float32))


def cmd_offsets(args) -> int:
    """``zacn offsets``: the offset field, and a JSON summary with exact percentiles
    of ``|offsets|`` read in bounded chunks; with more than one worker, a pool
    thread computes them while the calling thread writes the container."""
    depth = zio.read_depth(args.depth)
    K = _load_intrinsics(args, depth)
    spec = _spec_from_args(args)
    out_h, out_w = spec.output_shape(depth.height, depth.width)
    workers = _workers()
    field, summary = compute_offsets(depth, K, spec, out_h, out_w, workers=workers)
    stats = (field.data, [50, 90, 99])
    with ThreadPoolExecutor(1) as pool:  # its thread starts on the first submit
        future = pool.submit(_abs_percentiles, *stats) if workers > 1 else None
        zio.write_offsets(field, args.out)
        (p50, p90, p99), mag_max = future.result() if future else _abs_percentiles(*stats)
    payload = {
        **summary.as_dict(),
        "kernel": spec.size,
        "dilation": spec.dilation,
        "stride": spec.stride,
        "padding": spec.padding,
        "height": out_h,
        "width": out_w,
        "offset_abs_p50": float(p50),
        "offset_abs_p90": float(p90),
        "offset_abs_p99": float(p99),
        "offset_abs_max": float(mag_max),
    }
    _write_json(_summary_path(args), payload)
    return 0


def _run_operator(args, inputs: tuple, standard, adapted) -> int:
    """The body of ``conv`` and ``pool``: ``standard(*inputs, spec)``, or
    ``adapted(*inputs, offsets, spec)`` on the ``--offsets`` field, then the
    output container and its JSON summary."""
    spec = _spec_from_args(args)
    if args.standard:
        y, summary = standard(*inputs, spec), None
    else:
        if args.offsets is None:
            raise ConfigError("need --offsets FILE (or pass --standard)")
        y, summary = adapted(*inputs, zio.read_offsets(args.offsets), spec)
    zio.write_tensor(y.data, args.out)
    payload = {"standard": bool(args.standard)}
    if summary is not None:
        payload.update(summary.as_dict())
    _write_json(_summary_path(args), payload)
    return 0


def cmd_conv(args) -> int:
    # views of the file bytes, as in read_offsets: each container makes the one copy
    x = FeatureTensor(zio._read_container(args.input))
    w = ConvWeights(zio._read_container(args.weights))
    return _run_operator(args, (x, w), standard_conv, za_conv_forward)


def cmd_pool(args) -> int:
    x = FeatureTensor(zio._read_container(args.input))
    return _run_operator(args, (x,), standard_avg_pool, za_avg_pool)


def _parse_at(text: str) -> list[tuple[int, int]]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad --at entry {chunk!r}: {USAGE_AT}")
        try:
            points.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"bad --at entry {chunk!r}: {USAGE_AT}") from exc
    if not points:
        raise ConfigError(f"--at selected no points: {USAGE_AT}")
    return points


def _depth_to_gray(depth: DepthMap) -> np.ndarray:
    d = depth.data.astype(np.float64)
    valid = depth.valid_mask()
    gray = np.zeros(d.shape, dtype=np.int64)
    if valid.any():
        lo = float(d[valid].min())
        hi = float(d[valid].max())
        span = hi - lo if hi > lo else 1.0
        # nearer is brighter
        gray[valid] = np.round(235 - 195 * (d[valid] - lo) / span).astype(np.int64)
    return gray


def _num(x) -> str:
    """Shortest exact decimal for an SVG attribute (repr round-trips)."""
    return repr(float(x))


def render_sampling_svg(depth: DepthMap, K: CameraIntrinsics, spec: KernelSpec,
                        points: list[tuple[int, int]], scale: int) -> str:
    """SVG with the depth map as grayscale tiles, one per run of equal greys
    along a row, standard taps as squares, adapted taps as circles, and the
    query pixel highlighted."""
    h, w = depth.height, depth.width
    out_h, out_w = spec.output_shape(h, w)
    field, _ = compute_offsets(depth, K, spec, out_h, out_w, workers=_workers())
    s = scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * s}" height="{h * s}" '
        f'viewBox="0 0 {w * s} {h * s}">',
        "<!-- depth map background: brighter tiles are nearer -->",
    ]
    for v, row in enumerate(_depth_to_gray(depth)):
        starts = np.flatnonzero(np.diff(row, prepend=-1)).tolist()  # runs of equal greys
        for u0, u1, g in zip(starts, starts[1:] + [w], row[starts].tolist()):
            parts.append(f'<rect x="{u0 * s}" y="{v * s}" width="{(u1 - u0) * s}" '
                         f'height="{s}" fill="rgb({g},{g},{g})"/>')
    half = 0.22 * s
    for u0, v0 in points:
        off = field.data[:, v0, u0].astype(np.float64).reshape(-1, 2)
        # the query pixel is its own output pixel: unit stride, "same" padding
        tv, tu = spec.tap_positions([v0], [u0])
        for tap, (sv, su) in enumerate(zip(tv.ravel().tolist(), tu.ravel().tolist())):
            x = (su + 0.5) * s
            y = (sv + 0.5) * s
            parts.append(
                f'<rect class="standard-tap" x="{_num(x - half)}" y="{_num(y - half)}" '
                f'width="{_num(2 * half)}" height="{_num(2 * half)}" '
                f'fill="none" stroke="#1f77b4" stroke-width="1"/>'
            )
            au = su + off[tap, 1]
            av = sv + off[tap, 0]
            cx = (au + 0.5) * s
            cy = (av + 0.5) * s
            parts.append(
                f'<circle class="adapted-tap" cx="{_num(cx)}" cy="{_num(cy)}" '
                f'r="{_num(0.18 * s)}" fill="#ff7f0e" fill-opacity="0.85"/>'
            )
        parts.append(
            f'<circle class="query-center" cx="{_num((u0 + 0.5) * s)}" '
            f'cy="{_num((v0 + 0.5) * s)}" r="{_num(0.3 * s)}" '
            f'fill="none" stroke="#d62728" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_viz(args) -> int:
    if args.scale < 1:
        raise ConfigError(f"--scale must be >= 1, got {args.scale}")
    depth = zio.read_depth(args.depth)
    K = _load_intrinsics(args, depth)
    points = _parse_at(args.at)
    spec = KernelSpec.same(args.kernel, dilation=args.dilation)
    bad = [
        (u, v)
        for u, v in points
        if not (0 <= u < depth.width and 0 <= v < depth.height)
    ]
    if bad:
        raise ConfigError(
            f"query pixels outside the {depth.height}x{depth.width} depth map: {bad}"
        )
    svg = render_sampling_svg(depth, K, spec, points, args.scale)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(svg)
    return 0


def cmd_toytrain(args) -> int:
    operators = tuple(args.operator or OPERATORS)
    rows = paired_toy_runs(args.seed or [TrainConfig.seed], operators, epochs=args.epochs,
                           learning_rate=args.lr, hidden=args.hidden,
                           assumed_focal=args.assumed_focal)
    if args.csv:
        _write_csv(args.csv, rows)
    summary = {
        f"mean_{key}": {
            op: float(np.mean([r[key] for r in rows if r["operator"] == op])) for op in operators
        }
        for key in ("miou", "pixel_acc")
    }
    summary["rows"] = rows
    if args.json:
        _write_json(args.json, summary)
    if not args.csv and not args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _add_kernel_flags(p: argparse.ArgumentParser, default_padding: str):
    p.add_argument("--kernel", type=int, default=3, help="kernel size N (odd)")
    p.add_argument("--dilation", type=int, default=1)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--padding", default=default_padding, help="integer or 'same'")


def _add_intrinsics_flags(p: argparse.ArgumentParser):
    p.add_argument("--intrinsics", help="key=value intrinsics file")
    p.add_argument("--fu", type=float, help="inline focal length (px)")
    p.add_argument("--fv", type=float, help="inline focal length (px)")
    p.add_argument("--cu", type=float, help="inline principal point column")
    p.add_argument("--cv", type=float, help="inline principal point row")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zacn",
        description="Depth-adapted convolution tools: geometry-guided sampling "
        "offsets from depth maps, plus the operators that consume them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("offsets", help="compute a sampling-offset field from depth")
    p.add_argument("--depth", required=True, help="PFM or ZACN depth map")
    _add_intrinsics_flags(p)
    _add_kernel_flags(p, "same")
    p.add_argument("--out", required=True, help="output offset container")
    p.add_argument("--summary", help="JSON summary path (default: OUT.json)")
    p.set_defaults(func=cmd_offsets)

    p = sub.add_parser("conv", help="run standard or depth-adapted convolution")
    p.add_argument("--input", required=True, help="input feature container (C,H,W)")
    p.add_argument("--weights", required=True, help="weights container (co,ci,N,N)")
    p.add_argument("--offsets", help="offset field container")
    p.add_argument("--standard", action="store_true", help="ignore offsets, regular grid")
    _add_kernel_flags(p, "same")
    p.add_argument("--out", required=True)
    p.add_argument("--summary", help="JSON summary path (default: OUT.json)")
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("pool", help="run standard or depth-adapted average pooling")
    p.add_argument("--input", required=True)
    p.add_argument("--offsets")
    p.add_argument("--standard", action="store_true")
    _add_kernel_flags(p, "0")
    p.add_argument("--out", required=True)
    p.add_argument("--summary", help="JSON summary path (default: OUT.json)")
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("viz", help="SVG of standard vs adapted sampling positions")
    p.add_argument("--depth", required=True)
    _add_intrinsics_flags(p)
    p.add_argument("--at", required=True, help="query pixels 'u,v[;u,v...]'")
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--dilation", type=int, default=1)
    p.add_argument("--scale", type=int, default=16, help="SVG pixels per depth pixel")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("toytrain", help="paired toy segmentation experiment")
    p.add_argument("--operator", action="append", default=None,
                   help="standard or adapted (repeatable)")
    p.add_argument("--seed", action="append", type=int, default=None,
                   help="seed (repeatable)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--assumed-focal", type=float, default=TrainConfig.assumed_focal,
                   help="intrinsics assumed by the offset generator")
    p.add_argument("--csv")
    p.add_argument("--json", dest="json")
    p.set_defaults(func=cmd_toytrain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZacnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
