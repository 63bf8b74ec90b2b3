"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with output visible:

    pytest -s tests/test_acceptance.py

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import struct
import time

import numpy as np
import pytest

import zacn
from zacn import (
    CameraIntrinsics,
    ConvWeights,
    DepthMap,
    FeatureTensor,
    KernelSpec,
    OffsetField,
    ZacnError,
    compute_offsets,
    conv_param_count,
    fit_plane,
    read_depth,
    read_offsets,
    read_tensor,
    standard_conv,
    write_depth,
    write_offsets,
    write_tensor,
    za_avg_pool,
    za_conv_backward,
    za_conv_forward,
)
from zacn.harness import paired_toy_runs
from zacn.cli import _write_csv

from conftest import rand_feature, rand_offsets, rand_weights
from oracles import naive_za_conv, naive_za_pool, ref_offsets_eigh


def _report(num, name, elapsed, detail=""):
    extra = f"; {detail}" if detail else ""
    print(f"\nACCEPTANCE {num:>2} {name}: PASS ({elapsed:.1f}s{extra})")


def test_criterion_01_frontoparallel_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_off = 0.0
    worst_conv = 0.0
    for size in (32, 64, 128):
        for n in (3, 5):
            for dil in (1, 2):
                K = CameraIntrinsics(
                    fu=float(rng.uniform(40, 800)),
                    fv=float(rng.uniform(40, 800)),
                    cu=float(rng.uniform(-5, size + 5)),
                    cv=float(rng.uniform(-5, size + 5)),
                )
                z0 = float(rng.uniform(0.4, 9.0))
                depth = DepthMap(np.full((size, size), z0, np.float32))
                spec = KernelSpec.same(n, dilation=dil)
                field, _ = compute_offsets(depth, K, spec, size, size)
                worst_off = max(worst_off, float(np.abs(field.data).max()))

                x = rand_feature(rng, 2, size, size)
                w = rand_weights(rng, 2, 2, n)
                y_std = standard_conv(x, w, spec)
                y_za, _ = za_conv_forward(x, w, field, spec)
                worst_conv = max(
                    worst_conv, float(np.abs(y_za.data - y_std.data).max())
                )
    elapsed = time.perf_counter() - t0
    assert worst_off < 1e-5, f"max |offset| = {worst_off}"
    assert worst_conv < 1e-5, f"max |za_conv - standard_conv| = {worst_conv}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(1, "fronto-parallel reduction", elapsed,
            f"max|off|={worst_off:.2e}, max|conv diff|={worst_conv:.2e}")


def test_criterion_02_depth_scale_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    K = CameraIntrinsics(50.0, 50.0, 11.5, 9.5)
    spec = KernelSpec.same(3)
    u = np.arange(24)[None, :]
    v = np.arange(20)[:, None]
    worst = 0.0
    for _ in range(100):
        z = (
            rng.uniform(1, 3)
            + rng.uniform(-0.003, 0.003) * u
            + rng.uniform(-0.003, 0.003) * v
        )
        lam = rng.uniform(12, 30)
        ang = rng.uniform(0, 2 * np.pi)
        z = z + 0.02 * np.sin(
            2 * np.pi * (np.cos(ang) * u + np.sin(ang) * v) / lam + rng.uniform(0, 2 * np.pi)
        )
        depth = np.maximum(z, 0.25).astype(np.float32)
        base, _ = compute_offsets(DepthMap(depth), K, spec, 20, 24)
        for s in (0.1, 3.7, 10.0):
            scaled, _ = compute_offsets(DepthMap(depth * np.float32(s)), K, spec, 20, 24)
            worst = max(worst, float(np.abs(scaled.data - base.data).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5, f"worst offset difference across scales: {worst}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(2, "depth-scale invariance", elapsed, f"worst diff={worst:.2e}")


def test_criterion_03_plane_fit_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    K = CameraIntrinsics(180.0, 175.0, 32.0, 24.0)
    failures = 0
    for case in range(1000):
        # random 3x3 depth neighborhoods: half rough, half smooth + noise
        if case % 2 == 0:
            patch = rng.uniform(0.5, 5.0, size=(3, 3))
        else:
            base = rng.uniform(1.0, 4.0)
            patch = base + 0.1 * rng.standard_normal((3, 3))
        u0 = int(rng.integers(1, 62))
        v0 = int(rng.integers(1, 46))
        pts = []
        for i in range(3):
            for j in range(3):
                z = float(patch[i, j])
                pts.append(
                    (
                        (u0 + j - 1 - K.cu) * z / K.fu,
                        (v0 + i - 1 - K.cv) * z / K.fv,
                        z,
                    )
                )
        pts = np.asarray(pts)
        center = pts[4]
        normal = fit_plane(pts, center)
        d = pts - center
        scatter = d.T @ d
        fitted = float(normal @ scatter @ normal)
        vecs = rng.standard_normal((10000, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        rand_best = float(np.einsum("ui,ij,uj->u", vecs, scatter, vecs).min())
        if fitted > rand_best * (1 + 1e-9) + 1e-18:
            failures += 1
    elapsed = time.perf_counter() - t0
    assert failures == 0, f"{failures}/1000 neighborhoods beaten by a random vector"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(3, "plane-fit optimality vs 10k random unit vectors", elapsed)


def _mpmath_offsets_at(depth32, K, spec, v0, u0):
    """50-digit re-derivation of one pixel's offsets (independent route)."""
    from mpmath import mp, mpf, polyroots, sqrt as mpsqrt

    mp.dps = 50
    n = spec.size
    c = spec.center
    h, w = depth32.shape
    fu, fv, cu, cv = (mpf(x) for x in (K.fu, K.fv, K.cu, K.cv))
    pts = []
    for ki in range(n):
        for kj in range(n):
            vv = min(max(v0 + spec.dilation * (ki - c), 0), h - 1)
            uu = min(max(u0 + spec.dilation * (kj - c), 0), w - 1)
            z = mpf(float(depth32[vv, uu]))  # exact binary32 -> mp value
            pts.append(((uu - cu) * z / fu, (vv - cv) * z / fv, z))
    p0 = pts[c * n + c]
    d = [(p[0] - p0[0], p[1] - p0[1], p[2] - p0[2]) for p in pts]
    s = [[sum(di[a] * di[b] for di in d) for b in range(3)] for a in range(3)]
    tr = s[0][0] + s[1][1] + s[2][2]
    m = (
        s[0][0] * s[1][1] - s[0][1] ** 2
        + s[0][0] * s[2][2] - s[0][2] ** 2
        + s[1][1] * s[2][2] - s[1][2] ** 2
    )
    det = (
        s[0][0] * (s[1][1] * s[2][2] - s[1][2] ** 2)
        - s[0][1] * (s[0][1] * s[2][2] - s[1][2] * s[0][2])
        + s[0][2] * (s[0][1] * s[1][2] - s[1][1] * s[0][2])
    )
    roots = polyroots([mpf(1), -tr, m, -det], maxsteps=200, extraprec=60)
    lam = min(r.real for r in roots)
    rows = [
        (s[0][0] - lam, s[0][1], s[0][2]),
        (s[0][1], s[1][1] - lam, s[1][2]),
        (s[0][2], s[1][2], s[2][2] - lam),
    ]

    def cross(a, b):
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )

    cands = [cross(rows[0], rows[1]), cross(rows[0], rows[2]), cross(rows[1], rows[2])]
    best = max(cands, key=lambda vv2: vv2[0] ** 2 + vv2[1] ** 2 + vv2[2] ** 2)
    norm = mpsqrt(best[0] ** 2 + best[1] ** 2 + best[2] ** 2)
    nrm = [b / norm for b in best]
    lead = next((x for x in (nrm[2], nrm[0], nrm[1]) if abs(x) > mpf("1e-3")), mpf(1))
    if lead < 0:
        nrm = [-x for x in nrm]
    s2 = 1 - nrm[1] ** 2
    inv = 1 / mpsqrt(s2)
    xa = (nrm[2] * inv, mpf(0), -nrm[0] * inv)
    ya = (-nrm[0] * nrm[1] * inv, s2 * inv, -nrm[1] * nrm[2] * inv)
    z0 = p0[2]
    ku = spec.dilation * z0 / fu
    kv = spec.dilation * z0 / fv
    out = np.zeros(2 * n * n)
    for ki in range(n):
        for kj in range(n):
            tap = [
                p0[a] + ku * (kj - c) * xa[a] + kv * (ki - c) * ya[a] for a in range(3)
            ]
            pu = fu * tap[0] / tap[2] + cu
            pv = fv * tap[1] / tap[2] + cv
            idx = ki * n + kj
            out[2 * idx] = float(pv - (v0 + spec.dilation * (ki - c)))
            out[2 * idx + 1] = float(pu - (u0 + spec.dilation * (kj - c)))
    return out


def test_criterion_04_analytic_ramp_oracle():
    t0 = time.perf_counter()
    h, w = 32, 48
    u = np.arange(w, dtype=np.float64)[None, :]
    depth = np.broadcast_to(1.0 + 0.002 * u, (h, w)).astype(np.float32)
    K = CameraIntrinsics(519.0, 519.0, (w - 1) / 2, (h - 1) / 2)
    spec = KernelSpec.same(3)
    field, summary = compute_offsets(DepthMap(depth), K, spec, h, w)
    assert summary.degenerate_pixels == 0

    ref = ref_offsets_eigh(
        depth.astype(np.float64), K.fu, K.fv, K.cu, K.cv, 3, 1, 1, 1
    )
    diff = float(np.abs(field.data - ref).max())
    assert diff < 1e-4, f"max deviation from closed-form oracle: {diff}"

    # spot-check two pixels against a 50-digit arbitrary-precision route
    for v0, u0 in ((16, 24), (7, 40)):
        hp = _mpmath_offsets_at(depth, K, spec, v0, u0)
        hp_diff = float(np.abs(field.data[:, v0, u0].astype(np.float64) - hp).max())
        assert hp_diff < 1e-6, f"high-precision check at ({u0},{v0}): {hp_diff}"
    elapsed = time.perf_counter() - t0
    assert float(np.abs(field.data).max()) > 1e-3  # the ramp genuinely deforms
    _report(4, "analytic-ramp oracle (eigh + 50-digit spot check)", elapsed,
            f"max dev={diff:.2e}")


def test_criterion_05_operator_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst_conv = 0.0
    worst_pool = 0.0
    for case in range(50):
        ci = int(rng.integers(1, 5))
        co = int(rng.integers(1, 5))
        hh = int(rng.integers(6, 17))
        ww = int(rng.integers(6, 17))
        n = int(rng.choice([1, 3, 5]))
        dil = int(rng.choice([1, 2]))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, dil * (n - 1) // 2]))
        spec = KernelSpec(n, dilation=dil, stride=stride, padding=pad)
        try:
            oh, ow = spec.output_shape(hh, ww)
        except ZacnError:
            spec = KernelSpec(n, dilation=1, stride=1, padding=n // 2)
            oh, ow = spec.output_shape(hh, ww)
        x = rand_feature(rng, ci, hh, ww)
        w = rand_weights(rng, co, ci, spec.size)
        off = rand_offsets(rng, spec.size, oh, ow, scale=2.0)

        y, _ = za_conv_forward(x, w, off, spec)
        ref = naive_za_conv(
            x.data.astype(np.float64), w.data.astype(np.float64),
            off.data.astype(np.float64),
            spec.size, spec.dilation, spec.stride, spec.padding,
        )
        worst_conv = max(worst_conv, float(np.abs(y.data - ref).max()))

        p, _ = za_avg_pool(x, off, spec)
        pref = naive_za_pool(
            x.data.astype(np.float64), off.data.astype(np.float64),
            spec.size, spec.dilation, spec.stride, spec.padding,
        )
        worst_pool = max(worst_pool, float(np.abs(p.data - pref).max()))
    elapsed = time.perf_counter() - t0
    assert worst_conv < 1e-5, f"conv vs naive loop: {worst_conv}"
    assert worst_pool < 1e-5, f"pool vs naive loop: {worst_pool}"
    _report(5, "operator oracles (50 random instances)", elapsed,
            f"conv={worst_conv:.2e}, pool={worst_pool:.2e}")


def test_criterion_06_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    step = 1e-3
    worst_w = 0.0
    worst_x = 0.0
    for _ in range(20):
        ci = int(rng.integers(1, 3))
        co = int(rng.integers(1, 3))
        spec = KernelSpec.same(3)
        x = rand_feature(rng, ci, 4, 4)
        w = rand_weights(rng, co, ci, 3)
        off = rand_offsets(rng, 3, 4, 4, scale=1.2, lattice_margin=1e-2)
        g = rand_feature(rng, co, 4, 4)
        gx, gw = za_conv_backward(x, w, off, spec, g)

        def loss(xarr, warr):
            # 64-bit accumulation through the independent naive-loop oracle
            y = naive_za_conv(
                xarr.astype(np.float64), warr.astype(np.float64),
                off.data.astype(np.float64),
                spec.size, spec.dilation, spec.stride, spec.padding,
            )
            return float((y * g.data).sum())

        for idx in np.ndindex(*w.data.shape):
            wp = w.data.astype(np.float64)
            wp[idx] += step
            wm = w.data.astype(np.float64)
            wm[idx] -= step
            fd = (loss(x.data, wp) - loss(x.data, wm)) / (2 * step)
            worst_w = max(worst_w, abs(float(gw.data[idx]) - fd))
        for idx in np.ndindex(*x.data.shape):
            xp = x.data.astype(np.float64)
            xp[idx] += step
            xm = x.data.astype(np.float64)
            xm[idx] -= step
            fd = (loss(xp, w.data) - loss(xm, w.data)) / (2 * step)
            worst_x = max(worst_x, abs(float(gx.data[idx]) - fd))
    elapsed = time.perf_counter() - t0
    assert worst_w <= 1e-3, f"gradW vs finite differences: {worst_w}"
    assert worst_x <= 1e-3, f"gradX vs finite differences: {worst_x}"
    _report(6, "gradient finite-difference checks", elapsed,
            f"gradW={worst_w:.2e}, gradX={worst_x:.2e}")


def test_criterion_07_zero_added_parameters():
    t0 = time.perf_counter()
    for ci, co, n in ((8, 8, 3), (3, 24, 3), (4, 4, 5)):
        w = ConvWeights(np.zeros((co, ci, n, n), np.float32))
        assert w.param_count == conv_param_count(ci, co, n) == co * ci * n * n
    # 3x3 with ci=co=8: the classic 576, identical for both operators
    assert conv_param_count(8, 8, 3) == 576
    elapsed = time.perf_counter() - t0
    _report(7, "zero added parameters (adapted == standard)", elapsed, "576 == 576")


@pytest.fixture(scope="module")
def toy_results(tmp_path_factory):
    """Shared runs for criteria 8 and 9, the slowest part of the suite:
    15 runs of 150 epochs, 6.6-7.9 s on 2 CPUs."""
    t0 = time.perf_counter()
    seeds = range(5)
    rows_519 = paired_toy_runs(seeds, ("adapted", "standard"), assumed_focal=519.0)
    rows_100 = paired_toy_runs(seeds, ("adapted",), assumed_focal=100.0)
    out_dir = tmp_path_factory.mktemp("toytrain")
    csv_path = out_dir / "corridor_runs.csv"
    _write_csv(csv_path, rows_519)
    return {
        "rows_519": rows_519,
        "rows_100": rows_100,
        "csv": csv_path,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_08_toy_directional_result(toy_results):
    rows = toy_results["rows_519"]
    adapted = [r["miou"] for r in rows if r["operator"] == "adapted"]
    standard = [r["miou"] for r in rows if r["operator"] == "standard"]
    assert len(adapted) == len(standard) == 5
    mean_a = float(np.mean(adapted))
    mean_s = float(np.mean(standard))
    assert mean_a >= mean_s, f"adapted {mean_a:.3f} < standard {mean_s:.3f}"
    for r in rows:  # training made progress on every run
        assert r["final_loss"] < 1.2
    csv_path = toy_results["csv"]
    assert csv_path.exists() and csv_path.read_text().startswith("seed,operator")
    assert toy_results["elapsed"] < 600.0, "toy experiment exceeded 10 minutes"
    _report(8, "toy directional result (5 seeds, corridor)", toy_results["elapsed"],
            f"adapted mIoU={mean_a:.3f} vs standard {mean_s:.3f}")


def test_criterion_09_intrinsics_robustness(toy_results):
    rows = toy_results["rows_519"]
    adapted_519 = float(np.mean([r["miou"] for r in rows if r["operator"] == "adapted"]))
    standard = float(np.mean([r["miou"] for r in rows if r["operator"] == "standard"]))
    adapted_100 = float(np.mean([r["miou"] for r in toy_results["rows_100"]]))
    gap = adapted_519 - standard
    change = abs(adapted_519 - adapted_100)
    assert gap > 0, "no adapted-vs-standard gap to compare against"
    assert change < gap, (
        f"focal swap changed adapted mIoU by {change:.3f}, not below the gap {gap:.3f}"
    )
    _report(9, "intrinsics robustness (fu=fv=100)", 0.0,
            f"change={change:.3f} < gap={gap:.3f}")


def _malformed_corpus(root):
    """20 deliberately broken inputs; every one must fail with a typed error."""
    files = []

    def add(name, data: bytes):
        p = root / name
        p.write_bytes(data)
        files.append(p)

    good_pfm = b"Pf\n4 3\n-1.0\n" + b"\x00" * 48
    add("empty.pfm", b"")
    add("magic.pfm", b"Qx\n4 3\n-1.0\n" + b"\x00" * 48)
    add("color.pfm", b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
    add("alpha_dims.pfm", b"Pf\nfour three\n-1.0\n" + b"\x00" * 48)
    add("negative_dims.pfm", b"Pf\n-4 3\n-1.0\n" + b"\x00" * 48)
    add("zero_scale.pfm", b"Pf\n4 3\n0.0\n" + b"\x00" * 48)
    add("truncated_payload.pfm", good_pfm[:-10])
    add("header_only.pfm", b"Pf\n4 3\n")
    add("bad_scale.pfm", b"Pf\n4 3\nxyz\n" + b"\x00" * 48)
    add("oversized_dims.pfm", b"Pf\n4 4\n-1.0\n" + b"\x00" * 48)

    good = root / "good.zacn"
    write_tensor(np.ones((3, 4), np.float32), good)
    blob = good.read_bytes()
    add("magic.zacn", b"NOPE" + blob[4:])
    add("version.zacn", blob[:4] + struct.pack("<I", 9) + blob[8:])
    add("dtype.zacn", blob[:8] + b"\x05" + blob[9:])
    add("ndim0.zacn", blob[:9] + b"\x00" + blob[10:])
    add("ndim9.zacn", blob[:9] + b"\x0c" + blob[10:])
    add("zerodim.zacn", blob[:10] + struct.pack("<Q", 0) + blob[18:])
    add("hugedim.zacn", blob[:10] + struct.pack("<Q", 2**40) + blob[18:])
    add("short_header.zacn", blob[:13])
    add("short_payload.zacn", blob[:-4])
    add("long_payload.zacn", blob + b"\xff\xff\xff\xff")

    add("missing_eq.txt", b"fu 519\nfv=519\n")
    add("non_numeric.txt", b"fu=519\nfv=potato\n")
    return files


def test_criterion_10_io_round_trips_and_malformed_corpus(tmp_path, rng):
    t0 = time.perf_counter()
    # bit-identical round-trips, including non-finite depth payloads
    depth = rng.uniform(0.1, 8.0, size=(11, 13)).astype(np.float32)
    depth[3, 4] = np.nan
    depth[5, 6] = np.inf
    depth[7, 8] = -2.0
    p = tmp_path / "d.pfm"
    write_depth(DepthMap(depth), p)
    back = read_depth(p)
    assert np.array_equal(back.data.view(np.uint32), depth.view(np.uint32))

    field = OffsetField(rng.standard_normal((50, 6, 7)).astype(np.float32))
    p = tmp_path / "o.zacn"
    write_offsets(field, p)
    assert np.array_equal(read_offsets(p).data.view(np.uint32), field.data.view(np.uint32))

    arr = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
    p = tmp_path / "t.zacn"
    write_tensor(arr, p)
    assert np.array_equal(read_tensor(p), arr)

    # the malformed corpus: typed errors only, never a crash
    corpus = _malformed_corpus(tmp_path)
    assert len(corpus) >= 20
    typed = 0
    for path in corpus:
        readers = [read_depth] if path.suffix == ".pfm" else (
            [read_tensor, read_offsets] if path.suffix == ".zacn" else [zacn.read_intrinsics]
        )
        for reader in readers:
            try:
                reader(path)
            except ZacnError:
                typed += 1
            except Exception as exc:  # anything untyped counts as a crash
                pytest.fail(f"{reader.__name__}({path.name}) raised untyped {type(exc).__name__}: {exc}")
            else:
                pytest.fail(f"{reader.__name__}({path.name}) accepted malformed input")
    elapsed = time.perf_counter() - t0
    _report(10, "IO round-trips + malformed corpus", elapsed,
            f"{len(corpus)} files, {typed} typed failures, 0 crashes")
