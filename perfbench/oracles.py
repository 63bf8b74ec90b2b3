"""Output checks that share no code with the package under test.

Every reference here is written from the definitions in PAPER.md and the
file formats, in float64, one pixel at a time: back-projection,
``numpy.linalg.eigh`` of the window scatter, the in-plane basis and the
projection for offsets; a scalar four-neighbour loop for bilinear
sampling.  Each check returns a list of failure messages (an empty list
means the output passed); ``check_offsets`` also returns how many pixels
it compared.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# Thresholds of the offset definition (relative rank tolerance, basis
# zone, sign tie-break zone).
RANK_TOL = 1e-9
BASIS_TOL = 1e-6
SIGN_TOL = 1e-3

# A sampled pixel whose answer could flip on rounding is skipped: an
# eigenvalue gap below GAP_MIN of the largest eigenvalue, or a value within
# a relative MARGIN of a threshold.  Both are far wider than the float64
# rounding of a 3x3 eigenproblem with that gap.
GAP_MIN = 1e-4
MARGIN = 1e-3

OFFSET_ATOL = 1e-5  # px; float32 storage of values up to a few px
OFFSET_RTOL = 1e-6
VALUE_RTOL = 1e-5  # relative to the sum of |terms|, float32 output


def read_container(path) -> np.ndarray:
    """Parse a ZACN tensor container (magic, u32 version, u8 dtype, u8 ndim,
    u64 dims, little-endian float32 payload) without the package's reader."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"ZACN":
        raise ValueError(f"bad magic {buf[:4]!r}")
    version, dtype, ndim = struct.unpack_from("<IBB", buf, 4)
    if version != 1 or dtype != 0:
        raise ValueError(f"unexpected version {version} or dtype tag {dtype}")
    dims = struct.unpack_from(f"<{ndim}Q", buf, 10)
    payload = buf[10 + 8 * ndim:]
    if len(payload) != 4 * math.prod(dims):
        raise ValueError(f"payload of {len(payload)} bytes does not fit dims {dims}")
    return np.frombuffer(payload, dtype="<f4").reshape(dims)


def write_pfm(depth: np.ndarray, path) -> None:
    """Little-endian grayscale PFM, rows stored bottom-up."""
    h, w = depth.shape
    with open(path, "wb") as f:
        f.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(np.flipud(depth).astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM written by :func:`write_pfm` (rows top-down)."""
    with open(path, "rb") as f:
        _, dims, scale = (f.readline().split() for _ in range(3))
        payload = f.read()
    w, h = (int(t) for t in dims)
    dt = "<f4" if float(scale[0]) < 0 else ">f4"
    return np.flipud(np.frombuffer(payload, dtype=dt).reshape(h, w))


def _window(spec, oy, ox):
    """Nominal (row, col) of every tap of output pixel (oy, ox), row-major."""
    size, dilation, stride, padding = spec
    c = (size - 1) // 2
    taps = []
    for i in range(size):
        for j in range(size):
            v = oy * stride - padding + dilation * c + dilation * (i - c)
            u = ox * stride - padding + dilation * c + dilation * (j - c)
            taps.append((v, u, i - c, j - c))
    return taps


def _near(x, threshold):
    return abs(x - threshold) <= MARGIN * threshold


def offsets_reference(depth, K, spec, oy, ox):
    """Reference offsets ``(dy, dx)`` per tap for one output pixel.

    Returns ``(offsets, ambiguous)``: ``offsets`` has shape ``(N*N, 2)``
    and is all zeros where the pixel falls back; ``ambiguous`` is True when
    rounding could decide the answer (near-equal eigenvalues, or a value
    within a relative ``MARGIN`` of a threshold).
    """
    fu, fv, cu, cv = K
    size, dilation = spec[0], spec[1]
    h, w = depth.shape
    taps = _window(spec, oy, ox)
    center = (size * size) // 2
    pts, valid = [], []
    for v, u, _, _ in taps:
        vc = min(max(v, 0), h - 1)
        uc = min(max(u, 0), w - 1)
        z = float(depth[vc, uc])
        ok = math.isfinite(z) and z > 0
        valid.append(ok)
        pts.append(((uc - cu) * z / fu, (vc - cv) * z / fv, z) if ok else None)
    zeros = np.zeros((size * size, 2))
    if not valid[center] or sum(valid) - 1 < 3:
        return zeros, False
    p0 = np.array(pts[center])
    d = np.array([p for p in pts if p is not None]) - p0
    lam, vec = np.linalg.eigh(d.T @ d)
    if lam[2] <= 0 or lam[1] <= RANK_TOL * lam[2]:
        return zeros, lam[2] > 0 and _near(lam[1] / lam[2], RANK_TOL)
    ambiguous = (lam[1] - lam[0]) <= GAP_MIN * lam[2] or _near(lam[1] / lam[2], RANK_TOL)
    n = vec[:, 0]
    for k in (2, 0, 1):  # sign: n3 >= 0, ties to n1 >= 0, then n2 >= 0
        ambiguous |= _near(abs(n[k]), SIGN_TOL)
        if abs(n[k]) > SIGN_TOL:
            n = n * math.copysign(1.0, n[k])
            break
    s2 = 1.0 - n[1] * n[1]
    ambiguous |= _near(s2, BASIS_TOL)
    if s2 <= BASIS_TOL:
        x_axis = np.array([1.0, 0.0, 0.0])
        y_axis = np.array([0.0, 0.0, -1.0 if n[1] >= 0 else 1.0])
    else:
        r = math.sqrt(s2)
        x_axis = np.array([n[2], 0.0, -n[0]]) / r
        y_axis = np.array([-n[0] * n[1], s2, -n[1] * n[2]]) / r
    ku = dilation * p0[2] / fu
    kv = dilation * p0[2] / fv
    out = np.zeros((size * size, 2))
    for t, (v, u, di, dj) in enumerate(taps):
        q = p0 + ku * dj * x_axis + kv * di * y_axis
        if q[2] <= 0:
            return zeros, ambiguous
        out[t] = (fv * q[1] / q[2] + cv - v, fu * q[0] / q[2] + cu - u)
    return out, ambiguous


def check_offsets(depth, K, spec, field, pixels) -> tuple[list[str], int]:
    """Compare ``field`` (2*N*N, H', W') with the reference at ``pixels``.

    Returns ``(failures, checked)`` where ``checked`` counts the pixels
    that were not ambiguous and so were compared.
    """
    failures = []
    checked = 0
    for oy, ox in pixels:
        ref, ambiguous = offsets_reference(depth, K, spec, oy, ox)
        if ambiguous:
            continue
        checked += 1
        got = np.asarray(field[:, oy, ox], dtype=np.float64).reshape(-1, 2)
        err = np.abs(got - ref)
        if not np.all(err <= OFFSET_ATOL + OFFSET_RTOL * np.abs(ref)):
            failures.append(
                f"offsets at ({oy},{ox}) differ from the reference by {err.max():.3g} px"
            )
    return failures, checked


def bilinear(data, u, v):
    """Zero-padded bilinear sample of every channel of ``data`` (C, H, W)."""
    _, h, w = data.shape
    u0 = math.floor(u)
    v0 = math.floor(v)
    du = u - u0
    dv = v - v0
    val = np.zeros(data.shape[0])
    mag = np.zeros(data.shape[0])
    for i, j, wgt in ((0, 0, (1 - dv) * (1 - du)), (0, 1, (1 - dv) * du),
                      (1, 0, dv * (1 - du)), (1, 1, dv * du)):
        if 0 <= v0 + i < h and 0 <= u0 + j < w:
            val += wgt * data[:, v0 + i, u0 + j]
            mag += abs(wgt) * np.abs(data[:, v0 + i, u0 + j])
    return val, mag


def _tap_positions(spec, offsets, oy, ox):
    for t, (v, u, _, _) in enumerate(_window(spec, oy, ox)):
        yield t, u + float(offsets[2 * t + 1, oy, ox]), v + float(offsets[2 * t, oy, ox])


def _compare(what, got, ref, mag, oy, ox):
    err = np.abs(np.asarray(got, dtype=np.float64) - ref)
    if np.all(err <= VALUE_RTOL * mag + 1e-30):
        return []
    return [f"{what} at ({oy},{ox}) differs from the reference by {err.max():.3g}"]


def check_conv(x, weights, offsets, spec, y, pixels) -> list[str]:
    """Adapted convolution output ``y`` against the scalar loop at ``pixels``."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    co, ci, n, _ = w.shape
    failures = []
    for oy, ox in pixels:
        ref = np.zeros(co)
        mag = np.zeros(co)
        for t, u, v in _tap_positions(spec, offsets, oy, ox):
            samp, smag = bilinear(x, u, v)
            wt = w[:, :, t // n, t % n]
            ref += wt @ samp
            mag += np.abs(wt) @ smag
        failures += _compare("conv output", y[:, oy, ox], ref, mag, oy, ox)
    return failures


def check_pool(x, offsets, spec, y, pixels) -> list[str]:
    """Adapted average pool output ``y`` against the scalar loop at ``pixels``;
    the divisor is always N*N."""
    x = np.asarray(x, dtype=np.float64)
    taps = spec[0] * spec[0]
    failures = []
    for oy, ox in pixels:
        ref = np.zeros(x.shape[0])
        mag = np.zeros(x.shape[0])
        for _, u, v in _tap_positions(spec, offsets, oy, ox):
            samp, smag = bilinear(x, u, v)
            ref += samp / taps
            mag += smag / taps
        failures += _compare("pool output", y[:, oy, ox], ref, mag, oy, ox)
    return failures


def check_toy_rows(rows, expected_params: int, chance_loss: float) -> list[str]:
    """One paired adapted/standard toy run: finite losses that fell well below
    the chance-level loss, equal and expected parameter counts, and the
    paper's direction (adapted mIoU above standard)."""
    by_op = {r["operator"]: r for r in rows}
    if sorted(by_op) != ["adapted", "standard"] or len(rows) != 2:
        return [f"expected one adapted and one standard row, got {sorted(by_op)}"]
    failures = []
    for op, r in by_op.items():
        loss = r["final_loss"]
        if not (math.isfinite(loss) and loss < 0.5 * chance_loss):
            failures.append(f"{op}: final loss {loss} is not below half of chance {chance_loss:.4f}")
        if r["param_count"] != expected_params:
            failures.append(f"{op}: param_count {r['param_count']} != {expected_params}")
        if not 0.0 <= r["miou"] <= 1.0:
            failures.append(f"{op}: mIoU {r['miou']} outside [0, 1]")
    if not failures and by_op["adapted"]["miou"] <= by_op["standard"]["miou"]:
        failures.append(
            f"adapted mIoU {by_op['adapted']['miou']:.4f} is not above "
            f"standard {by_op['standard']['miou']:.4f}"
        )
    return failures
