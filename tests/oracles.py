"""Independent brute-force references used to check the library.

Everything here is deliberately naive: scalar loops, the textbook
formulas, and numpy.linalg.eigh for the plane fit (the library uses its
own closed-form eigensolver, so this is a genuinely different route).
None of these call back into the code paths they verify.
"""

import math

import numpy as np


def naive_bilinear(data: np.ndarray, c: int, u: float, v: float) -> float:
    """Direct 4-neighbor weighted sum with zero padding; data is (C, H, W)."""
    _, h, w = data.shape
    total = 0.0
    for vi in (math.floor(v), math.floor(v) + 1):
        for ui in (math.floor(u), math.floor(u) + 1):
            wu = max(0.0, 1.0 - abs(u - ui))
            wv = max(0.0, 1.0 - abs(v - vi))
            if wu > 0 and wv > 0 and 0 <= vi < h and 0 <= ui < w:
                total += wu * wv * float(data[c, vi, ui])
    return total


def naive_standard_conv(x: np.ndarray, w: np.ndarray, size, dilation, stride, padding):
    """Six nested loops over (co, oy, ox, ci, ki, kj), zero padding."""
    ci, h, wd = x.shape
    co = w.shape[0]
    span = dilation * (size - 1) + 1
    oh = (h + 2 * padding - span) // stride + 1
    ow = (wd + 2 * padding - span) // stride + 1
    out = np.zeros((co, oh, ow))
    for o in range(co):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for i in range(ci):
                    for ki in range(size):
                        for kj in range(size):
                            vy = oy * stride - padding + dilation * ki
                            vx = ox * stride - padding + dilation * kj
                            if 0 <= vy < h and 0 <= vx < wd:
                                acc += float(w[o, i, ki, kj]) * float(x[i, vy, vx])
                out[o, oy, ox] = acc
    return out


def naive_za_conv(x: np.ndarray, w: np.ndarray, off: np.ndarray, size, dilation, stride, padding):
    """Per-pixel loop version of the adapted convolution."""
    ci = x.shape[0]
    co = w.shape[0]
    oh, ow = off.shape[1], off.shape[2]
    c = (size - 1) // 2
    out = np.zeros((co, oh, ow))
    for o in range(co):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ki in range(size):
                    for kj in range(size):
                        n = ki * size + kj
                        v = oy * stride - padding + dilation * c + dilation * (ki - c) + float(off[2 * n, oy, ox])
                        u = ox * stride - padding + dilation * c + dilation * (kj - c) + float(off[2 * n + 1, oy, ox])
                        for i in range(ci):
                            acc += float(w[o, i, ki, kj]) * naive_bilinear(x, i, u, v)
                out[o, oy, ox] = acc
    return out


def naive_za_pool(x: np.ndarray, off: np.ndarray, size, dilation, stride, padding):
    """Per-pixel loop version of the adapted average pooling."""
    ci = x.shape[0]
    oh, ow = off.shape[1], off.shape[2]
    c = (size - 1) // 2
    out = np.zeros((ci, oh, ow))
    for i in range(ci):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ki in range(size):
                    for kj in range(size):
                        n = ki * size + kj
                        v = oy * stride - padding + dilation * ki
                        u = ox * stride - padding + dilation * kj
                        acc += naive_bilinear(x, i, u + float(off[2 * n + 1, oy, ox]), v + float(off[2 * n, oy, ox]))
                out[i, oy, ox] = acc / (size * size)
    return out


def plane_residual(normal, points, center) -> float:
    """Summed squared point-plane distances for a unit normal."""
    d = np.asarray(points, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    return float(np.sum((d @ np.asarray(normal, dtype=np.float64)) ** 2))


def ref_offsets_eigh(depth: np.ndarray, fu, fv, cu, cv, size, dilation, stride, padding):
    """Scalar re-implementation of the offset pipeline with numpy.linalg.eigh.

    Assumes every pixel's neighborhood is valid and non-degenerate (the
    caller picks such maps); returns (2*N*N, oh, ow) float64 offsets.
    """
    h, w = depth.shape
    span = dilation * (size - 1) + 1
    oh = (h + 2 * padding - span) // stride + 1
    ow = (w + 2 * padding - span) // stride + 1
    c = (size - 1) // 2
    out = np.zeros((2 * size * size, oh, ow))
    for oy in range(oh):
        for ox in range(ow):
            v0 = oy * stride - padding + dilation * c
            u0 = ox * stride - padding + dilation * c
            pts = np.zeros((size * size, 3))
            for ki in range(size):
                for kj in range(size):
                    vv = min(max(v0 + dilation * (ki - c), 0), h - 1)
                    uu = min(max(u0 + dilation * (kj - c), 0), w - 1)
                    z = float(depth[vv, uu])
                    pts[ki * size + kj] = ((uu - cu) * z / fu, (vv - cv) * z / fv, z)
            p0 = pts[c * size + c]
            diffs = pts - p0
            scatter = diffs.T @ diffs
            eigvals, eigvecs = np.linalg.eigh(scatter)
            n = eigvecs[:, 0]
            tol = 1e-3  # same sign tie-break tolerance as the library
            lead = next((x for x in (n[2], n[0], n[1]) if abs(x) > tol), 1.0)
            if lead < 0:
                n = -n
            s2 = 1.0 - n[1] * n[1]
            if s2 <= 1e-6:
                sgn = 1.0 if n[1] >= 0 else -1.0
                xa = np.array([1.0, 0.0, 0.0])
                ya = np.array([0.0, 0.0, -sgn])
            else:
                inv = 1.0 / math.sqrt(s2)
                xa = np.array([n[2] * inv, 0.0, -n[0] * inv])
                ya = np.array([-n[0] * n[1] * inv, s2 * inv, -n[1] * n[2] * inv])
            z0 = p0[2]
            ku = dilation * z0 / fu
            kv = dilation * z0 / fv
            for ki in range(size):
                for kj in range(size):
                    tap = p0 + ku * (kj - c) * xa + kv * (ki - c) * ya
                    pu = fu * tap[0] / tap[2] + cu
                    pv = fv * tap[1] / tap[2] + cv
                    nidx = ki * size + kj
                    out[2 * nidx, oy, ox] = pv - (v0 + dilation * (ki - c))
                    out[2 * nidx + 1, oy, ox] = pu - (u0 + dilation * (kj - c))
    return out


def stacked_eigenpair_sym3(a00, a11, a22, a01, a02, a12, sign_tol=1e-3):
    """The closed-form smallest eigenpair of symmetric 3x3 matrices built from
    ``(..., 3)`` stacks, ``np.cross``, ``einsum`` norms and ``argmax``: the
    reference that ``geometry._smallest_eigenpair_sym3``, which works
    component by component, must match byte for byte.  Same arguments and
    return value.
    """
    q = (a00 + a11 + a22) / 3.0
    b00 = a00 - q
    b11 = a11 - q
    b22 = a22 - q
    p2 = b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)
    p = np.sqrt(p2 / 6.0)
    psafe = np.where(p > 0.0, p, 1.0)
    det = (
        b00 * (b11 * b22 - a12 * a12)
        - a01 * (a01 * b22 - a12 * a02)
        + a02 * (a01 * a12 - b11 * a02)
    )
    r = np.clip(det / (2.0 * psafe**3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam_max = q + 2.0 * p * np.cos(phi)
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    lam_mid = 3.0 * q - lam_max - lam_min

    r0 = np.stack([a00 - lam_min, a01, a02], axis=-1)
    r1 = np.stack([a01, a11 - lam_min, a12], axis=-1)
    r2 = np.stack([a02, a12, a22 - lam_min], axis=-1)
    c01 = np.cross(r0, r1)
    c02 = np.cross(r0, r2)
    c12 = np.cross(r1, r2)
    norms = np.stack(
        [
            np.einsum("...i,...i->...", c01, c01),
            np.einsum("...i,...i->...", c02, c02),
            np.einsum("...i,...i->...", c12, c12),
        ],
        axis=-1,
    )
    pick = np.argmax(norms, axis=-1)[..., None]
    v = np.where(pick == 0, c01, np.where(pick == 1, c02, c12))
    best = np.max(norms, axis=-1)

    usable = best > 0.0
    v = np.where(usable[..., None], v, np.array([0.0, 0.0, 1.0]))
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)

    sign = np.where(
        np.abs(v[..., 2]) > sign_tol,
        np.sign(v[..., 2]),
        np.where(
            np.abs(v[..., 0]) > sign_tol,
            np.sign(v[..., 0]),
            np.where(np.abs(v[..., 1]) > sign_tol, np.sign(v[..., 1]), 1.0),
        ),
    )
    v = v * sign[..., None]
    return (lam_min, lam_mid, lam_max), v
