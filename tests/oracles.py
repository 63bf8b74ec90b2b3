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


def masked_bilinear_weights(h: int, w: int, u: np.ndarray, v: np.ndarray):
    """The bilinear plan ``(base, weights)`` in the layout of
    ``zacn.ops._bilinear_scatter_weights``, each weight formed as the
    product of its two axis factors, then masked by its neighbor's
    in-image test.  The library folds the test into the factors instead;
    both must give the same bits."""
    u = np.clip(np.asarray(u, dtype=np.float64), -2.0, w + 1.0)
    v = np.clip(np.asarray(v, dtype=np.float64), -2.0, h + 1.0)
    u0 = np.floor(u)
    v0 = np.floor(v)
    du = np.subtract(u, u0, out=u)
    dv = np.subtract(v, v0, out=v)
    itype = np.int32 if (h + 3) * w + 2 <= np.iinfo(np.int32).max else np.int64
    u0 = u0.astype(itype)
    v0 = v0.astype(itype)
    wgt = np.empty((4,) + u.shape, dtype=np.float64)
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        vi = v0 + i
        ui = u0 + j
        np.multiply(dv if i else 1 - dv, du if j else 1 - du, out=wgt[k])
        wgt[k] *= (vi >= 0) & (vi < h) & (ui >= 0) & (ui < w)
    return v0 * w + u0, wgt


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


def naive_za_conv_backward(x: np.ndarray, w: np.ndarray, off: np.ndarray, g: np.ndarray,
                           size, dilation, stride, padding):
    """Per-pixel loop version of the adapted convolution's gradients: for
    each output pixel, tap and in-image bilinear neighbor of the tap's
    sample, add ``g * w * weight`` to ``grad_x`` and ``g * weight * x`` to
    ``grad_w``.  Returns float64 ``(grad_x, grad_w)``."""
    ci, h, wd = x.shape
    co = w.shape[0]
    oh, ow = off.shape[1], off.shape[2]
    grad_x = np.zeros(x.shape)
    grad_w = np.zeros(w.shape)
    for oy in range(oh):
        for ox in range(ow):
            for ki in range(size):
                for kj in range(size):
                    n = ki * size + kj
                    v = oy * stride - padding + dilation * ki + float(off[2 * n, oy, ox])
                    u = ox * stride - padding + dilation * kj + float(off[2 * n + 1, oy, ox])
                    for vi in (math.floor(v), math.floor(v) + 1):
                        for ui in (math.floor(u), math.floor(u) + 1):
                            wgt = max(0.0, 1.0 - abs(u - ui)) * max(0.0, 1.0 - abs(v - vi))
                            if wgt == 0 or not (0 <= vi < h and 0 <= ui < wd):
                                continue
                            for o in range(co):
                                go = float(g[o, oy, ox]) * wgt
                                for i in range(ci):
                                    grad_x[i, vi, ui] += go * float(w[o, i, ki, kj])
                                    grad_w[o, i, ki, kj] += go * float(x[i, vi, ui])
    return grad_x, grad_w


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


def whole_image_ops(x: np.ndarray, w: np.ndarray, off: np.ndarray, g: np.ndarray,
                    size, dilation, stride, padding, gemm_tiles, scatter_tiles) -> dict:
    """The adapted operators computed from whole-image float64 copies of the
    float32 input ``x`` and output gradient ``g``: the reference that the
    library's bands and per-tile conversions must match byte for byte.

    The samples come from one float64 copy of ``x`` through the plan of
    :func:`masked_bilinear_weights` over all taps and pixels at once, the
    four neighbor slots summed in order (a slot without weight adds only
    signed zeros).  The contractions run over the library's row tiles,
    ``gemm_tiles`` for the convolution and its weight gradient and
    ``scatter_tiles`` for the input gradient, as one matmul per tile and one
    ``bincount`` per tile and channel, since their shapes set the bits.
    Returns ``samples``, ``forward``, ``pool``, ``grad_x``, ``grad_w``
    (float32 but for the samples), ``degenerate_pixels`` and
    ``oob_sample_fraction``.
    """
    ci, h, wd = x.shape
    co, taps, (oh, ow) = w.shape[0], size * size, off.shape[1:]
    i, j = np.divmod(np.arange(taps)[:, None, None], size)
    v = (np.arange(oh)[:, None] * stride - padding + dilation * i) + off[0::2].astype(np.float64)
    u = (np.arange(ow) * stride - padding + dilation * j) + off[1::2].astype(np.float64)
    inside = (u >= 0) & (u <= wd - 1) & (v >= 0) & (v <= h - 1)
    wholly_off = (u <= -1) | (u >= wd) | (v <= -1) | (v >= h)
    base, wgt = masked_bilinear_weights(h, wd, u, v)
    steps = (0, 1, wd, wd + 1)
    x64, g64 = x.astype(np.float64).reshape(ci, -1), g.astype(np.float64)
    samples = np.zeros((ci, taps, oh, ow))
    for step, wk in zip(steps, wgt):
        samples += np.take(x64, base + step, axis=1, mode="clip") * wk

    k = ci * taps
    w2 = w.astype(np.float64).reshape(co, k)
    forward = np.empty((co, oh, ow), np.float32)
    grad_w = np.zeros((co, k))
    for r0, r1 in gemm_tiles:
        t = np.ascontiguousarray(samples[:, :, r0:r1].reshape(k, -1))
        forward[:, r0:r1] = (w2 @ t).reshape(co, r1 - r0, ow)
        grad_w += g64[:, r0:r1].reshape(co, -1) @ t.T
    pool = np.zeros((ci, oh, ow))
    for n in range(taps):
        pool += samples[:, n]

    acc = np.zeros((ci, h * wd))
    w3 = w2.reshape(co, ci, taps).transpose(1, 2, 0)
    for r0, r1 in scatter_tiles:
        idx = np.add.outer(np.array(steps), base[:, r0:r1].reshape(taps, -1))
        np.clip(idx, 0, h * wd - 1, out=idx)
        tile_wgt = wgt[:, :, r0:r1].reshape(4, taps, -1)
        gt = g64[:, r0:r1].reshape(co, -1)
        for c in range(ci):
            contrib = (w3[c] @ gt) * tile_wgt
            acc[c] += np.bincount(idx.ravel(), weights=contrib.ravel(), minlength=h * wd)
    return {
        "samples": samples,
        "forward": forward,
        "pool": (pool / taps).astype(np.float32),
        "grad_x": acc.astype(np.float32).reshape(x.shape),
        "grad_w": grad_w.astype(np.float32).reshape(w.shape),
        "degenerate_pixels": int(np.count_nonzero(wholly_off.any(axis=0))),
        "oob_sample_fraction": (inside.size - int(np.count_nonzero(inside))) / inside.size,
    }


def plane_residual(normal, points, center) -> float:
    """Summed squared point-plane distances for a unit normal."""
    d = np.asarray(points, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    return float(np.sum((d @ np.asarray(normal, dtype=np.float64)) ** 2))


def scene_plane_residuals(scene) -> np.ndarray:
    """Per-pixel distance (meters) from a synthetic scene's back-projected
    depth to the plane its label names, by the pinhole formula."""
    h, w = scene.depth.height, scene.depth.width
    v, u = np.indices((h, w), dtype=np.float64)
    K = scene.intrinsics
    z = scene.depth.data.astype(np.float64)
    pts = np.stack([(u - K.cu) * z / K.fu, (v - K.cv) * z / K.fv, z], axis=-1)
    res = np.full((h, w), np.nan)
    for plane in scene.description["planes"]:
        n = np.asarray(plane["normal"], dtype=np.float64)  # unit by construction
        mask = scene.labels == plane["label"]
        res[mask] = np.abs(pts[mask] @ n - plane["offset"])
    return res


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


def stacked_plane_basis(normal, frame_tol=1e-6):
    """In-plane axes of normals ``(..., 3)`` stacked component-first,
    ``(3, ...)``, with the fallback frame where ``n2^2 >= 1 - frame_tol``:
    the reference that ``geometry._plane_basis``, which takes and returns
    components, must match byte for byte.  Returns ``(x_axis, y_axis,
    fallback)``.
    """
    n1 = normal[..., 0]
    nY = normal[..., 1]
    n3 = normal[..., 2]
    s2 = 1.0 - nY * nY
    fallback = s2 <= frame_tol
    inv = 1.0 / np.sqrt(np.maximum(s2, frame_tol))
    sgn = np.where(nY >= 0.0, 1.0, -1.0)
    x_axis = np.stack(
        [np.where(fallback, 1.0, n3 * inv), np.zeros_like(s2), np.where(fallback, 0.0, -n1 * inv)]
    )
    y_axis = np.stack(
        [
            np.where(fallback, 0.0, -n1 * nY * inv),
            np.where(fallback, 0.0, s2 * inv),
            np.where(fallback, -sgn, -nY * n3 * inv),
        ]
    )
    return x_axis, y_axis, fallback


def full_plane_grid(x0, y0, z0, x_axis, y_axis, size, dilation, fu, fv):
    """The ``size x size`` tap grid ``P0 + a*x + b*y`` built from full-size
    ``(taps,) + z0.shape`` scale grids ``a`` and ``b``, taps row-major: the
    reference for ``geometry._plane_grid``, which sums one term per kernel
    row and column by broadcasting.  Returns ``(X, Y, Z)``.
    """
    ii, jj = np.divmod(np.arange(size * size), size)
    c = (size - 1) // 2
    steps = (-1,) + (1,) * np.ndim(z0)
    a = (jj - c).astype(np.float64).reshape(steps) * (dilation * z0 / fu)
    b = (ii - c).astype(np.float64).reshape(steps) * (dilation * z0 / fv)
    tx = x0 + a * x_axis[0] + b * y_axis[0]
    ty = y0 + b * y_axis[1]
    tz = z0 + a * x_axis[2] + b * y_axis[2]
    return tx, ty, tz
