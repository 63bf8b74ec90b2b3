"""Bit-exact serialization: PFM depth maps, a raw tensor container, and
plain-text intrinsics.

The tensor container ("ZACN") is a single little-endian format reused
for features, weights, and offset fields so golden-file tests stay
bit-exact: 4-byte magic ``ZACN``, u32 version (=1), u8 dtype tag
(0 = float32), u8 ndim, ndim x u64 dims, then the payload.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ParseError
from .geometry import CameraIntrinsics
from .tensor import DepthMap, OffsetField

__all__ = [
    "read_depth",
    "write_depth",
    "read_intrinsics",
    "read_tensor",
    "write_tensor",
    "read_offsets",
    "write_offsets",
]

MAGIC = b"ZACN"
VERSION = 1
DTYPE_F32 = 0
MAX_NDIM = 8  # a container holds 1 to MAX_NDIM dimensions

_WHITESPACE = b" \t\n\r\f\v"


# ---------------------------------------------------------------------------
# PFM (grayscale "Pf")


def _next_token(buf: bytes, pos: int, path) -> tuple[bytes, int]:
    while pos < len(buf) and buf[pos : pos + 1] in _WHITESPACE:
        pos += 1
    if pos >= len(buf):
        raise ParseError("unexpected end of header", path=path, offset=pos)
    start = pos
    while pos < len(buf) and buf[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    return buf[start:pos], pos


def _read_pfm(buf: bytes, path) -> DepthMap:
    magic, pos = _next_token(buf, 0, path)
    if magic == b"PF":
        raise FormatError("color PFM not supported, expected grayscale 'Pf'", path=path, offset=0)
    if magic != b"Pf":
        raise ParseError(f"bad PFM magic {magic!r}", path=path, offset=0)

    wtok, pos = _next_token(buf, pos, path)
    htok, pos = _next_token(buf, pos, path)
    if not (wtok.isdigit() and htok.isdigit()):  # int() would also take "+2" and "1_0"
        raise ParseError(f"bad PFM dimensions {wtok!r} x {htok!r}", path=path, offset=pos)
    width, height = int(wtok), int(htok)
    if width <= 0 or height <= 0:
        raise ParseError(f"non-positive PFM dimensions {width}x{height}", path=path, offset=pos)

    stok, pos = _next_token(buf, pos, path)
    try:
        scale = float(stok)
    except ValueError as exc:
        raise ParseError(f"bad PFM scale factor {stok!r}", path=path, offset=pos) from exc
    if scale == 0.0 or not np.isfinite(scale):  # its sign picks the byte order
        raise ParseError("PFM scale factor must be finite and nonzero", path=path, offset=pos)
    if pos >= len(buf) or buf[pos : pos + 1] not in _WHITESPACE:
        raise ParseError("missing whitespace after PFM scale", path=path, offset=pos)
    pos += 1  # exactly one whitespace byte separates header and payload

    expected = width * height * 4
    if len(buf) - pos != expected:  # short, or with bytes after the payload
        raise ParseError(
            f"PFM payload length mismatch: expected {expected} bytes, got {len(buf) - pos}",
            path=path,
            offset=pos,
        )
    dt = "<f4" if scale < 0 else ">f4"
    rows = np.frombuffer(buf, dtype=dt, count=width * height, offset=pos).reshape(height, width)
    # PFM stores rows bottom-up; normalize to top-down.  The rows are a view
    # of the file bytes, and DepthMap makes the one native-endian copy.
    return DepthMap(np.flipud(rows))


def write_depth(depth: DepthMap, path) -> None:
    """Write a depth map as little-endian grayscale PFM."""
    h, w = depth.height, depth.width
    with open(path, "wb") as f:
        f.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(np.flipud(depth.data).astype("<f4").tobytes())


def read_depth(path) -> DepthMap:
    """Read a depth map from PFM or from a 2D ZACN container."""
    buf = Path(path).read_bytes()
    if len(buf) == 0:
        raise ParseError("empty file", path=path, offset=0)
    if buf[:4] == MAGIC:
        arr = _parse_container(buf, path)
        if arr.ndim != 2:
            raise FormatError(
                f"depth container must be 2-dimensional, got {arr.ndim} dims",
                path=path,
            )
        return DepthMap(arr)
    if buf[:2] in (b"Pf", b"PF"):
        return _read_pfm(buf, path)
    raise ParseError(f"unrecognized depth format (leading bytes {buf[:4]!r})", path=path, offset=0)


# ---------------------------------------------------------------------------
# ZACN raw tensor container


def write_tensor(array: np.ndarray, path) -> None:
    """Write a float32 ndarray to the ZACN container format; a scalar is
    written as shape ``(1,)``.  A value too large for float32 is written as
    an infinity.  Raises :class:`ConfigError` before the file is opened for
    a shape that :func:`read_tensor` refuses."""
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(np.asarray(array, dtype=np.float32))
    if arr.ndim > MAX_NDIM or 0 in arr.shape:
        raise ConfigError(f"cannot serialize a tensor of shape {arr.shape}: a container holds "
                          f"1 to {MAX_NDIM} dimensions, none of them empty")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<BB", DTYPE_F32, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.astype("<f4", copy=False).data)


def _parse_container(buf: bytes, path) -> np.ndarray:
    """The payload of a container as a read-only little-endian view of ``buf``."""
    if len(buf) < 4 or buf[:4] != MAGIC:
        raise ParseError(f"bad magic {buf[:4]!r}, expected {MAGIC!r}", path=path, offset=0)
    if len(buf) < 10:
        raise ParseError(
            f"header truncated: expected >= 10 bytes, got {len(buf)}", path=path, offset=4
        )
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != VERSION:
        raise ParseError(f"unsupported container version {version}", path=path, offset=4)
    dtype_tag, ndim = struct.unpack_from("<BB", buf, 8)
    if dtype_tag != DTYPE_F32:
        raise ParseError(f"unsupported dtype tag {dtype_tag}", path=path, offset=8)
    if not (1 <= ndim <= MAX_NDIM):
        raise ParseError(f"implausible dimension count {ndim}", path=path, offset=9)
    dims_end = 10 + 8 * ndim
    if len(buf) < dims_end:
        raise ParseError(
            f"header truncated: expected {dims_end} bytes of header, got {len(buf)}",
            path=path,
            offset=10,
        )
    dims = struct.unpack_from(f"<{ndim}Q", buf, 10)
    count = 1
    for d in dims:
        if d == 0 or d > 2**32:
            raise ParseError(f"implausible dimension {d}", path=path, offset=10)
        count *= d
    expected = count * 4
    if len(buf) - dims_end != expected:
        raise ParseError(
            f"payload length mismatch: expected {expected} bytes, got {len(buf) - dims_end}",
            path=path,
            offset=dims_end,
        )
    return np.frombuffer(buf, dtype="<f4", count=count, offset=dims_end).reshape(dims)


def _read_container(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    if len(buf) == 0:
        raise ParseError("empty file", path=path, offset=0)
    return _parse_container(buf, path)


def read_tensor(path) -> np.ndarray:
    """Read a float32 ndarray from the ZACN container format."""
    return _read_container(path).astype(np.float32)  # one writable native copy


def write_offsets(field: OffsetField, path) -> None:
    write_tensor(field.data, path)


def read_offsets(path) -> OffsetField:
    """Read an offset field; dims must be (2*N*N, H, W)."""
    arr = _read_container(path)  # a view of the file bytes: OffsetField makes the one copy
    if arr.ndim != 3:
        raise FormatError(
            f"offset container must be 3-dimensional, got {arr.ndim} dims", path=path
        )
    c = arr.shape[0]
    n = math.isqrt(c // 2)
    if 2 * n * n != c:
        raise FormatError(
            f"offset channel count {c} is not of the form 2*N*N", path=path
        )
    return OffsetField(arr)


# ---------------------------------------------------------------------------
# Intrinsics (key=value text)

_INTRINSIC_KEYS = {"fu", "fv", "cu", "cv", "width", "height"}


def read_intrinsics(path) -> CameraIntrinsics:
    """Parse ``key=value`` intrinsics; '#' starts a comment.

    ``fu`` and ``fv`` are required.  A missing principal point defaults
    to the image center ``((width-1)/2, (height-1)/2)``, which requires
    ``width``/``height`` to be present.
    """
    text = Path(path).read_text(encoding="utf-8")
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", path=path, line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _INTRINSIC_KEYS:
            raise ParseError(f"unknown key {key!r}", path=path, line=lineno)
        if key in values:
            raise ParseError(f"repeated key {key!r}", path=path, line=lineno)
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise ParseError(
                f"non-numeric value for {key!r}: {val.strip()!r}", path=path, line=lineno
            ) from exc

    for key in ("fu", "fv"):
        if key not in values:
            raise ConfigError(f"intrinsics file {path} is missing required key '{key}'")

    if "cu" in values:
        cu = values["cu"]
    elif "width" in values:
        cu = (values["width"] - 1) / 2
    else:
        raise ConfigError(f"intrinsics file {path} needs 'cu' or 'width'")
    if "cv" in values:
        cv = values["cv"]
    elif "height" in values:
        cv = (values["height"] - 1) / 2
    else:
        raise ConfigError(f"intrinsics file {path} needs 'cv' or 'height'")
    return CameraIntrinsics(fu=values["fu"], fv=values["fv"], cu=cu, cv=cv)
