import struct
import tracemalloc

import numpy as np
import pytest

from zacn import (
    CameraIntrinsics,
    ConfigError,
    DepthMap,
    FormatError,
    KernelSpec,
    OffsetField,
    ParseError,
    compute_offsets,
    read_depth,
    read_intrinsics,
    read_offsets,
    read_tensor,
    resample_depth,
    write_depth,
    write_offsets,
    write_tensor,
)
from zacn.cli import main

from conftest import noisy_scene_depth, smooth_depth


class TestPFM:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        data = rng.uniform(0.1, 5.0, size=(9, 13)).astype(np.float32)
        data[2, 3] = np.nan
        data[4, 5] = -1.0
        data[6, 7] = np.inf
        path = tmp_path / "d.pfm"
        write_depth(DepthMap(data), path)
        back = read_depth(path)
        assert np.array_equal(
            back.data.view(np.uint32), data.view(np.uint32)
        )  # compare bit patterns so NaNs count as equal

    def test_two_by_two_row_order(self, tmp_path):
        # hand-built file: PFM rows are stored bottom-up
        path = tmp_path / "d.pfm"
        bottom_row = struct.pack("<2f", 3.0, 4.0)
        top_row = struct.pack("<2f", 1.0, 2.0)
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + bottom_row + top_row)
        d = read_depth(path)
        np.testing.assert_array_equal(d.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_big_endian_scale(self, tmp_path):
        path = tmp_path / "d.pfm"
        payload = struct.pack(">4f", 3.0, 4.0, 1.0, 2.0)
        path.write_bytes(b"Pf\n2 2\n1.0\n" + payload)
        d = read_depth(path)
        np.testing.assert_array_equal(d.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.pfm"
        path.write_bytes(b"")
        with pytest.raises(ParseError):
            read_depth(path)

    def test_color_pfm_rejected(self, tmp_path):
        path = tmp_path / "c.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_depth(path)

    def test_truncated_payload_names_lengths(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(ParseError) as exc:
            read_depth(path)
        assert "64" in str(exc.value) and "10" in str(exc.value)

    def test_trailing_bytes_name_lengths(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 16 + b"garbage-trailing-bytes")
        with pytest.raises(ParseError) as exc:
            read_depth(path)
        assert "16" in str(exc.value) and "38" in str(exc.value)

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf"])
    def test_non_finite_scale_rejected(self, tmp_path, scale):
        # the scale's sign picks the byte order: a NaN scale read this
        # payload as big-endian garbage and -inf as little-endian
        path = tmp_path / "s.pfm"
        path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ParseError, match="finite"):
            read_depth(path)
        argv = ["offsets", "--depth", path, "--fu", 1, "--fv", 1, "--out", tmp_path / "o"]
        assert main([str(a) for a in argv]) == 1

    @pytest.mark.parametrize("dims, payload", [(b"1_0 1", 40), (b"+2 2", 16), (b"2 +2", 16)])
    def test_dimensions_are_ascii_digits(self, tmp_path, dims, payload):
        # int() reads "1_0" as 10 and "+2" as 2; each payload fits that misreading
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n" + dims + b"\n-1.0\n" + b"\x00" * payload)
        with pytest.raises(ParseError, match="bad PFM dimensions"):
            read_depth(path)

    def test_garbage_header(self, tmp_path):
        for body in (b"Pf\nx y\n-1.0\n", b"Pf\n2 2\nzz\n", b"Pf\n-3 2\n-1.0\n", b"Pf\n2 2\n0.0\n"):
            path = tmp_path / "g.pfm"
            path.write_bytes(body + b"\x00" * 16)
            with pytest.raises(ParseError):
                read_depth(path)


class TestContainer:
    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4), (2, 3, 2, 2)])
    def test_round_trip(self, rng, tmp_path, shape):
        arr = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / "t.zacn"
        write_tensor(arr, path)
        back = read_tensor(path)
        assert back.shape == shape
        assert np.array_equal(back, arr)

    def test_offsets_round_trip_bit_identical(self, rng, tmp_path):
        field = OffsetField(rng.standard_normal((18, 5, 6)).astype(np.float32))
        path = tmp_path / "o.zacn"
        write_offsets(field, path)
        back = read_offsets(path)
        assert np.array_equal(back.data.view(np.uint32), field.data.view(np.uint32))

    def test_bad_channel_count(self, rng, tmp_path):
        path = tmp_path / "o.zacn"
        write_tensor(rng.standard_normal((7, 3, 3)).astype(np.float32), path)
        with pytest.raises(FormatError):
            read_offsets(path)
        write_tensor(rng.standard_normal((12, 3, 3)).astype(np.float32), path)
        with pytest.raises(FormatError):  # 6 taps: even but not a square
            read_offsets(path)

    def test_wrong_dim_count(self, rng, tmp_path):
        path = tmp_path / "o.zacn"
        write_tensor(rng.standard_normal((18, 4)).astype(np.float32), path)
        with pytest.raises(FormatError):
            read_offsets(path)

    def test_depth_from_container(self, rng, tmp_path):
        arr = rng.uniform(0.5, 2.0, size=(6, 7)).astype(np.float32)
        path = tmp_path / "d.zacn"
        write_tensor(arr, path)
        d = read_depth(path)
        assert np.array_equal(d.data, arr)
        write_tensor(rng.standard_normal((2, 6, 7)).astype(np.float32), path)
        with pytest.raises(FormatError):
            read_depth(path)

    def test_header_corruption(self, rng, tmp_path):
        good = tmp_path / "good.zacn"
        write_tensor(rng.standard_normal((3, 4)).astype(np.float32), good)
        blob = good.read_bytes()

        cases = {
            "bad magic": b"NOT!" + blob[4:],
            "bad version": blob[:4] + struct.pack("<I", 99) + blob[8:],
            "bad dtype": blob[:8] + b"\x07" + blob[9:],
            "zero ndim": blob[:9] + b"\x00" + blob[10:],
            "truncated header": blob[:12],
            "truncated payload": blob[:-5],
            "extra payload": blob + b"\x00\x00\x00\x00",
        }
        for name, corrupted in cases.items():
            path = tmp_path / "bad.zacn"
            path.write_bytes(corrupted)
            with pytest.raises(ParseError):
                read_tensor(path)

    def test_payload_mismatch_names_lengths(self, rng, tmp_path):
        good = tmp_path / "good.zacn"
        write_tensor(np.zeros((3, 4), np.float32), good)
        path = tmp_path / "bad.zacn"
        path.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(ParseError) as exc:
            read_tensor(path)
        assert "48" in str(exc.value) and "40" in str(exc.value)

    def test_read_tensor_returns_writable_copy(self, rng, tmp_path):
        arr = rng.standard_normal((2, 3, 4)).astype(np.float32)
        path = tmp_path / "t.zacn"
        write_tensor(arr, path)
        back = read_tensor(path)
        assert back.dtype == np.float32 and back.flags.writeable and back.flags.owndata
        back[0, 0, 0] = 1.0

    def test_read_offsets_copies_payload_once(self, tmp_path):
        # the file bytes plus the field's one owned copy; a 4 MiB allowance
        # covers everything else, far below a third copy of the payload
        path = tmp_path / "o.zacn"
        write_tensor(np.ones((18, 480, 640), np.float32), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            field = read_offsets(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.data.shape == (18, 480, 640)
        assert peak < 2 * size + 4 * 2**20, f"peak {peak / 2**20:.1f} MiB for a {size / 2**20:.1f} MiB file"

    def test_read_depth_pfm_copies_payload_once(self, tmp_path):
        # the file bytes plus the depth map's one owned copy; at 1080x1920 a
        # second copy of the 7.9 MiB payload would exceed the 4 MiB allowance
        path = tmp_path / "d.pfm"
        write_depth(DepthMap(np.ones((1080, 1920), np.float32)), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            depth = read_depth(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert depth.data.shape == (1080, 1920)
        assert peak < 2 * size + 4 * 2**20, f"peak {peak / 2**20:.1f} MiB for a {size / 2**20:.1f} MiB file"


class TestIntrinsics:
    def test_explicit_values(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("fu=519\nfv=519\ncu=320\ncv=240\n")
        k = read_intrinsics(path)
        assert (k.fu, k.fv, k.cu, k.cv) == (519.0, 519.0, 320.0, 240.0)

    def test_center_default(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("fu=100\nfv=100\nwidth=641\nheight=481\n")
        k = read_intrinsics(path)
        assert (k.fu, k.fv, k.cu, k.cv) == (100.0, 100.0, 320.0, 240.0)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("# camera\nfu=10 # horizontal\n\nfv=12\ncu=1\ncv=2\n")
        k = read_intrinsics(path)
        assert (k.fu, k.fv, k.cu, k.cv) == (10.0, 12.0, 1.0, 2.0)

    def test_missing_focal_names_key(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("fv=519\ncu=1\ncv=1\n")
        with pytest.raises(ConfigError) as exc:
            read_intrinsics(path)
        assert "fu" in str(exc.value)

    def test_missing_center_and_size(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("fu=519\nfv=519\n")
        with pytest.raises(ConfigError):
            read_intrinsics(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("fu=519\nfv=abc\n")
        with pytest.raises(ParseError) as exc:
            read_intrinsics(path)
        assert "line 2" in str(exc.value)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("fu=1\nfv=1\nfocal=3\n")
        with pytest.raises(ParseError):
            read_intrinsics(path)

    def test_repeated_key_names_line(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("fu=500\nfv=500\nfu=600\ncu=1\ncv=1\n")
        with pytest.raises(ParseError, match="line 3: repeated key 'fu'"):
            read_intrinsics(path)
        write_depth(DepthMap(np.ones((4, 4), np.float32)), tmp_path / "d.pfm")
        argv = ["offsets", "--depth", tmp_path / "d.pfm", "--intrinsics", path,
                "--out", tmp_path / "o"]
        assert main([str(a) for a in argv]) == 1

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("fu 519\n")
        with pytest.raises(ParseError):
            read_intrinsics(path)


class TestResample:
    def test_identity(self, rng):
        d = DepthMap(smooth_depth(rng, 7, 9))
        out = resample_depth(d, 7, 9)
        assert np.array_equal(out.data, d.data)

    def test_checkerboard_values_preserved(self):
        i, j = np.indices((4, 4))
        board = np.where((i + j) % 2 == 0, 1.0, 5.0).astype(np.float32)
        out = resample_depth(DepthMap(board), 2, 2)
        assert set(np.unique(out.data)).issubset({1.0, 5.0})

    def test_invalid_pixels_propagate(self):
        d = np.ones((4, 4), np.float32)
        d[0, 0] = np.nan
        out = resample_depth(DepthMap(d), 2, 2)
        assert np.isnan(out.data[0, 0])

    def test_bad_dims(self, rng):
        with pytest.raises(ConfigError):
            resample_depth(DepthMap(smooth_depth(rng, 4, 4)), 0, 2)

    def test_decimation_matches_strided_offsets(self, rng):
        # Nearest-neighbor decimation by 2 plus unit-dilation offsets at
        # halved intrinsics must equal half the offsets computed on the
        # full-resolution map with dilation 2 and stride 2 (the depth
        # values seen by both routes are identical because the resampler
        # picks exactly the strided source pixels).
        depth = smooth_depth(rng, 16, 20)
        K = CameraIntrinsics(150.0, 140.0, 9.5, 7.5)
        K_half = CameraIntrinsics(K.fu / 2, K.fv / 2, K.cu / 2, K.cv / 2)

        low = resample_depth(DepthMap(depth), 8, 10)
        f_low, _ = compute_offsets(low, K_half, KernelSpec.same(3), 8, 10)

        spec_full = KernelSpec(3, dilation=2, stride=2, padding=2)
        f_full, _ = compute_offsets(DepthMap(depth), K, spec_full, 8, 10)

        # the last output row/column clamps to different source rows
        # (full-res clamps to row 15, the decimated grid only saw row 14)
        np.testing.assert_allclose(
            f_low.data[:, :-1, :-1], f_full.data[:, :-1, :-1] / 2.0, atol=1e-6
        )

    @pytest.mark.parametrize("kind", ["corridor", "ramp"])
    def test_decimation_identity_is_exact_off_the_border(self, kind):
        # The same identity on noisy depth with holes, byte for byte: halving
        # every intrinsic halves each projected offset exactly.  The last
        # output row and column differ, because there the full-resolution
        # taps clamp to row (column) H-1 and the decimated ones to H-2.
        depth, K = noisy_scene_depth(kind, 96, 128, seed=4)
        K_half = CameraIntrinsics(K.fu / 2, K.fv / 2, K.cu / 2, K.cv / 2)
        low = resample_depth(depth, 48, 64)
        f_low, _ = compute_offsets(low, K_half, KernelSpec.same(3), 48, 64)
        f_full, _ = compute_offsets(depth, K, KernelSpec.same(3, dilation=2, stride=2), 48, 64)
        half = f_full.data / np.float32(2)
        assert f_low.data[:, :-1, :-1].tobytes() == half[:, :-1, :-1].tobytes()
        assert not np.array_equal(f_low.data[:, -1], half[:, -1])
        assert not np.array_equal(f_low.data[:, :, -1], half[:, :, -1])
