import argparse
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import zacn
from zacn import (
    CameraIntrinsics,
    ConvWeights,
    DepthMap,
    FeatureTensor,
    KernelSpec,
    OffsetField,
    compute_offsets,
    read_tensor,
    standard_conv,
    write_depth,
    write_offsets,
    write_tensor,
    za_conv_forward,
)
from zacn import cli
from zacn import io as zio
from zacn.cli import _abs_percentiles, _spec_from_args, _workers, _write_csv, build_parser, main
from zacn.harness import TrainConfig, generate_scene


@pytest.fixture
def workdir(tmp_path, rng):
    scene = generate_scene("corridor", 24, 32, seed=5)
    write_depth(scene.depth, tmp_path / "depth.pfm")
    (tmp_path / "K.txt").write_text("fu=519\nfv=519\nwidth=32\nheight=24\n")
    write_tensor(rng.standard_normal((3, 24, 32)).astype(np.float32), tmp_path / "x.zacn")
    write_tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), tmp_path / "w.zacn")
    return tmp_path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestOffsetsCommand:
    def test_constant_depth_summary(self, tmp_path):
        write_depth(DepthMap(np.full((16, 20), 2.0, np.float32)), tmp_path / "flat.pfm")
        rc = run_cli(
            "offsets", "--depth", tmp_path / "flat.pfm", "--fu", 333, "--fv", 333,
            "--out", tmp_path / "o.zacn", "--summary", tmp_path / "s.json",
        )
        assert rc == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["offset_abs_max"] < 1e-5
        assert summary["degenerate_pixels"] == 0

    def test_matches_library_golden(self, workdir):
        rc = run_cli(
            "offsets", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--kernel", 3, "--out", workdir / "o.zacn",
        )
        assert rc == 0
        from zacn import read_depth, read_intrinsics, read_offsets

        depth = read_depth(workdir / "depth.pfm")
        K = read_intrinsics(workdir / "K.txt")
        field, _ = compute_offsets(depth, K, KernelSpec.same(3), 24, 32)
        got = read_offsets(workdir / "o.zacn")
        assert np.array_equal(got.data, field.data)

    def test_summary_written_by_default(self, workdir):
        rc = run_cli(
            "offsets", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--out", workdir / "o.zacn",
        )
        assert rc == 0
        payload = json.loads((workdir / "o.zacn.json").read_text())
        assert "offset_abs_max" in payload and "degenerate_pixels" in payload

    def test_missing_depth_file(self, tmp_path):
        rc = run_cli(
            "offsets", "--depth", tmp_path / "nope.pfm", "--fu", 100, "--fv", 100,
            "--out", tmp_path / "o.zacn",
        )
        assert rc == 1

    def test_missing_intrinsics_file(self, workdir):
        rc = run_cli(
            "offsets", "--depth", workdir / "depth.pfm",
            "--intrinsics", workdir / "missing.txt", "--out", workdir / "o.zacn",
        )
        assert rc == 1

    def test_no_intrinsics_at_all(self, workdir):
        rc = run_cli(
            "offsets", "--depth", workdir / "depth.pfm", "--out", workdir / "o.zacn"
        )
        assert rc == 2

    def test_thread_override_is_deterministic(self, workdir, monkeypatch):
        rc = run_cli(
            "offsets", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--out", workdir / "o1.zacn",
        )
        assert rc == 0
        monkeypatch.setenv("ZACN_THREADS", "3")
        rc = run_cli(
            "offsets", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--out", workdir / "o2.zacn",
        )
        assert rc == 0
        assert (workdir / "o1.zacn").read_bytes() == (workdir / "o2.zacn").read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_summary_thread_and_container_write(self, workdir, monkeypatch, threads):
        # the calling thread writes the container (the benchmark's trace
        # records spans from one thread); with two workers a pool thread
        # computes the summary meanwhile
        monkeypatch.setenv("ZACN_THREADS", threads)
        seen = {}

        def spy(key, fn):
            def call(*args):
                seen[key] = threading.get_ident()
                return fn(*args)
            return call

        monkeypatch.setattr(zio, "write_offsets", spy("write", zio.write_offsets))
        monkeypatch.setattr(cli, "_abs_percentiles", spy("stats", cli._abs_percentiles))
        rc = run_cli(
            "offsets", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--out", workdir / "o.zacn",
        )
        assert rc == 0
        assert seen["write"] == threading.get_ident()
        assert (seen["stats"] != threading.get_ident()) == (threads == "2")

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("ZACN_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert _workers() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _workers() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _workers() == 1

    def test_bad_thread_override(self, workdir, monkeypatch):
        monkeypatch.setenv("ZACN_THREADS", "many")
        rc = run_cli(
            "offsets", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--out", workdir / "o.zacn",
        )
        assert rc == 2


PERCENTS = [50, 90, 99]

# every float32 class the statistics meet: signed zeros, subnormals, the
# largest finite magnitudes, and a small pool that makes ties likely
FLOAT32S = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1e-40, 0.5, -0.5, 3.0, 3.4028235e38]),
)


def _expected_stats(x, percents):
    mags = np.abs(x, dtype=np.float64)
    return np.percentile(mags, percents), mags.max()


class TestAbsPercentiles:
    def _assert_exact(self, x, percents=PERCENTS):
        before = x.copy()
        got, top = _abs_percentiles(x, percents)
        want, want_top = _expected_stats(x, percents)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert np.float64(top).tobytes() == want_top.tobytes()
        assert x.tobytes() == before.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
                      elements=FLOAT32S),
           st.lists(st.floats(0, 100), min_size=1, max_size=4),
           st.sampled_from([(cli._CHUNK, cli._SAMPLE, cli._MARGIN_SD),
                            (1, 1, 0.0), (5, 7, 0.0), (16, 30, 1.0), (64, 8, cli._MARGIN_SD)]))
    def test_byte_equal_to_numpy(self, x, percents, sizes):
        # at the default sizes every array here is one chunk and its own
        # sample; small chunks and samples send it through several chunks,
        # and a small margin makes brackets miss their rank and widen
        chunk, sample, margin = sizes
        with mock.patch.multiple(cli, _CHUNK=chunk, _SAMPLE=sample, _MARGIN_SD=margin):
            self._assert_exact(x, PERCENTS + percents)

    @pytest.mark.parametrize("values", [
        [7.25],  # n = 1: every percentile is the one value
        [-0.0],
        [0.0] * 50,
        [-0.0, 0.0] * 25,
        [2.0, -2.0, 2.0, 1.0] * 30,  # ties on both sides of each rank
        [1e-45, -3e-45, 1e-40, 0.0, 1.1754942e-38] * 9,  # subnormals
        [3.4028235e38, -3.4028235e38, 1e38, -0.0],  # the largest magnitudes
        list(range(-100, 101)),  # integer-valued ranks: no interpolation
    ])
    def test_edge_cases(self, values):
        self._assert_exact(np.array(values, dtype=np.float32))

    @pytest.mark.parametrize("sampled, missed", [(0.0, 1), (-1e30, 2)])
    def test_sample_that_misses_a_rank_widens_its_bracket(self, monkeypatch, sampled, missed):
        # the sample is every 10th value, here all equal and below (above)
        # the rest, so the bracket of the median (and of the 90th
        # percentile) misses its rank, and one more pass widens it
        x = np.arange(1, 1001, dtype=np.float32)
        x[::10] = sampled
        passes = []
        monkeypatch.setattr(cli, "_SAMPLE", 100)
        monkeypatch.setattr(cli, "_CHUNK", 64)
        chunk_pass = cli._chunk_pass
        monkeypatch.setattr(cli, "_chunk_pass", lambda *a: passes.append(a) or chunk_pass(*a))
        self._assert_exact(x)
        assert len(passes) == 2
        assert len(passes[1][1]) == missed  # only the brackets that missed

    def test_read_only_field_is_left_as_it_is(self, rng):
        field = OffsetField(rng.standard_normal((18, 6, 7)).astype(np.float32))
        self._assert_exact(field.data)
        assert not field.data.flags.writeable

    def test_peak_memory_is_under_a_quarter_of_the_field(self, rng):
        x = rng.standard_normal((18, 480, 640), dtype=np.float32)
        tracemalloc.start()
        try:
            _abs_percentiles(x, PERCENTS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a uint32 copy of the field alone would take x.nbytes (21 MiB), and
        # np.abs(x, dtype=np.float64) 2 * x.nbytes
        assert peak < x.nbytes / 4


class TestConvPoolCommands:
    def test_zero_offsets_equal_standard_flag(self, workdir):
        zero = OffsetField.zeros(3, 24, 32)
        write_offsets(zero, workdir / "zero.zacn")
        assert run_cli(
            "conv", "--input", workdir / "x.zacn", "--weights", workdir / "w.zacn",
            "--offsets", workdir / "zero.zacn", "--out", workdir / "yz.zacn",
        ) == 0
        assert run_cli(
            "conv", "--input", workdir / "x.zacn", "--weights", workdir / "w.zacn",
            "--standard", "--out", workdir / "ys.zacn",
        ) == 0
        a = read_tensor(workdir / "yz.zacn")
        b = read_tensor(workdir / "ys.zacn")
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_tap_count_mismatch_exit_2(self, workdir):
        write_offsets(OffsetField.zeros(5, 24, 32), workdir / "o5.zacn")
        rc = run_cli(
            "conv", "--input", workdir / "x.zacn", "--weights", workdir / "w.zacn",
            "--offsets", workdir / "o5.zacn", "--kernel", 3, "--out", workdir / "y.zacn",
        )
        assert rc == 2

    def test_weights_of_wrong_rank_exit_2(self, workdir, rng, capsys):
        write_tensor(rng.standard_normal((4, 3, 9)).astype(np.float32), workdir / "w3.zacn")
        rc = run_cli(
            "conv", "--input", workdir / "x.zacn", "--weights", workdir / "w3.zacn",
            "--standard", "--out", workdir / "y.zacn",
        )
        assert rc == 2
        assert "(4, 3, 9)" in capsys.readouterr().err

    def test_pipeline_matches_library(self, workdir, rng):
        # offsets command then conv command == direct library composition
        assert run_cli(
            "offsets", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--out", workdir / "off.zacn",
        ) == 0
        assert run_cli(
            "conv", "--input", workdir / "x.zacn", "--weights", workdir / "w.zacn",
            "--offsets", workdir / "off.zacn", "--out", workdir / "y.zacn",
            "--summary", workdir / "s.json",
        ) == 0
        from zacn import read_depth, read_intrinsics

        depth = read_depth(workdir / "depth.pfm")
        K = read_intrinsics(workdir / "K.txt")
        field, _ = compute_offsets(depth, K, KernelSpec.same(3), 24, 32)
        x = FeatureTensor(read_tensor(workdir / "x.zacn"))
        w = ConvWeights(read_tensor(workdir / "w.zacn"))
        expected, _ = za_conv_forward(x, w, field, KernelSpec.same(3))
        got = read_tensor(workdir / "y.zacn")
        assert np.array_equal(got, expected.data)
        summary = json.loads((workdir / "s.json").read_text())
        assert "elapsed_seconds" not in summary  # byte-reproducible output

    def test_pool_zero_offsets_equal_standard(self, workdir):
        write_offsets(OffsetField.zeros(3, 24, 32), workdir / "zero.zacn")
        assert run_cli(
            "pool", "--input", workdir / "x.zacn", "--offsets", workdir / "zero.zacn",
            "--kernel", 3, "--padding", "same", "--out", workdir / "pz.zacn",
        ) == 0
        assert run_cli(
            "pool", "--input", workdir / "x.zacn", "--standard",
            "--kernel", 3, "--padding", "same", "--out", workdir / "ps.zacn",
        ) == 0
        np.testing.assert_allclose(
            read_tensor(workdir / "pz.zacn"), read_tensor(workdir / "ps.zacn"), atol=1e-6
        )

    @pytest.mark.parametrize("command", ["conv", "pool"])
    def test_containers_copy_the_file_bytes_once(self, workdir, monkeypatch, command):
        # each container receives a read-only view of its file's bytes and
        # makes the one copy, as read_offsets has its OffsetField make it
        handed = []
        for name in ("FeatureTensor", "ConvWeights"):
            make = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda data, make=make: handed.append(data) or make(data))
        argv = [command, "--input", workdir / "x.zacn", "--standard", "--out", workdir / "y.zacn"]
        if command == "conv":
            argv += ["--weights", workdir / "w.zacn"]
        assert run_cli(*argv) == 0
        assert len(handed) == (2 if command == "conv" else 1)
        for data in handed:
            assert not data.flags.writeable
            while isinstance(data, np.ndarray):
                data = data.base
            assert isinstance(data, bytes)

    def test_conv_without_offsets_or_standard(self, workdir):
        rc = run_cli(
            "conv", "--input", workdir / "x.zacn", "--weights", workdir / "w.zacn",
            "--out", workdir / "y.zacn",
        )
        assert rc == 2


CIRCLE_RE = re.compile(r'<circle class="adapted-tap" cx="([^"]+)" cy="([^"]+)"')
TILE_RE = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)" '
                     r'fill="rgb\((\d+),(\d+),(\d+)\)"/>')


def background_tiles(svg, scale):
    """The greys of the SVG's background tiles, expanded to one per depth
    pixel, and the number of tiles; -1 marks a pixel that no tile covers."""
    tiles = [tuple(map(int, m)) for m in TILE_RE.findall(svg)]
    h = max(y + ht for _, y, _, ht, *_ in tiles) // scale
    w = max(x + wd for x, _, wd, *_ in tiles) // scale
    gray = np.full((h, w), -1)
    for x, y, wd, ht, r, g, b in tiles:
        assert r == g == b and ht == scale and x % scale == y % scale == wd % scale == 0
        cells = gray[y // scale, x // scale:(x + wd) // scale]
        assert (cells == -1).all()  # no pixel is covered twice
        cells[:] = r
    return gray, len(tiles)


class TestVizCommand:
    def test_frontoparallel_circles_on_squares(self, tmp_path):
        write_depth(DepthMap(np.full((20, 24), 1.5, np.float32)), tmp_path / "flat.pfm")
        rc = run_cli(
            "viz", "--depth", tmp_path / "flat.pfm", "--fu", 200, "--fv", 200,
            "--at", "12,10", "--kernel", 3, "--scale", 10, "--out", tmp_path / "v.svg",
        )
        assert rc == 0
        svg = (tmp_path / "v.svg").read_text()
        centers = [(float(m[0]), float(m[1])) for m in CIRCLE_RE.findall(svg)]
        assert len(centers) == 9
        expected = {((12 + dj + 0.5) * 10, (10 + di + 0.5) * 10)
                    for di in (-1, 0, 1) for dj in (-1, 0, 1)}
        for cx, cy in centers:
            assert min(abs(cx - ex) + abs(cy - ey) for ex, ey in expected) < 1e-4

    def test_corridor_circle_coordinates_match_library(self, workdir):
        rc = run_cli(
            "viz", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--at", "26,12", "--kernel", 3, "--scale", 16, "--out", workdir / "v.svg",
        )
        assert rc == 0
        from zacn import read_depth, read_intrinsics

        depth = read_depth(workdir / "depth.pfm")
        K = read_intrinsics(workdir / "K.txt")
        field, _ = compute_offsets(depth, K, KernelSpec.same(3), 24, 32)
        off = field.data[:, 12, 26].astype(np.float64).reshape(9, 2)
        expected = []
        for ki in range(3):
            for kj in range(3):
                tap = ki * 3 + kj
                au = (26 + (kj - 1)) + off[tap, 1]
                av = (12 + (ki - 1)) + off[tap, 0]
                expected.append(((au + 0.5) * 16, (av + 0.5) * 16))
        svg = (workdir / "v.svg").read_text()
        centers = [(float(m[0]), float(m[1])) for m in CIRCLE_RE.findall(svg)]
        assert centers == expected  # repr round-trips exactly
        # the query pixel sits on the receding side wall, so the adapted
        # taps must actually leave the regular grid
        assert float(np.abs(off).max()) > 0.2

    def test_constant_depth_draws_one_tile_per_row(self, tmp_path):
        write_depth(DepthMap(np.full((20, 24), 1.5, np.float32)), tmp_path / "flat.pfm")
        rc = run_cli(
            "viz", "--depth", tmp_path / "flat.pfm", "--fu", 200, "--fv", 200,
            "--at", "12,10", "--scale", 3, "--out", tmp_path / "v.svg",
        )
        assert rc == 0
        gray, tiles = background_tiles((tmp_path / "v.svg").read_text(), 3)
        assert tiles == 20
        assert (gray == 235).all()

    def test_tiles_expand_to_the_depth_grey_of_every_pixel(self, workdir):
        # the corridor's greys change along its rows; a hole is black
        from zacn import read_depth

        depth = read_depth(workdir / "depth.pfm").data.copy()
        depth[5, 3:9] = np.nan
        write_depth(DepthMap(depth), workdir / "holes.pfm")
        rc = run_cli(
            "viz", "--depth", workdir / "holes.pfm", "--intrinsics", workdir / "K.txt",
            "--at", "26,12", "--scale", 4, "--out", workdir / "v.svg",
        )
        assert rc == 0
        gray, tiles = background_tiles((workdir / "v.svg").read_text(), 4)
        want = cli._depth_to_gray(DepthMap(depth))
        np.testing.assert_array_equal(gray, want)
        assert tiles == sum(1 + np.count_nonzero(np.diff(row)) for row in want) < want.size

    def test_out_of_bounds_query(self, workdir):
        rc = run_cli(
            "viz", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--at", "500,2", "--out", workdir / "v.svg",
        )
        assert rc == 2

    def test_malformed_at(self, workdir, capsys):
        rc = run_cli(
            "viz", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--at", "banana", "--out", workdir / "v.svg",
        )
        assert rc == 2
        assert "--at" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [0, -3])
    def test_scale_below_one_exit_2(self, workdir, capsys, scale):
        rc = run_cli(
            "viz", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--at", "3,4", "--scale", scale, "--out", workdir / "v.svg",
        )
        assert rc == 2
        assert "--scale" in capsys.readouterr().err
        assert not (workdir / "v.svg").exists()


class TestToytrainCommand:
    def test_seeded_runs_byte_identical(self, tmp_path):
        args = [
            "toytrain", "--operator", "adapted", "--seed", "7",
            "--epochs", "2", "--hidden", "4", "--csv",
        ]
        rc = run_cli(*args, tmp_path / "a.csv")
        assert rc == 0
        rc = run_cli(*args, tmp_path / "b.csv")
        assert rc == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_paired_rows_share_seeds(self, tmp_path):
        rc = run_cli(
            "toytrain", "--operator", "adapted", "--operator", "standard",
            "--seed", "3", "--seed", "4", "--epochs", "1", "--hidden", "4",
            "--csv", tmp_path / "t.csv", "--json", tmp_path / "t.json",
        )
        assert rc == 0
        lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [(r["seed"], r["operator"]) for r in rows] == [
            ("3", "adapted"), ("3", "standard"), ("4", "adapted"), ("4", "standard"),
        ]
        params = {r["param_count"] for r in rows}
        assert len(params) == 1  # adapted adds zero parameters
        payload = json.loads((tmp_path / "t.json").read_text())
        assert set(payload["mean_miou"]) == {"adapted", "standard"}

    def test_unknown_operator(self, tmp_path, capsys):
        rc = run_cli(
            "toytrain", "--operator", "quantum", "--seed", "1", "--csv", tmp_path / "t.csv"
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: unknown operator 'quantum'\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--hidden", "-1", "hidden size must be >= 1, got -1"),
        ("--hidden", "0", "hidden size must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--seed", "-101", "seed must be >= 0, got -101"),  # scene seed -10, named as given
        ("--lr", "nan", "learning rate must be finite and >= 0, got nan"),
        ("--lr", "inf", "learning rate must be finite and >= 0, got inf"),
    ])
    def test_negative_hidden_or_seed_exit_2(self, tmp_path, capsys, flag, value, message):
        rc = run_cli("toytrain", "--epochs", "1", flag, value, "--csv", tmp_path / "t.csv")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    def test_flag_defaults_are_train_config_defaults(self):
        args = build_parser().parse_args(["toytrain"])
        cfg = TrainConfig()
        assert (args.epochs, args.lr, args.hidden, args.assumed_focal) == (
            cfg.epochs, cfg.learning_rate, cfg.hidden, cfg.assumed_focal) == (150, 0.5, 24, None)

    def test_divergence_exit_2_names_epoch(self, tmp_path, capsys):
        rc = run_cli("toytrain", "--seed", "0", "--lr", "1e9", "--epochs", "5",
                     "--csv", tmp_path / "t.csv")
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: training diverged at epoch 3: feature tensor contains non-finite values\n"
        )
        assert not (tmp_path / "t.csv").exists()

    def test_csv_bytes(self, tmp_path):
        row = {"seed": 3, "operator": "adapted", "loss": 0.1 + 0.2, "delta": -1.5}
        _write_csv(tmp_path / "t.csv", [row])
        assert (tmp_path / "t.csv").read_bytes() == (
            b"seed,operator,loss,delta\n3,adapted,0.30000000000000004,-1.5\n"
        )


class TestKernelFlags:
    @pytest.mark.parametrize("size", [1, 3, 5])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_same_padding(self, size, dilation, stride):
        args = argparse.Namespace(kernel=size, dilation=dilation, stride=stride, padding="same")
        want = KernelSpec(size, dilation, stride, dilation * (size - 1) // 2)
        assert _spec_from_args(args) == want

    @pytest.mark.parametrize("padding", [0, 1, 4])
    def test_integer_padding_passes_through(self, padding):
        args = argparse.Namespace(kernel=3, dilation=2, stride=2, padding=str(padding))
        assert _spec_from_args(args) == KernelSpec(3, 2, 2, padding)

    def test_bad_padding_exit_2(self, workdir, capsys):
        rc = run_cli(
            "offsets", "--depth", workdir / "depth.pfm", "--intrinsics", workdir / "K.txt",
            "--padding", "x", "--out", workdir / "o.zacn",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: --padding must be an integer or 'same', got 'x'\n"
        assert not (workdir / "o.zacn").exists()


# The one check that no output byte follows a thread count.  BLAS reads its
# thread count when numpy loads, so the parent starts one interpreter per
# OPENBLAS_NUM_THREADS value, both at once.  Each runs the offsets -> conv ->
# pool chain, adapted and standard (a zero field, whose tiles keep one
# neighbor slot), and a backward with grad_x, once per ZACN_THREADS value
# into its own folder; then the benchmark's toy item, seed 0 at the default
# settings, whose 3-channel multi-group gathers and 150 epochs of BLAS
# products no other input here reaches.
_THREADS_CHILD = r"""
import os, sys
from zacn import (ConvWeights, FeatureTensor, KernelSpec, read_offsets, read_tensor,
                  write_tensor, za_conv_backward)
from zacn.cli import main
inputs, root = sys.argv[1:]
inp = lambda name: os.path.join(inputs, name)
blas = os.path.join(root, "blas" + os.environ["OPENBLAS_NUM_THREADS"])
x, w, g = (read_tensor(inp(name)) for name in ("x.zacn", "w.zacn", "g.zacn"))
for zacn_threads in ("1", "2"):
    os.environ["ZACN_THREADS"] = zacn_threads
    out = os.path.join(blas, "zacn" + zacn_threads)
    os.makedirs(out)
    res = lambda name: os.path.join(out, name)
    commands = [
        ["offsets", "--depth", inp("depth.pfm"), "--fu", "129.75", "--fv", "129.75",
         "--out", res("off.zacn")],
        ["conv", "--input", inp("x.zacn"), "--weights", inp("w.zacn"),
         "--offsets", res("off.zacn"), "--out", res("conv.zacn")],
        ["pool", "--input", res("conv.zacn"), "--offsets", res("off.zacn"), "--padding", "same",
         "--out", res("pool.zacn")],
        ["conv", "--input", inp("x.zacn"), "--weights", inp("w.zacn"), "--standard",
         "--out", res("sconv.zacn")],
        ["pool", "--input", res("sconv.zacn"), "--standard", "--padding", "same",
         "--out", res("spool.zacn")],
    ]
    for argv in commands:
        if main(argv) != 0:
            sys.exit(f"zacn {argv[0]} failed under ZACN_THREADS={zacn_threads}")
    field = read_offsets(res("off.zacn"))
    grad_x, grad_w = za_conv_backward(FeatureTensor(x), ConvWeights(w), field, KernelSpec.same(3),
                                      FeatureTensor(g))
    write_tensor(grad_x.data, res("grad_x.zacn"))
    write_tensor(grad_w.data, res("grad_w.zacn"))
if main(["toytrain", "--seed", "0", "--csv", os.path.join(blas, "toy.csv"),
         "--json", os.path.join(blas, "toy.json")]) != 0:
    sys.exit("zacn toytrain failed")
"""


def _assert_same_files(root, dirs):
    """Every file directly in ``dirs`` has the same name set and bytes as
    in the first; returns the names."""
    names = sorted(p.name for p in dirs[0].iterdir() if p.is_file())
    for d in dirs[1:]:
        assert sorted(p.name for p in d.iterdir() if p.is_file()) == names
        for name in names:
            assert (d / name).read_bytes() == (dirs[0] / name).read_bytes(), \
                f"{(d / name).relative_to(root)} differs from {(dirs[0] / name).relative_to(root)}"
    return names


class TestThreadCountReproducibility:
    def test_outputs_byte_identical_across_thread_counts(self, tmp_path):
        # the benchmark's frame: 120x160 makes two row tiles of the offset
        # field, so two workers share them
        scene = generate_scene("corridor", 120, 160, seed=29, focal=519.0 / 4)
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        write_depth(scene.depth, inputs / "depth.pfm")
        rng = np.random.default_rng(29)
        write_tensor(rng.standard_normal((16, 120, 160)).astype(np.float32), inputs / "x.zacn")
        write_tensor((0.1 * rng.standard_normal((16, 16, 3, 3))).astype(np.float32),
                     inputs / "w.zacn")
        write_tensor(rng.standard_normal((16, 120, 160)).astype(np.float32), inputs / "g.zacn")
        src = os.path.dirname(os.path.dirname(zacn.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        root = tmp_path / "runs"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _THREADS_CHILD, str(inputs), str(root)],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=path),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            for blas_threads in ("1", "2")
        ]
        try:
            errors = [proc.communicate(timeout=300)[1] for proc in procs]
        finally:
            for proc in procs:
                proc.kill()  # a child still running after a timeout
        for proc, err in zip(procs, errors):
            assert proc.returncode == 0, err
        blas = sorted(root.iterdir())
        assert [d.name for d in blas] == ["blas1", "blas2"]
        assert _assert_same_files(root, blas) == ["toy.csv", "toy.json"]
        runs = sorted(root.glob("blas*/zacn*"))
        assert len(runs) == 4
        # 5 containers with a JSON summary each, grad_x and grad_w
        assert len(_assert_same_files(root, runs)) == 12


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        write_depth(DepthMap(np.full((16, 16), 1.0, np.float32)), tmp_path / "d.pfm")
        src = os.path.dirname(os.path.dirname(zacn.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "zacn.cli", "offsets", "--depth", str(tmp_path / "d.pfm"),
             "--fu", "100", "--fv", "100", "--out", str(tmp_path / "o.zacn")],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "o.zacn").exists()
