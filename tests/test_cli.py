import argparse
import gc
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import potsim

from conftest import blob_video, write_corpus, write_video_dir
from potsim import engine, layout
from potsim.cli import build_parser, main, render_heatmap
from potsim.frames import decode_pgm, encode_pgm

FAST_FLAGS = [
    "--resize", "24x24",
    "--flow-levels", "1",
    "--winsize", "7",
    "--iterations", "1",
    "--workers", "1",
]


def make_corpus(root, n=3, frames=6):
    videos = {
        f"v{i:02d}": blob_video(frames, 24, (6 + i, 12), (1.0 + 0.3 * i, 0.0))
        for i in range(n)
    }
    return write_corpus(root, videos)


def run_cli(command, manifest, out, extra=()):
    return main(
        [command, "--manifest", str(manifest), "--out", str(out), *FAST_FLAGS, *extra]
    )


class TestExtractCommand:
    def test_success(self, tmp_path):
        manifest = make_corpus(tmp_path / "c")
        assert run_cli("extract", manifest, tmp_path / "out") == 0
        assert list((tmp_path / "out").glob("features-*.potf"))

    def test_duplicate_key_is_usage_error(self, tmp_path, capsys):
        make_corpus(tmp_path / "c")
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_text("v00,v00\nv00,v01\n")
        assert run_cli("extract", manifest, tmp_path / "out") == 2
        assert "v00" in capsys.readouterr().err

    def test_dump_series_line_counts(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=2, frames=6)
        assert run_cli("extract", manifest, tmp_path / "out", ["--dump-series"]) == 0
        of = (tmp_path / "out" / "v00.of.txt").read_text().splitlines()
        hog = (tmp_path / "out" / "v00.hog.txt").read_text().splitlines()
        assert len(of) == 5 and len(hog) == 5

    def test_dump_series_on_finished_state_dir(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("extract", manifest, out) == 0
        shards = {p.name: p.read_bytes() for p in out.glob("features-*.potf")}
        assert run_cli("extract", manifest, out, ["--dump-series"]) == 0
        for key in ("v00", "v01", "v02"):
            assert (out / f"{key}.of.txt").exists() and (out / f"{key}.hog.txt").exists()
        assert {p.name: p.read_bytes() for p in out.glob("features-*.potf")} == shards

    def test_missing_manifest(self, tmp_path):
        assert run_cli("extract", tmp_path / "nope.txt", tmp_path / "out") == 2

    @pytest.mark.parametrize("flag", ["--poly-sigma", "--hog-threshold"])
    def test_nan_parameter_is_usage_error(self, tmp_path, capsys, flag):
        manifest = make_corpus(tmp_path / "c", n=2)
        assert run_cli("run", manifest, tmp_path / "out", [flag, "nan"]) == 2
        assert "nan" in capsys.readouterr().err
        assert not (tmp_path / "out" / "similarity.csv").exists()

    @pytest.mark.parametrize("value", ["256", "inf"])
    def test_hog_threshold_above_255_is_usage_error(self, tmp_path, capsys, value):
        # frames are 0-255, so no difference could reach such a threshold
        manifest = make_corpus(tmp_path / "c", n=2)
        assert run_cli("run", manifest, tmp_path / "out", ["--hog-threshold", value]) == 2
        assert "255" in capsys.readouterr().err
        assert not (tmp_path / "out" / "similarity.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--resize", "0x24"], ["--levels", "1,0"], ["--workers", "0"], ["--winsize", "4"]],
        ids=" ".join,
    )
    def test_unusable_setting_is_usage_error(self, tmp_path, capsys, flags):
        # the engine's check, not argparse, now refuses these; exit 2 and
        # no state dir are kept behaviour (all but --levels pass at the parent)
        manifest = make_corpus(tmp_path / "c", n=2)
        assert run_cli("run", manifest, tmp_path / "out", flags) == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "state").exists()

    @pytest.mark.parametrize(
        "value, reason", [("0.01", "normal matrix singular"), ("1e308", "overflows")]
    )
    def test_poly_sigma_without_a_fit_is_usage_error(self, tmp_path, capsys, value, reason):
        """A poly_sigma for which poly_expand's normal matrix cannot be
        inverted (every weight off the centre is 0) or cannot be built
        (its square overflows) is refused before anything is written, not
        by every extract task."""
        manifest = make_corpus(tmp_path / "c", n=2)
        assert run_cli("run", manifest, tmp_path / "out", ["--poly-sigma", value]) == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "out" / "state").exists()

    def test_poly_sigma_without_a_fit_on_another_state_dir_is_usage_error(
        self, tmp_path, capsys
    ):
        """On a state dir made with other settings, such a poly_sigma is
        refused by its fit, not by the fingerprint it does not match, and
        nothing under --out changes: the fingerprint vouches for the fit
        only where it matches."""
        manifest = make_corpus(tmp_path / "c", n=2)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        before = out_tree(out)
        capsys.readouterr()
        for command in ("extract", "mean", "sim", "run"):
            assert run_cli(command, manifest, out, ["--poly-sigma", "0.01"]) == 2, command
            assert "normal matrix singular" in capsys.readouterr().err, command
            assert out_tree(out) == before, command

    def test_poly_n_window_too_large_is_usage_error(self, tmp_path, capsys, monkeypatch):
        """A --poly-n whose window cannot be allocated (100001 would take
        74.5 GiB per array) names poly_n and exits 2 before any input is
        read; the failed allocation is simulated."""

        def unable(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        manifest = make_corpus(tmp_path / "c", n=2)
        monkeypatch.setattr(np, "meshgrid", unable)
        assert run_cli("run", manifest, tmp_path / "out", ["--poly-n", "100001"]) == 2
        assert "poly_n 100001" in capsys.readouterr().err
        assert not (tmp_path / "out" / "state").exists()

    @pytest.mark.parametrize("key", ["../../escaped", "a/b", "a\0b"])
    def test_key_that_is_no_file_name_is_usage_error(self, tmp_path, capsys, key):
        """Keys name the --dump-series files: a '/' would write outside --out."""
        make_corpus(tmp_path / "c", n=2)
        manifest = tmp_path / "c" / "manifest.txt"
        manifest.write_text(f"v00,v00\n{key},v01\n")
        out = tmp_path / "a" / "b" / "out"
        assert run_cli("run", manifest, out, ["--dump-series"]) == 2
        assert f"{manifest}:2:" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/*.of.txt"))

    def test_hog_threshold_255_runs(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=2)
        assert run_cli("extract", manifest, tmp_path / "out", ["--hog-threshold", "255"]) == 0


class TestMeanCommand:
    def test_pair_count_column(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("extract", manifest, out) == 0
        assert run_cli("mean", manifest, out) == 0
        lines = (out / "mean_csd.csv").read_text().splitlines()
        assert len(lines) == 7
        assert all(line.endswith(",3") for line in lines[1:])

    def test_single_video_fails(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=1)
        out = tmp_path / "out"
        assert run_cli("extract", manifest, out) == 0
        assert run_cli("mean", manifest, out) == 1

    def test_identical_corpus_zero_means(self, tmp_path):
        videos = {
            "a": blob_video(6, 24, (6, 12), (1.0, 0.0)),
            "b": blob_video(6, 24, (6, 12), (1.0, 0.0)),
        }
        manifest = write_corpus(tmp_path / "c", videos)
        out = tmp_path / "out"
        assert run_cli("extract", manifest, out) == 0
        assert run_cli("mean", manifest, out) == 0
        for line in (out / "mean_csd.csv").read_text().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0


class TestSimCommand:
    def test_row_count(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        lines = (out / "similarity.csv").read_text().splitlines()
        assert lines[0] == "video_a,video_b,similarity"
        assert len(lines) == 4

    def test_missing_inputs_is_usage_error(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=2)
        assert run_cli("sim", manifest, tmp_path / "out") == 2

    def test_failed_sim_leaves_no_tmp(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        (out / "similarity.csv").unlink()
        (out / "state" / "sim.done").unlink()
        rows = out / "state" / "mean" / "rows-0.out"
        rows.write_bytes(rows.read_bytes()[:-8])
        assert run_cli("sim", manifest, out) == 1
        assert str(rows) in capsys.readouterr().err
        assert not list(out.glob("*.tmp"))
        assert not (out / "similarity.csv").exists()

    def test_advice_for_a_bad_mean_task_output_repairs_it(self, tmp_path, capsys):
        """A mean task output of the wrong size: sim's error names the file
        and says to delete it and rerun `potsim mean`; doing so gives the
        similarity.csv of a fresh run."""
        manifest = make_corpus(tmp_path / "c", n=4)
        fresh = tmp_path / "fresh"
        assert run_cli("run", manifest, fresh) == 0
        out = tmp_path / "out"
        assert run_cli("extract", manifest, out) == 0
        assert run_cli("mean", manifest, out) == 0
        rows = out / "state" / "mean" / "rows-0.out"
        rows.write_bytes(rows.read_bytes()[:-8])
        capsys.readouterr()
        assert run_cli("sim", manifest, out) == 1
        err = capsys.readouterr().err
        assert f"{rows}: " in err and "delete that file and rerun `potsim mean`" in err
        rows.unlink()
        assert run_cli("mean", manifest, out) == 0
        assert run_cli("sim", manifest, out) == 0
        assert (out / "similarity.csv").read_bytes() == (fresh / "similarity.csv").read_bytes()
        assert (out / "mean_csd.csv").read_bytes() == (fresh / "mean_csd.csv").read_bytes()

    def test_single_video_no_pairs(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=1)
        assert run_cli("run", manifest, tmp_path / "out") == 1


class TestRunCommand:
    def test_rerun_is_noop_with_identical_outputs(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        sim = out / "similarity.csv"
        first = sim.read_text()
        mtime = sim.stat().st_mtime_ns
        assert run_cli("run", manifest, out) == 0
        assert sim.read_text() == first
        assert sim.stat().st_mtime_ns == mtime

    def test_changed_resize_refused(self, tmp_path):
        manifest = make_corpus(tmp_path / "c", n=2)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        code = main(
            [
                "run", "--manifest", str(manifest), "--out", str(out),
                "--resize", "32x32",
                "--flow-levels", "1", "--winsize", "7", "--iterations", "1",
                "--workers", "1",
            ]
        )
        assert code == 2

    def test_state_dir_env_override(self, tmp_path, monkeypatch):
        manifest = make_corpus(tmp_path / "c", n=2)
        state = tmp_path / "custom-state"
        monkeypatch.setenv("POT_STATE_DIR", str(state))
        assert run_cli("run", manifest, tmp_path / "out") == 0
        assert (state / "fingerprint").exists()
        assert not (tmp_path / "out" / "state").exists()

    def test_state_dir_flag_wins_over_env(self, tmp_path, monkeypatch):
        manifest = make_corpus(tmp_path / "c", n=2)
        monkeypatch.setenv("POT_STATE_DIR", str(tmp_path / "env-state"))
        flag_state = tmp_path / "flag-state"
        assert run_cli("run", manifest, tmp_path / "out", ["--state-dir", str(flag_state)]) == 0
        assert (flag_state / "fingerprint").exists()
        assert not (tmp_path / "env-state").exists()
        assert not (tmp_path / "out" / "state").exists()


def out_tree(out):
    """Every file under ``out``, the state dir included, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class TestFinishedCommand:
    """A command whose stages are all finished answers from the driver
    (``layout.run_command``) without the engine; anything stale is handed
    to the engine's stage body, stage by stage."""

    @pytest.mark.parametrize("dump", [False, True])
    @pytest.mark.parametrize("command", ["extract", "mean", "sim", "run"])
    def test_same_line_code_and_files_as_the_engine(
        self, tmp_path, capsys, caplog, command, dump
    ):
        """On a finished state dir, with a stray temporary file of a dead
        writer beside each stage's files and the fingerprint, a command
        prints its line to stdout and nothing to stderr, logs nothing,
        exits 0, and leaves every file under --out, the state dir
        included, as the finished run left it, but for the strays of the
        stages the command runs, which it removes."""
        manifest = make_corpus(tmp_path / "c", n=3)
        flags = ["--dump-series"] if dump else []
        out = tmp_path / "out"
        assert run_cli("run", manifest, out, flags) == 0
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        attempt = f".{gone.pid}.0a1b2c3d.tmp"
        # each stray file by the stage whose sweep removes it
        strays = {
            f"state/fingerprint{attempt}": None,  # every stage command's
            f"state/extract/task-0.out{attempt}": "extract",
            f"features-00000.potf{attempt}": "extract",
            f"mean_csd.csv{attempt}": "mean",
            f"state/mean/rows-0.out{attempt}": "mean",
            f"similarity.csv{attempt}": "sim",
            f"state/sim.done{attempt}": "sim",
        }
        past = time.time_ns() - 10**9
        for name in strays:
            (out / name).write_bytes(b"cut short")
            os.utime(out / name, ns=(past, past))
        before = out_tree(out)
        ran = ("extract", "mean", "sim") if command == "run" else (command,)
        swept = {name for name, stage in strays.items() if stage is None or stage in ran}
        argv = [command, *(flags if command in ("extract", "run") else [])]
        lines = {
            "extract": f"wrote 1 shard(s) to {out}",
            "mean": "wrote mean_csd.csv (pair_count=3)",
        }
        caplog.set_level("INFO", logger="potsim")
        capsys.readouterr()

        assert run_cli(argv[0], manifest, out, argv[1:]) == 0
        captured = capsys.readouterr()
        assert (captured.err, caplog.messages) == ("", [])
        assert captured.out == lines.get(command, f"wrote {out / 'similarity.csv'}") + "\n"
        assert out_tree(out) == {name: data for name, data in before.items() if name not in swept}

    def test_inputs_digested_once(self, tmp_path, capsys):
        """Every command reads the manifest once and digests its inputs
        once, in the driver, whatever it finds: all stages finished, or an
        extract (a deleted shard), a mean (a deleted row file or
        mean_csd.csv) or a sim (a deleted similarity.csv) left to run. Each
        pending stage rewrites its output with the same bytes. The calls
        are counted by the functions' code, whatever name calls them."""
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        counted = {f.__code__: f.__name__ for f in (layout.parse_manifest, layout._input_digest)}

        def calls(command):
            names = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code in counted:
                    names.append(counted[frame.f_code])

            sys.setprofile(profile)
            try:
                assert run_cli(command, manifest, out) == 0
            finally:
                sys.setprofile(None)
            return names

        once = ["parse_manifest", "_input_digest"]
        for command in ("extract", "mean", "sim", "run"):
            assert calls(command) == once, command
        pending = (
            ("extract", "features-00000.potf"),
            ("mean", "state/mean/rows-0.out"),
            ("mean", "mean_csd.csv"),
            ("sim", "similarity.csv"),
        )
        for command, output in pending:
            before = (out / output).read_bytes()
            (out / output).unlink()
            assert calls(command) == once, output
            assert (out / output).read_bytes() == before
        capsys.readouterr()

    @pytest.mark.parametrize(
        "output, stage_name, commands",
        [("similarity.csv", "sim", ["sim", "run"]), ("mean_csd.csv", "mean", ["mean", "run"])],
    )
    def test_output_emptied_under_its_marker_reruns_its_reduce(
        self, tmp_path, capsys, caplog, output, stage_name, commands
    ):
        """An output emptied under its stage's marker, as a crash that
        renames a file before its data reach the disk can leave it, is not
        finished: the command reruns that stage's reduce, and no task and
        no other stage, to a fresh run's files, markers included."""
        manifest = make_corpus(tmp_path / "c", n=3)
        base = tmp_path / "base"
        assert run_cli("run", manifest, base) == 0
        caplog.set_level("INFO", logger="potsim")
        pattern = r"stage=(\w+) tasks_ran=(\d+) tasks_skipped=(\d+) tasks_failed=0"
        for command in commands:
            out = tmp_path / command
            shutil.copytree(base, out)
            (out / output).write_bytes(b"")
            caplog.clear()
            capsys.readouterr()
            assert run_cli(command, manifest, out) == 0
            assert capsys.readouterr().err == ""
            lines = [re.fullmatch(pattern, m) for m in caplog.messages]
            tasks = 1 if stage_name == "mean" else 0
            assert [m.groups() for m in lines if m] == [(stage_name, "0", str(tasks))], command
            assert out_tree(out) == out_tree(base), command

    def test_touched_frame_is_refused(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        frame = tmp_path / "c" / "v01" / "frame0002.pgm"
        stat = frame.stat()
        os.utime(frame, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        capsys.readouterr()
        for command in ("extract", "mean", "sim", "run"):
            assert run_cli(command, manifest, out) == 2, command
            assert "fingerprint" in capsys.readouterr().err, command

    @pytest.mark.parametrize("command", ["mean", "run"])
    def test_foreign_mean_csd_is_refused(self, tmp_path, capsys, command):
        """A mean_csd.csv of four videos beside the shards of three fails
        mean and run with exit 1, as the engine's mean stage refuses it."""
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        other = tmp_path / "other"
        assert run_cli("run", make_corpus(tmp_path / "c4", n=4), other) == 0
        shutil.copyfile(other / "mean_csd.csv", out / "mean_csd.csv")
        capsys.readouterr()
        assert run_cli(command, manifest, out) == 1
        assert "pair count 6 where the manifest's 3 videos make 3 pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mean", "run"])
    def test_mean_csd_spoilt_at_its_recorded_size_is_refused(self, tmp_path, capsys, command):
        """A mean_csd.csv that no longer parses but keeps the size mean's
        marker records is not rewritten, since the done rule cannot see it:
        mean and run fail with exit 1, naming the file and line."""
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        path = out / "mean_csd.csv"
        path.write_bytes(path.read_bytes().replace(b"series", b"serieX"))
        capsys.readouterr()
        assert run_cli(command, manifest, out) == 1
        assert f"{path}:1: bad mean CSD header" in capsys.readouterr().err

    def test_zero_workers_is_usage_error(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        capsys.readouterr()
        for command in ("extract", "mean", "sim", "run"):
            assert run_cli(command, manifest, out, ["--workers", "0"]) == 2, command
            assert "workers must be >= 1" in capsys.readouterr().err

    def test_removed_manifest_is_usage_error(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        manifest.unlink()
        capsys.readouterr()
        for command in ("extract", "mean", "sim", "run"):
            assert run_cli(command, manifest, out) == 2, command
            assert "manifest not found" in capsys.readouterr().err


class TestHeatmapCommand:
    def write_sim_csv(self, path, rows):
        path.write_text(
            "video_a,video_b,similarity\n"
            + "".join(f"{a},{b},{s}\n" for a, b, s in rows)
        )

    def test_identical_pair_renders_all_white(self, tmp_path):
        csv_path = tmp_path / "similarity.csv"
        self.write_sim_csv(csv_path, [("a", "b", "1.0")])
        assert main(["heatmap", str(csv_path), "--out", str(tmp_path / "heat")]) == 0
        image = decode_pgm((tmp_path / "heat.pgm").read_bytes())
        np.testing.assert_array_equal(image, np.full((2, 2), 255.0))
        assert (tmp_path / "heat.keys.txt").read_text() == "a\nb\n"

    def test_symmetric_with_diagonal(self, tmp_path):
        csv_path = tmp_path / "similarity.csv"
        self.write_sim_csv(
            csv_path, [("a", "b", "0.5"), ("a", "c", "0.25"), ("b", "c", "0.1")]
        )
        render_heatmap(csv_path, tmp_path / "h")
        image = decode_pgm((tmp_path / "h.pgm").read_bytes())
        np.testing.assert_array_equal(image, image.T)
        np.testing.assert_array_equal(np.diag(image), 255.0)
        assert image[0, 1] == round(255 * 0.5)

    def test_missing_pair_names_it(self, tmp_path, capsys):
        csv_path = tmp_path / "similarity.csv"
        self.write_sim_csv(csv_path, [("a", "b", "0.5"), ("a", "c", "0.25")])
        assert main(["heatmap", str(csv_path), "--out", str(tmp_path / "h")]) == 1
        assert "(b, c)" in capsys.readouterr().err

    def test_key_with_quote(self, tmp_path):
        """Keys hold no comma, so a quote in a key is no CSV quoting."""
        videos = {
            key: blob_video(6, 24, (6 + i, 12), (1.0 + 0.3 * i, 0.0))
            for i, key in enumerate(['"q', "v01", "v02"])
        }
        manifest = write_corpus(tmp_path / "c", videos)
        out = tmp_path / "out"
        assert run_cli("run", manifest, out) == 0
        assert main(["heatmap", str(out / "similarity.csv"), "--out", str(tmp_path / "h")]) == 0
        assert (tmp_path / "h.keys.txt").read_text() == '"q\nv01\nv02\n'

    def test_no_pairs_writes_nothing(self, tmp_path, capsys):
        """A header-only similarity.csv would make a 0x0 PGM, which no PGM
        reader accepts."""
        csv_path = tmp_path / "similarity.csv"
        self.write_sim_csv(csv_path, [])
        assert main(["heatmap", str(csv_path), "--out", str(tmp_path / "h")]) == 1
        assert f"{csv_path}: no pairs" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["similarity.csv"]

    @pytest.mark.parametrize(
        "out, message",
        [
            ("afile/h", "output dir {tmp}/afile is not a directory"),
            ("afile/sub/h", "output dir {tmp}/afile/sub: {tmp}/afile is not a directory"),
        ],
        ids=["in-file", "under-file"],
    )
    def test_out_under_a_file_is_usage_error(self, tmp_path, capsys, out, message):
        """An --out whose directory is, or lies under, a regular file exits
        2 naming it, as a stage command's --out does, and writes nothing."""
        csv_path = tmp_path / "similarity.csv"
        self.write_sim_csv(csv_path, [("a", "b", "0.5")])
        (tmp_path / "afile").write_bytes(b"a file")
        assert main(["heatmap", str(csv_path), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "similarity.csv"]
        assert (tmp_path / "afile").read_bytes() == b"a file"

    def test_memory_holds_the_image_not_the_pairs(self, tmp_path):
        """400 keys, 79,800 pairs: the render allocates under 4 MiB at its
        peak (a dict of every pair took ~21 MiB), and its image equals one
        filled from such a dict."""
        keys = [f"k{i:03d}" for i in range(400)]
        scores = dict(zip(combinations(keys, 2), np.random.default_rng(0).random(79_800)))
        csv_path = tmp_path / "similarity.csv"
        self.write_sim_csv(csv_path, [(a, b, repr(float(s))) for (a, b), s in scores.items()])
        expected = np.full((400, 400), 255.0)
        index = {key: i for i, key in enumerate(keys)}
        for (a, b), score in scores.items():
            i, j = index[a], index[b]
            expected[i, j] = expected[j, i] = round(255.0 * score)
        tracemalloc.start()
        try:
            render_heatmap(csv_path, tmp_path / "h")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert (tmp_path / "h.pgm").read_bytes() == encode_pgm(expected)
        assert (tmp_path / "h.keys.txt").read_text() == "".join(k + "\n" for k in keys)

    @pytest.mark.parametrize("score", ["inf", "nan", "-0.5", "1.5"])
    def test_score_outside_unit_interval_names_the_line(self, tmp_path, capsys, score):
        """A pixel is round(255 * score): an inf score would overflow and a
        nan one has no integer, so both are refused like any score outside
        [0, 1], naming the file and line, and nothing is written."""
        csv_path = tmp_path / "similarity.csv"
        self.write_sim_csv(csv_path, [("a", "b", "0.5"), ("a", "c", score), ("b", "c", "0.1")])
        assert main(["heatmap", str(csv_path), "--out", str(tmp_path / "h")]) == 1
        err = capsys.readouterr().err
        assert f"{csv_path}:3: score '{score}' is not a number in [0, 1]" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["similarity.csv"]

    def test_malformed_csv(self, tmp_path):
        csv_path = tmp_path / "similarity.csv"
        csv_path.write_text("nope\n")
        assert main(["heatmap", str(csv_path), "--out", str(tmp_path / "h")]) == 1


def test_readme_lists_every_run_flag():
    """README's "Common flags" paragraph names exactly the flags of `run`,
    beyond the --manifest and --out that every example shows."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = re.search(r"^Common flags:.*?\n\n", readme, re.M | re.S).group()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {f for a in sub.choices["run"]._actions for f in a.option_strings if f[1] == "-"}
    named = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    assert named == flags - {"--help", "--manifest", "--out"}


def test_usage_error_exit_code(capsys):
    assert main(["not-a-command"]) == 2
    capsys.readouterr()


def test_unknown_log_level_is_usage_error():
    """In a child process: under pytest the root logger has handlers
    already, so logging.basicConfig would not check the level."""
    env = dict(os.environ, PYTHONPATH=str(Path(potsim.__file__).parents[1]), POTSIM_LOG="BOGUS")
    result = subprocess.run(
        [sys.executable, "-m", "potsim.cli", "--help"], env=env, capture_output=True, text=True
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "BOGUS" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["extract", "mean", "sim", "run"])
@pytest.mark.parametrize(
    "out, state_dir, message",
    [
        ("afile", None, "output dir {tmp}/afile is not a directory"),
        ("afile", "state", "output dir {tmp}/afile is not a directory"),
        ("afile/out", None, "output dir {tmp}/afile/out: {tmp}/afile is not a directory"),
        ("out", "afile", "state dir {tmp}/afile is not a directory"),
    ],
    ids=["out", "out-beside-state-dir", "out-under-file", "state-dir"],
)
def test_file_where_a_directory_belongs_is_usage_error(
    tmp_path, capsys, command, out, state_dir, message
):
    """An --out or --state-dir that is a regular file, or lies under one,
    exits 2 naming the path, before anything is written: no state dir,
    no fingerprint, no output."""
    manifest = make_corpus(tmp_path / "c", n=3)
    (tmp_path / "afile").write_bytes(b"a file")
    extra = ["--state-dir", str(tmp_path / state_dir)] if state_dir else []
    capsys.readouterr()
    assert run_cli(command, manifest, tmp_path / out, extra) == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "c"]
    assert (tmp_path / "afile").read_bytes() == b"a file"


def test_python_m_potsim_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(potsim.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "potsim", "--help"], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith("usage: potsim ")


def test_text_files_are_utf8_whatever_the_locale(tmp_path):
    """Under an ASCII locale with UTF-8 mode off, a non-ASCII key goes
    through run and heatmap, and every text file potsim writes is UTF-8:
    the same bytes as an in-process run. The directories are ASCII, since
    file names go through the filesystem encoding."""
    videos = {"vide": (6, 12), "other": (8, 12)}
    for directory, start in videos.items():
        write_video_dir(tmp_path / "c" / directory, blob_video(6, 24, start, (1.0, 0.0)))
    manifest = tmp_path / "c" / "manifest.txt"
    manifest.write_text("vidé,vide\nother,other\n", encoding="utf-8")
    assert run_cli("run", manifest, tmp_path / "utf8") == 0

    env = dict(
        os.environ, PYTHONPATH=str(Path(potsim.__file__).parents[1]), PYTHONUTF8="0", LC_ALL="C"
    )
    out = tmp_path / "ascii"
    commands = [
        ["run", "--manifest", str(manifest), "--out", str(out), *FAST_FLAGS],
        ["heatmap", str(out / "similarity.csv"), "--out", str(out / "heat")],
    ]
    for argv in commands:
        result = subprocess.run(
            [sys.executable, "-m", "potsim", *argv], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr[-2000:]
    for name in ("similarity.csv", "mean_csd.csv", "state/fingerprint"):
        assert (out / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes(), name
    assert "other,vidé," in (out / "similarity.csv").read_text(encoding="utf-8")
    assert (out / "heat.keys.txt").read_bytes() == "other\nvidé\n".encode()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_fifo_frame_fails_its_task_instead_of_blocking(tmp_path):
    """A FIFO named like a frame, with no writer, would block extract's
    read for ever: it fails its video's task (exit 1, naming the frame)
    and the other videos run. In a child process, which the timeout ends
    should it block."""
    manifest = make_corpus(tmp_path / "c", n=3)
    os.mkfifo(tmp_path / "c" / "v01" / "frame9999.pgm")
    env = dict(os.environ, PYTHONPATH=str(Path(potsim.__file__).parents[1]))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "potsim", "extract", "--manifest", str(manifest), "--out", str(out),
         *FAST_FLAGS],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1, result.stderr[-2000:]
    reason = "v01: ValueError: video 'v01': frame 'frame9999.pgm': not a regular file"
    assert reason in result.stderr
    assert "Traceback" not in result.stderr
    done = sorted(p.name for p in (out / "state" / "extract").iterdir())
    assert done == ["task-0.out", "task-2.out"]


def test_pair_stages_import_no_scipy(tmp_path):
    """Only flow uses scipy: importing potsim, and the commands that run no
    flow (mean, sim, --help, any command on a finished state dir), leave it
    out. Those that only parse arguments (importing potsim, --help, a
    subcommand's --help, a usage error, an unknown POTSIM_LOG level), a
    pending sim, a run whose only pending stage is sim, and those whose
    stages are all finished (extract, mean, sim and run, rerun) leave numpy
    and the engine out too."""
    manifest = make_corpus(tmp_path / "c", n=3)
    out = tmp_path / "out"
    assert run_cli("extract", manifest, out) == 0
    probe = (
        "import sys\n"
        "import potsim, potsim.cli\n"
        "code = potsim.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(*(m in sys.modules for m in ('scipy', 'numpy', 'potsim.engine')))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(potsim.__file__).parents[1]))
    def stage_case(command, engine_loaded):
        argv = [command, "--manifest", str(manifest), "--out", str(out), *FAST_FLAGS]
        return argv, {}, 0, engine_loaded

    def check(argv, extra_env, code, engine_loaded):
        result = subprocess.run(
            [sys.executable, "-c", probe, *argv], env={**env, **extra_env},
            capture_output=True, text=True,
        )
        assert result.returncode == code, (argv, result.stderr[-2000:])
        assert result.stdout.splitlines()[-1] == f"False {engine_loaded} {engine_loaded}", argv

    cases = [
        ([], {}, 0, False),
        stage_case("mean", True),
        stage_case("sim", False),
        *(stage_case(command, False) for command in ("extract", "mean", "sim", "run")),
        (["--help"], {}, 0, False),
        (["extract", "--help"], {}, 0, False),
        (["bogus"], {}, 2, False),
        (["--help"], {"POTSIM_LOG": "BOGUS"}, 2, False),
    ]
    for case in cases:
        check(*case)
    before = (out / "similarity.csv").read_bytes()
    (out / "similarity.csv").unlink()
    check(*stage_case("run", False))
    assert (out / "similarity.csv").read_bytes() == before


def test_help_loads_only_the_parser():
    """--help imports, of potsim, only the CLI and the settings' defaults:
    not layout, which a stage command loads after parsing."""
    probe = (
        "import contextlib, io, sys\n"
        "import potsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = potsim.cli.main(['--help'])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('potsim')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(potsim.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.stdout.split() == ["0", "potsim", "potsim.cli", "potsim.params"], result.stderr


@pytest.mark.parametrize("module", ["potsim", "potsim.cli"])
def test_python_m_exits_with_main_code_after_freezing_gc(tmp_path, module):
    """``python -m potsim`` and ``python -m potsim.cli`` exit 0, 1 and 2 as
    main returns them, and freeze the GC first so that the interpreter's
    last collection skips what the command loaded. runpy.run_module runs
    the module as -m does, in a child that reports the freeze."""
    probe = (
        "import gc, runpy, sys\n"
        "module = sys.argv.pop(1)\n"
        "try:\n"
        "    runpy.run_module(module, run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print(gc.get_freeze_count() > 0)\n"
    )
    csv_path = tmp_path / "similarity.csv"
    csv_path.write_text("video_a,video_b,similarity\na,b,0.5\n")
    env = dict(os.environ, PYTHONPATH=str(Path(potsim.__file__).parents[1]))
    cases = [
        (["--help"], {}, 0),
        (["heatmap", str(csv_path), "--out", str(tmp_path / "heat")], {}, 0),
        (["heatmap", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "heat")], {}, 1),
        (["bogus"], {}, 2),
        (["--help"], {"POTSIM_LOG": "BOGUS"}, 2),
    ]
    for argv, extra_env, code in cases:
        result = subprocess.run(
            [sys.executable, "-c", probe, module, *argv], env={**env, **extra_env},
            capture_output=True, text=True,
        )
        assert result.returncode == code, (argv, result.stderr[-2000:])
        assert result.stdout.splitlines()[-1] == "True", argv
        assert "Traceback" not in result.stderr
    assert (tmp_path / "heat.pgm").exists()


def test_console_script_is_the_entry():
    """pyproject.toml's `potsim` script runs the entry that `python -m`
    runs: the one that freezes the GC before exit."""
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^potsim = "([\w.]+):(\w+)"$', pyproject, re.M)
    module = __import__(target.group(1), fromlist=[target.group(2)])
    assert getattr(module, target.group(2)) is potsim.cli.entry


def test_main_in_process_leaves_gc_unfrozen(tmp_path, capsys):
    """main() returns its code and leaves the GC alone: only the process
    entry freezes, so a caller's collections still run."""
    csv_path = tmp_path / "similarity.csv"
    csv_path.write_text("video_a,video_b,similarity\na,b,0.5\n")
    before = gc.get_freeze_count()
    assert main(["--help"]) == 0
    assert main(["bogus"]) == 2
    assert main(["heatmap", str(csv_path), "--out", str(tmp_path / "heat")]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_default_workers_follow_cpu_affinity(monkeypatch):
    """A process pinned to one CPU of an 8-CPU host defaults to one worker,
    in the CLI and in PipelineConfig; without an affinity call, every CPU."""
    from potsim.engine import PipelineConfig

    argv = ["mean", "--manifest", "m.txt", "--out", "out"]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert build_parser().parse_args(argv).workers == 1
    assert PipelineConfig("m.txt", "out").workers == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert build_parser().parse_args(argv).workers == 8
    assert PipelineConfig("m.txt", "out").workers == 8


def test_public_names_resolve():
    """Every name of potsim.__all__ resolves, a star import binds them all,
    another name raises AttributeError, submodules still import by
    `from potsim import ...`, and the modules that use a default or
    FarnebackParams bind params' own."""
    from potsim import descriptors, flow, params, pooling

    for name in potsim.__all__:
        assert getattr(potsim, name).__name__ == name
    namespace = {}
    exec("from potsim import *", namespace)
    assert set(potsim.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="nope"):
        potsim.nope
    assert potsim.FarnebackParams is flow.FarnebackParams is params.FarnebackParams
    assert pooling.DEFAULT_LEVELS == params.DEFAULT_LEVELS == (1, 2, 4)
    assert descriptors.DEFAULT_HOG_THRESHOLD == params.DEFAULT_HOG_THRESHOLD == 40.0
