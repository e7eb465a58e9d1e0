import concurrent.futures
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from conftest import blob_video, noise_video, slots_of, write_corpus, write_video_dir
from potsim import archive, commit, descriptors, engine
from potsim.archive import ArchiveRecord, read_archive, write_archive
from potsim.cli import main
from potsim.engine import (
    ConfigError,
    PipelineConfig,
    STAGE_MEAN,
    StageError,
    check_config,
    config_fingerprint,
    parse_manifest,
    plan_extract,
    plan_packets,
    plan_pair_stage,
    run_extract,
    run_mean,
    run_pipeline,
    run_similarity,
)
from potsim.flow import FarnebackParams
from potsim.pooling import SLOTS
from potsim.similarity import chi_square, mean_csd, write_mean_csd_csv

FAST_FB = FarnebackParams(levels=1, winsize=7, iterations=1)


def fast_config(manifest, out_dir, **overrides):
    defaults = dict(
        manifest=str(manifest),
        out_dir=str(out_dir),
        working_w=24,
        working_h=24,
        farneback=FAST_FB,
        workers=1,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def fast_argv(command, manifest, out, workers=1):
    """CLI arguments matching fast_config."""
    return [command, "--manifest", str(manifest), "--out", str(out), "--resize", "24x24",
            "--flow-levels", "1", "--winsize", "7", "--iterations", "1",
            "--workers", str(workers)]


def task_outcomes(caplog):
    """{target: outcome} from the engine's per-task log lines."""
    lines = [re.search(r"target=(.+?) outcome=(\w+)", m) for m in caplog.messages]
    return dict(m.groups() for m in lines if m)


def stage_counts(caplog):
    """{stage: (ran, skipped, failed)} from the engine's per-stage lines,
    which hold no token of the per-task lines."""
    pattern = r"stage=(\w+) tasks_ran=(\d+) tasks_skipped=(\d+) tasks_failed=(\d+)"
    lines = [re.fullmatch(pattern, m) for m in caplog.messages]
    return {m[1]: tuple(map(int, m.groups()[1:])) for m in lines if m}


def set_shards(monkeypatch, video_count, shards):
    """Set VIDEOS_PER_SHARD so that video_count videos make that many
    shards; forked pool workers inherit it."""
    size = math.ceil(video_count / shards)
    assert math.ceil(video_count / size) == shards
    monkeypatch.setattr(engine, "VIDEOS_PER_SHARD", size)


def outputs_outside_state(out):
    """Every file under ``out`` outside its state dir, by relative path."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in out.rglob("*")
        if p.is_file() and "state" not in p.relative_to(out).parts
    }


def to_shard_pair_layout(out, cfg):
    """Rewrite a state dir's mean rows in the layout of earlier versions:
    one mean/task-N.out per shard pair (i, j), i <= j, in that order,
    holding the rows of shard i's keys with their partners in shard j."""
    _, shard_keys, state, _ = engine._prepare_stage(cfg)
    tasks = plan_pair_stage(shard_keys, state)
    keys = [key for shard in shard_keys for key in shard]
    shard_of = {key: i for i, shard in enumerate(shard_keys) for key in shard}
    row_of = {}
    for g, (key_a, rows) in enumerate(engine._key_rows(tasks)):
        row_of.update(((key_a, key_b), row.tobytes()) for key_b, row in zip(keys[g + 1 :], rows))
    pairs = combinations_with_replacement(range(len(shard_keys)), 2)
    for n, shard_pair in enumerate(pairs):
        data = b"".join(row for (a, b), row in row_of.items() if (shard_of[a], shard_of[b]) == shard_pair)
        (state / STAGE_MEAN / f"task-{n}.out").write_bytes(data)
    for task in tasks:
        os.unlink(task.out_path)


def small_corpus(root, n=3, frames=6, size=24):
    videos = {
        f"v{i:02d}": blob_video(frames, size, (6 + i, 12), (1.0 + 0.3 * i, 0.2 * i))
        for i in range(n)
    }
    return write_corpus(root, videos)


class TestManifest:
    def test_parse(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        entries = parse_manifest(manifest)
        assert [k for k, _ in entries] == ["v00", "v01"]
        assert all(os.path.isdir(d) for _, d in entries)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("a,dir1\na,dir2\n")
        with pytest.raises(ConfigError, match="duplicate key 'a'"):
            parse_manifest(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("\n\n")
        with pytest.raises(ConfigError, match="empty"):
            parse_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_manifest(tmp_path / "nope.txt")

    def test_bad_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("just-a-key\n")
        with pytest.raises(ConfigError, match="expected"):
            parse_manifest(path)

    def test_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_bytes(b"v0,v0\n\xff\xfe,v1\n")
        with pytest.raises(ConfigError, match=f"manifest {re.escape(str(path))} is not UTF-8"):
            parse_manifest(path)
        assert main(fast_argv("run", path, tmp_path / "out")) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_entries_in_key_order(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("b,d2\nc,d3\na,d1\n")
        assert [key for key, _ in parse_manifest(path)] == ["a", "b", "c"]

    def test_byte_order_mark_is_not_part_of_a_key(self, tmp_path):
        """A manifest saved with a UTF-8 byte-order mark gives the same
        similarity.csv bytes as the same manifest without it."""
        manifest = small_corpus(tmp_path / "c", n=3)
        plain = run_pipeline(fast_config(manifest, tmp_path / "plain")).read_bytes()
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        assert run_pipeline(fast_config(manifest, tmp_path / "bom")).read_bytes() == plain
        assert parse_manifest(manifest)[0][0] == "v00"


class TestPlanning:
    def test_shard_count_default(self, tmp_path):
        """The layout is the fewest near-equal shards of the sorted keys
        that hold at most VIDEOS_PER_SHARD each. The directories are
        missing, so nothing is extracted."""
        for n, sizes in ((64, [64]), (65, [33, 32]), (129, [43, 43, 43])):
            manifest = tmp_path / f"m{n}.txt"
            manifest.write_text("".join(f"v{i:03d},gone{i}\n" for i in reversed(range(n))))
            _, shard_keys, _, _ = engine._prepare_stage(fast_config(manifest, tmp_path / f"o{n}"))
            assert [len(keys) for keys in shard_keys] == sizes
            assert max(sizes) <= engine.VIDEOS_PER_SHARD
            assert [key for keys in shard_keys for key in keys] == [f"v{i:03d}" for i in range(n)]

    def test_pair_stage_task_count(self, tmp_path):
        """One mean task per shard row, each with its own and every later
        shard's keys, writing rows-<i>.out."""
        tasks = plan_pair_stage([["a"], ["b"], ["c"]], tmp_path)
        assert [t.payload for t in tasks] == [
            (0, (("a",), ("b",), ("c",))), (1, (("b",), ("c",))), (2, (("c",),)),
        ]
        assert [Path(t.out_path).name for t in tasks] == ["rows-0.out", "rows-1.out", "rows-2.out"]
        tasks = plan_pair_stage([["a"]], tmp_path)
        assert len(tasks) == 1

    def test_fingerprint_sensitivity(self, tmp_path):
        """Every output-affecting setting, each FarnebackParams field
        included, moves the fingerprint."""
        manifest = small_corpus(tmp_path / "c", n=2)
        entries = parse_manifest(manifest)
        base = fast_config(manifest, tmp_path / "out")
        assert config_fingerprint(base, entries) == config_fingerprint(base, entries)
        overrides = [
            {"working_w": 32},
            {"working_h": 32},
            {"levels": (1, 2)},
            {"hog_threshold": 20.0},
        ]
        # an int field + 2 stays odd where it must be; a float field halves
        for param in dataclasses.fields(FarnebackParams):
            value = getattr(FAST_FB, param.name)
            changed = value + 2 if isinstance(value, int) else value / 2
            overrides.append({"farneback": dataclasses.replace(FAST_FB, **{param.name: changed})})
        for override in overrides:
            changed = fast_config(manifest, tmp_path / "out", **override)
            check_config(changed)
            assert config_fingerprint(base, entries) != config_fingerprint(changed, entries), override

    def test_input_digest_equals_a_listing_then_stat_per_frame(self, tmp_path):
        """The digest takes names and stats from one directory scan, with
        the same bytes as listing the frames and then calling os.stat on
        each, so state dirs made before still resume. The frame counts
        extract packs by come from the same scan: 0 where the digest says
        missing or unreadable."""

        def listed_then_stated(entries):
            import hashlib

            digest = hashlib.sha256()
            counts = {}
            for key, directory in entries:
                digest.update(json.dumps([key, directory]).encode())
                counts[key] = 0
                if not os.path.isdir(directory):
                    digest.update(b"missing")
                    continue
                try:
                    names = sorted(
                        name for name in os.listdir(directory)
                        if os.path.splitext(name)[1].lower() in (".pgm", ".ppm")
                    )
                    stats = [(name, os.stat(Path(directory) / name)) for name in names]
                except OSError:
                    digest.update(b"unreadable")
                    continue
                for name, st in stats:
                    digest.update(f"{name}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
                counts[key] = len(stats)
            return digest.hexdigest(), counts

        root = tmp_path / "c"
        manifest = small_corpus(root, n=3, frames=3, size=8)
        for name in ("F10.PGM", "f11.Ppm", "notes.txt", "f12.pgm.bak", "pgm"):
            (root / "v00" / name).write_bytes(b"P5\n1 1\n255\n\x00" * len(name))
        (root / "v01" / "frame9999.pgm").symlink_to(root / "v01" / "nowhere.pgm")
        with manifest.open("a") as fh:
            fh.write("v03,gone\n")
        entries = parse_manifest(manifest)
        assert [key for key, _ in entries] == ["v00", "v01", "v02", "v03"]
        assert engine._input_digest(entries) == listed_then_stated(entries)
        assert engine._input_digest(entries)[1] == {"v00": 5, "v01": 0, "v02": 3, "v03": 0}


class TestConfigCheck:
    @pytest.mark.parametrize(
        "override",
        [
            {"working_w": 0},
            {"working_h": 0},
            {"levels": ()},
            {"levels": (0,)},
            {"hog_threshold": 256.0},
            {"hog_threshold": float("inf")},
            {"hog_threshold": float("nan")},
            {"hog_threshold": "5"},
            {"workers": 0},
            pytest.param({"farneback": FarnebackParams(levels=1, winsize=4)}, id="winsize=4"),
            pytest.param({"farneback": FarnebackParams(iterations=0)}, id="iterations=0"),
        ],
        ids=repr,
    )
    def test_invalid_setting_is_config_error(self, tmp_path, override):
        """A library run refuses every unusable setting up front, as the
        CLI does: no task runs and no state dir is made."""
        manifest = small_corpus(tmp_path / "c", n=2)
        out = tmp_path / "out"
        with pytest.raises(ConfigError):
            run_pipeline(fast_config(manifest, out, **override))
        assert not (out / "state").exists()


class TestExtractStage:
    def test_writes_shards_with_all_records(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=3)
        cfg = fast_config(manifest, tmp_path / "out")
        shards = run_extract(cfg)
        records = [r for p in shards for r in read_archive(p)]
        assert sorted(r.key for r in records) == ["v00", "v01", "v02"]

    def test_requested_shard_count(self, tmp_path, monkeypatch):
        manifest = small_corpus(tmp_path / "c", n=5)
        set_shards(monkeypatch, 5, 2)
        shards = run_extract(fast_config(manifest, tmp_path / "out"))
        assert len(shards) == 2
        assert [len(read_archive(p)) for p in shards] == [3, 2]

    def test_unreadable_video_fails_naming_key(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=3)
        bad_dir = tmp_path / "c" / "v01"
        for f in list(bad_dir.iterdir())[1:]:
            f.unlink()
        cfg = fast_config(manifest, tmp_path / "out")
        with pytest.raises(StageError) as err:
            run_extract(cfg)
        assert len(err.value.failures) == 1
        assert "v01" in err.value.failures[0][1] or "v01" == err.value.failures[0][0]

    def test_unstatable_frame_fails_its_task(self, tmp_path, capsys):
        """A dangling frame symlink fingerprints its video as unreadable:
        that video's task fails under its key, and the others run."""
        root = tmp_path / "c"
        manifest = small_corpus(root, n=3)
        (root / "v01" / "frame9999.pgm").symlink_to(root / "v01" / "nowhere.pgm")
        out = tmp_path / "out"
        with pytest.raises(StageError) as err:
            run_extract(fast_config(manifest, out))
        assert [label for label, _ in err.value.failures] == ["v01"]
        assert "frame9999.pgm" in err.value.failures[0][1]
        done = sorted(p.name for p in (out / "state" / "extract").iterdir())
        assert done == ["task-0.out", "task-2.out"]
        assert main(fast_argv("run", manifest, out)) == 1
        assert "v01: FileNotFoundError" in capsys.readouterr().err

    def test_resume_skips_completed_tasks(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=3)
        cfg = fast_config(manifest, tmp_path / "out")
        shards = run_extract(cfg)
        mtimes = {p: p.stat().st_mtime_ns for p in shards}
        shards2 = run_extract(cfg)
        assert shards2 == shards
        assert {p: p.stat().st_mtime_ns for p in shards2} == mtimes


def recording_packets(monkeypatch):
    """Patch plan_packets to record each packing, as lists of keys."""
    packings = []
    real = engine.plan_packets

    def recording(config, tasks, frame_counts):
        packets = real(config, tasks, frame_counts)
        packings.append([[task.label for task in packet] for packet in packets])
        return packets

    monkeypatch.setattr(engine, "plan_packets", recording)
    return packings


class TestPackets:
    """Extract runs its pending tasks in packets: runs of consecutive
    videos whose frames make one flow block, one call per packet."""

    def plan(self, tmp_path, counts, workers):
        cfg = fast_config(tmp_path / "manifest.txt", tmp_path / "out", workers=workers)
        entries = [(key, str(tmp_path / key)) for key in counts]
        tasks = plan_extract(cfg, entries, tmp_path / "state")
        return [[task.label for task in packet] for packet in plan_packets(cfg, tasks, counts)]

    def test_packets_fill_blocks_in_key_order(self, tmp_path, monkeypatch):
        """Blocks of 8 pairs: a and b make 8 pairs; c does not fit beside
        them; d, longer than a block, is a packet of its own; g, whose
        directory is missing, counts 0 frames. More workers than packets
        cut the packet of the most videos in halves, the first such first."""
        monkeypatch.setattr(descriptors, "_BLOCK_PIXELS", 8 * 24 * 24)
        counts = {"a": 4, "b": 5, "c": 3, "d": 20, "e": 2, "f": 2, "g": 0}
        assert self.plan(tmp_path, counts, 1) == [["a", "b"], ["c"], ["d"], ["e", "f", "g"]]
        assert self.plan(tmp_path, counts, 4) == [["a", "b"], ["c"], ["d"], ["e", "f", "g"]]
        assert self.plan(tmp_path, counts, 6) == [["a"], ["b"], ["c"], ["d"], ["e", "f"], ["g"]]
        assert self.plan(tmp_path, counts, 64) == [[key] for key in counts]

    def test_packets_differ_by_workers_and_outputs_do_not(self, tmp_path, monkeypatch):
        """Six short videos of mixed lengths fit one block at 24x24: one
        packet at --workers 1, two at 2 and three at 3. Shards, means,
        scores and series dumps are the same bytes at each."""
        videos = {
            f"v{i:02d}": blob_video(n, 24, (6 + i, 12), (1.0 + 0.3 * i, 0.2 * i))
            for i, n in enumerate([5, 8, 5, 6, 9, 5])
        }
        manifest = write_corpus(tmp_path / "c", videos)
        packings = recording_packets(monkeypatch)
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"out{workers}"
            run_pipeline(fast_config(manifest, out, workers=workers, dump_series=True))
            outputs.append(outputs_outside_state(out))
        assert packings == [
            [["v00", "v01", "v02", "v03", "v04", "v05"]],
            [["v00", "v01", "v02"], ["v03", "v04", "v05"]],
            [["v00", "v01"], ["v02"], ["v03", "v04", "v05"]],
        ]
        assert len(outputs[0]) == 1 + 1 + 1 + 2 * len(videos)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_failed_videos_fail_alone_in_their_packet(self, tmp_path, monkeypatch, caplog, capsys):
        """One packet holds an undecodable video and one too short for the
        temporal pyramid: those two fail with their own reasons, their
        packet-mates' archives are committed, and a rerun skips the
        packet-mates and reruns only the two."""
        root = tmp_path / "c"
        videos = {
            f"v{i:02d}": blob_video(3 if i == 3 else 6, 24, (6 + i, 12), (1.0, 0.5))
            for i in range(5)
        }
        manifest = write_corpus(root, videos)
        (root / "v01" / "frame0002.pgm").write_bytes(b"GIF89a")
        packings = recording_packets(monkeypatch)
        out = tmp_path / "out"
        caplog.set_level("INFO", logger="potsim.engine")
        assert main(fast_argv("extract", manifest, out)) == 1
        err = capsys.readouterr().err
        assert packings == [[["v00", "v01", "v02", "v03", "v04"]]]
        assert task_outcomes(caplog) == {
            "v00": "ok", "v01": "failed", "v02": "ok", "v03": "failed", "v04": "ok",
        }
        assert "v01: ValueError: video 'v01': frame 'frame0002.pgm': unsupported image" in err
        assert "v03: ValueError: video too short for temporal pyramid" in err
        done = sorted(p.name for p in (out / "state" / "extract").iterdir())
        assert done == ["task-0.out", "task-2.out", "task-4.out"]
        caplog.clear()
        assert main(fast_argv("extract", manifest, out)) == 1
        assert packings[1:] == [[["v01", "v03"]]]
        assert task_outcomes(caplog) == {
            "v00": "skipped", "v01": "failed", "v02": "skipped", "v03": "failed", "v04": "skipped",
        }
        assert stage_counts(caplog) == {"extract": (0, 3, 2)}

    def test_durations_add_up_to_the_packet(self, tmp_path):
        """Each task's duration is its own time plus its frame-pair share
        of the packet's: the sum is the packet's time, and a video that
        failed to decode gets no share of the flow."""
        root = tmp_path / "c"
        videos = {
            f"v{i:02d}": blob_video(n, 24, (6 + i, 12), (1.0, 0.5))
            for i, n in enumerate([6, 9, 6])
        }
        manifest = write_corpus(root, videos)
        for frame in (root / "v02").iterdir():
            frame.write_bytes(b"P5\n")
        cfg = fast_config(manifest, tmp_path / "out")
        entries, _, state, counts = engine._prepare_stage(cfg)
        (state / "extract").mkdir()
        [packet] = plan_packets(cfg, plan_extract(cfg, entries, state), counts)
        start = time.monotonic()
        results = engine._run_extract_packet(cfg, packet)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert [error is None for error, _ in results] == [True, True, False]
        total = sum(ms for _, ms in results)
        assert 0.75 * elapsed_ms <= total <= elapsed_ms
        assert results[1][1] > results[0][1] > results[2][1]

    def test_worker_peak_is_one_block_and_one_video(self, tmp_path):
        """A worker's peak while it extracts a packet (tracemalloc, each
        packet in a thread of its own, so with a fresh flow workspace) is
        at most one block's flow, as compute_series on one block of frames
        takes, plus three times the frames of one video or block, the
        larger: a packet's frames are held twice while they are put one
        after another, and its series take 40% of their bytes. At 32x32 a
        block is 64 pairs: 24 eight-frame videos make three packets, and
        a 193-frame video is a packet of its own. The 24 in one packet
        would take more."""
        videos = {f"v{i:02d}": blob_video(8, 32, (8 + i % 9, 12), (1.0, 0.5)) for i in range(24)}
        videos["w"] = noise_video(193, 32, seed=1)
        manifest = write_corpus(tmp_path / "c", videos)
        cfg = PipelineConfig(manifest=str(manifest), out_dir=str(tmp_path / "out"),
                             working_w=32, working_h=32, workers=1)
        entries, _, state, counts = engine._prepare_stage(cfg)
        (state / "extract").mkdir()
        packets = plan_packets(cfg, plan_extract(cfg, entries, state), counts)
        assert [len(packet) for packet in packets] == [8, 8, 8, 1]

        def peak(work):
            peaks = []

            def run():
                tracemalloc.start()
                try:
                    work()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

            thread = threading.Thread(target=run)
            thread.start()
            thread.join()
            return peaks[0]

        block_frames = noise_video(65, 32, seed=2)
        one_block = peak(lambda: descriptors.compute_series(block_frames))
        for packet in packets:
            largest = max(block_frames.nbytes, 8 * 32 * 32 * max(counts[t.label] for t in packet))
            assert peak(lambda: engine._run_extract_packet(cfg, packet)) <= one_block + 3 * largest
        every_short_video = [task for packet in packets[:3] for task in packet]
        every_peak = peak(lambda: engine._run_extract_packet(cfg, every_short_video))
        assert every_peak > one_block + 3 * block_frames.nbytes


class TestFullPipeline:
    def test_three_videos(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=3)
        cfg = fast_config(manifest, tmp_path / "out")
        sim_path = run_pipeline(cfg)
        lines = sim_path.read_text().splitlines()
        assert lines[0] == "video_a,video_b,similarity"
        rows = [line.split(",") for line in lines[1:]]
        assert [(a, b) for a, b, _ in rows] == [
            ("v00", "v01"), ("v00", "v02"), ("v01", "v02"),
        ]
        assert all(0.0 < float(s) <= 1.0 for _, _, s in rows)
        mean_lines = (tmp_path / "out" / "mean_csd.csv").read_text().splitlines()
        assert all(line.endswith(",3") for line in mean_lines[1:])

    @pytest.mark.parametrize("shards", [1, 2, 3, 7, pytest.param(None, id="default")])
    def test_multi_shard_equals_single_shard(self, tmp_path, monkeypatch, shards):
        """The mean reduce sums in global key-pair order, so both outputs
        are byte-identical to one shard's at any shard count."""
        videos = {f"n{i:02d}": noise_video(5, 24, seed=40 + i) for i in range(14)}
        manifest = write_corpus(tmp_path / "c", videos)
        run_pipeline(fast_config(manifest, tmp_path / "one"))
        if shards is not None:
            set_shards(monkeypatch, 14, shards)
        run_pipeline(fast_config(manifest, tmp_path / "many"))
        for name in ("mean_csd.csv", "similarity.csv"):
            assert (tmp_path / "many" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        manifest = small_corpus(tmp_path / "c", n=4)
        set_shards(monkeypatch, 4, 2)
        cfg1 = fast_config(manifest, tmp_path / "out1", workers=1)
        cfg2 = fast_config(manifest, tmp_path / "out2", workers=2)
        assert run_pipeline(cfg1).read_text() == run_pipeline(cfg2).read_text()

    def test_staged_resume_matches_uninterrupted(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=4)
        cfg_direct = fast_config(manifest, tmp_path / "direct")
        direct = run_pipeline(cfg_direct).read_text()

        cfg_staged = fast_config(manifest, tmp_path / "staged")
        run_extract(cfg_staged)
        run_mean(cfg_staged)
        staged = run_pipeline(cfg_staged).read_text()
        assert staged == direct

    def test_fingerprint_write_cut_short_leaves_none(self, tmp_path, monkeypatch):
        """A fingerprint write that fails part-way leaves no fingerprint
        behind, so the next run starts instead of being refused."""
        manifest = small_corpus(tmp_path / "c", n=2)
        cfg = fast_config(manifest, tmp_path / "out")
        write_text = Path.write_text

        def cut_short(path, data, *args, **kwargs):
            if path.name.startswith("fingerprint"):
                write_text(path, data[:5], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_text(path, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", cut_short)
        with pytest.raises(OSError, match="No space left"):
            run_pipeline(cfg)
        monkeypatch.undo()
        assert not (tmp_path / "out" / "state" / "fingerprint").exists()
        assert len(run_pipeline(cfg).read_text().splitlines()) == 2

    def test_fingerprint_mismatch_refused(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        cfg = fast_config(manifest, tmp_path / "out")
        run_extract(cfg)
        changed = fast_config(manifest, tmp_path / "out", working_w=32)
        with pytest.raises(ConfigError, match="fingerprint"):
            run_extract(changed)

    def test_float64_flow_state_dir_refused(self, tmp_path, capsys, caplog):
        """A state dir of the engine whose flow solved in float64, with no
        flow precision in its fingerprint payload, is refused with exit 2
        before any extract task runs, so no shard or mean mixes features
        of both precisions."""
        manifest = small_corpus(tmp_path / "c", n=2)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        entries = parse_manifest(manifest)
        payload = {
            "inputs": engine._input_digest(entries)[0],
            "working": [cfg.working_w, cfg.working_h],
            "levels": list(cfg.levels),
            "hog_threshold": cfg.hog_threshold,
            "shard_count": engine.shard_count(len(entries)),
            "farneback": dataclasses.astuple(cfg.farneback),
        }

        def fingerprint(payload):
            return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

        # today's payload is that one plus the flow's precision
        assert fingerprint({**payload, "flow_dtype": "float32"}) == config_fingerprint(cfg, entries)
        (out / "state").mkdir(parents=True)
        (out / "state" / "fingerprint").write_text(fingerprint(payload) + "\n")
        caplog.set_level("INFO", logger="potsim.engine")
        assert main(fast_argv("run", manifest, out)) == 2
        assert "parameters or inputs" in capsys.readouterr().err
        assert task_outcomes(caplog) == {}
        assert not (out / "state" / "extract").exists()

    @pytest.mark.parametrize("change", ["replaced-frames", "renamed-key", "touched-frame"])
    def test_changed_inputs_refuse_resume(self, tmp_path, capsys, change):
        root = tmp_path / "c"
        manifest = small_corpus(root, n=4)
        out = tmp_path / "out"
        run_pipeline(fast_config(manifest, out))
        if change == "replaced-frames":
            write_video_dir(root / "v02", noise_video(6, 24, seed=7))
        elif change == "renamed-key":  # same video count as before
            manifest.write_text(manifest.read_text().replace("v03,", "zz,"))
        else:
            frame = root / "v01" / "frame0002.pgm"
            st = frame.stat()
            os.utime(frame, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        with pytest.raises(ConfigError, match="parameters or inputs"):
            run_mean(fast_config(manifest, out))
        assert main(fast_argv("run", manifest, out)) == 2
        assert "parameters or inputs" in capsys.readouterr().err

    def test_missing_directory_fails_its_task(self, tmp_path, caplog):
        root = tmp_path / "c"
        manifest = small_corpus(root, n=3)
        manifest.write_text(manifest.read_text() + "gone,gone\n")
        caplog.set_level("INFO", logger="potsim.engine")
        with pytest.raises(StageError) as err:
            run_extract(fast_config(manifest, tmp_path / "out"))
        assert [label for label, _ in err.value.failures] == ["gone"]
        assert stage_counts(caplog) == {"extract": (3, 0, 1)}

    def test_stale_shard_from_earlier_run_is_ignored(self, tmp_path, monkeypatch):
        manifest = small_corpus(tmp_path / "c", n=5)
        out = tmp_path / "out"
        set_shards(monkeypatch, 5, 3)
        run_pipeline(fast_config(manifest, out, state_dir=str(tmp_path / "s3")))
        set_shards(monkeypatch, 5, 2)
        cfg = fast_config(manifest, out, state_dir=str(tmp_path / "s2"))
        rows = run_pipeline(cfg).read_text().splitlines()[1:]
        assert (out / "features-00002.potf").exists()  # left by the first run
        assert len(rows) == 10
        assert run_mean(cfg).pair_count == 10

    def test_state_dir_holds_fingerprint_and_stage_dirs(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        run_pipeline(fast_config(manifest, tmp_path / "out"))
        state = tmp_path / "out" / "state"
        assert sorted(p.name for p in state.iterdir()) == [
            "extract", "extract.done", "fingerprint", "mean", "mean.done", "sim.done",
        ]
        # task outputs and stage markers only: an output that exists is finished
        files = sorted(str(p.relative_to(state)) for p in state.rglob("*") if p.is_file())
        assert files == [
            "extract.done", "extract/task-0.out", "extract/task-1.out", "fingerprint",
            "mean.done", "mean/rows-0.out", "sim.done",
        ]

    def test_earlier_layout_state_dir_resumes(self, tmp_path, monkeypatch, caplog):
        """A state dir with each stage marker inside extract/, mean/ and a
        marker-only sim/ skips every task and reruns each stage's final
        step to the same bytes."""
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        set_shards(monkeypatch, 3, 2)
        cfg = fast_config(manifest, out)
        run_pipeline(cfg)
        names = ["features-00000.potf", "features-00001.potf", "mean_csd.csv", "similarity.csv"]
        before = [(out / name).read_bytes() for name in names]
        state = out / "state"
        (state / "sim").mkdir()
        for stage in ("extract", "mean", "sim"):
            (state / f"{stage}.done").rename(state / stage / ".stage.done")
        caplog.set_level("INFO", logger="potsim.engine")
        run_pipeline(cfg)
        outcomes = sorted(
            re.search(r"stage=(\w+) .* outcome=(\w+)", m).groups()
            for m in caplog.messages
            if "outcome=" in m
        )
        assert outcomes == [("extract", "skipped")] * 3 + [("mean", "skipped")] * 2
        assert all((state / f"{stage}.done").exists() for stage in ("extract", "mean", "sim"))
        assert [(out / name).read_bytes() for name in names] == before

    def test_parent_layout_state_dir_resumes(self, tmp_path, monkeypatch):
        """A finished state dir of the shard-pair layout: `potsim run` exits
        0, reruns the mean tasks into row files, and leaves every file in
        --out outside the state dir as it was."""
        manifest = small_corpus(tmp_path / "c", n=5)
        out = tmp_path / "out"
        set_shards(monkeypatch, 5, 3)
        assert main(fast_argv("run", manifest, out)) == 0
        before = outputs_outside_state(out)
        to_shard_pair_layout(out, fast_config(manifest, out))
        assert main(fast_argv("run", manifest, out)) == 0
        assert outputs_outside_state(out) == before
        assert sorted(p.name for p in (out / "state" / STAGE_MEAN).glob("rows-*.out")) == [
            "rows-0.out", "rows-1.out", "rows-2.out",
        ]

    def test_unfinished_parent_layout_state_dir_reruns_mean(self, tmp_path):
        """A shard-pair-layout state dir cut short in mean: no mean.done, and
        mean/task-N.out holding (i, j) rows. `potsim run` exits 0 with a
        fresh run's bytes, and opens none of those files."""
        manifest = small_corpus(tmp_path / "c", n=5)
        watched = (
            "import sys\n"
            "from potsim import engine\n"
            "from potsim.cli import main\n"
            "engine.VIDEOS_PER_SHARD = 2\n"  # 3 shards
            "opened = []\n"
            "def hook(event, args):\n"
            "    if event == 'open' and '/mean/' in str(args[0]):\n"
            "        opened.append(str(args[0]).rsplit('/', 1)[1])\n"
            "sys.addaudithook(hook)\n"
            "status = main(sys.argv[1:])\n"
            "print(*(f'opened {name}' for name in opened), sep='\\n', file=sys.stderr)\n"
            "sys.exit(status)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(engine.__file__).parents[1]))

        def run(out):
            argv = [sys.executable, "-c", watched, *fast_argv("run", manifest, out)]
            result = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr[-2000:]
            return [line[7:] for line in result.stderr.splitlines() if line.startswith("opened ")]

        fresh, out = tmp_path / "fresh", tmp_path / "out"
        run(fresh)
        run(out)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "VIDEOS_PER_SHARD", 2)
            to_shard_pair_layout(out, fast_config(manifest, out))
        for name in ("state/mean.done", "state/sim.done", "mean_csd.csv", "similarity.csv"):
            (out / name).unlink()
        opened = run(out)
        assert not [name for name in opened if name.startswith("task-")]
        assert {"rows-0.out", "rows-1.out", "rows-2.out"} <= set(opened)
        assert outputs_outside_state(out) == outputs_outside_state(fresh)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stage_lines_count_tasks(self, tmp_path, monkeypatch, caplog, workers):
        """Each stage that runs logs its tasks ran, skipped and failed; a
        finished stage logs none. A resume after one extract task output
        and the shard holding it are deleted reruns that one task."""
        manifest = small_corpus(tmp_path / "c", n=4)
        out = tmp_path / "out"
        set_shards(monkeypatch, 4, 2)
        cfg = fast_config(manifest, out, workers=workers)
        caplog.set_level("INFO", logger="potsim.engine")
        before = run_pipeline(cfg).read_bytes()
        assert stage_counts(caplog) == {"extract": (4, 0, 0), "mean": (2, 0, 0), "sim": (0, 0, 0)}
        (out / "state" / "extract" / "task-1.out").unlink()
        (out / "features-00000.potf").unlink()
        caplog.clear()
        assert run_pipeline(cfg).read_bytes() == before
        assert stage_counts(caplog) == {"extract": (1, 3, 0)}
        assert task_outcomes(caplog) == {
            "v00": "skipped", "v01": "ok", "v02": "skipped", "v03": "skipped",
        }

    def test_pool_is_sized_to_pending_tasks(self, tmp_path, monkeypatch):
        """A fork pool starts all its workers at the first submit: 64
        workers on 3 videos, which one block would hold, make 3 packets,
        one per video, and start 3 workers. A thread pool stands in, so
        nothing forks. The engine imports the pool class from its module
        when it starts a pool, so the stand-in goes there."""
        manifest = small_corpus(tmp_path / "c", n=3)
        direct = run_pipeline(fast_config(manifest, tmp_path / "direct"))
        sizes = []

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers=1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        packings = recording_packets(monkeypatch)
        sim = run_pipeline(fast_config(manifest, tmp_path / "out", workers=64))
        assert packings == [[["v00"], ["v01"], ["v02"]]]
        assert sizes == [3]
        for name in ("similarity.csv", "mean_csd.csv"):
            assert (sim.parent / name).read_bytes() == (direct.parent / name).read_bytes()

    def test_existing_output_is_finished(self, tmp_path, caplog):
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        shard = run_extract(cfg)[0]
        before = shard.read_bytes()
        (out / "state" / "extract.done").unlink()
        caplog.set_level("INFO", logger="potsim.engine")
        run_extract(cfg)
        assert task_outcomes(caplog) == {"v00": "skipped", "v01": "skipped", "v02": "skipped"}
        assert shard.read_bytes() == before

    def test_leftover_tmp_without_output_is_redone(self, tmp_path, caplog):
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        shard = run_extract(cfg)[0]
        before = shard.read_bytes()
        extract_dir = out / "state" / "extract"
        (out / "state" / "extract.done").unlink()
        (extract_dir / "task-1.out").unlink()
        (extract_dir / "task-1.out.tmp").write_bytes(b"cut short")
        caplog.set_level("INFO", logger="potsim.engine")
        run_extract(cfg)
        assert task_outcomes(caplog) == {"v00": "skipped", "v01": "ok", "v02": "skipped"}
        assert not (extract_dir / "task-1.out.tmp").exists()
        assert shard.read_bytes() == before

    def test_stray_tmp_of_outputs_removed_from_out_and_state_root(self, tmp_path):
        """Temporary files that a dead writer left an hour ago of each output
        a stage writes in --out (the series dumps with --dump-series) or the
        state root are gone after a run; files of other names, a user's
        ``notes.tmp`` among them, stay."""
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        (out / "state").mkdir(parents=True)
        attempt = f".{gone.pid}.deadbeef.tmp"
        outputs = ["features-00000.potf", "v01.of.txt", "v01.hog.txt", "mean_csd.csv"]
        strays = [out / f"{name}{attempt}" for name in [*outputs, "similarity.csv"]]
        strays += [out / "state" / f"{name}{attempt}" for name in ("fingerprint", "sim.done")]
        kept = [out / "notes.tmp", out / f"notes.txt{attempt}", out / "state" / "notes.tmp"]
        hour_ago = time.time_ns() - 3600 * 10**9
        for path in strays + kept:
            path.write_bytes(b"x")
            os.utime(path, ns=(hour_ago, hour_ago))
        run_pipeline(fast_config(manifest, out, dump_series=True))
        assert [path.name for path in strays if path.exists()] == []
        assert all(path.exists() for path in kept)

    def test_mean_refuses_shards_of_other_keys(self, tmp_path, monkeypatch, caplog, capsys):
        """Each mean task checks the keys of the shards it reads: only the
        shard rows that read shard 1, rows 0 and 1, fail, under their own
        labels."""
        root = tmp_path / "c"
        manifest = small_corpus(root, n=6)
        out = tmp_path / "out"
        set_shards(monkeypatch, 6, 3)
        assert main(fast_argv("run", manifest, out)) == 0
        manifest.write_text(manifest.read_text().replace("v03,", "v03x,"))
        shutil.rmtree(out / "state")
        capsys.readouterr()
        caplog.set_level("INFO", logger="potsim.engine")
        assert main(fast_argv("mean", manifest, out)) == 1
        err = capsys.readouterr().err
        assert "features-00001.potf: key 'v03' where the manifest has 'v03x'" in err
        assert task_outcomes(caplog) == {
            "shard row 0": "failed", "shard row 1": "failed", "shard row 2": "ok",
        }
        assert "stage 'mean' failed (2 task(s)): shard row 0: ValueError" in err
        assert main(fast_argv("sim", manifest, out)) == 2

    def test_other_layout_refuses_resume(self, tmp_path, monkeypatch, caplog, capsys):
        """Mean outputs are named by position in the layout, so a state
        dir made under another shard count is refused before any task."""
        manifest = small_corpus(tmp_path / "c", n=4)
        out = tmp_path / "out"
        set_shards(monkeypatch, 4, 2)
        assert main(fast_argv("run", manifest, out)) == 0
        set_shards(monkeypatch, 4, 1)
        capsys.readouterr()
        caplog.clear()
        caplog.set_level("INFO", logger="potsim.engine")
        assert main(fast_argv("run", manifest, out)) == 2
        assert "different parameters or inputs" in capsys.readouterr().err
        assert task_outcomes(caplog) == {}

    def test_dead_worker_is_stage_error_and_resumable(self, tmp_path, monkeypatch):
        """A worker that dies mid-packet fails every task of its packet
        with BrokenProcessPool: 4 videos at --workers 2 are the packets
        (v00, v01) and (v02, v03), and the worker dies decoding v01. The
        rerun has two pending tasks or more, so at least two packets in a
        pool, and its worker dies too; a run without the fault gives a
        direct run's bytes."""
        # pool workers are forked, so they inherit the patched decoder
        manifest = small_corpus(tmp_path / "c", n=4)
        direct = run_pipeline(fast_config(manifest, tmp_path / "direct")).read_text()

        real_load = engine.load_frame_sequence

        def dies_on_v01(directory, key, *args):
            if key == "v01":
                os._exit(3)
            return real_load(directory, key, *args)

        out = tmp_path / "out"
        cfg = fast_config(manifest, out, workers=2)
        with monkeypatch.context() as patch:
            packings = recording_packets(patch)
            patch.setattr(engine, "load_frame_sequence", dies_on_v01)
            with pytest.raises(StageError) as err:
                run_pipeline(cfg)
            failed = dict(err.value.failures)
            assert {"v00", "v01"} <= set(failed)
            assert all(message.startswith("BrokenProcessPool") for message in failed.values())
            assert main(fast_argv("run", manifest, out, workers=2)) == 1
        assert packings[0] == [["v00", "v01"], ["v02", "v03"]]
        # the rerun's pending tasks, v00 and v01 at least, make two packets or more
        assert len(packings[1]) >= 2 and any("v01" in packet for packet in packings[1])
        assert run_pipeline(cfg).read_text() == direct

    def test_mean_requires_shards(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        cfg = fast_config(manifest, tmp_path / "out")
        with pytest.raises(ConfigError, match="run extract first"):
            run_mean(cfg)

    def test_finished_sim_needs_no_mean_rows(self, tmp_path, capsys):
        """A stage whose marker and outputs exist is done before its inputs
        are checked: sim with similarity.csv written needs no mean rows."""
        manifest = small_corpus(tmp_path / "c", n=4)
        out = tmp_path / "out"
        assert main(fast_argv("run", manifest, out)) == 0
        before = (out / "similarity.csv").read_bytes()
        shutil.rmtree(out / "state" / "mean")
        assert main(fast_argv("sim", manifest, out)) == 0
        assert (out / "similarity.csv").read_bytes() == before
        (out / "similarity.csv").unlink()
        capsys.readouterr()
        assert main(fast_argv("sim", manifest, out)) == 2
        rows = out / "state" / "mean" / "rows-0.out"
        assert capsys.readouterr().err == f"error: missing {rows} (run mean first)\n"

    def test_sim_requires_mean(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        cfg = fast_config(manifest, tmp_path / "out")
        run_extract(cfg)
        with pytest.raises(ConfigError, match="run mean first"):
            run_similarity(cfg)

    def test_single_video_corpus_fails_mean(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=1)
        cfg = fast_config(manifest, tmp_path / "out")
        run_extract(cfg)
        with pytest.raises(StageError, match="fewer than 2"):
            run_mean(cfg)

    def test_duplicate_content_scores_one(self, tmp_path):
        videos = {
            "dup_a": blob_video(6, 24, (6, 12), (1.2, 0.0)),
            "dup_b": blob_video(6, 24, (6, 12), (1.2, 0.0)),
            "other": noise_video(6, 24, seed=1),
        }
        manifest = write_corpus(tmp_path / "c", videos)
        cfg = fast_config(manifest, tmp_path / "out")
        sim_path = run_pipeline(cfg)
        scores = {}
        for line in sim_path.read_text().splitlines()[1:]:
            a, b, s = line.split(",")
            scores[(a, b)] = float(s)
        assert scores[("dup_a", "dup_b")] == pytest.approx(1.0, abs=1e-12)


class TestPairStages:
    def test_each_pair_scored_once(self, tmp_path, monkeypatch):
        manifest = small_corpus(tmp_path / "c", n=4)
        cells = []
        real_csd_stack = engine.csd_stack

        def counting(keys, partners):
            cells.append(keys.shape[1] * partners.shape[1])
            return real_csd_stack(keys, partners)

        monkeypatch.setattr(engine, "csd_stack", counting)
        set_shards(monkeypatch, 4, 2)
        sim = run_pipeline(fast_config(manifest, tmp_path / "out"))
        assert len(sim.read_text().splitlines()) - 1 == 6
        # each cell computed is one chi-square pass: the 6 pairs, once each,
        # and the one self cell of each shard's diagonal group (key 1 of
        # the group against its own column)
        assert sum(cells) == 6 + 2

    def test_sim_reads_no_shard(self, tmp_path, monkeypatch):
        manifest = small_corpus(tmp_path / "c", n=4)
        set_shards(monkeypatch, 4, 2)
        direct = run_pipeline(fast_config(manifest, tmp_path / "direct"))

        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        run_extract(cfg)
        run_mean(cfg)
        for shard in out.glob("features-*.potf"):
            shard.unlink()
        assert run_similarity(cfg).read_text() == direct.read_text()

    def test_only_mean_tasks_read_shards(self, tmp_path, monkeypatch):
        """run_mean decodes shards only inside its tasks, each once: shard
        row i reads shards i, ..., S - 1, so 6 reads for 3 shards and none
        in the stage's preamble."""
        manifest = small_corpus(tmp_path / "c", n=6)
        set_shards(monkeypatch, 6, 3)
        cfg = fast_config(manifest, tmp_path / "out")
        run_extract(cfg)
        running = [None]
        reads = []
        real_read, real_task = engine.read_archive, engine._run_mean_task

        def counting_read(path):
            reads.append((running[0], Path(path).name))
            return real_read(path)

        def labelled_task(config, task):
            running[0] = task.label
            try:
                real_task(config, task)
            finally:
                running[0] = None

        monkeypatch.setattr(engine, "read_archive", counting_read)
        monkeypatch.setitem(engine._TASK_RUNNERS, engine.STAGE_MEAN, labelled_task)
        run_mean(cfg)
        assert [name for label, name in reads if label is None] == []
        shard = "features-{:05d}.potf".format
        assert sorted(reads) == [
            (f"shard row {i}", shard(j)) for i in range(3) for j in range(i, 3)
        ]
        assert len(reads) == 6

    @pytest.mark.parametrize(
        "lineno, line, reason",
        [
            (2, b"hof,sum,0.5,x", "invalid literal for int()"),
            (3, b"hof,gradient,abc,3", "could not convert string to float: 'abc'"),
            (4, b"hof,max,\xff\xfe,3", "can't decode byte 0xff"),
            (5, b"hog,sum,nan,3", "mean nan is not a finite number >= 0"),
            (6, b"hog,gradient,-1.0,3", "mean -1.0 is not a finite number >= 0"),
            # the file ends in a line break, so line 8 takes the place of b""
            (8, b"hof,sum,0.5,3", "after the six slot rows"),
            (2, b"hof,sum,0.5,0", "pair count 0 is not >= 1"),
            (3, b"hof,gradient,0.5,4", "pair count 4 differs from 3 above"),
            (3, b"hof,max,0.5,3", "where slot ('hof', 'gradient') belongs"),
            (2, b"hof,sum\r0.5,3", "new-line character seen in unquoted field"),
            (4, b"hof,max," + b"1" * 131_073 + b",3", "field larger than field limit"),
        ],
        ids=["pair-count", "mean", "not-utf8", "nan", "negative", "seventh-row",
             "no-pairs", "other-pair-count", "out-of-order", "cr-in-row", "huge-field"],
    )
    def test_bad_mean_csd_line_names_file_and_line(self, tmp_path, capsys, lineno, line, reason):
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        run_extract(cfg)
        run_mean(cfg)
        path = out / "mean_csd.csv"
        lines = path.read_bytes().split(b"\r\n")
        lines[lineno - 1] = line
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: "):
            run_similarity(cfg)
        assert main(fast_argv("sim", manifest, out)) == 1
        err = capsys.readouterr().err
        assert f"{path}:{lineno}: " in err and reason in err and "Traceback" not in err

    def test_mean_csd_missing_rows_name_the_line(self, tmp_path):
        """A mean_csd.csv cut short names the line where the first missing
        row belongs."""
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        run_extract(cfg)
        run_mean(cfg)
        path = out / "mean_csd.csv"
        lines = path.read_bytes().split(b"\r\n")
        bad_files = {
            b"\r\n".join(lines[:5]): r":6: missing the row of slot \('hog', 'gradient'\)",
            b"": r":1: missing the header",
        }
        for data, message in bad_files.items():
            path.write_bytes(data)
            with pytest.raises(ValueError, match=message):
                run_similarity(cfg)

    def test_mean_csd_of_another_corpus_is_refused(self, tmp_path, capsys):
        """A well-formed mean_csd.csv of a 6-video corpus (15 pairs) in the
        --out of a 4-video one (6 pairs): sim, and mean or run resuming
        past mean.done, refuse it, naming the file and both counts."""
        other = tmp_path / "other"
        run_pipeline(fast_config(small_corpus(tmp_path / "c6", n=6), other))
        manifest = small_corpus(tmp_path / "c4", n=4)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        run_pipeline(cfg)
        path = out / "mean_csd.csv"
        shutil.copyfile(other / "mean_csd.csv", path)
        (out / "similarity.csv").unlink()
        (out / "state" / "sim.done").unlink()

        message = f"{path}: pair count 15 where the manifest's 4 videos make 6 pairs"
        for run in (run_similarity, run_mean, run_pipeline):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run(cfg)
        for command in ("sim", "mean", "run"):
            assert main(fast_argv(command, manifest, out)) == 1
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        assert not (out / "similarity.csv").exists()

    def test_mean_rows_are_validated(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        run_extract(cfg)
        run_mean(cfg)
        rows = out / "state" / "mean" / "rows-0.out"
        good = rows.read_bytes()
        assert len(good) == 3 * 48  # three pairs of six float64 distances
        bad_files = [good[:-8], good + bytes(48), good + b"\0"]  # truncated, over-long
        for bad in bad_files:
            rows.write_bytes(bad)
            with pytest.raises(ValueError, match=f"rows-0.out: {len(bad)} bytes where 3 rows"):
                run_similarity(cfg)
            assert main(fast_argv("sim", manifest, out)) == 1
            err = capsys.readouterr().err
            assert str(rows) in err and "Traceback" not in err
        # the mean stage's reduce reads the same rows
        (out / "state" / "mean.done").unlink()
        for bad in bad_files:
            rows.write_bytes(bad)
            assert main(fast_argv("mean", manifest, out)) == 1
            err = capsys.readouterr().err
            assert str(rows) in err and "Traceback" not in err
        assert not (out / "similarity.csv").exists()

    def test_json_partial_from_old_state_dir_fails(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        run_extract(cfg)
        run_mean(cfg)
        rows = out / "state" / "mean" / "rows-0.out"
        csds = np.frombuffer(rows.read_bytes(), dtype="<f8").reshape(3, 6).tolist()
        pairs = [("v00", "v01"), ("v00", "v02"), ("v01", "v02")]
        sums = {f"{s}/{p}": 1.0 for s, p in SLOTS}
        old_formats = [
            json.dumps({"pair_count": 3, "sums": sums}),
            # text rows: key_a,key_b,<six repr() distances>
            "".join(",".join([*pair, *map(repr, csd)]) + "\n" for pair, csd in zip(pairs, csds)),
        ]
        for old in old_formats:
            rows.write_text(old)
            assert main(fast_argv("run", manifest, out)) == 1
            err = capsys.readouterr().err
            assert f"{rows}: {len(old)} bytes where 3 rows" in err and "Traceback" not in err
            assert not (out / "similarity.csv").exists()

    @pytest.mark.parametrize("shards", [1, 3, 12])
    def test_mean_sums_rows_in_order(self, tmp_path, monkeypatch, shards):
        """mean_csd.csv is byte-identical to one += loop over all pairs in
        key-pair order, at any shard count. 12 shards of 12 videos give
        tasks of one pair (or none), 1 shard one task of 66 pairs."""
        videos = {f"n{i:02d}": noise_video(5, 24, seed=40 + i) for i in range(12)}
        manifest = write_corpus(tmp_path / "c", videos)
        out = tmp_path / "out"
        set_shards(monkeypatch, 12, shards)
        cfg = fast_config(manifest, out)
        run_extract(cfg)
        run_mean(cfg)

        features = {r.key: r.feature for p in out.glob("features-*.potf") for r in read_archive(p)}
        pairs = list(combinations(sorted(features), 2))
        sums = np.zeros(len(SLOTS))
        for a, b in pairs:
            for s, pair in enumerate(zip(slots_of(features[a]), slots_of(features[b]))):
                sums[s] += chi_square(*pair)
        assert len(pairs) == 66
        write_mean_csd_csv(mean_csd(sums, len(pairs)), tmp_path / "reference.csv")
        assert (out / "mean_csd.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_similarity_csv_equals_scalar_oracle(self, tmp_path, monkeypatch, shards):
        """similarity.csv is byte-identical to a reference built pair by pair
        from scalars: chi_square per slot, a += mean in key-pair order, the
        kernel as a loop over slots, math.exp and repr."""
        videos = {f"n{i:02d}": noise_video(5, 24, seed=70 + i) for i in range(24)}
        manifest = write_corpus(tmp_path / "c", videos)
        out = tmp_path / "out"
        set_shards(monkeypatch, 24, shards)
        sim = run_pipeline(fast_config(manifest, out))

        features = {r.key: r.feature for p in out.glob("features-*.potf") for r in read_archive(p)}
        pairs = list(combinations(sorted(features), 2))
        csds = {
            (a, b): [
                chi_square(*pair) for pair in zip(slots_of(features[a]), slots_of(features[b]))
            ]
            for a, b in pairs
        }
        sums = [0.0] * len(SLOTS)
        for pair in pairs:
            for s in range(len(SLOTS)):
                sums[s] += csds[pair][s]
        means = [total / len(pairs) for total in sums]
        lines = ["video_a,video_b,similarity\n"]
        for (a, b), csd in csds.items():
            kd = 0.0
            for value, m in zip(csd, means):
                if m > 0.0:
                    kd += value / m
            lines.append(f"{a},{b},{math.exp(-kd / 10.0)!r}\n")
        assert sim.read_bytes() == "".join(lines).encode()

    @pytest.mark.parametrize("shards", [1, 3, 12])
    def test_mean_rows_equal_csd_sixtuple(self, tmp_path, monkeypatch, shards):
        """Every mean task's rows are byte-identical to rows built pair by
        pair from chi_square per slot, as csd_sixtuple gives them: shard
        row i holds the pairs whose first key is in shard i, in key-pair
        order."""
        set_shards(monkeypatch, 12, shards)
        videos = {f"n{i:02d}": noise_video(5, 24, seed=40 + i) for i in range(12)}
        manifest = write_corpus(tmp_path / "c", videos)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        run_extract(cfg)
        run_mean(cfg)

        features = {r.key: r.feature for p in out.glob("features-*.potf") for r in read_archive(p)}
        tasks = plan_pair_stage(engine._prepare_stage(cfg)[1], out / "state")
        assert len(tasks) == shards
        for task in tasks:
            own = task.payload[1][0]
            rows = [
                [chi_square(*pair) for pair in zip(slots_of(features[a]), slots_of(features[b]))]
                for a, b in combinations(sorted(features), 2)
                if a in own
            ]
            expected = np.array(rows, dtype="<f8").reshape(-1, len(SLOTS)).tobytes()
            assert Path(task.out_path).read_bytes() == expected, task.label

    def test_mean_refuses_shards_of_other_slot_bounds(self, tmp_path, monkeypatch, capsys):
        """Two hand-written shards of different feature lengths, so of
        different slot bounds: the task that pairs them fails, naming the
        mismatch."""
        manifest = small_corpus(tmp_path / "c", n=4)
        out = tmp_path / "out"
        set_shards(monkeypatch, 4, 2)
        assert main(fast_argv("extract", manifest, out)) == 0
        rng = np.random.default_rng(3)
        shards = [(["v00", "v01"], 32), (["v02", "v03"], 40)]
        for index, (keys, size) in enumerate(shards):
            records = [ArchiveRecord(key, 6, rng.random(size)) for key in keys]
            write_archive(records, out / f"features-{index:05d}.potf")
        capsys.readouterr()
        assert main(fast_argv("mean", manifest, out)) == 1
        err = capsys.readouterr().err
        assert "shard row 0: ValueError: dimension mismatch" in err
        assert "Traceback" not in err
        assert not (out / "mean_csd.csv").exists()

    def test_run_under_low_open_file_limit(self, tmp_path, monkeypatch):
        """The mean reduce and sim read the row files one after another: at
        every key they walk, exactly one file under state/mean is open. 24
        videos in 24 shards make 24 row files, and a run under a soft limit
        of 16 open files gives the same similarity.csv as without it."""
        manifest = small_corpus(tmp_path / "c", n=24)
        set_shards(monkeypatch, 24, 24)
        free = tmp_path / "free"
        rows_dir = str(free / "state" / STAGE_MEAN) + os.sep
        real_key_rows = engine._key_rows
        open_rows = []

        def open_row_files():
            count = 0
            for fd in os.listdir("/proc/self/fd"):
                with suppress(OSError):  # the listing's own descriptor
                    count += os.readlink(f"/proc/self/fd/{fd}").startswith(rows_dir)
            return count

        def counting_key_rows(tasks):
            for item in real_key_rows(tasks):
                open_rows.append(open_row_files())
                yield item

        monkeypatch.setattr(engine, "_key_rows", counting_key_rows)
        assert main(fast_argv("run", manifest, free)) == 0
        assert len(list((free / "state" / STAGE_MEAN).glob("rows-*.out"))) == 24
        assert open_rows == [1] * 48  # 24 keys, by mean's reduce and by sim

        limited = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (16, hard))\n"
            "from potsim import engine\n"
            "from potsim.cli import main\n"
            "engine.VIDEOS_PER_SHARD = 1\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(engine.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", limited, *fast_argv("run", manifest, tmp_path / "limited")],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert (tmp_path / "limited" / "similarity.csv").read_bytes() == (
            free / "similarity.csv"
        ).read_bytes()

    def test_missing_mean_task_output_is_usage_error(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        direct = run_pipeline(cfg).read_text()
        (out / "similarity.csv").unlink()
        (out / "state" / "mean" / "rows-0.out").unlink()
        assert main(fast_argv("sim", manifest, out)) == 2
        assert "run mean first" in capsys.readouterr().err
        # re-running mean redoes the missing task
        assert main(fast_argv("run", manifest, out)) == 0
        assert (out / "similarity.csv").read_text() == direct


KILLED = 86  # the exit status of a run cut short at a commit point


def hook_commit_points(monkeypatch, at: int | None) -> list[int]:
    """Make committed() count its blocks; at block ``at`` cut the file the
    block wrote to half its length and exit, as a process killed
    mid-write would. Returns the counter."""
    count = [0]
    real = commit.committed

    @contextmanager
    def hooked(path):
        with real(path) as tmp:
            yield tmp
            count[0] += 1
            if count[0] == at:
                os.truncate(tmp, os.path.getsize(tmp) // 2)
                os._exit(KILLED)

    for module in (engine, archive, descriptors):
        monkeypatch.setattr(module, "committed", hooked)
    return count


def test_every_commit_point_killed_and_resumed(tmp_path, monkeypatch):
    """A run killed at each committed() block in turn resumes to exactly an
    uninterrupted run's files under --out, the state dir included, and
    leaves no temporary file. 8 videos in 2 shards make 18 commit points:
    the fingerprint, 8 extract tasks, 2 shards, 2 mean tasks, mean_csd.csv,
    similarity.csv and 3 stage markers."""
    manifest = small_corpus(tmp_path / "c", n=8)
    set_shards(monkeypatch, 8, 2)

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    with monkeypatch.context() as patch:
        count = hook_commit_points(patch, None)
        run_pipeline(fast_config(manifest, tmp_path / "direct"))
    direct = files(tmp_path / "direct")
    assert count[0] == 18

    for k in range(1, count[0] + 1):
        cfg = fast_config(manifest, tmp_path / f"killed-at-{k}")
        pid = os.fork()
        if pid == 0:
            try:
                hook_commit_points(monkeypatch, k)
                run_pipeline(cfg)
            finally:
                os._exit(1)  # not killed: the k-th commit point is missing
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == KILLED, k
        run_pipeline(cfg)
        out = Path(cfg.out_dir)
        assert list(out.rglob("*.tmp")) == [], k
        assert files(out) == direct, k


def test_benchmark_tracer_wraps_engine_names(monkeypatch):
    """The benchmark's traced run (perfbench/run.py) wraps potsim functions
    by the names their callers look up: installing its wrappers finds every
    name, and restoring puts each original back. A renamed or dropped name
    fails here, not only in the benchmark."""
    from potsim import archive, descriptors, flow, frames, similarity

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import run, tracer

    modules = (engine, archive, descriptors, flow, frames, similarity)
    before = [dict(vars(module)) for module in modules]
    t = tracer.Tracer()
    try:
        run.install_wrappers(t)
        # sim's kernel and the one-pair distances are wrapped where the engine binds them
        assert engine.kernel_distance.__wrapped__ is similarity.kernel_distance
        assert engine.csd_sixtuple.__wrapped__ is similarity.csd_sixtuple
    finally:
        t.restore()
    assert [dict(vars(module)) for module in modules] == before
