import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import blob_video, noise_video, write_corpus, write_video_dir
from potsim import engine
from potsim.archive import ArchiveRecord, cartesian_pairs, read_archive, write_archive
from potsim.cli import main
from potsim.engine import (
    ConfigError,
    PipelineConfig,
    StageError,
    config_fingerprint,
    parse_manifest,
    plan_pair_stage,
    resolve_shard_count,
    run_extract,
    run_mean,
    run_pipeline,
    run_similarity,
)
from potsim.flow import FarnebackParams
from potsim.pooling import SLOTS, PoTFeature
from potsim.similarity import csd_sixtuple, generate_pairs, mean_csd, write_mean_csd_csv

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
    lines = [re.search(r"target=(\S+) outcome=(\w+)", m) for m in caplog.messages]
    return dict(m.groups() for m in lines if m)


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


class TestPlanning:
    def test_shard_count_default(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        cfg = fast_config(manifest, tmp_path / "out")
        assert resolve_shard_count(cfg, 2) == 1
        assert resolve_shard_count(cfg, 64) == 1
        assert resolve_shard_count(cfg, 65) == 2

    def test_pair_stage_task_count(self, tmp_path):
        tasks = plan_pair_stage(3, tmp_path)
        assert len(tasks) == 6
        assert [t.payload for t in tasks] == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
        ]
        tasks = plan_pair_stage(1, tmp_path)
        assert len(tasks) == 1

    def test_fingerprint_sensitivity(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        entries = parse_manifest(manifest)
        base = fast_config(manifest, tmp_path / "out")
        assert config_fingerprint(base, entries) == config_fingerprint(base, entries)
        changed = fast_config(manifest, tmp_path / "out", working_w=32)
        assert config_fingerprint(base, entries) != config_fingerprint(changed, entries)


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
            # refused before the state dir at the parent too: kept as a case
            # of the one check
            {"shard_count": 0},
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

    def test_more_shards_than_videos(self, tmp_path):
        """Covers behaviour no test ran before: a requested shard count
        above the video count gives one shard per video."""
        manifest = small_corpus(tmp_path / "c", n=4)
        out = tmp_path / "out"
        run_pipeline(fast_config(manifest, out, shard_count=10))
        assert len(list(out.glob("features-*.potf"))) == 4
        assert len(list((out / "state" / "mean").glob("task-*.out"))) == 10
        rows = (out / "similarity.csv").read_text().splitlines()[1:]
        pairs = [tuple(row.split(",")[:2]) for row in rows]
        assert pairs == generate_pairs(["v00", "v01", "v02", "v03"])


class TestExtractStage:
    def test_writes_shards_with_all_records(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=3)
        cfg = fast_config(manifest, tmp_path / "out")
        shards = run_extract(cfg)
        records = [r for p in shards for r in read_archive(p)]
        assert sorted(r.key for r in records) == ["v00", "v01", "v02"]

    def test_requested_shard_count(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=5)
        cfg = fast_config(manifest, tmp_path / "out", shard_count=2)
        shards = run_extract(cfg)
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

    def test_resume_skips_completed_tasks(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=3)
        cfg = fast_config(manifest, tmp_path / "out")
        shards = run_extract(cfg)
        mtimes = {p: p.stat().st_mtime_ns for p in shards}
        shards2 = run_extract(cfg)
        assert shards2 == shards
        assert {p: p.stat().st_mtime_ns for p in shards2} == mtimes


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

    def test_multi_shard_equals_single_shard(self, tmp_path):
        # shard count changes float accumulation order in the mean reduce,
        # so scores agree to near machine precision, not bitwise
        manifest = small_corpus(tmp_path / "c", n=6)
        cfg1 = fast_config(manifest, tmp_path / "out1", shard_count=1)
        cfg3 = fast_config(manifest, tmp_path / "out3", shard_count=3)
        sim1 = run_pipeline(cfg1).read_text().splitlines()
        sim3 = run_pipeline(cfg3).read_text().splitlines()
        assert len(sim1) == len(sim3)
        for line1, line3 in zip(sim1[1:], sim3[1:]):
            a1, b1, s1 = line1.split(",")
            a3, b3, s3 = line3.split(",")
            assert (a1, b1) == (a3, b3)
            assert float(s1) == pytest.approx(float(s3), rel=1e-12)

    def test_worker_count_invariance(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=4)
        cfg1 = fast_config(manifest, tmp_path / "out1", workers=1, shard_count=2)
        cfg2 = fast_config(manifest, tmp_path / "out2", workers=2, shard_count=2)
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

    def test_fingerprint_mismatch_refused(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        cfg = fast_config(manifest, tmp_path / "out")
        run_extract(cfg)
        changed = fast_config(manifest, tmp_path / "out", working_w=32)
        with pytest.raises(ConfigError, match="fingerprint"):
            run_extract(changed)

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

    def test_missing_directory_fails_its_task(self, tmp_path):
        root = tmp_path / "c"
        manifest = small_corpus(root, n=3)
        manifest.write_text(manifest.read_text() + "gone,gone\n")
        with pytest.raises(StageError) as err:
            run_extract(fast_config(manifest, tmp_path / "out"))
        assert [label for label, _ in err.value.failures] == ["gone"]

    def test_stale_shard_from_earlier_run_is_ignored(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=5)
        out = tmp_path / "out"
        run_pipeline(fast_config(manifest, out, shard_count=3, state_dir=str(tmp_path / "s3")))
        cfg = fast_config(manifest, out, shard_count=2, state_dir=str(tmp_path / "s2"))
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
            "mean.done", "mean/task-0.out", "sim.done",
        ]

    def test_earlier_layout_state_dir_resumes(self, tmp_path, caplog):
        """A state dir with each stage marker inside extract/, mean/ and a
        marker-only sim/ skips every task and reruns each stage's final
        step to the same bytes."""
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out, shard_count=2)
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
        assert outcomes == [("extract", "skipped")] * 3 + [("mean", "skipped")] * 3
        assert all((state / f"{stage}.done").exists() for stage in ("extract", "mean", "sim"))
        assert [(out / name).read_bytes() for name in names] == before

    def test_pool_is_sized_to_pending_tasks(self, tmp_path, monkeypatch):
        """A fork pool starts all its workers at the first submit: 64
        workers on 3 videos start 3. A thread pool stands in, so nothing
        forks."""
        manifest = small_corpus(tmp_path / "c", n=3)
        direct = run_pipeline(fast_config(manifest, tmp_path / "direct"))
        sizes = []

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers=1)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", recording_pool)
        sim = run_pipeline(fast_config(manifest, tmp_path / "out", workers=64))
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

    def test_mean_refuses_shards_of_other_keys(self, tmp_path, capsys):
        root = tmp_path / "c"
        manifest = small_corpus(root, n=4)
        out = tmp_path / "out"
        assert main(fast_argv("run", manifest, out) + ["--shards", "2"]) == 0
        manifest.write_text(manifest.read_text().replace("v03,", "zz,"))
        shutil.rmtree(out / "state")
        capsys.readouterr()
        assert main(fast_argv("mean", manifest, out) + ["--shards", "2"]) == 1
        err = capsys.readouterr().err
        assert "features-00001.potf: key 'v03' where the manifest has 'zz'" in err
        assert main(fast_argv("sim", manifest, out) + ["--shards", "2"]) == 2

    def test_dead_worker_is_stage_error_and_resumable(self, tmp_path, monkeypatch):
        # pool workers are forked, so they inherit the patched runner table
        manifest = small_corpus(tmp_path / "c", n=4)
        direct = run_pipeline(fast_config(manifest, tmp_path / "direct")).read_text()

        real_runner = engine._TASK_RUNNERS[engine.STAGE_EXTRACT]

        def dies_on_v01(config, task):
            if task.label == "v01":
                os._exit(3)
            real_runner(config, task)

        out = tmp_path / "out"
        cfg = fast_config(manifest, out, workers=2)
        with monkeypatch.context() as patch:
            patch.setitem(engine._TASK_RUNNERS, engine.STAGE_EXTRACT, dies_on_v01)
            with pytest.raises(StageError) as err:
                run_pipeline(cfg)
            assert "BrokenProcessPool" in str(err.value)
            assert main(fast_argv("run", manifest, out, workers=2)) == 1
        assert run_pipeline(cfg).read_text() == direct

    def test_mean_requires_shards(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        cfg = fast_config(manifest, tmp_path / "out")
        with pytest.raises(ConfigError, match="run extract first"):
            run_mean(cfg)

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
        columns = []
        real_csd_block = engine.csd_block

        def counting(a, block, start=0):
            columns.append(block.values.shape[1] - start)
            return real_csd_block(a, block, start)

        monkeypatch.setattr(engine, "csd_block", counting)
        sim = run_pipeline(fast_config(manifest, tmp_path / "out", shard_count=2))
        assert len(sim.read_text().splitlines()) - 1 == 6
        # every partner column scored is one pair's chi-square pass
        assert sum(columns) == 6

    def test_sim_reads_no_shard(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=4)
        direct = run_pipeline(fast_config(manifest, tmp_path / "direct", shard_count=2))

        out = tmp_path / "out"
        cfg = fast_config(manifest, out, shard_count=2)
        run_extract(cfg)
        run_mean(cfg)
        for shard in out.glob("features-*.potf"):
            shard.unlink()
        assert run_similarity(cfg).read_text() == direct.read_text()

    def test_mean_rows_are_validated(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        run_extract(cfg)
        run_mean(cfg)
        rows = out / "state" / "mean" / "task-0.out"
        good = rows.read_bytes()
        assert len(good) == 3 * 48  # three pairs of six float64 distances
        bad_files = [good[:-8], good + bytes(48), good + b"\0"]  # truncated, over-long
        for bad in bad_files:
            rows.write_bytes(bad)
            with pytest.raises(ValueError, match=f"task-0.out: {len(bad)} bytes where 3 rows"):
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
        rows = out / "state" / "mean" / "task-0.out"
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
    def test_mean_sums_rows_in_order(self, tmp_path, shards):
        """mean_csd.csv is byte-identical to += loops: per task over its
        rows, then over the tasks in task-id order. 12 shards of 12 videos
        give tasks of one pair (or none), 1 shard one task of 66 pairs."""
        videos = {f"n{i:02d}": noise_video(5, 24, seed=40 + i) for i in range(12)}
        manifest = write_corpus(tmp_path / "c", videos)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out, shard_count=shards)
        run_extract(cfg)
        run_mean(cfg)

        sums = {slot: 0.0 for slot in SLOTS}
        total = 0
        for task in plan_pair_stage(shards, tmp_path):
            i, j = task.payload
            records_a = read_archive(out / f"features-{i:05d}.potf")
            records_b = read_archive(out / f"features-{j:05d}.potf")
            partial = {slot: 0.0 for slot in SLOTS}
            for rec_a, rec_b in cartesian_pairs(records_a, records_b, i == j):
                csd = csd_sixtuple(rec_a.feature, rec_b.feature)
                for slot in SLOTS:
                    partial[slot] += csd[slot]
                total += 1
            for slot in SLOTS:
                sums[slot] += partial[slot]
        assert total == 66
        write_mean_csd_csv(mean_csd(sums, total), tmp_path / "reference.csv")
        assert (out / "mean_csd.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("block", [64, 5])
    @pytest.mark.parametrize("shards", [1, 3, 12])
    def test_mean_rows_equal_csd_sixtuple(self, tmp_path, monkeypatch, shards, block):
        """Every mean task's rows are byte-identical to rows built pair by
        pair from csd_sixtuple; column blocks of 5 split a shard of 12 into
        blocks of 5, 5 and 2 partners."""
        monkeypatch.setattr(engine, "DEFAULT_VIDEOS_PER_SHARD", block)
        videos = {f"n{i:02d}": noise_video(5, 24, seed=40 + i) for i in range(12)}
        manifest = write_corpus(tmp_path / "c", videos)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out, shard_count=shards)
        run_extract(cfg)
        run_mean(cfg)

        tasks = plan_pair_stage(shards, out / "state")
        for task in tasks:
            i, j = task.payload
            records_a = read_archive(out / f"features-{i:05d}.potf")
            records_b = read_archive(out / f"features-{j:05d}.potf")
            rows = [
                [csd_sixtuple(rec_a.feature, rec_b.feature)[slot] for slot in SLOTS]
                for rec_a, rec_b in cartesian_pairs(records_a, records_b, i == j)
            ]
            expected = np.array(rows, dtype="<f8").tobytes()
            assert Path(task.out_path).read_bytes() == expected, task.label

    def test_mean_refuses_shards_of_other_slot_bounds(self, tmp_path, capsys):
        """Two hand-written shards of equal vector length but different slot
        bounds: the task that pairs them fails, naming the mismatch."""
        manifest = small_corpus(tmp_path / "c", n=4)
        out = tmp_path / "out"
        assert main(fast_argv("extract", manifest, out) + ["--shards", "2"]) == 0
        rng = np.random.default_rng(3)
        shards = [(["v00", "v01"], (4, 8, 4, 4, 8, 4)), (["v02", "v03"], (8, 4, 4, 4, 8, 4))]
        for index, (keys, dims) in enumerate(shards):
            records = [
                ArchiveRecord(key, 6, PoTFeature.from_values(rng.random(32), dims))
                for key in keys
            ]
            write_archive(records, out / f"features-{index:05d}.potf")
        capsys.readouterr()
        assert main(fast_argv("mean", manifest, out) + ["--shards", "2"]) == 1
        err = capsys.readouterr().err
        assert "shards (0,1): ValueError: dimension mismatch: slot bounds" in err
        assert "Traceback" not in err
        assert not (out / "mean_csd.csv").exists()

    def test_run_under_low_open_file_limit(self, tmp_path):
        """sim holds at most one row of mean outputs open: 30 videos in 12
        shards make 78 mean tasks, and the run succeeds under a soft limit
        of 64 open files with the same similarity.csv as without it."""
        manifest = small_corpus(tmp_path / "c", n=30)
        assert len(plan_pair_stage(12, tmp_path)) == 78
        assert main([*fast_argv("run", manifest, tmp_path / "free"), "--shards", "12"]) == 0

        limited = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))\n"
            "from potsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(engine.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", limited, *fast_argv("run", manifest, tmp_path / "limited"),
             "--shards", "12"],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert (tmp_path / "limited" / "similarity.csv").read_bytes() == (
            tmp_path / "free" / "similarity.csv"
        ).read_bytes()

    def test_missing_mean_task_output_is_usage_error(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path / "c", n=3)
        out = tmp_path / "out"
        cfg = fast_config(manifest, out)
        direct = run_pipeline(cfg).read_text()
        (out / "similarity.csv").unlink()
        (out / "state" / "mean" / "task-0.out").unlink()
        assert main(fast_argv("sim", manifest, out)) == 2
        assert "run mean first" in capsys.readouterr().err
        # re-running mean redoes the missing task
        assert main(fast_argv("run", manifest, out)) == 0
        assert (out / "similarity.csv").read_text() == direct
