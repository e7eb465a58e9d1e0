import os

import numpy as np
import pytest

from conftest import blob_video, noise_video, write_corpus
from potsim import engine
from potsim.archive import read_archive
from potsim.cli import main
from potsim.engine import (
    ConfigError,
    PipelineConfig,
    StageError,
    config_fingerprint,
    parse_manifest,
    plan_pair_stage,
    reduce_mean,
    resolve_shard_count,
    run_extract,
    run_mean,
    run_pipeline,
    run_similarity,
)
from potsim.flow import FarnebackParams
from potsim.pooling import SLOTS

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
        plan = plan_pair_stage("mean", 3, tmp_path)
        assert len(plan.tasks) == 6
        assert [t.payload for t in plan.tasks] == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
        ]
        plan = plan_pair_stage("sim", 1, tmp_path)
        assert len(plan.tasks) == 1

    def test_fingerprint_sensitivity(self, tmp_path):
        manifest = small_corpus(tmp_path / "c", n=2)
        base = fast_config(manifest, tmp_path / "out")
        assert config_fingerprint(base, 2) == config_fingerprint(base, 2)
        changed = fast_config(manifest, tmp_path / "out", working_w=32)
        assert config_fingerprint(base, 2) != config_fingerprint(changed, 2)


class TestReduceMean:
    def test_weighted_merge(self):
        partials = [
            ({slot: 2.0 for slot in SLOTS}, 1),
            ({slot: 4.0 for slot in SLOTS}, 2),
        ]
        mean = reduce_mean(partials)
        assert mean.pair_count == 3
        assert all(v == 2.0 for v in mean.means.values())

    def test_single_partial(self):
        mean = reduce_mean([({slot: 5.0 for slot in SLOTS}, 5)])
        assert all(v == 1.0 for v in mean.means.values())

    def test_zero_total(self):
        with pytest.raises(ValueError):
            reduce_mean([({slot: 0.0 for slot in SLOTS}, 0)])


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
        assert sorted(p.name for p in state.iterdir()) == ["extract", "fingerprint", "mean", "sim"]

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
            argv = ["run", "--manifest", str(manifest), "--out", str(out), "--resize", "24x24",
                    "--flow-levels", "1", "--winsize", "7", "--iterations", "1",
                    "--workers", "2"]
            assert main(argv) == 1
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
