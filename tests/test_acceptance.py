"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s`` or in captured output).
"""

import math
import os
import shutil
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from conftest import blob_video, noise_video, smooth_texture, write_corpus
from potsim import engine, layout
from potsim.archive import ArchiveRecord, read_archive, write_archive
from potsim.engine import (
    PipelineConfig,
    StageError,
    plan_pair_stage,
    run_extract,
    run_mean,
    run_pipeline,
    run_similarity,
)
from potsim.flow import FarnebackParams, farneback_flow
from potsim.frames import resize_bilinear
from potsim.descriptors import compute_series
from potsim.pooling import SLOTS, pot_vector, slot_bounds
from potsim.similarity import (
    chi_square,
    csd_sixtuple,
    kernel_distance,
    mean_csd,
)
from potsim.stage import similarity_score

FAST_FB = FarnebackParams(levels=2, winsize=9, iterations=2)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def fast_config(manifest, out_dir, **overrides):
    defaults = dict(
        manifest=str(manifest),
        out_dir=str(out_dir),
        working_w=32,
        working_h=32,
        farneback=FAST_FB,
        workers=1,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def read_scores(sim_path):
    scores = {}
    for line in sim_path.read_text().splitlines()[1:]:
        a, b, s = line.split(",")
        scores[(a, b)] = float(s)
    return scores


def corpus_scores(features):
    """Mean/kernel/score chain over an in-memory feature corpus."""
    keys = sorted(features)
    pairs = list(combinations(keys, 2))
    sums = np.zeros(len(SLOTS))
    csds = {}
    for pair in pairs:
        csds[pair] = csd_sixtuple(features[pair[0]], features[pair[1]])
        for s in range(len(SLOTS)):
            sums[s] += csds[pair][s]
    mean = mean_csd(sums, len(pairs))
    return {p: similarity_score(kernel_distance(csds[p], mean)) for p in pairs}


def extract_feature(frames, fb=FAST_FB):
    return pot_vector(*compute_series(frames, fb))


def test_criterion_1_chi_square_oracle():
    def brute_force_chi_square(fa, fb):
        total = 0.0
        for x in range(len(fa)):
            denom = fa[x] + fb[x]
            if denom > 0.0:
                total += (fa[x] - fb[x]) ** 2 / denom
        return 0.5 * total

    with criterion(1, "chi-square matches brute-force oracle"):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            dim = int(rng.integers(1, 33))
            fa = rng.uniform(0, 1000, size=dim)
            fb = rng.uniform(0, 1000, size=dim)
            if rng.random() < 0.2:
                fa[rng.random(dim) < 0.5] = 0.0
                fb[rng.random(dim) < 0.5] = 0.0
            assert abs(chi_square(fa, fb) - brute_force_chi_square(list(fa), list(fb))) <= 1e-12


def test_criterion_2_mean_kernel_score_chain():
    # three tiny features, identical per slot: A=[1,0], B=[0,1], C=[1,1]
    # CSD(A,B) = 1, CSD(A,C) = CSD(B,C) = 1/2 per slot; mean = 2/3
    # KD(A,B) = 6*(1 / (2/3)) = 9;  KD(A,C) = KD(B,C) = 6*(3/4) = 9/2
    with criterion(2, "mean/kernel/score chain matches hand computation"):
        def feat(values):
            # each slot starts with ``values``; the rest of a gradient slot
            # is zeros, which add no chi-square term
            feature = np.zeros(8 * len(values))
            for lo in slot_bounds(len(feature))[:-1]:
                feature[lo : lo + len(values)] = values
            return feature

        features = {"A": feat([1, 0]), "B": feat([0, 1]), "C": feat([1, 1])}
        csd_ab = csd_sixtuple(features["A"], features["B"])
        csd_ac = csd_sixtuple(features["A"], features["C"])
        csd_bc = csd_sixtuple(features["B"], features["C"])
        for s in range(len(SLOTS)):
            assert abs(csd_ab[s] - 1.0) <= 1e-12
            assert abs(csd_ac[s] - 0.5) <= 1e-12
            assert abs(csd_bc[s] - 0.5) <= 1e-12

        sums = np.array([csd_ab[s] + csd_ac[s] + csd_bc[s] for s in range(len(SLOTS))])
        mean = mean_csd(sums, 3)
        for s in range(len(SLOTS)):
            assert abs(mean.means[s] - 2.0 / 3.0) <= 1e-12
        assert abs(kernel_distance(csd_ab, mean) - 9.0) <= 1e-12
        assert abs(kernel_distance(csd_ac, mean) - 4.5) <= 1e-12

        scores = corpus_scores(features)
        assert abs(scores[("A", "B")] - math.exp(-0.9)) <= 1e-12
        assert abs(scores[("A", "C")] - math.exp(-0.45)) <= 1e-12
        assert abs(similarity_score(10.0) - 0.36787944117144233) <= 1e-12


def test_criterion_3_duplicate_detection(tmp_path):
    with criterion(3, "byte-identical duplicate scores exactly 1.0"):
        shared = blob_video(6, 32, (8, 16), (1.5, 0.0))
        videos = {
            "copy_one": shared,
            "copy_two": shared.copy(),
            "distractor_a": noise_video(6, 32, seed=3),
            "distractor_b": blob_video(6, 32, (16, 8), (0.0, 2.0)),
        }
        manifest = write_corpus(tmp_path / "corpus", videos)
        sim = run_pipeline(fast_config(manifest, tmp_path / "out"))
        scores = read_scores(sim)
        assert scores[("copy_one", "copy_two")] == pytest.approx(1.0, abs=1e-12)


def blob_video_relative(n_frames, size, start_rel, vel_rel, sigma_rel=0.06):
    """Blob video with geometry in resolution-relative units."""
    y, x = np.mgrid[0:size, 0:size].astype(float)
    sigma = sigma_rel * (size - 1)
    frames = np.empty((n_frames, size, size))
    for t in range(n_frames):
        cx = (start_rel[0] + vel_rel[0] * t) * (size - 1)
        cy = (start_rel[1] + vel_rel[1] * t) * (size - 1)
        frames[t] = 255.0 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma**2))
    return frames


def test_criterion_4_resolution_invariance():
    with criterion(4, "same content at 64x64 and 128x128 scores >= 0.95"):
        def working(frames):
            return np.stack([resize_bilinear(f, 128, 128) for f in frames])

        fb = FarnebackParams()
        clips = {
            "blob064": working(blob_video_relative(12, 64, (0.2, 0.5), (0.02, 0.0))),
            "blob128": working(blob_video_relative(12, 128, (0.2, 0.5), (0.02, 0.0))),
            "vertical": working(
                blob_video_relative(12, 128, (0.5, 0.2), (0.0, 0.025), sigma_rel=0.1)
            ),
            "noise_a": working(noise_video(12, 128, seed=21)),
            "noise_b": working(noise_video(12, 128, seed=22)),
        }
        features = {k: extract_feature(v, fb) for k, v in clips.items()}
        scores = corpus_scores(features)
        assert scores[("blob064", "blob128")] >= 0.95


def drifting_texture_video(n_frames, size, seed, velocity=(2, 1)):
    base = smooth_texture(size, seed)
    return np.stack(
        [
            np.roll(np.roll(base, velocity[0] * t, axis=1), velocity[1] * t, axis=0)
            for t in range(n_frames)
        ]
    )


def test_criterion_5_subset_clip_ordering():
    with criterion(5, "clip scores higher against its prefix than against noise"):
        fb = FarnebackParams()
        for seed in range(5):
            long_clip = drifting_texture_video(60, 64, seed)
            features = {
                "long": extract_feature(long_clip, fb),
                "prefix": extract_feature(long_clip[:30], fb),
                "noise": extract_feature(noise_video(30, 64, seed + 100), fb),
            }
            scores = corpus_scores(features)
            assert scores[("long", "prefix")] > scores[("long", "noise")], (
                f"seed {seed}: prefix {scores[('long', 'prefix')]}"
                f" <= noise {scores[('long', 'noise')]}"
            )


def test_criterion_6_flow_accuracy():
    with criterion(6, "flow recovers 1-4 px translations within 0.5 px"):
        params = FarnebackParams()
        tex = smooth_texture(128, seed=42)

        still_u, still_v = farneback_flow(tex, tex, params)
        assert max(np.abs(still_u).max(), np.abs(still_v).max()) <= 1e-3

        gy, gx = np.gradient(tex)
        textured = np.hypot(gx, gy) > 1.0
        textured[:10] = textured[-10:] = False
        textured[:, :10] = textured[:, -10:] = False
        for shift in (1, 2, 3, 4):
            u, v = farneback_flow(tex, np.roll(tex, shift, axis=1), params)
            err = np.hypot(u[textured] - shift, v[textured]).mean()
            assert err <= 0.5, f"shift {shift}: mean error {err}"


def test_criterion_7_pair_accounting(tmp_path, monkeypatch):
    with criterion(7, "pair counts follow N(N-1)/2 and shard tasks cover all pairs"):
        def tiny_corpus(n):
            return {
                f"v{i:02d}": blob_video(5, 16, (4 + i % 3, 8), (1.0, 0.3 * (i % 2)))
                for i in range(n)
            }

        manifests = {}
        for n in (2, 3, 10):
            manifest = manifests[n] = write_corpus(tmp_path / f"c{n}", tiny_corpus(n))
            cfg = fast_config(manifest, tmp_path / f"out{n}", working_w=16, working_h=16)
            sim = run_pipeline(cfg)
            rows = sim.read_text().splitlines()[1:]
            assert len(rows) == n * (n - 1) // 2
            if n == 3:
                assert [tuple(r.split(",")[:2]) for r in rows] == [
                    ("v00", "v01"), ("v00", "v02"), ("v01", "v02"),
                ]

        # N=1: no pairs, the mean stage refuses
        manifest = write_corpus(tmp_path / "c1", tiny_corpus(1))
        cfg = fast_config(manifest, tmp_path / "out1b", working_w=16, working_h=16)
        with pytest.raises(StageError, match="fewer than 2"):
            run_pipeline(cfg)
        assert list(combinations(sorted(["only"]), 2)) == []

        # the engine's pair enumeration vs brute force, from one shard to
        # shards of one video: the key pairs of similarity.csv, and each
        # mean task's rows
        keys = [f"v{i:02d}" for i in range(10)]
        oracle = list(combinations(keys, 2))
        for size, shard_count in ((10, 1), (5, 2), (4, 3), (2, 5), (1, 10)):
            monkeypatch.setattr(layout, "VIDEOS_PER_SHARD", size)
            out = tmp_path / f"shards{shard_count}"
            cfg = fast_config(manifests[10], out, working_w=16, working_h=16)
            rows = run_pipeline(cfg).read_text().splitlines()[1:]
            assert [tuple(r.split(",")[:2]) for r in rows] == oracle
            assert len(list(out.glob("features-*.potf"))) == shard_count
            shard_of = {
                record.key: i
                for i in range(shard_count)
                for record in read_archive(out / f"features-{i:05d}.potf")
            }
            shard_keys = layout.prepare_run(cfg, engine.check_fit).shard_keys
            for task in plan_pair_stage(shard_keys, out / "state"):
                pairs = sum(shard_of[a] == task.payload[0] for a, _ in oracle)
                assert os.path.getsize(task.out_path) == 48 * pairs, task.label


def determinism_corpus(root):
    videos = {}
    for i in range(12):
        if i % 3 == 2:
            videos[f"v{i:02d}"] = noise_video(8, 32, seed=50 + i)
        else:
            videos[f"v{i:02d}"] = blob_video(8, 32, (6 + i, 10 + i), (1.0 + 0.2 * i, 0.1 * i))
    return write_corpus(root, videos)


def test_criterion_8_determinism(tmp_path, monkeypatch):
    with criterion(8, "worker counts and staged resume give byte-identical output"):
        manifest = determinism_corpus(tmp_path / "corpus")
        monkeypatch.setattr(layout, "VIDEOS_PER_SHARD", 4)  # 12 videos in 3 shards

        cfg1 = fast_config(manifest, tmp_path / "w1", workers=1)
        reference = run_pipeline(cfg1).read_bytes()
        assert len(list((tmp_path / "w1").glob("features-*.potf"))) == 3

        cfg8 = fast_config(manifest, tmp_path / "w8", workers=8)
        assert run_pipeline(cfg8).read_bytes() == reference

        # resume after the extract barrier
        cfg_a = fast_config(manifest, tmp_path / "ra", workers=8)
        run_extract(cfg_a)
        assert run_pipeline(cfg_a).read_bytes() == reference

        # resume after the mean barrier
        cfg_b = fast_config(manifest, tmp_path / "rb", workers=8)
        run_extract(cfg_b)
        run_mean(cfg_b)
        assert run_pipeline(cfg_b).read_bytes() == reference


def test_criterion_9_scaling_invariance(tmp_path, monkeypatch):
    with criterion(9, "scaling all features by 7.3 leaves scores unchanged"):
        manifest = determinism_corpus(tmp_path / "corpus")
        monkeypatch.setattr(layout, "VIDEOS_PER_SHARD", 6)  # 12 videos in 2 shards
        cfg = fast_config(manifest, tmp_path / "out")
        base_scores = read_scores(run_pipeline(cfg))

        scaled_out = tmp_path / "scaled"
        scaled_out.mkdir()
        for shard in sorted((tmp_path / "out").glob("features-*.potf")):
            records = read_archive(shard)
            scaled = [
                ArchiveRecord(
                    key=r.key,
                    frame_count=r.frame_count,
                    feature=7.3 * r.feature,
                )
                for r in records
            ]
            write_archive(scaled, scaled_out / shard.name)

        cfg_scaled = fast_config(manifest, scaled_out)
        run_mean(cfg_scaled)
        scaled_scores = read_scores(run_similarity(cfg_scaled))

        assert set(scaled_scores) == set(base_scores)
        for pair, score in base_scores.items():
            assert scaled_scores[pair] == pytest.approx(score, abs=1e-9)


def test_criterion_10_desk_scale_runtime(tmp_path):
    with criterion(10, "20-video default-parameter pipeline within time budget"):
        videos = {}
        for i in range(20):
            if i % 4 == 3:
                videos[f"clip{i:02d}"] = noise_video(30, 128, seed=300 + i)
            else:
                videos[f"clip{i:02d}"] = blob_video(
                    30, 128, (20 + 3 * i, 30 + 2 * i), (1.0 + 0.1 * i, 0.5 + 0.05 * i),
                    sigma=8.0,
                )
        manifest = write_corpus(tmp_path / "corpus", videos)
        config = PipelineConfig(
            manifest=str(manifest), out_dir=str(tmp_path / "out"), workers=4
        )

        start = time.monotonic()
        run_extract(config)
        run_mean(config)
        sim_start = time.monotonic()
        sim_path = run_similarity(config)
        sim_elapsed = time.monotonic() - sim_start
        total_elapsed = time.monotonic() - start

        rows = sim_path.read_text().splitlines()[1:]
        assert len(rows) == 20 * 19 // 2
        assert total_elapsed < 300.0, f"pipeline took {total_elapsed:.1f}s"
        per_pair_ms = 1000.0 * sim_elapsed / len(rows)
        assert per_pair_ms < 5.0, f"similarity stage {per_pair_ms:.2f} ms/pair"
