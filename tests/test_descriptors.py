import tracemalloc

import numpy as np
import pytest

from conftest import blob_video, noise_video
from potsim import descriptors
from potsim.descriptors import (
    HISTOGRAM_DIM,
    compute_series,
    dump_series_text,
    hof_frame,
    hog_frame,
)
from potsim.flow import FarnebackParams, farneback_flow

FAST_FB = FarnebackParams(levels=2, winsize=9, iterations=2)


def uniform_flow(u, v, size=128):
    return np.full((size, size), float(u)), np.full((size, size), float(v))


class TestHofFrame:
    def test_zero_flow(self):
        hist = hof_frame(*uniform_flow(0, 0))
        np.testing.assert_array_equal(hist, np.zeros(HISTOGRAM_DIM))

    def test_uniform_right_flow(self):
        hist = hof_frame(*uniform_flow(1, 0))
        grid = hist.reshape(25, 8)
        assert (grid[:, 1:] == 0).all()
        assert (grid[:, 0] > 0).all()
        assert hist.sum() == pytest.approx(128 * 128)

    def test_uniform_down_flow(self):
        hist = hof_frame(*uniform_flow(0, 2))
        grid = hist.reshape(25, 8)
        populated = np.nonzero(grid.sum(axis=0))[0]
        np.testing.assert_array_equal(populated, [2])
        assert hist.sum() == pytest.approx(2 * 128 * 128)

    def test_mass_conservation(self):
        rng = np.random.default_rng(8)
        u = rng.normal(size=(64, 64))
        v = rng.normal(size=(64, 64))
        hist = hof_frame(u, v)
        assert hist.sum() == pytest.approx(np.hypot(u, v).sum(), rel=1e-9)

    def test_spatial_locality(self):
        # motion confined to the top-left fifth populates only cell (0,0)
        size = 100
        u = np.zeros((size, size))
        u[: size // 5, : size // 5] = 1.0
        hist = hof_frame(u, np.zeros_like(u))
        grid = hist.reshape(25, 8)
        assert grid[0].sum() > 0
        assert grid[1:].sum() == 0


class TestHogFrame:
    def test_identical_frames(self):
        frame = np.random.default_rng(1).uniform(0, 255, size=(32, 32))
        np.testing.assert_array_equal(hog_frame(frame, frame, 40.0), np.zeros(HISTOGRAM_DIM))

    def test_single_pixel_impulse(self):
        # corner placement: interior impulses have zero central-difference
        # gradient at the impulse pixel and contribute nothing
        prev = np.zeros((16, 16))
        nxt = np.zeros((16, 16))
        nxt[0, 0] = 200.0
        hist = hog_frame(prev, nxt, 40.0)
        assert hist.sum() == pytest.approx(255.0)
        assert np.count_nonzero(hist) <= 2

    def test_below_threshold(self):
        prev = np.zeros((16, 16))
        hist = hog_frame(prev, prev + 10.0, 40.0)
        np.testing.assert_array_equal(hist, np.zeros(HISTOGRAM_DIM))

    def test_mass_conservation(self):
        rng = np.random.default_rng(9)
        prev = rng.uniform(0, 255, size=(48, 48))
        nxt = rng.uniform(0, 255, size=(48, 48))
        diff = nxt - prev
        padded = np.pad(diff, 1, mode="edge")
        gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
        gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
        contributing = (np.abs(diff) >= 40.0) & ((gx != 0) | (gy != 0))
        hist = hog_frame(prev, nxt, 40.0)
        assert hist.sum() == pytest.approx(255.0 * contributing.sum(), rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hog_frame(np.zeros((4, 4)), np.zeros((4, 5)))


class TestComputeSeries:
    def test_two_frame_video(self):
        frames = blob_video(2, 64, (20, 32), (2, 0))
        hof, hog = compute_series(frames, FAST_FB)
        assert hof.shape == hog.shape == (1, HISTOGRAM_DIM)

    def test_series_length(self):
        frames = blob_video(8, 48, (12, 24), (1.5, 0))
        hof, hog = compute_series(frames, FAST_FB)
        assert hof.shape == hog.shape == (7, HISTOGRAM_DIM)

    def test_static_video_is_all_zero(self):
        frames = np.full((3, 32, 32), 120.0)
        hof, hog = compute_series(frames, FAST_FB)
        np.testing.assert_array_equal(hof, 0.0)
        np.testing.assert_array_equal(hog, 0.0)

    def test_blocks_match_per_pair_flow(self, monkeypatch):
        # 7 frames of 128x128: blocks of 4 and 2 pairs, the block-boundary
        # frame expanded in both
        frames = noise_video(7, 128, seed=9)
        blocks = []

        def recording_flow(prev, next, params=None):
            blocks.append(np.shape(next))
            return farneback_flow(prev, next, params)

        monkeypatch.setattr(descriptors, "farneback_flow", recording_flow)
        hof, hog = compute_series(frames)
        assert blocks == [(4, 128, 128), (2, 128, 128)]
        for t in range(6):
            u, v = farneback_flow(frames[t], frames[t + 1])
            assert hof[t].tobytes() == hof_frame(u, v).tobytes()
            assert hog[t].tobytes() == hog_frame(frames[t], frames[t + 1]).tobytes()

    def test_peak_memory_flat_in_video_length(self):
        # flow runs over bounded blocks, never over the whole video at once
        def peak(frame_count):
            frames = noise_video(frame_count, 128, seed=frame_count)
            tracemalloc.start()
            try:
                compute_series(frames)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(33) <= 1.25 * peak(9)


def load_series_text(path):
    """Read back a text series dump: one line of HISTOGRAM_DIM values per
    frame pair."""
    rows = [[float(v) for v in line.split()] for line in path.read_text().splitlines()]
    return np.array(rows).reshape(-1, HISTOGRAM_DIM)


class TestSeriesTextDump:
    def test_filenames_and_line_counts(self, tmp_path):
        p1 = dump_series_text(np.zeros((2, HISTOGRAM_DIM)), "hof", "vid", tmp_path)
        p2 = dump_series_text(np.ones((1, HISTOGRAM_DIM)), "hog", "vid", tmp_path)
        assert p1.name == "vid.of.txt" and p2.name == "vid.hog.txt"
        assert len(p1.read_text().splitlines()) == 2
        assert len(p2.read_text().splitlines()) == 1

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        series = rng.uniform(0, 1000, size=(3, HISTOGRAM_DIM))
        path = dump_series_text(series, "hof", "v", tmp_path)
        np.testing.assert_array_equal(load_series_text(path), series)
