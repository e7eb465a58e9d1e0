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


class TestStacks:
    """hof_frame and hog_frame on (K, H, W) stacks: each histogram has the
    bytes of a call on its frame alone."""

    def test_hof_stack_equals_single_calls(self):
        rng = np.random.default_rng(3)
        u = rng.normal(0.0, 2.0, size=(5, 17, 23)).astype(np.float32)
        v = rng.normal(0.0, 2.0, size=(5, 17, 23)).astype(np.float32)
        u[2] = v[2] = 0.0
        stack = hof_frame(u, v)
        assert stack.shape == (5, HISTOGRAM_DIM)
        for k in range(5):
            assert stack[k].tobytes() == hof_frame(u[k], v[k]).tobytes()

    def test_hog_stack_equals_single_calls(self):
        """Pairs with no HoG mass (equal frames, or a difference below the
        threshold) sit between pairs with mass."""
        frames = noise_video(6, 19, seed=5)
        frames[2] = frames[1]
        frames[4] = frames[3] + 10.0
        stack = hog_frame(frames[:-1], frames[1:], 40.0)
        assert stack.shape == (5, HISTOGRAM_DIM)
        for k in range(5):
            single = hog_frame(frames[k], frames[k + 1], 40.0)
            assert stack[k].tobytes() == single.tobytes()
        assert not stack[1].any() and not stack[3].any() and stack[0].any()

    def test_hog_stack_without_mass_is_zero(self):
        frames = np.full((3, 8, 8), 50.0)
        hist = hog_frame(frames[:-1], frames[1:])
        assert hist.tobytes() == np.zeros((2, HISTOGRAM_DIM)).tobytes()

    def test_cell_index_is_cached_read_only(self):
        index = descriptors._cell_index(24, 32)
        assert descriptors._cell_index(24, 32) is index
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 3


class TestPackets:
    """A packet's series are its videos' own, byte for byte, whatever run
    of videos the packet is and wherever its blocks cut it."""

    # blocks of 4 pairs at 16x16, so that packets span several blocks and
    # one video is longer than a block
    SIZE = 16

    def videos(self):
        size = self.SIZE
        return [
            blob_video(5, size, (5.0, 6.0), (1.0, 0.5)),
            blob_video(2, size, (8.0, 8.0), (-1.0, 1.0)),
            np.full((3, size, size), 90.0),  # static: all-zero series
            noise_video(9, size, seed=2),  # longer than a block
            np.full((2, size, size), 30.0),
            blob_video(4, size, (9.0, 4.0), (0.5, 1.5)),
        ]

    def test_every_run_of_videos_gives_their_own_series(self, monkeypatch):
        monkeypatch.setattr(descriptors, "_BLOCK_PIXELS", 4 * self.SIZE**2)
        videos = self.videos()
        alone = []
        for video in videos:
            hof, hog = compute_series(video, FAST_FB)
            # alone, as one two-frame flow call and one histogram call per pair
            for t in range(len(video) - 1):
                u, v = farneback_flow(video[t], video[t + 1], FAST_FB)
                assert hof[t].tobytes() == hof_frame(u, v).tobytes()
                assert hog[t].tobytes() == hog_frame(video[t], video[t + 1]).tobytes()
            alone.append((hof, hog))
        assert not alone[2][0].any() and not alone[2][1].any()
        for first in range(len(videos)):
            for last in range(first + 1, len(videos) + 1):
                packet = videos[first:last]
                hof, hog = compute_series(
                    np.concatenate(packet), FAST_FB, lengths=[len(v) for v in packet]
                )
                assert len(hof) == len(hog) == sum(len(v) - 1 for v in packet)
                row = 0
                for (a_hof, a_hog), video in zip(alone[first:last], packet):
                    rows = slice(row, row + len(video) - 1)
                    assert hof[rows].tobytes() == a_hof.tobytes(), (first, last)
                    assert hog[rows].tobytes() == a_hog.tobytes(), (first, last)
                    row += len(video) - 1

    @pytest.mark.parametrize("lengths", [[5, 1], [2, 2, 3], [5]])
    def test_lengths_must_cut_the_frames_into_videos(self, lengths):
        with pytest.raises(ValueError, match="video lengths"):
            compute_series(np.zeros((6, 8, 8)), FAST_FB, lengths=lengths)


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
