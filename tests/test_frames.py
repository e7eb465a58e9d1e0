import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potsim.frames import (
    decode_frame_file,
    decode_pgm,
    decode_ppm_to_gray,
    encode_pgm,
    load_frame_sequence,
    resize_bilinear,
)


def pgm_bytes(width, height, pixels, maxval=255, comment=None):
    header = f"P5\n{'# ' + comment + chr(10) if comment else ''}{width} {height}\n{maxval}\n"
    return header.encode() + bytes(pixels)


class TestDecodePgm:
    def test_2x2_checker(self):
        frame = decode_pgm(pgm_bytes(2, 2, [0, 255, 255, 0]))
        assert frame.shape == (2, 2)
        np.testing.assert_array_equal(frame, [[0, 255], [255, 0]])

    def test_1x1(self):
        frame = decode_pgm(pgm_bytes(1, 1, [7]))
        np.testing.assert_array_equal(frame, [[7]])

    def test_header_comment(self):
        frame = decode_pgm(pgm_bytes(1, 1, [9], comment="made by tests"))
        np.testing.assert_array_equal(frame, [[9]])

    def test_maxval_too_deep(self):
        with pytest.raises(ValueError, match="unsupported depth"):
            decode_pgm(pgm_bytes(1, 1, [0, 7], maxval=65535))

    def test_truncated_payload(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_pgm(pgm_bytes(2, 2, [0, 255]))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            decode_pgm(b"P2\n1 1\n255\n7")


class TestDecodePpm:
    def ppm(self, rgb):
        return b"P6\n1 1\n255\n" + bytes(rgb)

    def test_white(self):
        assert decode_ppm_to_gray(self.ppm([255, 255, 255]))[0, 0] == 255.0

    def test_pure_red(self):
        assert decode_ppm_to_gray(self.ppm([255, 0, 0]))[0, 0] == pytest.approx(76.245)

    def test_pure_blue(self):
        assert decode_ppm_to_gray(self.ppm([0, 0, 255]))[0, 0] == pytest.approx(29.07)


class TestMaxval:
    """A maxval below 255 is scaled to 0-255 before any other arithmetic."""

    def test_pgm_maxval_15_is_scaled(self):
        pixels = [0, 5, 15, 9, 1, 14]
        low = decode_pgm(pgm_bytes(3, 2, pixels, maxval=15))
        full = decode_pgm(pgm_bytes(3, 2, [17 * p for p in pixels]))
        assert low.shape == full.shape == (2, 3)
        assert low.tobytes() == full.tobytes()

    def test_ppm_maxval_15_is_scaled(self):
        rgb = [15, 0, 3, 7, 12, 15, 1, 1, 2]
        low = decode_ppm_to_gray(b"P6\n3 1\n15\n" + bytes(rgb))
        full = decode_ppm_to_gray(b"P6\n3 1\n255\n" + bytes(17 * c for c in rgb))
        assert low.shape == full.shape == (1, 3)
        assert low.tobytes() == full.tobytes()

    def test_value_above_maxval(self):
        with pytest.raises(ValueError, match="above maxval 15"):
            decode_pgm(pgm_bytes(2, 1, [15, 16], maxval=15))


class TestResizeBilinear:
    def test_identity(self):
        rng = np.random.default_rng(3)
        frame = rng.uniform(0, 255, size=(9, 7))
        np.testing.assert_array_equal(resize_bilinear(frame, 7, 9), frame)

    def test_constant(self):
        out = resize_bilinear(np.full((4, 4), 100.0), 11, 3)
        np.testing.assert_allclose(out, 100.0)

    def test_corner_aligned_1d(self):
        out = resize_bilinear(np.array([[0.0, 100.0]]), 3, 1)
        np.testing.assert_allclose(out, [[0.0, 50.0, 100.0]])

    def test_output_within_input_range(self):
        rng = np.random.default_rng(7)
        frame = rng.uniform(0, 255, size=(13, 17))
        out = resize_bilinear(frame, 40, 5)
        assert out.min() >= frame.min() - 1e-12
        assert out.max() <= frame.max() + 1e-12

    def test_stack_matches_per_frame(self):
        stack = np.random.default_rng(0).uniform(0, 255, size=(3, 24, 40))
        for out_w, out_h in ((13, 7), (80, 48)):
            out = resize_bilinear(stack, out_w, out_h)
            assert out.shape == (3, out_h, out_w)
            for k in range(3):
                assert out[k].tobytes() == resize_bilinear(stack[k], out_w, out_h).tobytes()

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((2, 2)), 0, 2)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_pgm_roundtrip(width, height, data):
    pixels = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=width * height,
            max_size=width * height,
        )
    )
    frame = np.array(pixels, dtype=float).reshape(height, width)
    np.testing.assert_array_equal(decode_pgm(encode_pgm(frame)), frame)


class TestLoadFrameSequence:
    def write(self, directory, names, size=4):
        directory.mkdir(exist_ok=True)
        for i, name in enumerate(names):
            frame = np.full((size, size), float(i * 10))
            (directory / name).write_bytes(encode_pgm(frame))

    def test_resizes_to_working_resolution(self, tmp_path):
        self.write(tmp_path / "v", ["f0.pgm", "f1.pgm"])
        frames = load_frame_sequence(tmp_path / "v", "v", 8, 8)
        assert frames.shape == (2, 8, 8)
        assert frames.dtype == np.float64

    def test_insufficient_frames(self, tmp_path):
        self.write(tmp_path / "v", ["f0.pgm"])
        with pytest.raises(ValueError, match="insufficient frames"):
            load_frame_sequence(tmp_path / "v", "v", 8, 8)

    def test_lexicographic_order(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        (d / "b.pgm").write_bytes(encode_pgm(np.full((2, 2), 20.0)))
        (d / "a.pgm").write_bytes(encode_pgm(np.full((2, 2), 10.0)))
        frames = load_frame_sequence(d, "v", 2, 2)
        assert frames[0, 0, 0] == 10.0
        assert frames[1, 0, 0] == 20.0

    def test_undecodable_frame_names_file(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        (d / "f0.pgm").write_bytes(encode_pgm(np.zeros((2, 2))))
        (d / "f1.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(ValueError, match="f1.pgm"):
            load_frame_sequence(d, "v", 2, 2)

    def test_deterministic(self, tmp_path):
        self.write(tmp_path / "v", ["f0.pgm", "f1.pgm", "f2.pgm"], size=6)
        a = load_frame_sequence(tmp_path / "v", "v", 4, 4)
        b = load_frame_sequence(tmp_path / "v", "v", 4, 4)
        np.testing.assert_array_equal(a, b)


def netpbm_bytes(magic, width, height, maxval, raster):
    return f"{magic}\n{width} {height}\n{maxval}\n".encode() + bytes(raster)


def random_netpbm(magic, width, height, maxval, seed):
    channels = 1 if magic == "P5" else 3
    rng = np.random.default_rng(seed)
    raster = rng.integers(0, maxval + 1, size=width * height * channels, dtype=np.uint8)
    return netpbm_bytes(magic, width, height, maxval, raster)


def decode_then_resize(data, out_w, out_h):
    """The reference: decode every source pixel, then resize."""
    decode = decode_pgm if data.startswith(b"P5") else decode_ppm_to_gray
    return resize_bilinear(decode(data), out_w, out_h)


def sampled_indices(src_len, dst_len):
    """The source indices a corner-aligned bilinear resize of one axis reads."""
    if dst_len > 1:
        pos = np.arange(dst_len) * (src_len - 1) / (dst_len - 1)
    else:
        pos = np.array([(src_len - 1) / 2])
    lo = np.minimum(np.floor(pos).astype(int), src_len - 1)
    return set(lo) | set(np.minimum(lo + 1, src_len - 1))


class TestDecodeFrameFile:
    """Decoding at the working resolution gives the same bytes as decoding
    the whole frame and then resizing it."""

    @pytest.mark.parametrize("magic", ["P5", "P6"])
    @pytest.mark.parametrize("maxval", [255, 200, 15])
    @pytest.mark.parametrize(
        "src, out",
        [
            ((320, 240), (32, 32)),
            ((320, 240), (128, 128)),
            ((64, 48), (128, 100)),
            ((5, 7), (1, 1)),
            ((1, 1), (3, 3)),
            ((64, 48), (64, 48)),
        ],
        ids=["320x240-32x32", "320x240-128x128", "64x48-128x100", "5x7-1x1", "1x1-3x3", "identity"],
    )
    def test_matches_decode_then_resize(self, tmp_path, magic, maxval, src, out):
        data = random_netpbm(magic, *src, maxval, seed=src[0] * maxval)
        path = tmp_path / "f.pnm"
        path.write_bytes(data)
        frame = decode_frame_file(path, *out)
        reference = decode_then_resize(data, *out)
        assert frame.shape == reference.shape == (out[1], out[0])
        assert frame.dtype == reference.dtype == np.float64
        assert frame.tobytes() == reference.tobytes()

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P2\n1 1\n255\n7")
        with pytest.raises(ValueError, match="unsupported image format"):
            decode_frame_file(path, 1, 1)


class TestLoadFrameSequenceAtWorkingResolution:
    """Frames are decoded at the working resolution, whatever their source
    size, and the input checks still cover every source pixel, also those
    the resize never samples."""

    def test_mixed_source_sizes(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        files = {
            "f0.ppm": random_netpbm("P6", 320, 240, 255, seed=1),
            "f1.pgm": random_netpbm("P5", 64, 48, 200, seed=2),
            "f2.ppm": random_netpbm("P6", 320, 240, 15, seed=3),
        }
        for name, data in files.items():
            (d / name).write_bytes(data)
        frames = load_frame_sequence(d, "v", 32, 24)
        assert frames.shape == (3, 24, 32)
        for frame, data in zip(frames, files.values()):
            assert frame.tobytes() == decode_then_resize(data, 32, 24).tobytes()

    @pytest.mark.parametrize("kind", ["directory", "device"])
    def test_frame_that_is_no_regular_file(self, tmp_path, kind):
        """A directory named like a frame, or a symlink to a character
        device, fails as a ValueError naming the video and the frame,
        before anything is read (a device such as /dev/zero never ends)."""
        d = tmp_path / "v"
        d.mkdir()
        (d / "f0.pgm").write_bytes(random_netpbm("P5", 8, 8, 255, seed=5))
        if kind == "directory":
            (d / "f1.pgm").mkdir()
        else:
            if not os.path.exists("/dev/null"):
                pytest.skip("no /dev/null")
            (d / "f1.pgm").symlink_to("/dev/null")
        with pytest.raises(ValueError, match=r"^video 'v': frame 'f1.pgm': not a regular file$"):
            load_frame_sequence(d, "v", 8, 8)

    def write_video(self, directory, bad_frame):
        directory.mkdir()
        (directory / "f0.pgm").write_bytes(random_netpbm("P5", 64, 48, 200, seed=4))
        (directory / "f1.pgm").write_bytes(bad_frame)

    def test_value_above_maxval_in_unsampled_row(self, tmp_path):
        width, height = 64, 48
        raster = np.full((height, width), 100, dtype=np.uint8)
        row = min(set(range(height)) - sampled_indices(height, 8))
        raster[row, 0] = 201
        self.write_video(tmp_path / "v", netpbm_bytes("P5", width, height, 200, raster.tobytes()))
        with pytest.raises(ValueError, match="f1.pgm.*above maxval 200"):
            load_frame_sequence(tmp_path / "v", "v", 8, 8)

    def test_raster_truncated_below_last_sampled_row(self, tmp_path):
        width, height = 64, 48
        last_sampled = max(sampled_indices(height, 1))
        assert last_sampled < height - 2
        raster = bytes(width * (last_sampled + 2))
        self.write_video(tmp_path / "v", netpbm_bytes("P5", width, height, 200, raster))
        with pytest.raises(ValueError, match="f1.pgm.*truncated pixel payload"):
            load_frame_sequence(tmp_path / "v", "v", 8, 1)
