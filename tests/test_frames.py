import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potsim.frames import (
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
        seq = load_frame_sequence(tmp_path / "v", "v", 8, 8)
        assert seq.frame_count == 2
        assert seq.frames.shape == (2, 8, 8)

    def test_insufficient_frames(self, tmp_path):
        self.write(tmp_path / "v", ["f0.pgm"])
        with pytest.raises(ValueError, match="insufficient frames"):
            load_frame_sequence(tmp_path / "v", "v", 8, 8)

    def test_lexicographic_order(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        (d / "b.pgm").write_bytes(encode_pgm(np.full((2, 2), 20.0)))
        (d / "a.pgm").write_bytes(encode_pgm(np.full((2, 2), 10.0)))
        seq = load_frame_sequence(d, "v", 2, 2)
        assert seq.frames[0, 0, 0] == 10.0
        assert seq.frames[1, 0, 0] == 20.0

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
        np.testing.assert_array_equal(a.frames, b.frames)
