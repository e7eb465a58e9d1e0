"""
Frame decoding and resampling.

Videos enter the pipeline as directories of binary PGM (P5) or PPM (P6)
frame files, read in lexicographic filename order. Every frame is converted
to grayscale and resized to a fixed working resolution so that descriptor
dimensionality is identical across source resolutions.

A frame is represented as a 2-D ``float64`` array of shape ``(height,
width)`` with luminance values in ``[0, 255]``: a file whose maxval is
below 255 is scaled to that range as it is read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# BT.601 luma weights for color -> grayscale conversion.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass
class FrameSequence:
    """Ordered grayscale frames of one video, all at one resolution."""

    key: str
    frames: np.ndarray  # shape (frame_count, height, width), float64

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]


def _parse_netpbm_header(data: bytes, magic: bytes) -> tuple[int, int, int, int]:
    """Parse a binary netpbm header, returning (width, height, maxval, offset).

    ``offset`` is the index of the first raster byte. Comment lines starting
    with '#' may appear anywhere between header tokens.
    """
    if not data.startswith(magic):
        raise ValueError(
            f"not a {magic.decode()} image (bad magic "
            f"{data[:2]!r})" if len(data) >= 2 else "empty image data"
        )
    pos = len(magic)
    tokens: list[int] = []
    while len(tokens) < 3:
        if pos >= len(data):
            raise ValueError("malformed header: truncated before raster")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            tokens.append(int(data[start:pos]))
        else:
            raise ValueError(f"malformed header: unexpected byte {ch!r}")
    # Exactly one whitespace byte separates the maxval from the raster.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ValueError("malformed header: missing whitespace before raster")
    pos += 1
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise ValueError(f"malformed header: bad dimensions {width}x{height}")
    if maxval > 255:
        raise ValueError(f"unsupported depth: maxval {maxval} > 255")
    if maxval < 1:
        raise ValueError(f"malformed header: bad maxval {maxval}")
    return width, height, maxval, pos


def _read_raster(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    """The raster of a binary netpbm image as a float ``(height, width,
    channels)`` array, scaled from 0..maxval to 0..255 before any other
    arithmetic (maxval 255 is read as is)."""
    width, height, maxval, offset = _parse_netpbm_header(data, magic)
    n = width * height * channels
    raster = data[offset : offset + n]
    if len(raster) < n:
        raise ValueError(f"truncated pixel payload: expected {n} bytes, got {len(raster)}")
    pixels = np.frombuffer(raster, dtype=np.uint8, count=n).astype(np.float64)
    if maxval != 255:
        if pixels.max() > maxval:
            raise ValueError(f"malformed raster: a value above maxval {maxval}")
        pixels = pixels * 255.0 / maxval
    return pixels.reshape(height, width, channels)


def decode_pgm(data: bytes) -> np.ndarray:
    """Decode a binary grayscale PGM (P5) image to a float frame."""
    return _read_raster(data, b"P5", 1).squeeze(2)


def decode_ppm_to_gray(data: bytes) -> np.ndarray:
    """Decode a binary color PPM (P6) image and convert to grayscale.

    Uses BT.601 luma weights (0.299 R + 0.587 G + 0.114 B); output values
    are clamped to [0, 255].
    """
    rgb = _read_raster(data, b"P6", 3)
    wr, wg, wb = LUMA_WEIGHTS
    gray = wr * rgb[:, :, 0] + wg * rgb[:, :, 1] + wb * rgb[:, :, 2]
    return np.clip(gray, 0.0, 255.0)


def encode_pgm(frame: np.ndarray) -> bytes:
    """Encode a frame as a binary PGM (P5) image, rounding to 8-bit."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2:
        raise ValueError("frame must be a 2-D array")
    height, width = frame.shape
    header = f"P5\n{width} {height}\n255\n".encode()
    raster = np.clip(np.rint(frame), 0, 255).astype(np.uint8).tobytes()
    return header + raster


def _sample_coords(src_len: int, dst_len: int) -> np.ndarray:
    # Corner-aligned: endpoints map to endpoints; degenerate axes sample
    # the source center.
    if dst_len > 1:
        return np.arange(dst_len, dtype=np.float64) * (src_len - 1) / (dst_len - 1)
    return np.array([(src_len - 1) / 2.0])


def resize_bilinear(frame: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Resize a frame with corner-aligned bilinear interpolation.

    A ``(..., H, W)`` stack is resized frame by frame along its last two axes.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    frame = np.asarray(frame, dtype=np.float64)
    src_h, src_w = frame.shape[-2:]
    if (out_w, out_h) == (src_w, src_h):
        return frame.copy()

    xs = _sample_coords(src_w, out_w)
    ys = _sample_coords(src_h, out_h)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.minimum(x0, src_w - 1)
    y0 = np.minimum(y0, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    y1 = np.minimum(y0 + 1, src_h - 1)
    fx = xs - x0
    fy = ys - y0

    y0, y1 = y0[:, None], y1[:, None]
    top = frame[..., y0, x0] * (1 - fx) + frame[..., y0, x1] * fx
    bot = frame[..., y1, x0] * (1 - fx) + frame[..., y1, x1] * fx
    return top * (1 - fy[:, None]) + bot * fy[:, None]


_FRAME_EXTENSIONS = (".pgm", ".ppm")


def decode_frame_file(path: Path) -> np.ndarray:
    """Decode one .pgm/.ppm frame file to a grayscale frame."""
    data = path.read_bytes()
    if data.startswith(b"P5"):
        return decode_pgm(data)
    if data.startswith(b"P6"):
        return decode_ppm_to_gray(data)
    raise ValueError(f"unsupported image format (magic {data[:2]!r})")


def frame_paths(directory: Path) -> list[Path]:
    """The frame files of a video directory (.pgm/.ppm, any case), in
    ascending lexicographic filename order."""
    with os.scandir(directory) as entries:
        names = sorted(
            entry.name
            for entry in entries
            if os.path.splitext(entry.name)[1].lower() in _FRAME_EXTENSIONS
        )
    return [directory / name for name in names]


def load_frame_sequence(
    directory: str | Path, key: str, working_w: int, working_h: int
) -> FrameSequence:
    """Load all .pgm/.ppm frames of one video at the working resolution.

    Frames are read in ascending lexicographic filename order (zero-padded
    names are the expected convention), grayscale-converted, and resized.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"video '{key}': frame directory not found: {directory}")
    paths = frame_paths(directory)
    if len(paths) < 2:
        raise ValueError(
            f"video '{key}': insufficient frames ({len(paths)} found, need >= 2)"
        )
    frames = np.empty((len(paths), working_h, working_w), dtype=np.float64)
    for i, path in enumerate(paths):
        try:
            frame = decode_frame_file(path)
        except ValueError as exc:
            raise ValueError(f"video '{key}': frame '{path.name}': {exc}") from exc
        frames[i] = resize_bilinear(frame, working_w, working_h)
    return FrameSequence(key=key, frames=frames)
