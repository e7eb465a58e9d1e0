"""
Frame decoding and resampling.

Videos enter the pipeline as directories of binary PGM (P5) or PPM (P6)
frame files, read in lexicographic filename order. Every frame is converted
to grayscale and resized to a fixed working resolution so that descriptor
dimensionality is identical across source resolutions.

``decode_frame_file`` does both in one step: it checks the whole raster, but
converts to float only the source rows and columns that the corner-aligned
bilinear resize samples. Its output has the same bytes as decoding every
pixel and then calling ``resize_bilinear``, which shares its sampling rule.

A frame is represented as a 2-D ``float64`` array of shape ``(height,
width)`` with luminance values in ``[0, 255]``: a file whose maxval is
below 255 is scaled to that range as it is read.
"""

from __future__ import annotations

import functools
import os
import stat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .layout import frame_files

# BT.601 luma weights for color -> grayscale conversion.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


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


def _read_raster(data: bytes, magic: bytes, channels: int) -> tuple[np.ndarray, int]:
    """The raster of a binary netpbm image as a ``uint8 (height, width,
    channels)`` view of ``data``, with its maxval.

    The length and maxval checks cover the whole raster, also where a caller
    converts only some of its pixels.
    """
    width, height, maxval, offset = _parse_netpbm_header(data, magic)
    n = width * height * channels
    if len(data) - offset < n:
        raise ValueError(f"truncated pixel payload: expected {n} bytes, got {len(data) - offset}")
    raw = np.frombuffer(data, dtype=np.uint8, count=n, offset=offset)
    if maxval != 255 and raw.max() > maxval:
        raise ValueError(f"malformed raster: a value above maxval {maxval}")
    return raw.reshape(height, width, channels), maxval


def _to_gray(raw: np.ndarray, maxval: int) -> np.ndarray:
    """``uint8 (..., channels)`` samples as float luminance in [0, 255].

    Samples are scaled from 0..maxval to 0..255 before any other arithmetic
    (maxval 255 is read as is). Colour uses BT.601 luma weights (0.299 R +
    0.587 G + 0.114 B), clamped to [0, 255]; grayscale is already in range.
    """
    pixels = raw.astype(np.float64)
    if maxval != 255:
        pixels = pixels * 255.0 / maxval
    if raw.shape[-1] == 1:
        return pixels[..., 0]
    wr, wg, wb = LUMA_WEIGHTS
    gray = wr * pixels[..., 0] + wg * pixels[..., 1] + wb * pixels[..., 2]
    return np.clip(gray, 0.0, 255.0)


def decode_pgm(data: bytes) -> np.ndarray:
    """Decode a binary grayscale PGM (P5) image to a float frame."""
    return _to_gray(*_read_raster(data, b"P5", 1))


def decode_ppm_to_gray(data: bytes) -> np.ndarray:
    """Decode a binary color PPM (P6) image and convert to grayscale."""
    return _to_gray(*_read_raster(data, b"P6", 3))


def encode_pgm(frame: np.ndarray) -> bytes:
    """Encode a frame as a binary PGM (P5) image, rounding to 8-bit unless uint8."""
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ValueError("frame must be a 2-D array")
    height, width = frame.shape
    header = f"P5\n{width} {height}\n255\n".encode()
    if frame.dtype != np.uint8:
        frame = np.clip(np.rint(frame.astype(np.float64)), 0, 255).astype(np.uint8)
    return header + frame.tobytes()


class _Taps(NamedTuple):
    """Corner-aligned bilinear taps of one axis: output sample j blends
    source indices ``lo[j]`` and ``hi[j]`` with weight ``frac[j]`` on ``hi``."""

    lo: np.ndarray
    hi: np.ndarray
    frac: np.ndarray


def _frozen(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


@functools.lru_cache(maxsize=256)
def _axis_taps(src_len: int, dst_len: int) -> _Taps:
    """The taps that resize an axis of ``src_len`` samples to ``dst_len``."""
    if dst_len < 1:
        raise ValueError("output dimensions must be >= 1")
    # Corner-aligned: endpoints map to endpoints; degenerate axes sample
    # the source center.
    if dst_len > 1:
        pos = np.arange(dst_len, dtype=np.float64) * (src_len - 1) / (dst_len - 1)
    else:
        pos = np.array([(src_len - 1) / 2.0])
    lo = np.minimum(np.floor(pos).astype(np.intp), src_len - 1)
    hi = np.minimum(lo + 1, src_len - 1)
    taps = _Taps(lo, hi, pos - lo)
    _frozen(*taps)
    return taps


@functools.lru_cache(maxsize=256)
def _sampled_taps(src_len: int, dst_len: int, group: int) -> tuple[np.ndarray | None, _Taps]:
    """What an axis's taps read, for an axis stored as ``src_len`` groups of
    ``group`` adjacent samples (the channels of a pixel).

    Returns the sample indices the taps read, ``None`` when they read every
    index, and the taps renumbered to index the groups of that selection.
    """
    taps = _axis_taps(src_len, dst_len)
    keep = np.union1d(taps.lo, taps.hi)
    if keep.size == src_len:
        return None, taps
    sampled = _Taps(np.searchsorted(keep, taps.lo), np.searchsorted(keep, taps.hi), taps.frac)
    keep = (keep[:, None] * group + np.arange(group)).ravel()
    _frozen(keep, *sampled)
    return keep, sampled


def _blend(frame: np.ndarray, rows: _Taps, cols: _Taps) -> np.ndarray:
    """Bilinear blend of the last two axes, separably: columns first, over
    every source row, then rows. Output element (i, j) is, operand for
    operand,

        top = f[y0, x0] * (1 - fx) + f[y0, x1] * fx
        bot = f[y1, x0] * (1 - fx) + f[y1, x1] * fx
        out = top * (1 - fy) + bot * fy

    with (y0, y1, fy) the row taps of i and (x0, x1, fx) the column taps of j,
    in the frame's dtype: the fractions are cast to it first.
    """
    fx = cols.frac.astype(frame.dtype, copy=False)
    fy = rows.frac.astype(frame.dtype, copy=False)[:, None]
    across = frame.take(cols.lo, axis=-1)
    across *= 1 - fx
    right = frame.take(cols.hi, axis=-1)
    right *= fx
    across += right
    out = across.take(rows.lo, axis=-2)
    out *= 1 - fy
    bot = across.take(rows.hi, axis=-2)
    bot *= fy
    out += bot
    return out


def resize_bilinear(frame: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Resize a frame with corner-aligned bilinear interpolation.

    A ``(..., H, W)`` stack is resized frame by frame along its last two axes.
    A float32 frame (the flow's fields) is resized in float32, any other in
    float64.
    """
    frame = np.asarray(frame)
    if frame.dtype != np.float32:
        frame = frame.astype(np.float64, copy=False)
    src_h, src_w = frame.shape[-2:]
    if (out_w, out_h) == (src_w, src_h):
        return frame.copy()
    return _blend(frame, _axis_taps(src_h, out_h), _axis_taps(src_w, out_w))


_CHANNELS = {b"P5": 1, b"P6": 3}


def decode_frame_file(path: Path, out_w: int, out_h: int) -> np.ndarray:
    """Decode one .pgm/.ppm frame file to a grayscale frame of ``out_h`` rows
    and ``out_w`` columns.

    The result has the same bytes as ``resize_bilinear`` of the decoded
    frame, but only the source rows and columns the resize samples are
    converted to float. Anything but a regular file (a FIFO, a device, a
    directory) is refused before a byte is read: a FIFO without a writer
    would block for ever, and a device may never end.
    """
    # O_NONBLOCK: opening a FIFO would wait for a writer; a regular file
    # reads the same either way
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise ValueError("not a regular file")
        with open(fd, "rb", closefd=False) as fh:
            data = fh.read()
    finally:
        os.close(fd)
    magic = data[:2]
    if magic not in _CHANNELS:
        raise ValueError(f"unsupported image format (magic {magic!r})")
    raw, maxval = _read_raster(data, magic, _CHANNELS[magic])
    src_h, src_w, channels = raw.shape
    if (out_w, out_h) == (src_w, src_h):
        return _to_gray(raw, maxval)
    keep_rows, rows = _sampled_taps(src_h, out_h, 1)
    keep_cols, cols = _sampled_taps(src_w, out_w, channels)
    # Select on the (rows, samples) view: a gather of single bytes is several
    # times faster than one of whole pixels.
    samples = raw.reshape(src_h, src_w * channels)
    if keep_rows is not None:
        samples = samples[keep_rows]
    if keep_cols is not None:
        samples = samples[:, keep_cols]
    pixels = samples.reshape(len(samples), -1, channels)
    return _blend(_to_gray(pixels, maxval), rows, cols)


def load_frame_sequence(
    directory: str | Path, key: str, working_w: int, working_h: int
) -> np.ndarray:
    """Load all .pgm/.ppm frames of one video at the working resolution, as
    a ``(frames, working_h, working_w)`` float64 array.

    Frames are read in ascending lexicographic filename order (zero-padded
    names are the expected convention), grayscale-converted, and resized.
    ``key`` names the video in errors.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"video '{key}': frame directory not found: {directory}")
    files = frame_files(directory)
    if len(files) < 2:
        raise ValueError(
            f"video '{key}': insufficient frames ({len(files)} found, need >= 2)"
        )
    frames = np.empty((len(files), working_h, working_w), dtype=np.float64)
    for i, entry in enumerate(files):
        try:
            frames[i] = decode_frame_file(directory / entry.name, working_w, working_h)
        except ValueError as exc:
            raise ValueError(f"video '{key}': frame '{entry.name}': {exc}") from exc
    return frames
