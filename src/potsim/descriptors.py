"""
Per-frame-pair histogram descriptors.

Two time series are computed per video, one histogram per consecutive frame
pair, each flattened from a 5x5 spatial grid x 8 orientation bins (200 bins):

* HoF accumulates optical-flow magnitudes with hard orientation binning.
* HoG accumulates binarized inter-frame difference magnitudes, with the mass
  linearly split between the two nearest orientation bins of the difference
  image's spatial gradient.

``compute_series`` runs flow and both histograms over blocks of
consecutive frame pairs, one call each per block (``block_pairs``). It
takes one video, or a packet: several short videos' frames one after
another, which then share their blocks, so that short videos pay the
per-call cost of the kernels once per block instead of once per video.
A video's series have the same bytes whatever packet and block it is in.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .commit import committed
from .flow import FarnebackParams, farneback_flow
from .frames import _frozen
from .params import DEFAULT_HOG_THRESHOLD

GRID = 5
ORIENTATION_BINS = 8
HISTOGRAM_DIM = GRID * GRID * ORIENTATION_BINS  # 200

# Flow runs over blocks of consecutive frame pairs: one call expands each
# frame of a block once. A block holds up to this many pixels of next
# frames, so memory stays flat in video length (4 pairs at 128x128).
_BLOCK_PIXELS = 1 << 16

_TWO_PI = 2.0 * np.pi
_BIN_WIDTH = _TWO_PI / ORIENTATION_BINS


def block_pairs(height: int, width: int) -> int:
    """The frame pairs of one block at ``height`` x ``width``: as many next
    frames as ``_BLOCK_PIXELS`` holds, at least one."""
    return max(1, _BLOCK_PIXELS // (height * width))


@functools.lru_cache(maxsize=64)
def _cell_index(height: int, width: int) -> np.ndarray:
    """Flat spatial-cell index (0..24) per pixel for an HxW frame, read-only."""
    rows = np.minimum(GRID - 1, (GRID * np.arange(height)) // height)
    cols = np.minimum(GRID - 1, (GRID * np.arange(width)) // width)
    index = (rows[:, None] * GRID + cols[None, :]).astype(np.intp)
    _frozen(index)
    return index


def _frame_cells(shape: tuple[int, ...]) -> np.ndarray:
    """Per pixel of a ``(..., H, W)`` stack, the cell index numbered on
    across the stack: frame k's cells are 25 k, ..., 25 k + 24."""
    frames = np.arange(math.prod(shape[:-2])).reshape(shape[:-2] + (1, 1))
    return _cell_index(*shape[-2:]) + GRID * GRID * frames


def _stack_bincount(
    index: np.ndarray, weights: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Per frame of a ``(..., H, W)`` stack, the sum of ``weights`` per
    bin, bins numbered on across the stack (see ``_frame_cells``): a
    ``(..., 200)`` array. Each bin adds its weights in their order from 0.0."""
    hist = np.bincount(index, weights=weights, minlength=math.prod(shape[:-2]) * HISTOGRAM_DIM)
    return hist.reshape(shape[:-2] + (HISTOGRAM_DIM,))


def _full_turn(theta: np.ndarray) -> np.ndarray:
    """``np.mod(theta, 2 pi)`` of ``arctan2`` angles in [-pi, pi], in
    place: theta + 2 pi, rounded once, where theta < 0, which is what
    ``np.mod`` computes, through a scalar ``fmod`` loop that costs twice
    this. Only -0.0 differs: it stays -0.0 where ``np.mod`` gives +0.0,
    and both fall in bin 0 with fraction +0.0."""
    return np.add(theta, _TWO_PI, out=theta, where=theta < 0.0)


def hof_frame(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Histogram of flow: per-pixel magnitude of the ``(H, W)`` displacement
    fields ``u``, ``v`` into (cell, orientation) bins.

    Orientation uses hard assignment: bin = floor(atan2(v, u) / (pi/4)),
    angle normalized to [0, 2*pi). The fields are read as float64 (flow
    returns float32), so the histogram is computed in float64. A
    ``(..., H, W)`` stack of fields gives a ``(..., 200)`` stack of
    histograms, each with the bytes of a call on its frame alone: every bin
    adds its pixels in the same order from 0.0.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    magnitude = np.hypot(u, v)
    theta = _full_turn(np.arctan2(v, u))
    obin = np.minimum(
        ORIENTATION_BINS - 1, np.floor(theta / _BIN_WIDTH).astype(np.intp)
    )
    idx = _frame_cells(u.shape) * ORIENTATION_BINS + obin
    return _stack_bincount(idx.ravel(), magnitude.ravel(), u.shape)


def _central_gradient(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences along the last two axes with edge replication;
    returns (gx, gy)."""
    padded = np.pad(field, [(0, 0)] * (field.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    gx = 0.5 * (padded[..., 1:-1, 2:] - padded[..., 1:-1, :-2])
    gy = 0.5 * (padded[..., 2:, 1:-1] - padded[..., :-2, 1:-1])
    return gx, gy


def hog_frame(
    prev: np.ndarray, next: np.ndarray, threshold: float = DEFAULT_HOG_THRESHOLD
) -> np.ndarray:
    """Histogram of binarized frame-difference gradients.

    The difference image D = next - prev is binarized per pixel to 255 where
    |D| >= threshold, else 0. Each surviving pixel's mass is split linearly
    between the two nearest of 8 orientation bins of the spatial gradient of
    D; pixels with zero binarized mass or zero gradient contribute nothing.
    ``(..., H, W)`` stacks of frame pairs give a ``(..., 200)`` stack of
    histograms, each with the bytes of a call on its pair alone.
    """
    prev = np.asarray(prev, dtype=np.float64)
    next = np.asarray(next, dtype=np.float64)
    if prev.shape != next.shape:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {next.shape}")
    diff = next - prev
    mass = np.where(np.abs(diff) >= threshold, 255.0, 0.0)
    gx, gy = _central_gradient(diff)
    active = (mass > 0.0) & ((gx != 0.0) | (gy != 0.0))
    if not active.any():
        return np.zeros(diff.shape[:-2] + (HISTOGRAM_DIM,))

    theta = _full_turn(np.arctan2(gy[active], gx[active]))
    pos = theta / _BIN_WIDTH  # continuous bin coordinate in [0, 8)
    lo = np.floor(pos).astype(np.intp) % ORIENTATION_BINS
    hi = (lo + 1) % ORIENTATION_BINS
    frac = pos - np.floor(pos)

    cell = _frame_cells(diff.shape)[active]
    m = mass[active]
    hist = _stack_bincount(cell * ORIENTATION_BINS + lo, m * (1.0 - frac), diff.shape)
    hist += _stack_bincount(cell * ORIENTATION_BINS + hi, m * frac, diff.shape)
    return hist


def compute_series(
    frames: np.ndarray,
    fb: FarnebackParams | None = None,
    threshold: float = DEFAULT_HOG_THRESHOLD,
    lengths: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The (HoF, HoG) series of a ``(frames, H, W)`` video: two
    ``(frames - 1, 200)`` arrays, one histogram per frame pair.

    With ``lengths``, ``frames`` is a packet: the frames of several videos
    one after another, ``lengths[i]`` (at least 2) of video i. The series
    are then the videos' own series one after another, ``sum(lengths) -
    len(lengths)`` rows: the pair that spans two videos is computed with its
    block and dropped.

    Flow and both histograms run once per block of consecutive pairs (see
    ``block_pairs``); each video's series are bit-identical to one
    two-frame flow call and one histogram call per pair.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or len(frames) < 2:
        raise ValueError(f"expected a (frames >= 2, H, W) video, got shape {frames.shape}")
    if lengths is None:
        lengths = [len(frames)]
    if min(lengths) < 2 or sum(lengths) != len(frames):
        raise ValueError(
            f"video lengths {list(lengths)} (each >= 2) do not make {len(frames)} frames"
        )
    if fb is None:
        fb = FarnebackParams()
    n = len(frames) - 1
    hof = np.empty((n, HISTOGRAM_DIM))
    hog = np.empty((n, HISTOGRAM_DIM))
    block = block_pairs(*frames.shape[1:])
    for start in range(0, n, block):
        stop = min(n, start + block)
        u, v = farneback_flow(frames[start], frames[start + 1 : stop + 1], fb)
        hof[start:stop] = hof_frame(u, v)
        hog[start:stop] = hog_frame(frames[start:stop], frames[start + 1 : stop + 1], threshold)
    if len(lengths) == 1:
        return hof, hog
    # pair j is (frame j, frame j + 1): the last frame of each video but the
    # last starts a pair into the next video
    spanning = np.cumsum(lengths[:-1]) - 1
    return np.delete(hof, spanning, axis=0), np.delete(hog, spanning, axis=0)


def dump_series_text(series: np.ndarray, path: str | Path) -> None:
    """Write a ``(pairs, 200)`` series to ``path`` (``layout.dump_paths``
    names a video's), one line per frame pair, 200 space-separated values
    with full round-trip precision."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [" ".join(repr(float(v)) for v in row) for row in series]
    with committed(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
