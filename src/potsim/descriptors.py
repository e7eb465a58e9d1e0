"""
Per-frame-pair histogram descriptors.

Two time series are computed per video, one histogram per consecutive frame
pair, each flattened from a 5x5 spatial grid x 8 orientation bins (200 bins):

* HoF accumulates optical-flow magnitudes with hard orientation binning.
* HoG accumulates binarized inter-frame difference magnitudes, with the mass
  linearly split between the two nearest orientation bins of the difference
  image's spatial gradient.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .commit import committed
from .flow import FarnebackParams, farneback_flow

GRID = 5
ORIENTATION_BINS = 8
HISTOGRAM_DIM = GRID * GRID * ORIENTATION_BINS  # 200

DEFAULT_HOG_THRESHOLD = 40.0

# Flow runs over blocks of consecutive frame pairs: one call expands each
# frame of a block once. A block holds up to this many pixels of next
# frames, so memory stays flat in video length (4 pairs at 128x128).
_BLOCK_PIXELS = 1 << 16

_TWO_PI = 2.0 * np.pi
_BIN_WIDTH = _TWO_PI / ORIENTATION_BINS


def _cell_index(height: int, width: int) -> np.ndarray:
    """Flat spatial-cell index (0..24) per pixel for an HxW frame."""
    rows = np.minimum(GRID - 1, (GRID * np.arange(height)) // height)
    cols = np.minimum(GRID - 1, (GRID * np.arange(width)) // width)
    return (rows[:, None] * GRID + cols[None, :]).astype(np.intp)


def hof_frame(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Histogram of flow: per-pixel magnitude of the ``(H, W)`` displacement
    fields ``u``, ``v`` into (cell, orientation) bins.

    Orientation uses hard assignment: bin = floor(atan2(v, u) / (pi/4)),
    angle normalized to [0, 2*pi).
    """
    magnitude = np.hypot(u, v)
    theta = np.mod(np.arctan2(v, u), _TWO_PI)
    obin = np.minimum(
        ORIENTATION_BINS - 1, np.floor(theta / _BIN_WIDTH).astype(np.intp)
    )
    cell = _cell_index(*u.shape)
    idx = cell * ORIENTATION_BINS + obin
    return np.bincount(
        idx.ravel(), weights=magnitude.ravel(), minlength=HISTOGRAM_DIM
    )


def _central_gradient(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences with edge replication; returns (gx, gy)."""
    padded = np.pad(field, 1, mode="edge")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    return gx, gy


def hog_frame(
    prev: np.ndarray, next: np.ndarray, threshold: float = DEFAULT_HOG_THRESHOLD
) -> np.ndarray:
    """Histogram of binarized frame-difference gradients.

    The difference image D = next - prev is binarized per pixel to 255 where
    |D| >= threshold, else 0. Each surviving pixel's mass is split linearly
    between the two nearest of 8 orientation bins of the spatial gradient of
    D; pixels with zero binarized mass or zero gradient contribute nothing.
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
        return np.zeros(HISTOGRAM_DIM)

    theta = np.mod(np.arctan2(gy[active], gx[active]), _TWO_PI)
    pos = theta / _BIN_WIDTH  # continuous bin coordinate in [0, 8)
    lo = np.floor(pos).astype(np.intp) % ORIENTATION_BINS
    hi = (lo + 1) % ORIENTATION_BINS
    frac = pos - np.floor(pos)

    cell = _cell_index(*prev.shape)[active]
    m = mass[active]
    hist = np.bincount(
        cell * ORIENTATION_BINS + lo, weights=m * (1.0 - frac), minlength=HISTOGRAM_DIM
    )
    hist += np.bincount(
        cell * ORIENTATION_BINS + hi, weights=m * frac, minlength=HISTOGRAM_DIM
    )
    return hist


def compute_series(
    frames: np.ndarray,
    fb: FarnebackParams | None = None,
    threshold: float = DEFAULT_HOG_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """The (HoF, HoG) series of a ``(frames, H, W)`` video: two
    ``(frames - 1, 200)`` arrays, one histogram per frame pair.

    Flow is computed over blocks of consecutive pairs (see ``_BLOCK_PIXELS``);
    the series are bit-identical to one two-frame flow call per pair.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or len(frames) < 2:
        raise ValueError(f"expected a (frames >= 2, H, W) video, got shape {frames.shape}")
    if fb is None:
        fb = FarnebackParams()
    n = len(frames) - 1
    hof = np.empty((n, HISTOGRAM_DIM))
    hog = np.empty((n, HISTOGRAM_DIM))
    block = max(1, _BLOCK_PIXELS // (frames.shape[1] * frames.shape[2]))
    for start in range(0, n, block):
        u, v = farneback_flow(frames[start], frames[start + 1 : start + 1 + block], fb)
        for k in range(len(u)):
            hof[start + k] = hof_frame(u[k], v[k])
    for t in range(n):
        hog[t] = hog_frame(frames[t], frames[t + 1], threshold)
    return hof, hog


_SERIES_SUFFIX = {"hof": ".of.txt", "hog": ".hog.txt"}


def series_dump_path(out_dir: str | Path, key: str, kind: str) -> Path:
    """Where `dump_series_text` writes `key`'s series of `kind`."""
    return Path(out_dir) / (key + _SERIES_SUFFIX[kind])


def dump_series_text(series: np.ndarray, kind: str, key: str, out_dir: str | Path) -> Path:
    """Write a ``(pairs, 200)`` series of ``kind`` ("hof" or "hog") as
    `<key>.of.txt` / `<key>.hog.txt`, one line per frame pair, 200
    space-separated values with full round-trip precision."""
    path = series_dump_path(out_dir, key, kind)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [" ".join(repr(float(v)) for v in row) for row in series]
    with committed(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
