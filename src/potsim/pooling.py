"""
Temporal pooling of histogram series.

A temporal pyramid partitions the series index range at each level into
contiguous, near-equal intervals (default levels 1, 2, 4 giving K = 7
intervals). Three pooling operators run per interval:

* sum: per-dimension sum (200 dims per interval)
* gradient: per-dimension positive then negative temporal variation
  (400 dims per interval)
* max: per-dimension maximum (200 dims per interval)

Concatenating per-interval vectors over the K intervals, for both the HoF
and HoG series, yields the six pooled vectors that represent a video; a
video's feature is those six, one after another in SLOTS order, in one
float64 vector (``slot_bounds`` gives where each starts).
"""

from __future__ import annotations

import numpy as np

from .layout import SLOTS
from .params import DEFAULT_LEVELS


def slot_bounds(size: int) -> tuple[int, ...]:
    """Where each slot of a feature of ``size`` values starts, in SLOTS
    order, then ``size``: the one place the slot layout is computed.

    Per series the pyramid gives the sum and max slots n values each and
    the gradient slot 2n, so a feature of ``size`` values has slot dims
    ``(n, 2n, n, n, 2n, n)`` with ``n = size / 8``.
    """
    n, rem = divmod(size, 8)
    if rem:
        raise ValueError(f"a feature's length must be a multiple of 8, got {size}")
    return tuple(n * offset for offset in (0, 1, 3, 4, 5, 7, 8))


def build_intervals(
    series_len: int, levels: list[int] | tuple[int, ...] = DEFAULT_LEVELS
) -> list[tuple[int, int]]:
    """Half-open [start, end) intervals of the temporal pyramid.

    Each level L partitions [0, series_len) into L contiguous intervals with
    lengths differing by at most one, longer intervals first; the per-level
    lists are concatenated in level order.
    """
    if series_len < 1:
        raise ValueError(f"series length must be >= 1, got {series_len}")
    if not levels:
        raise ValueError("levels must be non-empty")
    if any(l < 1 for l in levels):
        raise ValueError(f"levels must all be >= 1, got {list(levels)}")
    if series_len < max(levels):
        raise ValueError(
            f"video too short for temporal pyramid: series length {series_len} "
            f"< finest level {max(levels)}"
        )
    intervals: list[tuple[int, int]] = []
    for level in levels:
        base, rem = divmod(series_len, level)
        start = 0
        for i in range(level):
            length = base + (1 if i < rem else 0)
            intervals.append((start, start + length))
            start += length
    return intervals


def _window(series: np.ndarray, iv: tuple[int, int]) -> np.ndarray:
    start, end = iv
    if not 0 <= start < end <= len(series):
        raise ValueError(f"interval {iv} out of bounds for series of length {len(series)}")
    return series[start:end]


def sum_pool(series: np.ndarray, iv: tuple[int, int]) -> np.ndarray:
    return _window(series, iv).sum(axis=0)


def max_pool(series: np.ndarray, iv: tuple[int, int]) -> np.ndarray:
    return _window(series, iv).max(axis=0)


def gradient_pool(series: np.ndarray, iv: tuple[int, int]) -> np.ndarray:
    """Positive then negative temporal variation over the interval.

    For each dimension, sums of max(0, x[t+1]-x[t]) and max(0, x[t]-x[t+1])
    over consecutive pairs inside [start, end); a single-entry interval
    yields all zeros.
    """
    window = _window(series, iv)
    if window.shape[0] < 2:
        return np.zeros(2 * window.shape[1])
    steps = np.diff(window, axis=0)
    positive = np.maximum(steps, 0.0).sum(axis=0)
    negative = np.maximum(-steps, 0.0).sum(axis=0)
    return np.concatenate([positive, negative])


_POOL_FNS = {"sum": sum_pool, "gradient": gradient_pool, "max": max_pool}


def pot_vector(
    hof: np.ndarray,
    hog: np.ndarray,
    levels: list[int] | tuple[int, ...] = DEFAULT_LEVELS,
) -> np.ndarray:
    """Pool both ``(pairs, 200)`` series over the temporal pyramid into the
    feature: one float64 vector holding the six slots in SLOTS order."""
    if len(hof) != len(hog):
        raise ValueError(f"series lengths differ: {len(hof)} vs {len(hog)}")
    if hof.shape[1:] != hog.shape[1:]:  # slot_bounds needs one width for both
        raise ValueError(f"series widths differ: {hof.shape[1:]} vs {hog.shape[1:]}")
    intervals = build_intervals(len(hof), levels)
    by_kind = {"hof": hof, "hog": hog}
    parts = [_POOL_FNS[op](by_kind[kind], iv) for kind, op in SLOTS for iv in intervals]
    return np.concatenate(parts, dtype=np.float64)
