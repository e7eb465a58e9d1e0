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
and HoG series, yields the six pooled vectors that represent a video.
"""

from __future__ import annotations

from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .descriptors import HistogramSeries

SERIES_KINDS = ("hof", "hog")
POOL_OPS = ("sum", "gradient", "max")
# Fixed slot order used everywhere downstream (archives, CSVs).
SLOTS = tuple((s, p) for s in SERIES_KINDS for p in POOL_OPS)

DEFAULT_LEVELS = (1, 2, 4)

Slot = tuple[str, str]


class PoTFeature:
    """The six pooled vectors of one video, keyed by (series, pooling).

    ``values`` is one contiguous float64 array holding the six vectors in
    SLOTS order, and ``vectors[slot]`` is a view of its slice
    ``values[bounds[k]:bounds[k + 1]]``. The mapping is read-only, so a slot
    cannot be rebound away from ``values``; writing into a view writes to
    ``values``. Built from a mapping, the vectors are copied into one array.
    """

    def __init__(self, vectors: Mapping[Slot, np.ndarray]):
        parts = [np.asarray(vectors[slot], dtype=np.float64) for slot in SLOTS]
        self._bind(np.concatenate(parts), [part.shape[0] for part in parts])

    @classmethod
    def from_values(cls, values: np.ndarray, dims: Sequence[int]) -> PoTFeature:
        """Wrap ``values``, the six vectors of ``dims`` in SLOTS order,
        without copying it."""
        feature = cls.__new__(cls)
        feature._bind(values, dims)
        return feature

    def _bind(self, values: np.ndarray, dims: Sequence[int]) -> None:
        if values.dtype != np.float64 or values.shape != (sum(dims),):
            raise ValueError(
                f"expected {sum(dims)} float64 values, got {values.dtype} {values.shape}"
            )
        self.values = values
        self.bounds = tuple(accumulate(dims, initial=0))
        self.vectors = MappingProxyType(
            {slot: values[lo:hi] for slot, lo, hi in zip(SLOTS, self.bounds, self.bounds[1:])}
        )


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


def _check_interval(series: HistogramSeries, iv: tuple[int, int]) -> None:
    start, end = iv
    if not 0 <= start < end <= len(series):
        raise ValueError(f"interval {iv} out of bounds for series of length {len(series)}")


def sum_pool(series: HistogramSeries, iv: tuple[int, int]) -> np.ndarray:
    _check_interval(series, iv)
    return series.histograms[iv[0] : iv[1]].sum(axis=0)


def max_pool(series: HistogramSeries, iv: tuple[int, int]) -> np.ndarray:
    _check_interval(series, iv)
    return series.histograms[iv[0] : iv[1]].max(axis=0)


def gradient_pool(series: HistogramSeries, iv: tuple[int, int]) -> np.ndarray:
    """Positive then negative temporal variation over the interval.

    For each dimension, sums of max(0, x[t+1]-x[t]) and max(0, x[t]-x[t+1])
    over consecutive pairs inside [start, end); a single-entry interval
    yields all zeros.
    """
    _check_interval(series, iv)
    window = series.histograms[iv[0] : iv[1]]
    if window.shape[0] < 2:
        return np.zeros(2 * window.shape[1])
    steps = np.diff(window, axis=0)
    positive = np.maximum(steps, 0.0).sum(axis=0)
    negative = np.maximum(-steps, 0.0).sum(axis=0)
    return np.concatenate([positive, negative])


_POOL_FNS = {"sum": sum_pool, "gradient": gradient_pool, "max": max_pool}


def pot_vector(
    hof: HistogramSeries,
    hog: HistogramSeries,
    levels: list[int] | tuple[int, ...] = DEFAULT_LEVELS,
) -> PoTFeature:
    """Pool both series over the temporal pyramid into the six-slot feature."""
    if len(hof) != len(hog):
        raise ValueError(f"series lengths differ: {len(hof)} vs {len(hog)}")
    intervals = build_intervals(len(hof), levels)
    by_kind = {"hof": hof, "hog": hog}
    pooled = [[_POOL_FNS[op](by_kind[kind], iv) for iv in intervals] for kind, op in SLOTS]
    dims = [sum(part.shape[0] for part in parts) for parts in pooled]
    values = np.concatenate([part for parts in pooled for part in parts], dtype=np.float64)
    return PoTFeature.from_values(values, dims)
