"""
Chi-square distances, corpus means, kernel distance, and similarity score.

For a pair of videos, a chi-square distance is computed in each of the six
(series, pooling) slots. Slot distances are normalized by the corpus-wide
mean distance of that slot, summed into a kernel distance, and mapped to a
similarity in (0, 1] by exp(-kd / 10).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .pooling import SLOTS, PoTFeature, Slot

SCORE_DECAY = 10.0  # kernel-distance scale in exp(-kd / SCORE_DECAY)


@dataclass
class MeanCsd:
    """Per-slot corpus mean chi-square distance over unordered pairs."""

    means: dict[Slot, float]
    pair_count: int


def _chi_square_terms(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """(fa-fb)^2 / (fa+fb) per element, 0.0 where the denominator is not
    positive."""
    denom = fa + fb
    diff = fa - fb
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, diff * diff / denom, 0.0)


def _half_sum(terms: np.ndarray) -> float:
    if terms.size == 0:
        return 0.0
    # cumsum accumulates strictly left to right, unlike np.sum's pairwise
    # scheme; ascending-index order is part of the determinism contract
    return 0.5 * float(np.cumsum(terms)[-1])


def chi_square(fa: np.ndarray, fb: np.ndarray) -> float:
    """Half the sum of (fa-fb)^2 / (fa+fb), zero-denominator terms excluded."""
    fa = np.asarray(fa, dtype=np.float64)
    fb = np.asarray(fb, dtype=np.float64)
    if fa.shape != fb.shape:
        raise ValueError(f"dimension mismatch: {fa.shape} vs {fb.shape}")
    return _half_sum(_chi_square_terms(fa, fb))


def csd_sixtuple(a: PoTFeature, b: PoTFeature) -> dict[Slot, float]:
    """Chi-square distance per (series, pooling) slot.

    The terms are computed in one pass over each feature's whole array,
    then summed slot by slot, so each distance equals ``chi_square`` on
    that slot's vectors bit for bit.
    """
    if a.bounds != b.bounds:
        raise ValueError(f"dimension mismatch: slot bounds {a.bounds} vs {b.bounds}")
    terms = _chi_square_terms(a.values, b.values)
    return {slot: _half_sum(terms[lo:hi]) for slot, lo, hi in zip(SLOTS, a.bounds, a.bounds[1:])}


def mean_csd(partial_sums: dict[Slot, float], pair_count: int) -> MeanCsd:
    """Slotwise mean over unordered pairs (i < j)."""
    if pair_count < 1:
        raise ValueError("corpus has fewer than 2 videos (no pairs)")
    return MeanCsd(
        means={slot: partial_sums[slot] / pair_count for slot in SLOTS},
        pair_count=pair_count,
    )


def kernel_distance(csd: dict[Slot, float], mean: MeanCsd) -> float:
    """Sum over slots of csd/mean; slots with zero mean contribute 0."""
    total = 0.0
    for slot in SLOTS:
        m = mean.means[slot]
        if m > 0.0:
            total += csd[slot] / m
    return total


def similarity_score(kd: float) -> float:
    """Map a kernel distance in [0, inf) to a similarity in (0, 1]."""
    if kd < 0.0:
        raise ValueError(f"kernel distance must be >= 0, got {kd}")
    return math.exp(-kd / SCORE_DECAY)


def generate_pairs(keys: list[str]) -> list[tuple[str, str]]:
    """All unordered key pairs (a < b) in lexicographic order."""
    if len(set(keys)) != len(keys):
        seen: set[str] = set()
        dup = next(k for k in keys if k in seen or seen.add(k))  # type: ignore[func-returns-value]
        raise ValueError(f"duplicate key: '{dup}'")
    return list(combinations(sorted(keys), 2))


MEAN_CSD_HEADER = ["series", "pooling", "mean_csd", "pair_count"]


def write_mean_csd_csv(mean: MeanCsd, path: str | Path) -> None:
    """Persist the six per-slot means with round-trip float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEAN_CSD_HEADER)
        for series, pooling in SLOTS:
            writer.writerow(
                [series, pooling, repr(mean.means[(series, pooling)]), mean.pair_count]
            )


def read_mean_csd_csv(path: str | Path) -> MeanCsd:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MEAN_CSD_HEADER:
            raise ValueError(f"bad mean CSD header in {path}: {header}")
        means: dict[Slot, float] = {}
        pair_count = None
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"bad mean CSD row in {path}: {row}")
            series, pooling, value, count = row
            means[(series, pooling)] = float(value)
            pair_count = int(count)
    if set(means) != set(SLOTS) or pair_count is None:
        raise ValueError(f"mean CSD file {path} does not cover all six slots")
    return MeanCsd(means=means, pair_count=pair_count)
