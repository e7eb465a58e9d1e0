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
from typing import Sequence

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


def ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum ``a`` over its first axis strictly in index order, as a ``+=`` loop
    would, unlike np.sum's pairwise scheme: that order is part of the
    determinism contract. Zeros when ``a`` is empty.

    numpy adds row by row along an axis that is not the fast one, so a 2-D
    array whose last axis is contiguous and at least 2 wide goes through
    ``np.add.reduce``; a narrower one would be summed pairwise along its
    first axis, so it and every other shape go through ``cumsum``.
    """
    if len(a) == 0:
        return np.zeros(a.shape[1:])
    if a.ndim == 2 and a.shape[1] >= 2 and a.strides[1] == a.itemsize:
        return np.add.reduce(a, axis=0)
    return np.cumsum(a, axis=0)[-1]


def chi_square(fa: np.ndarray, fb: np.ndarray) -> float:
    """Half the sum of (fa-fb)^2 / (fa+fb), zero-denominator terms excluded."""
    fa = np.asarray(fa, dtype=np.float64)
    fb = np.asarray(fb, dtype=np.float64)
    if fa.shape != fb.shape:
        raise ValueError(f"dimension mismatch: {fa.shape} vs {fb.shape}")
    return 0.5 * float(ordered_sum(_chi_square_terms(fa, fb)))


@dataclass(frozen=True)
class PartnerBlock:
    """Partners' features stacked for ``csd_block``: ``values`` is a
    C-contiguous (features x partners) float64 array, one column per
    partner, and ``zero_terms`` holds the chi-square terms of every column
    against an all-zero feature."""

    values: np.ndarray
    zero_terms: np.ndarray
    bounds: tuple[int, ...]

    @classmethod
    def stack(cls, features: Sequence[PoTFeature]) -> PartnerBlock:
        """Stack one or more features of equal slot bounds."""
        values = np.stack([feature.values for feature in features], axis=1)
        return cls(values, _chi_square_terms(0.0, values), features[0].bounds)


def csd_block(a: PoTFeature, block: PartnerBlock, start: int = 0) -> np.ndarray:
    """Chi-square distance per slot of ``a`` against each partner of
    ``block`` from column ``start`` on, in one pass: a (partners, 6) array
    whose row p holds ``chi_square`` of each slot's vectors bit for bit.

    Where ``a`` is +-0.0, ``diff = -b`` and ``denom = b`` exactly, so a term
    equals the zero term whatever b is (NaN, inf and negative b included):
    only the rows where ``a`` is not zero are computed. Each slot is then
    summed over its rows by ``ordered_sum``, in the order ``chi_square``
    sums.
    """
    if a.bounds != block.bounds:
        raise ValueError(f"dimension mismatch: slot bounds {a.bounds} vs {block.bounds}")
    terms = block.zero_terms[:, start:].copy()
    live = np.flatnonzero(a.values)
    terms[live] = _chi_square_terms(a.values[live, None], block.values[live, start:])
    sums = np.empty((terms.shape[1], len(SLOTS)))
    for s, (lo, hi) in enumerate(zip(block.bounds, block.bounds[1:])):
        sums[:, s] = ordered_sum(terms[lo:hi])
    return 0.5 * sums


def csd_sixtuple(a: PoTFeature, b: PoTFeature) -> dict[Slot, float]:
    """Chi-square distance per (series, pooling) slot: ``csd_block`` with
    one partner."""
    return dict(zip(SLOTS, csd_block(a, PartnerBlock.stack([b]))[0].tolist()))


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
