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
from pathlib import Path
from typing import Sequence

import numpy as np

from .pooling import SLOTS, PoTFeature

SCORE_DECAY = 10.0  # kernel-distance scale in exp(-kd / SCORE_DECAY)


@dataclass
class MeanCsd:
    """Per-slot corpus mean chi-square distance over unordered pairs: a
    (6,) float64 array in SLOTS order."""

    means: np.ndarray
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


def csd_sixtuple(a: PoTFeature, b: PoTFeature) -> np.ndarray:
    """Chi-square distance per (series, pooling) slot, a (6,) array in
    SLOTS order: ``csd_block`` with one partner."""
    return csd_block(a, PartnerBlock.stack([b]))[0]


def mean_csd(sums: np.ndarray, pair_count: int) -> MeanCsd:
    """Slotwise mean over unordered pairs (i < j) of the (6,) distance sums."""
    if pair_count < 1:
        raise ValueError("corpus has fewer than 2 videos (no pairs)")
    return MeanCsd(means=sums / pair_count, pair_count=pair_count)


def kernel_distance(csd: np.ndarray, mean: MeanCsd) -> np.ndarray:
    """Sum over slots of csd/mean for each row of a (..., 6) block, added in
    SLOTS order as a scalar += loop adds; slots with zero mean contribute 0."""
    if csd.shape[-1:] != (len(SLOTS),):
        raise ValueError(f"slot distances must be (..., {len(SLOTS)}), got {csd.shape}")
    total = np.zeros(csd.shape[:-1])
    for s, m in enumerate(mean.means.tolist()):
        if m > 0.0:
            total += csd[..., s] / m
    return total


def similarity_score(kd: float) -> float:
    """Map a kernel distance in [0, inf) to a similarity in (0, 1]."""
    if kd < 0.0:
        raise ValueError(f"kernel distance must be >= 0, got {kd}")
    return math.exp(-kd / SCORE_DECAY)


MEAN_CSD_HEADER = ["series", "pooling", "mean_csd", "pair_count"]


def write_mean_csd_csv(mean: MeanCsd, path: str | Path) -> None:
    """Persist the six per-slot means with round-trip float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEAN_CSD_HEADER)
        for (series, pooling), value in zip(SLOTS, mean.means.tolist(), strict=True):
            writer.writerow([series, pooling, repr(value), mean.pair_count])


def read_mean_csd_csv(path: str | Path) -> MeanCsd:
    """Read the file as the mean stage writes it: the header, then one row
    per slot in SLOTS order, each with a finite mean >= 0 and the same pair
    count >= 1. Anything else is a ValueError naming the first bad line."""
    means: list[float] = []
    pair_count = None
    lineno = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                (row,) = csv.reader([line.decode("utf-8")])
                if lineno == 1:
                    if row != MEAN_CSD_HEADER:
                        raise ValueError(f"bad mean CSD header {row}")
                    continue
                if len(means) == len(SLOTS):
                    raise ValueError(f"row {row} after the six slot rows")
                slot = SLOTS[len(means)]
                if len(row) != 4 or tuple(row[:2]) != slot:
                    raise ValueError(f"bad mean CSD row {row} where slot {slot} belongs")
                mean, count = float(row[2]), int(row[3])
                if not (math.isfinite(mean) and mean >= 0.0):
                    raise ValueError(f"mean {row[2]} is not a finite number >= 0")
                if count < 1:
                    raise ValueError(f"pair count {count} is not >= 1")
                if pair_count not in (None, count):
                    raise ValueError(f"pair count {count} differs from {pair_count} above")
                means.append(mean)
                pair_count = count
            except ValueError as exc:  # a UnicodeDecodeError too
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(means) < len(SLOTS):
        missing = f"the row of slot {SLOTS[len(means)]}" if lineno else "the header"
        raise ValueError(f"{path}:{lineno + 1}: missing {missing}")
    return MeanCsd(means=np.array(means), pair_count=pair_count)
