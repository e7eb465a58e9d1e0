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
    ``np.add.reduce``; a narrower one, (rows, 1), would be summed pairwise
    along its first axis, so it and every other shape go through ``cumsum``.
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
    """Partners' features stacked for ``csd_stack``: ``values`` is a
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


# values in the chunk buffer of csd_stack, (1 + rows, keys, partners)
# float64: 1 MiB, so that a chunk is summed while it is still in cache
_CHUNK_VALUES = 1 << 17


def csd_stack(
    keys: Sequence[PoTFeature], block: PartnerBlock, starts: Sequence[int]
) -> np.ndarray:
    """``csd_block`` for a stack of keys in one pass: the chi-square
    distance per slot of each key k against each partner of ``block`` from
    column ``starts[k]`` on, as a (pairs, 6) array holding key 0's rows
    first, then key 1's, and so on.

    Each slot's feature rows are walked in chunks through one reused
    buffer, whose row 0 carries the sum so far, from 0.0 on. The partners'
    zero terms are written into it for every key, and only the (row, key)
    entries where the key is not zero are computed anew, on a gathered copy
    of the partner rows: where a key is +-0.0, ``a - b = -b`` and ``a + b = b``
    exactly, so its term equals the zero term whatever b is (NaN, inf and
    negative b included). ``ordered_sum`` then adds the chunk onto row 0
    row by row, so every (key, partner) column is summed strictly from the
    slot's first row on, as ``chi_square`` sums it. Columns from the
    smallest start on are computed for every key; those before a key's own
    start are dropped.
    """
    for a in keys:
        if a.bounds != block.bounds:
            raise ValueError(f"dimension mismatch: slot bounds {a.bounds} vs {block.bounds}")
    first = min(starts)
    values = block.values[:, first:]
    zero_terms = block.zero_terms[:, first:]
    stacked = np.stack([a.values for a in keys], axis=1)  # (features, keys)
    columns = len(keys) * values.shape[1]
    if columns == 0:
        return np.zeros((0, len(SLOTS)))
    slots = list(zip(block.bounds, block.bounds[1:]))
    chunk = max(1, min(_CHUNK_VALUES // columns - 1, max(hi - lo for lo, hi in slots)))
    flat = np.empty((1 + chunk, columns))
    buffer = flat.reshape(1 + chunk, len(keys), values.shape[1])
    sums = np.empty((len(keys), values.shape[1], len(SLOTS)))
    for s, (lo, hi) in enumerate(slots):
        # no term is -0.0, so 0.0 + term is the term bit for bit
        flat[0] = 0.0
        for row in range(lo, hi, chunk):
            end = min(hi, row + chunk)
            terms = buffer[1 : 1 + end - row]
            terms[...] = zero_terms[row:end, None, :]
            live_rows, live_keys = np.nonzero(stacked[row:end])
            a = stacked[row + live_rows, live_keys][:, None]
            b = values[row + live_rows]  # a copy: the terms are made in it
            with np.errstate(divide="ignore", invalid="ignore"):
                denom = b + a
                b -= a  # (b - a)^2 is (a - b)^2 exactly
                b *= b
                b /= denom
            b[~(denom > 0.0)] = 0.0
            terms[live_rows, live_keys] = b
            flat[0] = ordered_sum(flat[: 1 + end - row])
        sums[:, :, s] = buffer[0]
    rows = [sums[k, start - first :] for k, start in enumerate(starts)]
    return 0.5 * np.concatenate(rows)


def csd_block(a: PoTFeature, block: PartnerBlock, start: int = 0) -> np.ndarray:
    """Chi-square distance per slot of ``a`` against each partner of
    ``block`` from column ``start`` on: a (partners, 6) array whose row p
    holds ``chi_square`` of each slot's vectors bit for bit. A one-key
    ``csd_stack``."""
    return csd_stack([a], block, [start])


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
