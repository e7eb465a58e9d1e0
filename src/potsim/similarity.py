"""
Chi-square distances, corpus means, kernel distance, and similarity score.

For a pair of videos, a chi-square distance is computed in each of the six
(series, pooling) slots. Slot distances are normalized by the corpus-wide
mean distance of that slot, summed into a kernel distance, and mapped to a
similarity in (0, 1] by exp(-kd / 10) (``stage.similarity_score``). The sim
stage scores its pairs without numpy (``stage.write_similarity``);
``kernel_distance`` is the block form of the same sum and the reference the
tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import SLOTS
from .pooling import slot_bounds


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


# values in the chunk buffer of csd_stack, (1 + rows, keys, partners)
# float64: 1 MiB, so that a chunk is summed while it is still in cache
_CHUNK_VALUES = 1 << 17


def csd_stack(keys: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """The chi-square distance per slot of each key k, column k of the
    (features x keys) array ``keys``, against each partner p, column p of
    the (features x partners) float64 array ``partners``, in one pass: a
    (keys, partners, 6) block whose [k, p] holds ``chi_square`` of each
    slot's vectors bit for bit, the slots being ``slot_bounds`` of the
    feature length. A caller that wants only some partners of a key slices
    the block.

    Each slot's feature rows are walked in chunks through one reused
    buffer, whose row 0 carries the sum so far, from 0.0 on. The chunk's
    partner terms against an all-zero feature (its zero terms) are written
    into it for every key, and only the (row, key) entries where the key is
    not zero are computed anew, on a gathered copy of the partner rows:
    where a key is +-0.0, ``a - b = -b`` and ``a + b = b`` exactly, so its
    term equals the zero term whatever b is (NaN, inf and negative b
    included). ``ordered_sum`` then adds the chunk onto row 0
    row by row, so every (key, partner) column is summed strictly from the
    slot's first row on, as ``chi_square`` sums it; the chunk size only
    moves where a chunk ends.
    """
    size, key_count = keys.shape
    if size != len(partners):
        raise ValueError(f"dimension mismatch: {size} feature rows vs {len(partners)}")
    bounds = slot_bounds(size)
    sums = np.zeros((key_count, partners.shape[1], len(SLOTS)))
    columns = key_count * partners.shape[1]
    if columns == 0:
        return sums
    slots = list(zip(bounds, bounds[1:]))
    chunk = max(1, min(_CHUNK_VALUES // columns - 1, max(hi - lo for lo, hi in slots)))
    flat = np.empty((1 + chunk, columns))
    buffer = flat.reshape(1 + chunk, key_count, partners.shape[1])
    for s, (lo, hi) in enumerate(slots):
        # no term is -0.0, so 0.0 + term is the term bit for bit
        flat[0] = 0.0
        for row in range(lo, hi, chunk):
            end = min(hi, row + chunk)
            terms = buffer[1 : 1 + end - row]
            terms[...] = _chi_square_terms(0.0, partners[row:end])[:, None, :]
            live_rows, live_keys = np.nonzero(keys[row:end])
            a = keys[row + live_rows, live_keys][:, None]
            b = partners[row + live_rows]  # a copy: the terms are made in it
            with np.errstate(divide="ignore", invalid="ignore"):
                denom = b + a
                b -= a  # (b - a)^2 is (a - b)^2 exactly
                b *= b
                b /= denom
            b[~(denom > 0.0)] = 0.0
            terms[live_rows, live_keys] = b
            flat[0] = ordered_sum(flat[: 1 + end - row])
        sums[:, :, s] = buffer[0]
    return 0.5 * sums


def csd_sixtuple(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chi-square distance per (series, pooling) slot of two features, a
    (6,) array in SLOTS order: ``csd_stack`` with one key and one partner."""
    return csd_stack(a[:, None], b[:, None])[0, 0]


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
