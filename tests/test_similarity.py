import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import slots_of
from potsim import similarity
from potsim.pooling import SLOTS
from potsim.similarity import (
    MeanCsd,
    chi_square,
    csd_sixtuple,
    csd_stack,
    kernel_distance,
    mean_csd,
    ordered_sum,
    read_mean_csd_csv,
    similarity_score,
    write_mean_csd_csv,
)


def feature_from(values):
    """A feature of 8 copies of ``values``: one in each sum and max slot,
    two in each gradient slot."""
    return np.tile(np.asarray(values, dtype=float), 8)


class TestChiSquare:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert chi_square(v, v) == 0.0

    def test_disjoint_support(self):
        assert chi_square(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_zero_denominator_convention(self):
        assert chi_square(np.zeros(4), np.zeros(4)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            chi_square(np.zeros(3), np.zeros(4))

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, 8, elements=st.floats(0, 1e6)),
        arrays(np.float64, 8, elements=st.floats(0, 1e6)),
    )
    def test_symmetric_nonnegative(self, fa, fb):
        d = chi_square(fa, fb)
        assert d >= 0.0
        assert d == chi_square(fb, fa)

    def test_degree_one_homogeneity(self):
        rng = np.random.default_rng(0)
        fa = rng.uniform(0, 50, size=32)
        fb = rng.uniform(0, 50, size=32)
        c = 3.7
        assert chi_square(c * fa, c * fb) == pytest.approx(
            c * chi_square(fa, fb), rel=1e-12
        )


class TestCsdSixtuple:
    def test_identical_features(self):
        f = feature_from([1.0, 2.0])
        assert all(v == 0.0 for v in csd_sixtuple(f, f))

    def test_single_slot_difference(self):
        a = feature_from([1.0, 0.0])
        b = feature_from([1.0, 0.0])
        slots_of(b)[SLOTS.index(("hof", "sum"))][:] = [0.0, 1.0]
        csd = csd_sixtuple(a, b)
        assert csd[SLOTS.index(("hof", "sum"))] == 1.0
        assert all(v == 0.0 for slot, v in zip(SLOTS, csd) if slot != ("hof", "sum"))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 10, 8 * 16)
        b = rng.uniform(0, 10, 8 * 16)
        assert csd_sixtuple(a, b).tolist() == csd_sixtuple(b, a).tolist()

    def test_bit_identical_to_per_slot_chi_square(self):
        # full-mantissa values, shared zeros (zero denominators) and a NaN
        rng = np.random.default_rng(7)

        def feature():
            values = rng.uniform(0, 1e3, 8 * 14) ** 1.5
            for vec in slots_of(values):
                vec[: vec.shape[0] // 4] = 0.0
                vec[rng.random(vec.shape[0]) < 0.2] = 0.0
            return values

        a, b = feature(), feature()
        a[-1] = np.nan  # the last value of hog/max
        csd = csd_sixtuple(a, b)
        assert csd.shape == (len(SLOTS),)
        for s, (slot_a, slot_b) in enumerate(zip(slots_of(a), slots_of(b))):
            expected = chi_square(slot_a, slot_b)
            assert np.float64(csd[s]).tobytes() == np.float64(expected).tobytes(), SLOTS[s]

    def test_dimension_mismatch(self):
        a = feature_from([1.0, 2.0])
        b = feature_from([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="mismatch"):
            csd_sixtuple(a, b)


class TestOrderedSum:
    @pytest.mark.parametrize("width", [1, 2, 3, 64])
    def test_equals_loop_bit_for_bit(self, width):
        """Full-mantissa values over 16 decades, so that a pairwise (or any
        other) order rounds differently from a += loop: also for width 1,
        which add.reduce would sum pairwise."""
        rng = np.random.default_rng(width)
        wider = rng.random((600, width + 7)) * 10.0 ** rng.integers(-8, 8, (600, width + 7))
        arrays_of_width = {
            "contiguous": np.ascontiguousarray(wider[:, :width]),
            "row slice": np.ascontiguousarray(wider[:, :width])[37:541],
            "columns of a wider block": wider[37:541, 3 : 3 + width],
        }
        for name, a in arrays_of_width.items():
            expected = np.zeros(width)
            for row in a:
                expected += row
            assert ordered_sum(a).tobytes() == expected.tobytes(), name


class TestCsdBlock:
    """One key against a stack of partners: ``csd_stack`` with one key."""

    SIZE = 8 * 14  # slots of 14, 28, 14, 14, 28 and 14 values

    @staticmethod
    def features(rng, count, size):
        """Full-mantissa values with zeros shared by all features."""
        shared_zeros = rng.random(size) < 0.3
        out = []
        for _ in range(count):
            values = rng.uniform(0, 1e3, size) ** 1.5
            values[shared_zeros | (rng.random(size) < 0.3)] = 0.0
            out.append(values)
        return out

    @staticmethod
    def reference(a, partners):
        """chi_square per slot, the independent oracle: csd_sixtuple is a
        one-partner, one-key csd_stack."""
        rows = [[chi_square(*pair) for pair in zip(slots_of(a), slots_of(b))] for b in partners]
        return np.array(rows, dtype=np.float64).reshape(-1, len(SLOTS))

    @pytest.mark.parametrize("count", [0, 1, 2, 64])
    def test_equals_csd_sixtuple_bit_for_bit(self, count):
        rng = np.random.default_rng(count)
        a, *partners = self.features(rng, 65, self.SIZE)
        a[:4] = [0.0, -0.0, np.nan, -3.0]
        partners[0][3:6] = [np.inf, -2.5, -0.0]
        partners[-1][:3] = [-0.0, np.nan, np.inf]
        for p in partners[1::5]:
            p[1:3] = [-1.0, np.nan]
        # the last ``count`` partners of a 64-wide block, as on a diagonal task
        block = np.stack(partners, axis=1)
        got = csd_stack(a[:, None], block[:, 64 - count :])
        expected = self.reference(a, partners[64 - count :])
        assert got.shape == (1, count, len(SLOTS))
        assert got[0].tobytes() == expected.tobytes()
        if count:
            # the whole block, sliced after the call
            assert csd_stack(a[:, None], block)[0, 64 - count :].tobytes() == expected.tobytes()
            assert csd_sixtuple(a, partners[-1]).tobytes() == expected[-1].tobytes()

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        (a,) = self.features(rng, 1, self.SIZE)
        block = np.stack(self.features(rng, 2, self.SIZE + 8), axis=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            csd_stack(a[:, None], block)


class TestCsdStack:
    @staticmethod
    def reference(keys, partners):
        """chi_square per slot of each key with each partner, pair by pair:
        the independent oracle, a (keys, partners, 6) block."""
        rows = [
            [chi_square(*pair) for pair in zip(slots_of(a), slots_of(b))]
            for a in keys
            for b in partners
        ]
        return np.array(rows, dtype=np.float64).reshape(len(keys), len(partners), len(SLOTS))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_chi_square_bit_for_bit(self, data):
        """1-5 keys x the partners from any column on of 1-5, slots of n,
        2n, n, n, 2n and n values for n from 0 (all slots empty) to 3, drawn
        with +-0.0, NaN, +-inf and negatives, and chunks from one feature
        row up, so that sums are carried across chunks."""
        size = 8 * data.draw(st.integers(0, 3))
        special = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, -1.5])
        values = arrays(np.float64, size, elements=st.one_of(special, st.floats()))

        def features(count):
            return [data.draw(values) for _ in range(count)]

        keys = features(data.draw(st.integers(1, 5)))
        partners = features(data.draw(st.integers(1, 5)))
        first = data.draw(st.integers(0, len(partners)))
        chunk_values = data.draw(st.integers(1, 4 * len(keys) * len(partners)))
        chunking = mock.patch.object(similarity, "_CHUNK_VALUES", chunk_values)
        # inf - inf and overflow warn, in the oracle at least
        with chunking, np.errstate(all="ignore"):
            got = csd_stack(np.stack(keys, axis=1), np.stack(partners, axis=1)[:, first:])
            expected = self.reference(keys, partners[first:])
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_64_keys_by_64_partners(self):
        """A full off-diagonal task and a full diagonal one, over slots many
        chunks long: the whole block, and the upper triangle (key k's
        partners from column k + 1 on) that a diagonal task keeps, scored
        as it scores it, 10 keys per call from the group's second column on,
        so with other chunk ends."""
        rng = np.random.default_rng(64)
        size = 10 * TestCsdBlock.SIZE
        keys = TestCsdBlock.features(rng, 64, size)
        partners = TestCsdBlock.features(rng, 64, size)
        keys[0][:4] = [-0.0, np.nan, np.inf, -3.0]
        partners[5][3:6] = [np.inf, -2.5, np.nan]
        for others in (partners, keys):
            got = csd_stack(np.stack(keys, axis=1), np.stack(others, axis=1))
            # key 0 against itself holds inf - inf, which warns in the oracle
            with np.errstate(invalid="ignore"):
                expected = self.reference(keys, others)
            assert got.shape == (64, 64, len(SLOTS))
            assert got.tobytes() == expected.tobytes()
        block = np.stack(keys, axis=1)
        for g in range(0, 64, 10):
            group = csd_stack(block[:, g : g + 10], block[:, g + 1 :])
            for k in range(g, min(g + 10, 64)):
                assert group[k - g, k - g :].tobytes() == expected[k, k + 1 :].tobytes()

    def test_dimension_mismatch_of_any_key(self):
        """Keys of another length than the block's, and a length that is no
        slot layout's, are refused."""
        rng = np.random.default_rng(2)
        keys = np.stack(TestCsdBlock.features(rng, 3, TestCsdBlock.SIZE + 8), axis=1)
        block = np.stack(TestCsdBlock.features(rng, 2, TestCsdBlock.SIZE), axis=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            csd_stack(keys, block)
        odd = TestCsdBlock.features(rng, 2, TestCsdBlock.SIZE + 1)
        with pytest.raises(ValueError, match="multiple of 8"):
            csd_stack(np.stack(odd, axis=1), np.stack(odd, axis=1))


def per_slot(value):
    """A (6,) array holding ``value`` in every slot."""
    return np.full(len(SLOTS), value)


class TestMeanCsd:
    def test_single_pair(self):
        mean = mean_csd(per_slot(4.0), 1)
        assert all(v == 4.0 for v in mean.means)

    def test_three_pairs(self):
        mean = mean_csd(per_slot(1.0 + 2.0 + 3.0), 3)
        assert all(v == 2.0 for v in mean.means)

    def test_identical_corpus(self):
        mean = mean_csd(per_slot(0.0), 3)
        assert all(v == 0.0 for v in mean.means)

    def test_no_pairs(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            mean_csd(per_slot(0.0), 0)


class TestKernelDistance:
    def test_all_zero_csd(self):
        mean = MeanCsd(means=per_slot(1.0), pair_count=1)
        assert kernel_distance(per_slot(0.0), mean) == 0.0

    def test_unit_ratios(self):
        mean = MeanCsd(means=per_slot(0.25), pair_count=1)
        assert kernel_distance(per_slot(0.25), mean) == 6.0

    def test_single_slot_ratio(self):
        means = per_slot(0.0)
        means[SLOTS.index(("hog", "max"))] = 0.5
        csd = per_slot(0.0)
        csd[SLOTS.index(("hog", "max"))] = 2.0
        assert kernel_distance(csd, MeanCsd(means=means, pair_count=1)) == 4.0

    def test_block_equals_scalar_loop_bit_for_bit(self):
        """Full-mantissa rows over many decades, and one zero-mean slot: each
        row's distance is the scalar loop's, in its order of additions."""
        rng = np.random.default_rng(11)
        block = rng.random((300, len(SLOTS))) * 10.0 ** rng.integers(-6, 6, (300, len(SLOTS)))
        means = rng.random(len(SLOTS)) * 10.0 ** rng.integers(-3, 3, len(SLOTS))
        means[2] = 0.0
        expected = []
        for row in block.tolist():
            total = 0.0
            for value, m in zip(row, means.tolist()):
                if m > 0.0:
                    total += value / m
            expected.append(total)
        got = kernel_distance(block, MeanCsd(means=means, pair_count=1))
        assert got.shape == (300,)
        assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("width", [5, 7])
    def test_rejects_block_not_six_wide(self, width):
        with pytest.raises(ValueError, match=rf"must be \(\.\.\., 6\), got \(4, {width}\)"):
            kernel_distance(np.ones((4, width)), MeanCsd(means=per_slot(1.0), pair_count=1))


class TestSimilarityScore:
    def test_zero_distance(self):
        assert similarity_score(0.0) == 1.0

    def test_kd_ten(self):
        assert similarity_score(10.0) == pytest.approx(
            0.36787944117144233, abs=1e-15
        )

    def test_kd_sixty(self):
        assert similarity_score(60.0) == pytest.approx(
            0.0024787521766663585, abs=1e-15
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            similarity_score(-0.1)

    def test_strictly_decreasing_into_unit_interval(self):
        kds = np.linspace(0, 100, 64)
        scores = [similarity_score(k) for k in kds]
        assert all(0 < s <= 1 for s in scores)
        assert all(a > b for a, b in zip(scores, scores[1:]))


class TestMeanCsdCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        mean = MeanCsd(
            means=np.array([float(rng.uniform(0, 1e6)) for slot in SLOTS]), pair_count=45
        )
        path = tmp_path / "mean_csd.csv"
        write_mean_csd_csv(mean, path)
        back = read_mean_csd_csv(path)
        assert back.pair_count == 45
        assert back.means.tolist() == mean.means.tolist()

    def test_row_layout(self, tmp_path):
        mean = MeanCsd(means=per_slot(1.5), pair_count=3)
        path = tmp_path / "mean_csd.csv"
        write_mean_csd_csv(mean, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "series,pooling,mean_csd,pair_count"
        assert len(lines) == 7
        assert lines[1].startswith("hof,sum,")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            read_mean_csd_csv(path)


def test_scaling_leaves_scores_unchanged():
    # degree-1 homogeneity cancels through the mean normalization
    rng = np.random.default_rng(3)
    features = [rng.uniform(0, 20, 8 * 24) for _ in range(4)]

    def corpus_scores(feats):
        sums = per_slot(0.0)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        csds = {}
        for i, j in pairs:
            csds[(i, j)] = csd_sixtuple(feats[i], feats[j])
            for s in range(len(SLOTS)):
                sums[s] += csds[(i, j)][s]
        mean = mean_csd(sums, len(pairs))
        return {
            p: similarity_score(kernel_distance(csds[p], mean)) for p in pairs
        }

    base = corpus_scores(features)
    scaled = corpus_scores([7.3 * f for f in features])
    for pair in base:
        assert scaled[pair] == pytest.approx(base[pair], abs=1e-9)
