import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from potsim import similarity
from potsim.pooling import SLOTS, PoTFeature
from potsim.similarity import (
    MeanCsd,
    PartnerBlock,
    chi_square,
    csd_block,
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
    vec = np.asarray(values, dtype=float)
    return PoTFeature(vectors={slot: vec.copy() for slot in SLOTS})


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
        b.vectors[("hof", "sum")][:] = [0.0, 1.0]
        csd = csd_sixtuple(a, b)
        assert csd[SLOTS.index(("hof", "sum"))] == 1.0
        assert all(v == 0.0 for slot, v in zip(SLOTS, csd) if slot != ("hof", "sum"))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = PoTFeature({slot: rng.uniform(0, 10, 16) for slot in SLOTS})
        b = PoTFeature({slot: rng.uniform(0, 10, 16) for slot in SLOTS})
        assert csd_sixtuple(a, b).tolist() == csd_sixtuple(b, a).tolist()

    def test_bit_identical_to_per_slot_chi_square(self):
        # full-mantissa values, shared zeros (zero denominators) and a NaN
        rng = np.random.default_rng(7)
        dims = [14, 28, 14, 14, 28, 14]

        def feature():
            vectors = {slot: rng.uniform(0, 1e3, dim) ** 1.5 for slot, dim in zip(SLOTS, dims)}
            for vec in vectors.values():
                vec[: vec.shape[0] // 4] = 0.0
                vec[rng.random(vec.shape[0]) < 0.2] = 0.0
            return PoTFeature(vectors)

        a, b = feature(), feature()
        a.vectors[("hog", "max")][-1] = np.nan
        csd = csd_sixtuple(a, b)
        assert csd.shape == (len(SLOTS),)
        for s, slot in enumerate(SLOTS):
            expected = chi_square(a.vectors[slot], b.vectors[slot])
            assert np.float64(csd[s]).tobytes() == np.float64(expected).tobytes(), slot

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
    DIMS = (14, 28, 14, 14, 28, 14)

    @staticmethod
    def features(rng, count, dims):
        """Full-mantissa values with zeros shared by all features."""
        shared_zeros = rng.random(sum(dims)) < 0.3
        out = []
        for _ in range(count):
            values = rng.uniform(0, 1e3, sum(dims)) ** 1.5
            values[shared_zeros | (rng.random(sum(dims)) < 0.3)] = 0.0
            out.append(PoTFeature.from_values(values, dims))
        return out

    @staticmethod
    def reference(a, partners):
        """chi_square per slot, the independent oracle: csd_sixtuple is a
        one-partner csd_block."""
        rows = [[chi_square(a.vectors[s], b.vectors[s]) for s in SLOTS] for b in partners]
        return np.array(rows, dtype=np.float64).reshape(-1, len(SLOTS))

    @pytest.mark.parametrize("count", [0, 1, 2, 64])
    def test_equals_csd_sixtuple_bit_for_bit(self, count):
        rng = np.random.default_rng(count)
        a, *partners = self.features(rng, 65, self.DIMS)
        a.values[:4] = [0.0, -0.0, np.nan, -3.0]
        partners[0].values[3:6] = [np.inf, -2.5, -0.0]
        partners[-1].values[:3] = [-0.0, np.nan, np.inf]
        for p in partners[1::5]:
            p.values[1:3] = [-1.0, np.nan]
        # the last ``count`` partners of a 64-wide block, as on a diagonal task
        block = PartnerBlock.stack(partners)
        got = csd_block(a, block, start=64 - count)
        expected = self.reference(a, partners[64 - count :])
        assert got.shape == (count, len(SLOTS))
        assert got.tobytes() == expected.tobytes()
        if count:
            # a block of exactly ``count`` partners
            got = csd_block(a, PartnerBlock.stack(partners[64 - count :]))
            assert got.tobytes() == expected.tobytes()
            assert csd_sixtuple(a, partners[-1]).tobytes() == expected[-1].tobytes()

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        (a,) = self.features(rng, 1, self.DIMS)
        block = PartnerBlock.stack(self.features(rng, 2, (28, 14, 14, 14, 28, 14)))
        with pytest.raises(ValueError, match="dimension mismatch: slot bounds"):
            csd_block(a, block)


class TestCsdStack:
    @staticmethod
    def reference(keys, partners, starts):
        """chi_square per slot of each key with its partners from its start
        on, key by key: the independent oracle."""
        rows = [
            [chi_square(a.vectors[s], b.vectors[s]) for s in SLOTS]
            for a, start in zip(keys, starts)
            for b in partners[start:]
        ]
        return np.array(rows, dtype=np.float64).reshape(-1, len(SLOTS))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_chi_square_bit_for_bit(self, data):
        """1-5 keys x 1-5 partners, any start per key, slots of 0-6 values
        drawn with +-0.0, NaN, +-inf and negatives, and chunks from one
        feature row up, so that sums are carried across chunks."""
        dims = data.draw(st.lists(st.integers(0, 6), min_size=len(SLOTS), max_size=len(SLOTS)))
        special = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, -1.5])
        values = arrays(np.float64, sum(dims), elements=st.one_of(special, st.floats()))

        def features(count):
            return [PoTFeature.from_values(data.draw(values), dims) for _ in range(count)]

        keys = features(data.draw(st.integers(1, 5)))
        partners = features(data.draw(st.integers(1, 5)))
        starts = data.draw(
            st.lists(st.integers(0, len(partners)), min_size=len(keys), max_size=len(keys))
        )
        chunk_values = data.draw(st.integers(1, 4 * len(keys) * len(partners)))
        chunking = mock.patch.object(similarity, "_CHUNK_VALUES", chunk_values)
        # inf - inf and overflow warn, in the oracle at least
        with chunking, np.errstate(all="ignore"):
            got = csd_stack(keys, PartnerBlock.stack(partners), starts)
            expected = self.reference(keys, partners, starts)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_64_keys_by_64_partners(self):
        """A full off-diagonal task and a full diagonal one (key k's
        partners start at column k + 1), over slots many chunks long."""
        rng = np.random.default_rng(64)
        dims = [10 * dim for dim in TestCsdBlock.DIMS]
        keys = TestCsdBlock.features(rng, 64, dims)
        partners = TestCsdBlock.features(rng, 64, dims)
        keys[0].values[:4] = [-0.0, np.nan, np.inf, -3.0]
        partners[5].values[3:6] = [np.inf, -2.5, np.nan]
        for starts, others in (([0] * 64, partners), (range(1, 65), keys)):
            got = csd_stack(keys, PartnerBlock.stack(others), list(starts))
            expected = self.reference(keys, others, starts)
            assert got.shape == (sum(64 - start for start in starts), len(SLOTS))
            assert got.tobytes() == expected.tobytes()

    def test_dimension_mismatch_of_any_key(self):
        rng = np.random.default_rng(2)
        keys = TestCsdBlock.features(rng, 2, TestCsdBlock.DIMS)
        keys += TestCsdBlock.features(rng, 1, (28, 14, 14, 14, 28, 14))
        block = PartnerBlock.stack(keys[:2])
        with pytest.raises(ValueError, match="dimension mismatch: slot bounds"):
            csd_stack(keys, block, [0, 0, 0])


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
    features = [
        PoTFeature({slot: rng.uniform(0, 20, 24) for slot in SLOTS}) for _ in range(4)
    ]

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
    scaled = corpus_scores(
        [PoTFeature({s: 7.3 * f.vectors[s] for s in SLOTS}) for f in features]
    )
    for pair in base:
        assert scaled[pair] == pytest.approx(base[pair], abs=1e-9)
