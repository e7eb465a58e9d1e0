from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potsim.archive import (
    ArchiveRecord,
    ArchiveShard,
    partners,
    read_archive,
    shard_records,
    write_archive,
    write_shards,
)
from potsim.pooling import SLOTS, PoTFeature


def make_record(key, seed=0, interval_count=7, frame_count=30):
    rng = np.random.default_rng(seed)
    vectors = {}
    for series, pooling in SLOTS:
        dim = (400 if pooling == "gradient" else 200) * interval_count
        vectors[(series, pooling)] = rng.uniform(0, 100, size=dim)
    return ArchiveRecord(key=key, frame_count=frame_count, feature=PoTFeature(vectors))


def records_for(keys):
    return [make_record(k, seed=i) for i, k in enumerate(sorted(keys))]


def task_archives(records, directory):
    """One single-record archive per record, as extract tasks write them."""
    paths = []
    for i, record in enumerate(records):
        path = directory / f"task-{i}.out"
        write_archive([record], path)
        paths.append(path)
    return paths


class TestArchiveRoundtrip:
    def test_empty_archive_is_header_only(self, tmp_path):
        path = tmp_path / "empty.potf"
        write_archive([], path)
        assert path.stat().st_size == 16
        assert read_archive(path) == []

    def test_roundtrip_bit_exact(self, tmp_path):
        records = records_for(["a", "b", "c"])
        path = tmp_path / "r.potf"
        write_archive(records, path)
        back = read_archive(path)
        assert [r.key for r in back] == ["a", "b", "c"]
        assert [r.frame_count for r in back] == [30, 30, 30]
        for orig, rt in zip(records, back):
            for slot in SLOTS:
                orig_bits = orig.feature.vectors[slot].view(np.uint64)
                rt_bits = rt.feature.vectors[slot].view(np.uint64)
                np.testing.assert_array_equal(orig_bits, rt_bits)

    def test_file_size_formula(self, tmp_path):
        record = make_record("v1", interval_count=7)
        path = tmp_path / "one.potf"
        write_archive([record], path)
        expected = 16 + 4 + 2 + 4 + 6 * 4 + 8 * (1400 + 2800 + 1400) * 2
        assert path.stat().st_size == expected

    def test_unsorted_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sorted"):
            write_archive(records_for(["b", "a"])[::-1], tmp_path / "x.potf")

    def test_duplicate_keys_rejected(self, tmp_path):
        records = [make_record("a"), make_record("a")]
        with pytest.raises(ValueError, match="duplicate"):
            write_archive(records, tmp_path / "x.potf")


class TestArchiveErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.potf"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError, match="not a feature archive"):
            read_archive(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.potf"
        write_archive(records_for(["a"]), path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            read_archive(path)

    def test_truncated_final_record_names_index(self, tmp_path):
        path = tmp_path / "t.potf"
        write_archive(records_for(["a", "b"]), path)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(ValueError, match="record 1"):
            read_archive(path)

    def test_key_cut_inside_multibyte_character_is_truncation(self, tmp_path):
        path = tmp_path / "k.potf"
        write_archive([make_record("\u00e9")], path)
        # header, key_len, then only the first byte of the two-byte key
        path.write_bytes(path.read_bytes()[: 16 + 4 + 1])
        with pytest.raises(ValueError, match=r"k\.potf: truncated record 0"):
            read_archive(path)

    def test_non_utf8_key_names_file_and_record(self, tmp_path):
        records = records_for(["a", "b"])
        first = tmp_path / "a.potf"
        write_archive(records[:1], first)
        second_key = first.stat().st_size + 4
        path = tmp_path / "u.potf"
        write_archive(records, path)
        data = path.read_bytes()
        assert data[second_key : second_key + 1] == b"b"
        path.write_bytes(data[:second_key] + b"\xff" + data[second_key + 1 :])
        with pytest.raises(ValueError, match=r"u\.potf: record 1 has a non-UTF-8 key"):
            read_archive(path)

    def test_mixed_dims_rejected(self, tmp_path):
        records = [make_record("a", interval_count=7), make_record("b", interval_count=3)]
        path = tmp_path / "m.potf"
        write_archive(records, path)
        with pytest.raises(ValueError, match="inconsistent"):
            read_archive(path)


class TestSharding:
    def test_balanced_partition(self):
        assert shard_records(range(10), 3) == [range(0, 4), range(4, 7), range(7, 10)]

    def test_single(self):
        assert shard_records(["a"], 1) == [["a"]]

    def test_empty_shards_omitted(self):
        assert shard_records(["a", "b"], 5) == [["a"], ["b"]]

    def test_shard_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            shard_records(["a"], 0)

    def test_shard_records_contiguous(self):
        records = records_for([f"v{i}" for i in range(10)])
        shards = shard_records(records, 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        flattened = [r.key for shard in shards for r in shard]
        assert flattened == [r.key for r in records]

    def test_write_shards_naming(self, tmp_path):
        paths = task_archives(records_for(["a", "b", "c", "d"]), tmp_path)
        shards = write_shards(paths, tmp_path / "out", 2)
        assert [s.path.name for s in shards] == [
            "features-00000.potf",
            "features-00001.potf",
        ]
        assert [s.record_count for s in shards] == [2, 2]

    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4])
    def test_streamed_shards_match_write_archive(self, tmp_path, shard_count):
        records = records_for([f"v{i}" for i in range(7)])
        paths = task_archives(records, tmp_path)
        shards = write_shards(paths, tmp_path / "out", shard_count)
        chunks = shard_records(records, shard_count)
        assert len(shards) == len(chunks)
        for index, (shard, chunk) in enumerate(zip(shards, chunks)):
            reference = tmp_path / f"ref-{index}.potf"
            write_archive(chunk, reference)
            assert shard.path.read_bytes() == reference.read_bytes()

    def test_write_shards_rejects_multi_record_source(self, tmp_path):
        path = tmp_path / "two.potf"
        write_archive(records_for(["a", "b"]), path)
        with pytest.raises(ValueError, match="expected 1 record, found 2"):
            write_shards([path], tmp_path / "out", 1)

    def test_write_shards_rejects_bad_source_header(self, tmp_path):
        (path,) = task_archives(records_for(["a"]), tmp_path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="not a feature archive"):
            write_shards([path], tmp_path / "out", 1)


def task_pairs(shard_a, shard_b, same_shard):
    """The pairs of one shard-pair task: each key of ``shard_a`` with its
    ``partners`` in ``shard_b``, in that order, as a mean task writes them."""
    return [(a, b) for k, a in enumerate(shard_a) for b in partners(shard_b, k, same_shard)]


class TestCartesianPairs:
    def test_within_shard(self):
        keys = ["v1", "v2", "v3"]
        assert task_pairs(keys, keys, True) == [("v1", "v2"), ("v1", "v3"), ("v2", "v3")]

    def test_cross_shard(self):
        assert task_pairs(["v1", "v2"], ["v3"], False) == [("v1", "v3"), ("v2", "v3")]

    def test_single_record_with_itself(self):
        assert task_pairs(["only"], ["only"], True) == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=5),
    )
    def test_shard_tasks_cover_every_pair_exactly_once(self, n, shard_count):
        keys = [f"v{i:03d}" for i in range(n)]
        shards = shard_records(keys, shard_count)
        # for each shard i, key by key, its partners in shards i, i + 1, ...:
        # the global key-pair order in which the engine reads the mean rows
        emitted = [
            (key_a, key_b)
            for i, shard_a in enumerate(shards)
            for k, key_a in enumerate(shard_a)
            for j in range(i, len(shards))
            for key_b in partners(shards[j], k, i == j)
        ]
        assert emitted == list(combinations(keys, 2))
