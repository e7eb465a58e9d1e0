import hashlib
import struct
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potsim.archive import (
    ArchiveRecord,
    read_archive,
    shard_records,
    write_archive,
    write_shards,
)
from potsim.engine import _row_counts, plan_pair_stage
from potsim.pooling import pot_vector


def make_record(key, seed=0, interval_count=7, frame_count=30):
    """A record whose feature has the length of ``interval_count`` pyramid
    intervals of 200-bin histograms."""
    rng = np.random.default_rng(seed)
    feature = rng.uniform(0, 100, size=8 * 200 * interval_count)
    return ArchiveRecord(key=key, frame_count=frame_count, feature=feature)


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
            assert rt.feature.dtype == np.float64
            assert rt.feature.tobytes() == orig.feature.tobytes()

    def test_file_size_formula(self, tmp_path):
        record = make_record("v1", interval_count=7)
        path = tmp_path / "one.potf"
        write_archive([record], path)
        expected = 16 + 4 + 2 + 4 + 6 * 4 + 8 * (1400 + 2800 + 1400) * 2
        assert path.stat().st_size == expected

    def test_bytes_of_a_pooled_record_are_pinned(self, tmp_path):
        """One record of seeded series through pot_vector and write_archive
        has the bytes, slot layout included, that it had when a feature was
        still six separate vectors: the digest was taken from that code."""
        rng = np.random.default_rng(2029)
        hof = rng.random((9, 200))
        hog = rng.random((9, 200))
        path = tmp_path / "golden.potf"
        write_archive([ArchiveRecord("video-a", 10, pot_vector(hof, hog))], path)
        data = path.read_bytes()
        assert len(data) == 89655
        assert hashlib.sha256(data).hexdigest() == (
            "e97a65f4b283caf5f69e2e5e3c79ae3e0e69553e8838ad2d7edc8dc156bb9766"
        )

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

    @pytest.mark.parametrize(
        "dim, reason",
        [(16, "slot dims"), (1, "a feature's length must be a multiple of 8")],
    )
    def test_slot_dims_not_of_the_layout_rejected(self, tmp_path, dim, reason):
        """Six slots of 16 values are 96 values, whose layout is 12, 24, 12,
        12, 24 and 12; six of 1 value are no layout's. The error names the
        file and the record."""
        path = tmp_path / "even.potf"
        write_archive([], path)
        record = struct.pack("<I", 1) + b"a" + struct.pack("<I", 6)
        record += (struct.pack("<I", dim) + np.arange(dim, dtype="<f8").tobytes()) * 6
        data = bytearray(path.read_bytes() + record)
        data[8:16] = struct.pack("<Q", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"even\.potf: record 0 \('a'\): {reason}"):
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
        shards = write_shards(shard_records(paths, 2), tmp_path / "out")
        assert [s.path.name for s in shards] == [
            "features-00000.potf",
            "features-00001.potf",
        ]
        assert [len(read_archive(s.path)) for s in shards] == [2, 2]

    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4])
    def test_streamed_shards_match_write_archive(self, tmp_path, shard_count):
        records = records_for([f"v{i}" for i in range(7)])
        paths = task_archives(records, tmp_path)
        shards = write_shards(shard_records(paths, shard_count), tmp_path / "out")
        chunks = shard_records(records, shard_count)
        assert len(shards) == len(chunks)
        for index, (shard, chunk) in enumerate(zip(shards, chunks)):
            reference = tmp_path / f"ref-{index}.potf"
            write_archive(chunk, reference)
            assert shard.path.read_bytes() == reference.read_bytes()

    def test_shards_follow_the_given_groups(self, tmp_path):
        """Uneven groups, as no count-based cut makes them: each shard is
        byte-equal to write_archive of its group."""
        records = records_for([f"v{i}" for i in range(6)])
        paths = task_archives(records, tmp_path)
        bounds = [0, 1, 4, 6]  # groups of 1, 3 and 2
        groups = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        shards = write_shards([paths[group] for group in groups], tmp_path / "out")
        assert len(shards) == 3
        for index, (shard, group) in enumerate(zip(shards, groups)):
            reference = tmp_path / f"ref-{index}.potf"
            write_archive(records[group], reference)
            assert shard.path.read_bytes() == reference.read_bytes()

    def test_write_shards_rejects_multi_record_source(self, tmp_path):
        path = tmp_path / "two.potf"
        write_archive(records_for(["a", "b"]), path)
        with pytest.raises(ValueError, match="expected 1 record, found 2"):
            write_shards([[path]], tmp_path / "out")

    def test_write_shards_rejects_bad_source_header(self, tmp_path):
        (path,) = task_archives(records_for(["a"]), tmp_path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="not a feature archive"):
            write_shards([[path]], tmp_path / "out")


def row_pairs(shards):
    """The pairs of each shard row's mean task, in the order it writes
    their rows: each key of shard i, by the engine's row count per key,
    with the keys after it in shards i, i + 1, ..."""
    rows = []
    for task in plan_pair_stage(shards, Path("state")):
        later = [key for shard in task.payload[1] for key in shard]
        counts = _row_counts(task)
        rows.append([(a, b) for a, n in zip(later, counts) for b in later[len(later) - n :]])
    return rows


class TestCartesianPairs:
    def test_within_shard(self):
        keys = ["v1", "v2", "v3"]
        assert row_pairs([keys]) == [[("v1", "v2"), ("v1", "v3"), ("v2", "v3")]]

    def test_cross_shard(self):
        assert row_pairs([["v1", "v2"], ["v3"]]) == [
            [("v1", "v2"), ("v1", "v3"), ("v2", "v3")],
            [],
        ]
        assert row_pairs([["v1"], ["v2", "v3"]]) == [[("v1", "v2"), ("v1", "v3")], [("v2", "v3")]]

    def test_single_record_with_itself(self):
        assert row_pairs([["only"]]) == [[]]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=5),
    )
    def test_shard_tasks_cover_every_pair_exactly_once(self, n, shard_count):
        keys = [f"v{i:03d}" for i in range(n)]
        shards = shard_records(keys, shard_count)
        # the shard rows one after another: the global key-pair order in
        # which the engine reads the mean rows
        emitted = [pair for row in row_pairs(shards) for pair in row]
        assert emitted == list(combinations(keys, 2))
