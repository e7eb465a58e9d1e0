"""
Splittable binary archive of per-video pooled features (POTF format).

Pooled vectors are persisted once per video so that the quadratic pair
stages never re-parse or recompute features. The format is bit-exact:

  header: magic "POTF" | version u16 LE = 1 | flags u16 LE = 0
          | record_count u64 LE
  record: key_len u32 LE | key (UTF-8) | frame_count u32 LE
          | 6 blocks in fixed slot order (hof/sum, hof/gradient, hof/max,
            hog/sum, hog/gradient, hog/max), each:
            dim u32 LE | dim float64 LE values

The six dims are those ``pooling.slot_bounds`` gives for their total, and
every record of a file has the same total.

Archives are written sorted by key and sharded into contiguous key ranges
so cross-shard cartesian pairs automatically satisfy key_a < key_b.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .commit import committed
from .pooling import SLOTS, slot_bounds

MAGIC = b"POTF"
VERSION = 1

_HEADER = struct.Struct("<4sHHQ")
_U32 = struct.Struct("<I")

SHARD_NAME_FORMAT = "features-{:05d}.potf"

T = TypeVar("T")


@dataclass
class ArchiveRecord:
    """One video's key, frame count, and pooled feature (the float64
    vector ``pooling.pot_vector`` returns)."""

    key: str
    frame_count: int
    feature: np.ndarray


@dataclass
class ArchiveShard:
    """A written archive file holding one contiguous key range."""

    path: Path


def write_archive(records: list[ArchiveRecord], path: str | Path) -> ArchiveShard:
    """Write records (pre-sorted by key, unique) to a POTF file."""
    keys = [r.key for r in records]
    if keys != sorted(keys):
        raise ValueError("records must be sorted by key before writing")
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate keys in archive records")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, 0, len(records)))
        for record in records:
            key_bytes = record.key.encode("utf-8")
            fh.write(_U32.pack(len(key_bytes)))
            fh.write(key_bytes)
            fh.write(_U32.pack(record.frame_count))
            values = np.ascontiguousarray(record.feature, dtype="<f8")
            bounds = slot_bounds(len(values))
            for lo, hi in zip(bounds, bounds[1:]):
                fh.write(_U32.pack(hi - lo))
                fh.write(values[lo:hi].tobytes())
    return ArchiveShard(path=path)


def _record_count(path: Path, data: bytes) -> int:
    """Validate a POTF header and return its record count."""
    if len(data) < _HEADER.size or data[:4] != MAGIC:
        raise ValueError(f"{path}: not a feature archive")
    _, version, _, count = _HEADER.unpack_from(data, 0)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported archive version {version}")
    return count


def read_archive(path: str | Path) -> list[ArchiveRecord]:
    """Read and validate all records of a POTF file."""
    path = Path(path)
    data = path.read_bytes()
    count = _record_count(path, data)
    pos = _HEADER.size
    records: list[ArchiveRecord] = []
    for index in range(count):
        try:
            (key_len,) = _U32.unpack_from(data, pos)
            pos += 4
            if len(data) < pos + key_len:
                raise struct.error("truncated key")
            try:
                key = data[pos : pos + key_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: record {index} has a non-UTF-8 key: {exc}") from exc
            pos += key_len
            (frame_count,) = _U32.unpack_from(data, pos)
            pos += 4
            blocks = []  # (offset, dim) of each slot's values
            for _ in SLOTS:
                (dim,) = _U32.unpack_from(data, pos)
                pos += 4
                if pos + 8 * dim > len(data):
                    raise struct.error("truncated vector")
                blocks.append((pos, dim))
                pos += 8 * dim
        except struct.error as exc:
            raise ValueError(f"{path}: truncated record {index}: {exc}") from exc
        if not key:
            raise ValueError(f"{path}: record {index} has an empty key")
        dims = [dim for _, dim in blocks]
        try:
            bounds = slot_bounds(sum(dims))
            if dims != [hi - lo for lo, hi in zip(bounds, bounds[1:])]:
                raise ValueError(f"slot dims {dims} are not the slot layout of their sum")
        except ValueError as exc:
            raise ValueError(f"{path}: record {index} ('{key}'): {exc}") from None
        if records and len(records[0].feature) != bounds[-1]:
            raise ValueError(
                f"{path}: record {index} ('{key}') has inconsistent vector "
                f"dimensions (mixed pyramid configurations?)"
            )
        # the slots' values, copied straight into one array in SLOTS order
        feature = np.empty(bounds[-1])
        for (offset, dim), lo in zip(blocks, bounds):
            feature[lo : lo + dim] = np.frombuffer(data, dtype="<f8", count=dim, offset=offset)
        records.append(ArchiveRecord(key=key, frame_count=frame_count, feature=feature))
    return records


def shard_records(records: Sequence[T], shard_count: int) -> list[Sequence[T]]:
    """Partition sorted records (or their keys, or their files) into
    contiguous key-range shards of near-equal size, larger shards first and
    empty shards omitted: the one place the shard layout is made."""
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    base, rem = divmod(len(records), shard_count)
    # shard i holds base + 1 records if i < rem, else base
    bounds = [i * base + min(i, rem) for i in range(shard_count + 1)]
    return [records[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def write_shards(groups: Sequence[Sequence[str | Path]], out_dir: str | Path) -> list[ArchiveShard]:
    """Write one shard per group of single-record archives, the groups being
    the layout's shards in key order, streaming the records undecoded."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shards = []
    for index, sources in enumerate(groups):
        path = out_dir / SHARD_NAME_FORMAT.format(index)
        with committed(path) as tmp, open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, 0, len(sources)))
            for source in map(Path, sources):
                data = source.read_bytes()
                count = _record_count(source, data)
                if count != 1:
                    raise ValueError(f"{source}: expected 1 record, found {count}")
                fh.write(data[_HEADER.size :])
        shards.append(ArchiveShard(path=path))
    return shards

