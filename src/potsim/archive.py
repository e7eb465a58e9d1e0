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

Archives are written sorted by key and sharded into contiguous key ranges
so cross-shard cartesian pairs automatically satisfy key_a < key_b.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Sequence, TypeVar

import numpy as np

from .commit import committed
from .pooling import SLOTS, PoTFeature

MAGIC = b"POTF"
VERSION = 1

_HEADER = struct.Struct("<4sHHQ")
_U32 = struct.Struct("<I")

SHARD_NAME_FORMAT = "features-{:05d}.potf"

T = TypeVar("T")


@dataclass
class ArchiveRecord:
    """One video's key, frame count, and pooled feature."""

    key: str
    frame_count: int
    feature: PoTFeature


@dataclass
class ArchiveShard:
    """A written archive file holding one contiguous key range."""

    path: Path
    record_count: int


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
            for slot in SLOTS:
                vec = np.ascontiguousarray(record.feature.vectors[slot], dtype="<f8")
                fh.write(_U32.pack(vec.shape[0]))
                fh.write(vec.tobytes())
    return ArchiveShard(path=path, record_count=len(records))


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
    dims: list[int] | None = None
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
        record_dims = [dim for _, dim in blocks]
        if dims is None:
            dims = record_dims
        elif record_dims != dims:
            raise ValueError(
                f"{path}: record {index} ('{key}') has inconsistent vector "
                f"dimensions (mixed pyramid configurations?)"
            )
        # the slots' values, copied straight into one array in SLOTS order
        values = np.empty(sum(dims))
        at = 0
        for offset, dim in blocks:
            values[at : at + dim] = np.frombuffer(data, dtype="<f8", count=dim, offset=offset)
            at += dim
        feature = PoTFeature.from_values(values, dims)
        records.append(ArchiveRecord(key=key, frame_count=frame_count, feature=feature))
    return records


def shard_records(records: Sequence[T], shard_count: int) -> list[Sequence[T]]:
    """Partition sorted records (or their keys, or their files) into
    contiguous key-range shards of near-equal size, larger shards first and
    empty shards omitted: the one place the shard layout is made."""
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    base, rem = divmod(len(records), shard_count)
    bounds = [0, *accumulate(base + (i < rem) for i in range(shard_count))]
    return [records[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def partners(shard_b: Sequence[T], k: int, same_shard: bool) -> Sequence[T]:
    """The records of ``shard_b`` that the k-th record of a shard pairs with:
    in the shard itself only the later ones (key_a < key_b), in a later
    shard all of them (range partitioning puts its keys above)."""
    return shard_b[k + 1 :] if same_shard else shard_b


def write_shards(
    paths: list[str | Path], out_dir: str | Path, shard_count: int
) -> list[ArchiveShard]:
    """Stream single-record archives, given in key order, into
    range-partitioned shard files without decoding their records."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shards = []
    for index, sources in enumerate(shard_records(paths, shard_count)):
        path = out_dir / SHARD_NAME_FORMAT.format(index)
        with committed(path) as tmp, open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, 0, len(sources)))
            for source in map(Path, sources):
                data = source.read_bytes()
                count = _record_count(source, data)
                if count != 1:
                    raise ValueError(f"{source}: expected 1 record, found {count}")
                fh.write(data[_HEADER.size :])
        shards.append(ArchiveShard(path=path, record_count=len(sources)))
    return shards

