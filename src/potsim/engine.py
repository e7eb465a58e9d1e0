"""
Staged parallel pipeline with atomic checkpointing and resume.

Three strictly sequential stages mirror a mapper/reducer layout:

* extract: one task per video computes both histogram series and the pooled
  feature into a single-record archive; a finalization step streams those
  archives into the layout's shards without decoding them. The pending
  tasks run in packets (``plan_packets``): a packet is a run of consecutive
  videos whose frames make one flow block, or one longer video, and a
  worker decodes its videos, computes their series in one
  ``compute_series`` call, then pools and commits each video on its own,
  so one video's failure fails only its task. The frame counts that packing
  needs come from the listing the fingerprint makes. There are never fewer
  packets than min(workers, pending videos).
* mean: one task per shard row i, S in all, writes the six per-slot
  chi-square distances of each pair whose first key is in shard i as one
  row of six little-endian float64 (48 bytes, no keys), in key-pair order,
  to ``mean/rows-<i>.out``. It reads shard i and each later shard once and
  checks that each holds the keys the layout gives it. A shard holds at
  most 64 keys, so the task fills one (keys, partners, 6) block, at most
  64 x N x 6: row k holds key k of shard i against every key of shards i,
  ..., S - 1. ``similarity.csd_stack``, which walks the features in
  cache-sized chunks, scores each later shard, stacked into one block, in
  one call, and shard i itself in one call per small group of keys, from
  the group's second key on, so that few cells at or below the diagonal
  are computed. Row k from column k + 1 on is key k's rows, written key
  after key. The reduce reads row files 0, ..., S - 1 one after another,
  one open at a time, which is global key-pair order (``_key_rows``), and
  sums the rows strictly in that order into ``mean_csd.csv``, so no bit of
  it depends on the shard layout.
* similarity: no tasks of its own and no shard read; it takes the same walk,
  and each key's rows, normalised by the means in one ``kernel_distance``
  call, become lines of ``similarity.csv``. It refuses, as a resumed mean
  stage does, a ``mean_csd.csv`` whose pair count is not the layout's.

A preamble shared by the stages checks the whole configuration
(``check_config``) before it reads the manifest or touches the state dir,
then cuts the manifest's sorted keys into ``shard_count(N)`` near-equal
shards once (``archive.shard_records``) and hands those key lists to every
stage. The layout is a function of the key set alone.

Every file, markers included, is written to a temporary file of its own
attempt and renamed into place (``commit.committed``), so a file that
exists is finished. Each stage is its plan plus its reduce, run by
``_run_stage``: it removes what dead attempts left of the stage's files
(``commit.remove_stray_tmp``), returns if the marker ``<stage>.done`` and
the outputs exist, refuses missing inputs, runs the tasks whose outputs are
missing and skips the rest, logs the task counts, reduces and commits the
marker. The state dir's fingerprint covers the parameters, the flow's
precision and the frame files (names, sizes, mtimes), so a resume never
reuses the results that state dir holds for changed inputs or for a flow
of another precision. The files in ``--out`` are not covered:
mean reads the shards there as they are, and a stage whose marker is in
its state dir keeps its outputs there, so two state dirs with other
parameters sharing one ``--out`` can leave means and scores of one run
beside the shards of the other. Outputs are byte-identical for any worker
count and shard layout: task outputs do not depend on scheduling, and the
reduce runs single-threaded in global key-pair order after the stage barrier.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import os
import time
from dataclasses import astuple, dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .archive import (
    SHARD_NAME_FORMAT,
    ArchiveRecord,
    read_archive,
    shard_records,
    write_archive,
    write_shards,
)
from .commit import committed, remove_stray_tmp
from .descriptors import (
    DEFAULT_HOG_THRESHOLD,
    block_pairs,
    compute_series,
    dump_series_text,
    series_dump_path,
)
from .flow import FLOW_DTYPE, FarnebackParams
from .frames import frame_files, load_frame_sequence
from .pooling import DEFAULT_LEVELS, SLOTS, pot_vector
# csd_sixtuple is unused here but stays bound: perfbench's tracer wraps it by this name
from .similarity import (
    MeanCsd,
    csd_sixtuple,
    csd_stack,
    kernel_distance,
    mean_csd,
    ordered_sum,
    read_mean_csd_csv,
    similarity_score,
    write_mean_csd_csv,
)

logger = logging.getLogger("potsim.engine")

DEFAULT_WORKING_RESOLUTION = (128, 128)
VIDEOS_PER_SHARD = 64  # also the widest block a mean task scores

STAGE_EXTRACT = "extract"
STAGE_MEAN = "mean"
STAGE_SIM = "sim"


class ConfigError(Exception):
    """Invalid configuration or usage; nothing was computed."""


class StageError(Exception):
    """One or more tasks of a stage failed after all running tasks settled."""

    def __init__(self, stage: str, failures: list[tuple[str, str]]):
        self.stage = stage
        self.failures = failures
        details = "; ".join(f"{label}: {message}" for label, message in failures)
        super().__init__(f"stage '{stage}' failed ({len(failures)} task(s)): {details}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; all output-affecting values feed the
    fingerprint used to refuse inconsistent resumes."""

    manifest: str
    out_dir: str
    working_w: int = DEFAULT_WORKING_RESOLUTION[0]
    working_h: int = DEFAULT_WORKING_RESOLUTION[1]
    levels: tuple[int, ...] = DEFAULT_LEVELS
    hog_threshold: float = DEFAULT_HOG_THRESHOLD
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)
    farneback: FarnebackParams = field(default_factory=FarnebackParams)
    state_dir: str | None = None  # default: <out_dir>/state
    dump_series: bool = False


@dataclass(frozen=True)
class Task:
    """One unit of checkpointed parallel work, done once its outputs exist."""

    id: int
    stage: str
    # extract: video key; mean: "shard row i"
    label: str
    payload: tuple
    out_path: str
    # extract with dump_series: the series dumps, committed before out_path
    dump_paths: tuple[str, ...] = ()

    def is_done(self) -> bool:
        return all(os.path.exists(p) for p in (*self.dump_paths, self.out_path))


def check_config(config: PipelineConfig) -> None:
    """Refuse any setting that no run can use, before anything is read."""
    if config.working_w < 1 or config.working_h < 1:
        raise ConfigError(f"working size must be >= 1, got {config.working_w}x{config.working_h}")
    if not config.levels or any(level < 1 for level in config.levels):
        raise ConfigError(f"levels must be non-empty and all >= 1, got {list(config.levels)}")
    # hog_frame counts |D| >= threshold on 0-255 frames: above 255 (or nan)
    # no pixel can count
    threshold = config.hog_threshold
    if not (isinstance(threshold, numbers.Real) and threshold <= 255.0):
        raise ConfigError(f"hog threshold must be a number <= 255, got {threshold}")
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {config.workers}")
    try:
        config.farneback.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_manifest(path: str | Path) -> list[tuple[str, str]]:
    """Read `<key>,<frames-directory>` lines, returned in key order; keys
    unique, without commas, '/' or NUL, since a key names output files.

    Relative directories resolve against the manifest's location; a BOM is dropped.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"manifest {path} is not UTF-8 text: {exc}") from None
    entries: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "," not in line:
            raise ConfigError(f"{path}:{lineno}: expected '<key>,<directory>'")
        key, directory = line.split(",", 1)
        key = key.strip()
        directory = directory.strip()
        if not key or not directory:
            raise ConfigError(f"{path}:{lineno}: empty key or directory")
        if "/" in key or "\0" in key:
            raise ConfigError(f"{path}:{lineno}: key {key!r} holds '/' or NUL")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        seen.add(key)
        entries.append((key, str((path.parent / directory).resolve())))
    if not entries:
        raise ConfigError(f"manifest is empty: {path}")
    return sorted(entries)


def shard_count(video_count: int) -> int:
    """The fewest shards of at most VIDEOS_PER_SHARD videos each."""
    return math.ceil(video_count / VIDEOS_PER_SHARD)


def _input_digest(entries: list[tuple[str, str]]) -> tuple[str, dict[str, int]]:
    """Hash of the inputs: per manifest entry in key order, its key, its
    resolved directory and each frame file's name, size and mtime; and
    from the same listing, each key's number of frame files, by which
    extract packs its tasks.

    A missing directory hashes as missing, and one whose frames cannot be
    listed or stat'ed (a dangling symlink, say) as unreadable, each with 0
    frames: extract reports either per task.
    """
    digest = hashlib.sha256()
    frame_counts = {}
    for key, directory in entries:
        digest.update(json.dumps([key, directory]).encode())
        frame_counts[key] = 0
        if not os.path.isdir(directory):
            digest.update(b"missing")
            continue
        records = []
        try:
            for entry in frame_files(directory):
                st = entry.stat()
                # a file name holds no NUL, so the record is unambiguous
                records.append(f"{entry.name}\0{st.st_size}\0{st.st_mtime_ns}\n")
        except OSError:
            digest.update(b"unreadable")
            continue
        digest.update("".join(records).encode())
        frame_counts[key] = len(records)
    return digest.hexdigest(), frame_counts


def config_fingerprint(
    config: PipelineConfig, entries: list[tuple[str, str]], inputs: str | None = None
) -> str:
    """Hash of all parameters and inputs that affect pipeline output;
    ``inputs`` is the digest of ``_input_digest(entries)``, which is taken
    here if not given."""
    payload = {
        "inputs": _input_digest(entries)[0] if inputs is None else inputs,
        "working": [config.working_w, config.working_h],
        "levels": list(config.levels),
        "hog_threshold": config.hog_threshold,
        # mean task outputs are named by position in the layout
        "shard_count": shard_count(len(entries)),
        # every FarnebackParams field, in declaration order
        "farneback": astuple(config.farneback),
        # a state dir of the float64 flow engine is refused, not mixed in
        "flow_dtype": np.dtype(FLOW_DTYPE).name,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# State directory layout


def prepare_state(config: PipelineConfig, fingerprint: str) -> Path:
    """Create (or validate) the state dir; refuse fingerprint mismatches."""
    root = Path(config.state_dir) if config.state_dir else Path(config.out_dir) / "state"
    root.mkdir(parents=True, exist_ok=True)
    fp_file = root / "fingerprint"
    remove_stray_tmp(root, time.time_ns(), {fp_file.name})
    if fp_file.exists():
        existing = fp_file.read_text(encoding="utf-8").strip()
        if existing != fingerprint:
            raise ConfigError(
                f"state dir {root} was produced with different parameters or inputs "
                f"(fingerprint {existing} != {fingerprint}); use a fresh state "
                f"dir or restore the original configuration and frame files"
            )
    else:
        with committed(fp_file) as tmp:
            tmp.write_text(fingerprint + "\n", encoding="utf-8")
    return root


ShardKeys = list[list[str]]


def _prepare_stage(
    config: PipelineConfig,
) -> tuple[list[tuple[str, str]], ShardKeys, Path, dict[str, int]]:
    """Preamble shared by all stages: the checked config, the manifest
    entries, the shard layout (each shard's sorted keys, empty shards
    omitted), the validated state dir and each key's frame count, from the
    fingerprint's listing. The layout is made here only."""
    check_config(config)
    entries = parse_manifest(config.manifest)
    keys = [key for key, _ in entries]
    shard_keys = shard_records(keys, shard_count(len(keys)))
    inputs, frame_counts = _input_digest(entries)
    state_dir = prepare_state(config, config_fingerprint(config, entries, inputs))
    return entries, shard_keys, state_dir, frame_counts


# ---------------------------------------------------------------------------
# Planning


def plan_extract(
    config: PipelineConfig, entries: list[tuple[str, str]], state_dir: Path
) -> list[Task]:
    """One task per video, ordered by key."""
    work_dir = state_dir / STAGE_EXTRACT
    dumps = ("hof", "hog") if config.dump_series else ()
    return [
        Task(
            id=task_id,
            stage=STAGE_EXTRACT,
            label=key,
            payload=(key, directory),
            out_path=str(work_dir / f"task-{task_id}.out"),
            dump_paths=tuple(str(series_dump_path(config.out_dir, key, k)) for k in dumps),
        )
        for task_id, (key, directory) in enumerate(entries)
    ]


def plan_packets(
    config: PipelineConfig, tasks: list[Task], frame_counts: dict[str, int]
) -> list[list[Task]]:
    """Pending extract tasks cut into packets, each run in one call by one
    worker: runs of consecutive tasks, in key order, whose videos' frames,
    one after another, make at most one flow block of pairs
    (``block_pairs`` at the working size); a longer video is a packet of
    its own. While there are fewer packets than min(workers, tasks), the
    packet of the most videos (the first such) is cut into two halves."""
    block = block_pairs(config.working_h, config.working_w)
    packets: list[list[Task]] = []
    frames = 0
    for task in tasks:
        count = frame_counts[task.label]
        if packets and frames + count - 1 <= block:
            packets[-1].append(task)
            frames += count
        else:
            packets.append([task])
            frames = count
    while len(packets) < min(config.workers, len(tasks)):
        i = max(range(len(packets)), key=lambda i: len(packets[i]))
        half = (len(packets[i]) + 1) // 2
        packets[i : i + 1] = [packets[i][:half], packets[i][half:]]
    return packets


def plan_pair_stage(shard_keys: ShardKeys, state_dir: Path) -> list[Task]:
    """Mean tasks: one per shard row i, each with the keys of shards i,
    i + 1, ..., S - 1."""
    return [
        Task(
            id=i,
            stage=STAGE_MEAN,
            label=f"shard row {i}",
            payload=(i, tuple(map(tuple, shard_keys[i:]))),
            out_path=str(state_dir / STAGE_MEAN / f"rows-{i}.out"),
        )
        for i in range(len(shard_keys))
    ]


# ---------------------------------------------------------------------------
# Task bodies (module-level for multiprocessing)


def _shard_path(config: PipelineConfig, index: int) -> Path:
    return Path(config.out_dir) / SHARD_NAME_FORMAT.format(index)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_extract_packet(
    config: PipelineConfig, packet: list[Task]
) -> list[tuple[str | None, float]]:
    """Run a packet of extract tasks (see ``plan_packets``): decode each
    video, compute the series of all that decoded in one ``compute_series``
    call, then pool, dump and commit each video on its own. A task's
    failure fails only that task.

    Returns each task's error, None if it succeeded, and its duration in
    ms: its own decode, pooling and commit time plus its frame-pair share
    of the rest of the packet's time, which is mostly the series', so that
    the durations add up to the packet's.
    """
    start = time.monotonic()
    errors: list[str | None] = [None] * len(packet)
    own = [0.0] * len(packet)
    decoded: dict[int, np.ndarray] = {}
    for i, task in enumerate(packet):
        tick = time.monotonic()
        key, directory = task.payload
        try:
            decoded[i] = load_frame_sequence(directory, key, config.working_w, config.working_h)
        except Exception as exc:  # surfaced per task, its packet-mates go on
            errors[i] = _describe(exc)
        own[i] += time.monotonic() - tick

    lengths = {i: len(frames) for i, frames in decoded.items()}
    if decoded:
        videos = list(decoded.values())
        try:
            # a packet of several videos is at most one block of frames
            frames = videos[0] if len(videos) == 1 else np.concatenate(videos)
            hof, hog = compute_series(
                frames, config.farneback, config.hog_threshold, list(lengths.values())
            )
        except Exception as exc:
            for i in lengths:
                errors[i] = _describe(exc)
        else:
            row = 0
            for i, length in lengths.items():
                tick = time.monotonic()
                series = hof[row : row + length - 1], hog[row : row + length - 1]
                row += length - 1
                try:
                    _commit_features(config, packet[i], length, *series)
                except Exception as exc:
                    errors[i] = _describe(exc)
                own[i] += time.monotonic() - tick

    pairs = [lengths.get(i, 1) - 1 for i in range(len(packet))]
    shares = pairs if sum(pairs) else [1] * len(packet)
    rest = time.monotonic() - start - sum(own)
    return [
        (error, 1000.0 * (seconds + rest * share / sum(shares)))
        for error, seconds, share in zip(errors, own, shares)
    ]


def _commit_features(
    config: PipelineConfig, task: Task, frame_count: int, hof: np.ndarray, hog: np.ndarray
) -> None:
    """Pool a video's series into its record and commit it: its series
    dumps first, if asked for, then its archive."""
    key = task.label
    feature = pot_vector(hof, hog, config.levels)
    record = ArchiveRecord(key=key, frame_count=frame_count, feature=feature)
    if task.dump_paths:
        dump_series_text(hof, "hof", key, config.out_dir)
        dump_series_text(hog, "hog", key, config.out_dir)
    # the task's last act: its archive exists only once the dumps do
    with committed(task.out_path) as tmp:
        write_archive([record], tmp)


# A mean task's row: one pair's six slot distances in SLOTS order
ROW_DTYPE = np.dtype("<f8")
ROW_BYTES = len(SLOTS) * ROW_DTYPE.itemsize


def _read_shard(config: PipelineConfig, index: int, keys: tuple[str, ...]) -> np.ndarray:
    """Shard ``index``'s features as the columns of one (features x keys)
    block, the shard checked to hold exactly ``keys``."""
    path = _shard_path(config, index)
    records = read_archive(path)
    for key, expected in zip_longest((record.key for record in records), keys):
        if key != expected:
            raise ValueError(f"{path}: key {key!r} where the manifest has {expected!r}")
    return np.stack([record.feature for record in records], axis=1)


# keys of shard i per csd_stack call against shard i itself: the call
# scores every key of the group against the partners from the group's
# second key on, and the task keeps only each key's later partners, so
# small groups waste few cells and large ones few calls
_DIAGONAL_GROUP = 10


def _row_counts(task: Task) -> list[int]:
    """Rows of a mean task per key of its shard i: one per later key."""
    _, shards = task.payload
    later = sum(map(len, shards))
    return [later - 1 - k for k in range(len(shards[0]))]


def _run_mean_task(config: PipelineConfig, task: Task) -> None:
    """Write shard row i's rows (see the module docstring): shards are key
    ranges, so key k's rows in key-pair order are row k of the task's
    (keys, partners, 6) block from column k + 1 on, the partners being the
    keys of shards i, i + 1, and so on."""
    i, shards = task.payload
    keys = _read_shard(config, i, shards[0])
    n = keys.shape[1]
    scores = np.empty((n, sum(map(len, shards)), len(SLOTS)), dtype=ROW_DTYPE)
    for g in range(0, n, _DIAGONAL_GROUP):
        group = keys[:, g : g + _DIAGONAL_GROUP]
        scores[g : g + _DIAGONAL_GROUP, g + 1 : n] = csd_stack(group, keys[:, g + 1 :])
    column = n
    for j, shard in enumerate(shards[1:], start=i + 1):
        scores[:, column : column + len(shard)] = csd_stack(keys, _read_shard(config, j, shard))
        column += len(shard)
    with committed(task.out_path) as tmp, open(tmp, "wb") as fh:
        for k in range(n):
            fh.write(scores[k, k + 1 :])


def _key_rows(tasks: list[Task]) -> Iterator[tuple[str, np.ndarray]]:
    """Walk the mean rows in global key-pair order, one row file open at a
    time: yield each key with its rows, one (partners, 6) array. In that
    order the partners of the g-th key are the keys after it.

    Each file is checked to hold one row per pair of its task: a short,
    long or old-format file fails here, naming its path."""
    for task in tasks:
        counts = _row_counts(task)
        pair_count = sum(counts)
        with open(task.out_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != pair_count * ROW_BYTES:
                raise ValueError(
                    f"{task.out_path}: {size} bytes where {pair_count} rows of six "
                    f"float64 distances take {pair_count * ROW_BYTES}; to repair it, "
                    f"delete that file and rerun `potsim mean`, which reruns its task "
                    f"and the reduce"
                )
            for key, count in zip(task.payload[1][0], counts):
                data = fh.read(count * ROW_BYTES)
                yield key, np.frombuffer(data, dtype=ROW_DTYPE).reshape(-1, len(SLOTS))


# extract runs its tasks by packets (_run_extract_packet)
_TASK_RUNNERS = {
    STAGE_MEAN: _run_mean_task,
}


def _run_task(config: PipelineConfig, task: Task) -> tuple[str | None, float]:
    """The task's error, None if it succeeded, and its duration in ms."""
    start = time.monotonic()
    try:
        _TASK_RUNNERS[task.stage](config, task)
        return None, (time.monotonic() - start) * 1000.0
    except Exception as exc:  # surfaced per task, stage fails afterwards
        return _describe(exc), (time.monotonic() - start) * 1000.0


def _run_packet(config: PipelineConfig, packet: list[Task]) -> list[tuple[str | None, float]]:
    """Each task's error and duration in ms, as ``_run_task`` gives them:
    an extract packet's in one call, any other packet's task by task."""
    if packet[0].stage == STAGE_EXTRACT:
        return _run_extract_packet(config, packet)
    return [_run_task(config, task) for task in packet]


# ---------------------------------------------------------------------------
# Stages

STAGES = (STAGE_EXTRACT, STAGE_MEAN, STAGE_SIM)


def _run_stage(
    config: PipelineConfig,
    state_dir: Path,
    stage: str,
    tasks: list[Task],
    outputs: list[Path],
    reduce: Callable[[], None],
    needs: list[Path],
    pack: Callable[[list[Task]], list[list[Task]]] | None = None,
) -> None:
    """Run ``stage`` unless its marker and ``outputs`` exist (see the module
    docstring). Dead attempts' temporary files go from its work dir, and
    from --out and the state root those of ``outputs`` and the marker;
    ``needs`` are the earlier stage's outputs that it reads. ``pack`` cuts
    the pending tasks into packets, each run in one call by one worker;
    without it each task is a packet of its own."""
    marker = state_dir / f"{stage}.done"
    work_dir = state_dir / stage
    started = time.time_ns()
    remove_stray_tmp(work_dir, started)
    for directory in (Path(config.out_dir), state_dir):
        names = {path.name for path in (*outputs, marker) if path.parent == directory}
        remove_stray_tmp(directory, started, names)
    if marker.exists() and all(map(os.path.exists, outputs)):
        return
    missing = next((path for path in needs if not path.exists()), None)
    if missing is not None:
        raise ConfigError(f"missing {missing} (run {STAGES[STAGES.index(stage) - 1]} first)")

    pending = []
    for task in tasks:
        if task.is_done():
            logger.info("task=%d stage=%s target=%s outcome=skipped", task.id, stage, task.label)
        else:
            pending.append(task)
    failures: list[tuple[str, str]] = []

    def record(task: Task, error: str | None, duration_ms: float) -> None:
        logger.info(
            "task=%d stage=%s target=%s outcome=%s duration_ms=%.1f%s",
            task.id,
            stage,
            task.label,
            "ok" if error is None else "failed",
            duration_ms,
            "" if error is None else f" error={error}",
        )
        if error is not None:
            failures.append((task.label, error))

    if pending:
        work_dir.mkdir(exist_ok=True)
        if stage == STAGE_EXTRACT:
            # flow's filters: imported once, before any task, so that forked
            # workers inherit them and no task's time holds the import
            import scipy.ndimage  # noqa: F401
    packets = pack(pending) if pack else [[task] for task in pending]
    if config.workers <= 1 or len(packets) <= 1:
        for packet in packets:
            for task, result in zip(packet, _run_packet(config, packet)):
                record(task, *result)
    else:
        # imported here, so that a command that runs no pool does not pay for it
        from concurrent.futures import ProcessPoolExecutor, as_completed

        start = time.monotonic()
        # no idle workers: a fork pool starts all of them at the first submit
        with ProcessPoolExecutor(max_workers=min(config.workers, len(packets))) as pool:
            futures = {pool.submit(_run_packet, config, packet): packet for packet in packets}
            for future in as_completed(futures):
                packet = futures[future]
                try:
                    results = future.result()
                except Exception as exc:  # e.g. BrokenProcessPool: a worker died
                    elapsed_ms = (time.monotonic() - start) * 1000.0
                    results = [(_describe(exc), elapsed_ms)] * len(packet)
                for task, result in zip(packet, results):
                    record(task, *result)

    ran, skipped, failed = len(pending) - len(failures), len(tasks) - len(pending), len(failures)
    logger.info("stage=%s tasks_ran=%d tasks_skipped=%d tasks_failed=%d", stage, ran, skipped, failed)
    if failures:
        raise StageError(stage, sorted(failures))
    reduce()
    with committed(marker):
        pass


def run_extract(config: PipelineConfig) -> list[Path]:
    """Extract stage: per-video features, then range-partitioned shards."""
    return _extract(config, *_prepare_stage(config))


def _extract(
    config: PipelineConfig,
    entries: list[tuple[str, str]],
    shard_keys: ShardKeys,
    state_dir: Path,
    frame_counts: dict[str, int],
) -> list[Path]:
    tasks = plan_extract(config, entries, state_dir)
    shards = [_shard_path(config, i) for i in range(len(shard_keys))]
    dumps = [Path(path) for task in tasks for path in task.dump_paths]
    archives = {task.label: task.out_path for task in tasks}

    def reduce() -> None:
        write_shards([[archives[key] for key in keys] for keys in shard_keys], config.out_dir)

    def pack(pending: list[Task]) -> list[list[Task]]:
        return plan_packets(config, pending, frame_counts)

    _run_stage(config, state_dir, STAGE_EXTRACT, tasks, shards + dumps, reduce, [], pack)
    return shards


def run_mean(config: PipelineConfig) -> MeanCsd:
    """Mean stage: per-pair slot distances, summed in global key-pair order
    into mean_csd.csv."""
    _, shard_keys, state_dir, _ = _prepare_stage(config)
    return _mean(config, shard_keys, state_dir)


def _mean_outputs(config: PipelineConfig, tasks: list[Task]) -> list[Path]:
    """mean_csd.csv, then every task's rows, which sim reads."""
    return [Path(config.out_dir) / "mean_csd.csv", *(Path(t.out_path) for t in tasks)]


def _read_mean(path: Path, shard_keys: ShardKeys) -> MeanCsd:
    """mean_csd.csv, refused unless its pair count is the layout's: a file
    of another corpus (two state dirs sharing one --out, say) would
    normalise every score by foreign means."""
    mean = read_mean_csd_csv(path)
    n = sum(map(len, shard_keys))
    pair_count = n * (n - 1) // 2
    if mean.pair_count != pair_count:
        raise ValueError(
            f"{path}: pair count {mean.pair_count} where the manifest's {n} videos "
            f"make {pair_count} pairs"
        )
    return mean


def _mean(config: PipelineConfig, shard_keys: ShardKeys, state_dir: Path) -> MeanCsd:
    tasks = plan_pair_stage(shard_keys, state_dir)
    out_path, *_ = outputs = _mean_outputs(config, tasks)

    def reduce() -> None:
        # one row at a time in global key-pair order, as a += loop would:
        # the same order whatever the shard layout
        total = np.zeros(len(SLOTS))
        pair_count = 0
        for _, rows in _key_rows(tasks):
            total = ordered_sum(np.vstack([total, rows]))
            pair_count += len(rows)
        try:
            mean = mean_csd(total, pair_count)
        except ValueError as exc:
            raise StageError(STAGE_MEAN, [("reduce", str(exc))]) from exc
        with committed(out_path) as tmp:
            write_mean_csd_csv(mean, tmp)

    # the tasks check the keys of the shards they read
    shards = [_shard_path(config, i) for i in range(len(shard_keys))]
    _run_stage(config, state_dir, STAGE_MEAN, tasks, outputs, reduce, needs=shards)
    return _read_mean(out_path, shard_keys)


SIMILARITY_HEADER = "video_a,video_b,similarity\n"


def run_similarity(config: PipelineConfig) -> Path:
    """Similarity stage: the mean rows, read in key-pair order and
    normalised by the corpus means into similarity.csv."""
    _, shard_keys, state_dir, _ = _prepare_stage(config)
    return _similarity(config, shard_keys, state_dir)


def _similarity(config: PipelineConfig, shard_keys: ShardKeys, state_dir: Path) -> Path:
    tasks = plan_pair_stage(shard_keys, state_dir)
    mean_path, *_ = mean_outputs = _mean_outputs(config, tasks)
    out_path = Path(config.out_dir) / "similarity.csv"

    def reduce() -> None:
        mean = _read_mean(mean_path, shard_keys)
        keys = [key for shard in shard_keys for key in shard]
        with committed(out_path) as tmp, open(tmp, "w", encoding="utf-8") as out:
            out.write(SIMILARITY_HEADER)
            # the mean tasks checked their shards against exactly these keys
            for g, (key_a, rows) in enumerate(_key_rows(tasks)):
                # one kernel call per key; .tolist() gives Python floats, so
                # math.exp and repr run as they do on a scalar
                pairs = zip(keys[g + 1 :], kernel_distance(rows, mean).tolist(), strict=True)
                out.write("".join(f"{key_a},{key_b},{similarity_score(kd)!r}\n" for key_b, kd in pairs))

    needs = [state_dir / f"{STAGE_MEAN}.done", *mean_outputs]
    _run_stage(config, state_dir, STAGE_SIM, [], [out_path], reduce, needs)
    return out_path


def run_pipeline(config: PipelineConfig) -> Path:
    """Extract, mean, and similarity in sequence with checkpointing; the
    manifest and the inputs are read and fingerprinted once for all three."""
    entries, shard_keys, state_dir, frame_counts = _prepare_stage(config)
    _extract(config, entries, shard_keys, state_dir, frame_counts)
    _mean(config, shard_keys, state_dir)
    return _similarity(config, shard_keys, state_dir)
