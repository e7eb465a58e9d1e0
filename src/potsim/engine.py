"""
Staged parallel pipeline with atomic checkpointing and resume.

Three strictly sequential stages mirror a mapper/reducer layout:

* extract: one task per video computes both histogram series and the pooled
  feature into a single-record archive; a finalization step streams those
  archives in key order into range-partitioned shards without decoding
  them.
* mean: one task per shard pair (i, j), i <= j, writes the six per-slot
  chi-square distances of each of its pairs as one row of six little-endian
  float64 (48 bytes, no keys), in key-pair order. It stacks shard j's
  features into column blocks of at most 64 partners and scores each key of
  shard i against a whole block in one pass (``similarity.csd_block``), so
  its memory does not grow with the shard size. A deterministic reduce
  sums the rows into ``mean_csd.csv``.
* similarity: no tasks of its own; for each shard i it walks the shard's
  keys and reads each key's rows from tasks (i, i), (i, i + 1), ...,
  (i, S - 1) in lockstep, so at most S files are open. Each row, normalised
  by the means, becomes a line of ``similarity.csv``. Every pair is scored
  by exactly one chi-square pass, and this stage reads no shard.

A preamble shared by the stages checks the whole configuration
(``check_config``) before it reads the manifest or touches the state dir,
then cuts the manifest's sorted keys into shards once
(``archive.shard_records``) and hands those key lists to every stage.

Every task and stage output is written to ``<path>.tmp`` and renamed into
place, so an output that exists is finished: a task is done, and skipped on
resume, once its outputs exist; a stage once its marker in the state dir
and its outputs do. The state dir's fingerprint covers the parameters and
the frame files (names, sizes, mtimes), so a resume never reuses results of
changed inputs. Outputs are byte-identical for any worker count: task
outputs do not depend on scheduling, and all reductions run single-threaded
in ascending task-id order after the stage barrier.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import accumulate, zip_longest
from pathlib import Path

import numpy as np

from .archive import (
    SHARD_NAME_FORMAT,
    ArchiveRecord,
    partners,
    read_archive,
    shard_records,
    write_archive,
    write_shards,
)
from .commit import committed
from .descriptors import DEFAULT_HOG_THRESHOLD, compute_series, dump_series_text, series_dump_path
from .flow import FarnebackParams
from .frames import frame_paths, load_frame_sequence
from .pooling import DEFAULT_LEVELS, SLOTS, pot_vector
# csd_sixtuple is unused here but stays bound: perfbench's tracer wraps it by this name
from .similarity import (
    MeanCsd,
    PartnerBlock,
    csd_block,
    csd_sixtuple,
    kernel_distance,
    mean_csd,
    ordered_sum,
    read_mean_csd_csv,
    similarity_score,
    write_mean_csd_csv,
)

logger = logging.getLogger("potsim.engine")

DEFAULT_WORKING_RESOLUTION = (128, 128)
DEFAULT_VIDEOS_PER_SHARD = 64

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
    shard_count: int | None = None  # default: ceil(N / 64)
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)
    farneback: FarnebackParams = field(default_factory=FarnebackParams)
    state_dir: str | None = None  # default: <out_dir>/state
    dump_series: bool = False


@dataclass(frozen=True)
class Task:
    """One unit of checkpointed parallel work, done once its outputs exist."""

    id: int
    stage: str
    # extract: video key; mean: "shards (i,j)"
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
    if config.shard_count is not None and config.shard_count < 1:
        raise ConfigError(f"shard count must be >= 1, got {config.shard_count}")
    try:
        config.farneback.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_manifest(path: str | Path) -> list[tuple[str, str]]:
    """Read `<key>,<frames-directory>` lines; keys unique, without commas,
    '/' or NUL, since a key names output files.

    Relative directories are resolved against the manifest's location.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path}")
    entries: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
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
    return entries


def resolve_shard_count(config: PipelineConfig, video_count: int) -> int:
    if config.shard_count is not None:
        return config.shard_count
    return max(1, math.ceil(video_count / DEFAULT_VIDEOS_PER_SHARD))


def _input_digest(entries: list[tuple[str, str]]) -> str:
    """Hash of the inputs: per manifest entry in key order, its key, its
    resolved directory and each frame file's name, size and mtime.

    A missing directory hashes as missing; extract reports it per task.
    """
    digest = hashlib.sha256()
    for key, directory in sorted(entries):
        digest.update(json.dumps([key, directory]).encode())
        if not os.path.isdir(directory):
            digest.update(b"missing")
            continue
        for path in frame_paths(Path(directory)):
            st = os.stat(path)
            # a file name holds no NUL, so the record is unambiguous
            digest.update(f"{path.name}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return digest.hexdigest()


def config_fingerprint(config: PipelineConfig, entries: list[tuple[str, str]]) -> str:
    """Hash of all parameters and inputs that affect pipeline output."""
    fb = config.farneback
    payload = {
        "inputs": _input_digest(entries),
        "working": [config.working_w, config.working_h],
        "levels": list(config.levels),
        "hog_threshold": config.hog_threshold,
        "shard_count": resolve_shard_count(config, len(entries)),
        "farneback": [
            fb.pyr_scale,
            fb.levels,
            fb.winsize,
            fb.iterations,
            fb.poly_n,
            fb.poly_sigma,
        ],
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
    if fp_file.exists():
        existing = fp_file.read_text().strip()
        if existing != fingerprint:
            raise ConfigError(
                f"state dir {root} was produced with different parameters or inputs "
                f"(fingerprint {existing} != {fingerprint}); use a fresh state "
                f"dir or restore the original configuration and frame files"
            )
    else:
        fp_file.write_text(fingerprint + "\n")
    for stage in (STAGE_EXTRACT, STAGE_MEAN):  # the stages with tasks
        (root / stage).mkdir(exist_ok=True)
    return root


ShardKeys = list[list[str]]


def _prepare_stage(config: PipelineConfig) -> tuple[list[tuple[str, str]], ShardKeys, Path]:
    """Preamble shared by all stages: the checked config, the manifest
    entries, the shard layout (each shard's sorted keys, empty shards
    omitted) and the validated state dir."""
    check_config(config)
    entries = parse_manifest(config.manifest)
    keys = sorted(key for key, _ in entries)
    shard_keys = shard_records(keys, resolve_shard_count(config, len(entries)))
    state_dir = prepare_state(config, config_fingerprint(config, entries))
    return entries, shard_keys, state_dir


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
        for task_id, (key, directory) in enumerate(sorted(entries))
    ]


def plan_pair_stage(shard_count: int, state_dir: Path) -> list[Task]:
    """Mean tasks: one per shard pair (i, j) with i <= j, S(S+1)/2 in all."""
    work_dir = state_dir / STAGE_MEAN
    pairs = [(i, j) for i in range(shard_count) for j in range(i, shard_count)]
    return [
        Task(
            id=task_id,
            stage=STAGE_MEAN,
            label=f"shards ({i},{j})",
            payload=(i, j),
            out_path=str(work_dir / f"task-{task_id}.out"),
        )
        for task_id, (i, j) in enumerate(pairs)
    ]


# ---------------------------------------------------------------------------
# Task bodies (module-level for multiprocessing)


def _shard_path(config: PipelineConfig, index: int) -> Path:
    return Path(config.out_dir) / SHARD_NAME_FORMAT.format(index)


def _run_extract_task(config: PipelineConfig, task: Task) -> None:
    key, directory = task.payload
    seq = load_frame_sequence(directory, key, config.working_w, config.working_h)
    hof, hog = compute_series(seq, config.farneback, config.hog_threshold)
    feature = pot_vector(hof, hog, config.levels)
    record = ArchiveRecord(key=key, frame_count=seq.frame_count, feature=feature)
    if task.dump_paths:
        dump_series_text(hof, key, config.out_dir)
        dump_series_text(hog, key, config.out_dir)
    # the task's last act: its archive exists only once the dumps do
    with committed(task.out_path) as tmp:
        write_archive([record], tmp)


# A mean task's row: one pair's six slot distances in SLOTS order
ROW_DTYPE = np.dtype("<f8")
ROW_BYTES = len(SLOTS) * ROW_DTYPE.itemsize


def _run_mean_task(config: PipelineConfig, task: Task) -> None:
    """Write each pair's row, in cartesian_pairs order, with no keys:
    shards are key ranges, so that is key-pair order.

    Shard j's features are stacked into column blocks of at most
    DEFAULT_VIDEOS_PER_SHARD partners, so a task's memory does not grow with
    the shard size, and each key of shard i is scored against all its
    partners in a block in one pass."""
    i, j = task.payload
    records_a = read_archive(_shard_path(config, i))
    records_b = records_a if i == j else read_archive(_shard_path(config, j))
    # key k's partners are records_b[first[k]:], its rows start at row[k]
    counts = [len(partners(records_b, k, i == j)) for k in range(len(records_a))]
    first = [len(records_b) - count for count in counts]
    row = [0, *accumulate(counts)]
    rows = np.empty((row[-1], len(SLOTS)), dtype=ROW_DTYPE)
    for lo in range(0, len(records_b), DEFAULT_VIDEOS_PER_SHARD):
        chunk = records_b[lo : lo + DEFAULT_VIDEOS_PER_SHARD]
        hi = lo + len(chunk)
        block = PartnerBlock.stack([record.feature for record in chunk])
        for k, record in enumerate(records_a):
            start = max(first[k], lo)  # key k's first partner in this block
            if start < hi:
                at = row[k] + start - first[k]
                rows[at : at + hi - start] = csd_block(record.feature, block, start - lo)
    with committed(task.out_path) as tmp:
        tmp.write_bytes(rows.tobytes())


def _open_rows(task: Task, shard_keys: ShardKeys):
    """Open a mean task's rows, checking that they hold one row per pair
    of its shards: a short, long or old-format file fails here, naming its
    path."""
    i, j = task.payload
    pair_count = sum(len(partners(shard_keys[j], k, i == j)) for k in range(len(shard_keys[i])))
    fh = open(task.out_path, "rb")
    size = os.fstat(fh.fileno()).st_size
    if size != pair_count * ROW_BYTES:
        fh.close()
        raise ValueError(
            f"{task.out_path}: {size} bytes where {pair_count} rows of six "
            f"float64 distances take {pair_count * ROW_BYTES}"
        )
    return fh


_TASK_RUNNERS = {
    STAGE_EXTRACT: _run_extract_task,
    STAGE_MEAN: _run_mean_task,
}


def _run_task(config: PipelineConfig, task: Task) -> tuple[int, str | None, float]:
    start = time.monotonic()
    try:
        _TASK_RUNNERS[task.stage](config, task)
        return task.id, None, (time.monotonic() - start) * 1000.0
    except Exception as exc:  # surfaced per task, stage fails afterwards
        return task.id, f"{type(exc).__name__}: {exc}", (time.monotonic() - start) * 1000.0


# ---------------------------------------------------------------------------
# Execution


def execute(tasks: list[Task], config: PipelineConfig) -> None:
    """Run a stage's tasks on the worker pool; skip completed, fail late."""
    by_id = {t.id: t for t in tasks}
    pending = []
    for task in tasks:
        if task.is_done():
            logger.info(
                "task=%d stage=%s target=%s outcome=skipped", task.id, task.stage, task.label
            )
        else:
            pending.append(task)
    failures: list[tuple[str, str]] = []

    def record(task_id: int, error: str | None, duration_ms: float) -> None:
        task = by_id[task_id]
        outcome = "ok" if error is None else "failed"
        logger.info(
            "task=%d stage=%s target=%s outcome=%s duration_ms=%.1f%s",
            task.id,
            task.stage,
            task.label,
            outcome,
            duration_ms,
            "" if error is None else f" error={error}",
        )
        if error is not None:
            failures.append((task.label, error))

    if config.workers <= 1 or len(pending) <= 1:
        for task in pending:
            record(*_run_task(config, task))
    else:
        start = time.monotonic()
        # no idle workers: a fork pool starts all of them at the first submit
        with ProcessPoolExecutor(max_workers=min(config.workers, len(pending))) as pool:
            futures = {pool.submit(_run_task, config, task): task for task in pending}
            for future in as_completed(futures):
                try:
                    record(*future.result())
                except Exception as exc:  # e.g. BrokenProcessPool: a worker died
                    elapsed_ms = (time.monotonic() - start) * 1000.0
                    record(futures[future].id, f"{type(exc).__name__}: {exc}", elapsed_ms)

    if failures:
        failures.sort(key=lambda f: f[0])
        raise StageError(tasks[0].stage, failures)


# ---------------------------------------------------------------------------
# Stages


def _stage_marker(state_dir: Path, stage: str) -> Path:
    return state_dir / f"{stage}.done"


def _stage_done(state_dir: Path, stage: str, outputs: list[Path | str]) -> bool:
    """This state dir's marker for ``stage`` and every listed output exist;
    the marker keeps a reset state dir from reusing an earlier run's files."""
    return _stage_marker(state_dir, stage).exists() and all(map(os.path.exists, outputs))


def run_extract(config: PipelineConfig) -> list[Path]:
    """Extract stage: per-video features, then range-partitioned shards."""
    return _extract(config, *_prepare_stage(config))


def _extract(
    config: PipelineConfig, entries: list[tuple[str, str]], shard_keys: ShardKeys, state_dir: Path
) -> list[Path]:
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)

    tasks = plan_extract(config, entries, state_dir)
    shards = [_shard_path(config, i) for i in range(len(shard_keys))]
    dumps = [path for task in tasks for path in task.dump_paths]
    if _stage_done(state_dir, STAGE_EXTRACT, shards + dumps):
        return shards

    if not all(task.is_done() for task in tasks):
        # flow's filters: imported once here, so that forked workers inherit
        # them, and only by a stage that runs flow
        import scipy.ndimage  # noqa: F401
    execute(tasks, config)

    # task ids follow sorted keys, so the task archives are in key order
    write_shards([t.out_path for t in tasks], config.out_dir, len(shard_keys))
    _stage_marker(state_dir, STAGE_EXTRACT).touch()
    return shards


def _check_shards(config: PipelineConfig, shard_keys: ShardKeys) -> None:
    """Each shard exists and holds the manifest's sorted keys of its range:
    mean also scores shards that it did not see extract write."""
    for index, keys in enumerate(shard_keys):
        path = _shard_path(config, index)
        if not path.exists():
            raise ConfigError(f"missing shard file {path} (run extract first)")
        found = (record.key for record in read_archive(path))
        for key, expected in zip_longest(found, keys):
            if key != expected:
                message = f"key {key!r} where the manifest has {expected!r}"
                raise StageError(STAGE_MEAN, [(str(path), message)])


def run_mean(config: PipelineConfig) -> MeanCsd:
    """Mean stage: per-pair slot distances, summed per task and reduced
    into mean_csd.csv."""
    _, shard_keys, state_dir = _prepare_stage(config)
    return _mean(config, shard_keys, state_dir)


def _mean_outputs(config: PipelineConfig, tasks: list[Task]) -> list[Path]:
    """mean_csd.csv, then every task's rows, which sim reads."""
    return [Path(config.out_dir) / "mean_csd.csv", *(Path(t.out_path) for t in tasks)]


def _mean(config: PipelineConfig, shard_keys: ShardKeys, state_dir: Path) -> MeanCsd:
    tasks = plan_pair_stage(len(shard_keys), state_dir)
    out_path, *_ = outputs = _mean_outputs(config, tasks)
    if _stage_done(state_dir, STAGE_MEAN, outputs):
        return read_mean_csd_csv(out_path)

    _check_shards(config, shard_keys)
    execute(tasks, config)

    # per-task row sums, then their sum, in ascending task id: fixed order
    task_sums = np.empty((len(tasks), len(SLOTS)))
    pair_count = 0
    for n, task in enumerate(tasks):
        with _open_rows(task, shard_keys) as fh:
            rows = np.fromfile(fh, dtype=ROW_DTYPE).reshape(-1, len(SLOTS))
        task_sums[n] = ordered_sum(rows)
        pair_count += len(rows)
    try:
        mean = mean_csd(dict(zip(SLOTS, ordered_sum(task_sums).tolist())), pair_count)
    except ValueError as exc:
        raise StageError(STAGE_MEAN, [("reduce", str(exc))]) from exc

    with committed(out_path) as tmp:
        write_mean_csd_csv(mean, tmp)
    _stage_marker(state_dir, STAGE_MEAN).touch()
    return mean


SIMILARITY_HEADER = "video_a,video_b,similarity\n"


def run_similarity(config: PipelineConfig) -> Path:
    """Similarity stage: the mean rows, read in key-pair order and
    normalised by the corpus means into similarity.csv."""
    _, shard_keys, state_dir = _prepare_stage(config)
    return _similarity(config, shard_keys, state_dir)


def _similarity(config: PipelineConfig, shard_keys: ShardKeys, state_dir: Path) -> Path:
    tasks = plan_pair_stage(len(shard_keys), state_dir)
    mean_path, *_ = mean_outputs = _mean_outputs(config, tasks)
    if not _stage_done(state_dir, STAGE_MEAN, mean_outputs):
        raise ConfigError(f"missing {mean_path} or mean task outputs (run mean first)")

    out_path = Path(config.out_dir) / "similarity.csv"
    if _stage_done(state_dir, STAGE_SIM, [out_path]):
        return out_path

    mean = read_mean_csd_csv(mean_path)
    by_shards = {task.payload: task for task in tasks}
    with committed(out_path) as tmp, open(tmp, "w") as out:
        out.write(SIMILARITY_HEADER)
        # Shards are ordered key ranges, so the pairs of a key a of shard i
        # in key order are its rows in task (i, i), then in (i, i + 1), and
        # so on: each row of tasks is read in lockstep, S files at most.
        # mean checked the shards against exactly these keys.
        for i, keys_a in enumerate(shard_keys):
            with ExitStack() as stack:
                row = [
                    (j, stack.enter_context(_open_rows(by_shards[(i, j)], shard_keys)))
                    for j in range(i, len(shard_keys))
                ]
                for k, key_a in enumerate(keys_a):
                    lines = []
                    for j, fh in row:
                        keys_b = partners(shard_keys[j], k, i == j)
                        block = np.frombuffer(fh.read(len(keys_b) * ROW_BYTES), dtype=ROW_DTYPE)
                        for key_b, csd in zip(keys_b, block.reshape(-1, len(SLOTS)).tolist()):
                            score = similarity_score(kernel_distance(dict(zip(SLOTS, csd)), mean))
                            lines.append(f"{key_a},{key_b},{score!r}\n")
                    out.write("".join(lines))
    _stage_marker(state_dir, STAGE_SIM).touch()
    return out_path


def run_pipeline(config: PipelineConfig) -> Path:
    """Extract, mean, and similarity in sequence with checkpointing; the
    manifest and the inputs are read and fingerprinted once for all three."""
    entries, shard_keys, state_dir = _prepare_stage(config)
    _extract(config, entries, shard_keys, state_dir)
    _mean(config, shard_keys, state_dir)
    return _similarity(config, shard_keys, state_dir)
