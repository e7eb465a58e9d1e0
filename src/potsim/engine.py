"""
Staged parallel pipeline with atomic checkpointing and resume.

Three strictly sequential stages mirror a mapper/reducer layout:

* extract: one task per video computes both histogram series and the pooled
  feature into a single-record archive; a finalization step streams those
  archives in key order into range-partitioned shards without decoding
  them.
* mean: one task per shard pair (i, j), i <= j, accumulates per-slot
  chi-square sums and pair counts; a deterministic reduce produces
  ``mean_csd.csv``.
* similarity: one task per shard pair emits a sorted partial CSV of scores;
  the partials are merge-sorted into ``similarity.csv``.

Every task writes its output to a temporary path, atomically renames it,
and drops a done marker; completed tasks are skipped on resume. Outputs are
byte-identical for any worker count: task outputs do not depend on
scheduling, and all reductions run single-threaded in ascending task-id
order after the stage barrier.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

from .archive import (
    SHARD_NAME_FORMAT,
    ArchiveRecord,
    cartesian_pairs,
    read_archive,
    shard_partition,
    write_archive,
    write_shards,
)
from .descriptors import DEFAULT_HOG_THRESHOLD, compute_series, dump_series_text
from .flow import FarnebackParams
from .frames import load_frame_sequence
from .pooling import DEFAULT_LEVELS, SLOTS, pot_vector
from .similarity import (
    MeanCsd,
    csd_sixtuple,
    kernel_distance,
    mean_csd,
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
    """One unit of checkpointed parallel work."""

    id: int
    stage: str
    # extract: video key; pair stages: "i,j" shard indices
    label: str
    payload: tuple
    out_path: str
    done_path: str

    def is_done(self) -> bool:
        return os.path.exists(self.done_path) and os.path.exists(self.out_path)


@dataclass
class StagePlan:
    stage: str
    tasks: list[Task]


def parse_manifest(path: str | Path) -> list[tuple[str, str]]:
    """Read `<key>,<frames-directory>` lines; keys unique, no commas.

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
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        seen.add(key)
        entries.append((key, str((path.parent / directory).resolve())))
    if not entries:
        raise ConfigError(f"manifest is empty: {path}")
    return entries


def resolve_shard_count(config: PipelineConfig, video_count: int) -> int:
    if config.shard_count is not None:
        if config.shard_count < 1:
            raise ConfigError(f"shard count must be >= 1, got {config.shard_count}")
        return config.shard_count
    return max(1, math.ceil(video_count / DEFAULT_VIDEOS_PER_SHARD))


def config_fingerprint(config: PipelineConfig, video_count: int) -> str:
    """Hash of all parameters that affect pipeline output."""
    fb = config.farneback
    payload = {
        "working": [config.working_w, config.working_h],
        "levels": list(config.levels),
        "hog_threshold": config.hog_threshold,
        "shard_count": resolve_shard_count(config, video_count),
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


def state_root(config: PipelineConfig) -> Path:
    return Path(config.state_dir) if config.state_dir else Path(config.out_dir) / "state"


def prepare_state(config: PipelineConfig, fingerprint: str) -> Path:
    """Create (or validate) the state dir; refuse fingerprint mismatches."""
    root = state_root(config)
    root.mkdir(parents=True, exist_ok=True)
    fp_file = root / "fingerprint"
    if fp_file.exists():
        existing = fp_file.read_text().strip()
        if existing != fingerprint:
            raise ConfigError(
                f"state dir {root} was produced with different parameters "
                f"(fingerprint {existing} != {fingerprint}); use a fresh state "
                f"dir or restore the original configuration"
            )
    else:
        fp_file.write_text(fingerprint + "\n")
    for stage in (STAGE_EXTRACT, STAGE_MEAN, STAGE_SIM):
        (root / stage).mkdir(exist_ok=True)
    return root


def _prepare_stage(config: PipelineConfig) -> tuple[list[tuple[str, str]], int, Path]:
    """Preamble shared by all stages: manifest entries, the planned shard
    count (empty shards omitted) and the validated state dir."""
    entries = parse_manifest(config.manifest)
    shard_count = len(shard_partition(len(entries), resolve_shard_count(config, len(entries))))
    state_dir = prepare_state(config, config_fingerprint(config, len(entries)))
    return entries, shard_count, state_dir


def _atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _mark_done(task: Task) -> None:
    Path(task.done_path).touch()


# ---------------------------------------------------------------------------
# Planning


def plan_extract(
    config: PipelineConfig, entries: list[tuple[str, str]], state_dir: Path
) -> StagePlan:
    """One task per video, ordered by key."""
    tasks = []
    work_dir = state_dir / STAGE_EXTRACT
    for task_id, (key, directory) in enumerate(sorted(entries)):
        tasks.append(
            Task(
                id=task_id,
                stage=STAGE_EXTRACT,
                label=key,
                payload=(key, directory),
                out_path=str(work_dir / f"task-{task_id}.out"),
                done_path=str(work_dir / f"task-{task_id}.done"),
            )
        )
    return StagePlan(stage=STAGE_EXTRACT, tasks=tasks)


def plan_pair_stage(stage: str, shard_count: int, state_dir: Path) -> StagePlan:
    """One task per shard pair (i, j) with i <= j: S(S+1)/2 tasks."""
    if stage not in (STAGE_MEAN, STAGE_SIM):
        raise ValueError(f"not a pair stage: {stage}")
    work_dir = state_dir / stage
    tasks = []
    task_id = 0
    for i in range(shard_count):
        for j in range(i, shard_count):
            tasks.append(
                Task(
                    id=task_id,
                    stage=stage,
                    label=f"shards ({i},{j})",
                    payload=(i, j),
                    out_path=str(work_dir / f"task-{task_id}.out"),
                    done_path=str(work_dir / f"task-{task_id}.done"),
                )
            )
            task_id += 1
    return StagePlan(stage=stage, tasks=tasks)


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
    tmp = task.out_path + ".tmp"
    write_archive([record], tmp)
    os.replace(tmp, task.out_path)
    if config.dump_series:
        dump_series_text(hof, key, config.out_dir)
        dump_series_text(hog, key, config.out_dir)


def _shard_pair_csds(config: PipelineConfig, i: int, j: int):
    """Yield (key_a, key_b, csd) for every pair of shard-pair task (i, j)."""
    records_a = read_archive(_shard_path(config, i))
    records_b = records_a if i == j else read_archive(_shard_path(config, j))
    for rec_a, rec_b in cartesian_pairs(records_a, records_b, i == j):
        yield rec_a.key, rec_b.key, csd_sixtuple(rec_a.feature, rec_b.feature)


def _run_mean_task(config: PipelineConfig, task: Task) -> None:
    sums = {slot: 0.0 for slot in SLOTS}
    pair_count = 0
    for _, _, csd in _shard_pair_csds(config, *task.payload):
        for slot in SLOTS:
            sums[slot] += csd[slot]
        pair_count += 1
    payload = {
        "pair_count": pair_count,
        "sums": {f"{s}/{p}": sums[(s, p)] for s, p in SLOTS},
    }
    _atomic_write_bytes(task.out_path, json.dumps(payload).encode())


def _run_sim_task(config: PipelineConfig, task: Task) -> None:
    mean = read_mean_csd_csv(Path(config.out_dir) / "mean_csd.csv")
    lines = []
    for key_a, key_b, csd in _shard_pair_csds(config, *task.payload):
        score = similarity_score(kernel_distance(csd, mean))
        lines.append(f"{key_a},{key_b},{score!r}\n")
    _atomic_write_bytes(task.out_path, "".join(lines).encode())


_TASK_RUNNERS = {
    STAGE_EXTRACT: _run_extract_task,
    STAGE_MEAN: _run_mean_task,
    STAGE_SIM: _run_sim_task,
}


def _run_task(config: PipelineConfig, task: Task) -> tuple[int, str | None, float]:
    start = time.monotonic()
    try:
        _TASK_RUNNERS[task.stage](config, task)
        _mark_done(task)
        return task.id, None, (time.monotonic() - start) * 1000.0
    except Exception as exc:  # surfaced per task, stage fails afterwards
        return task.id, f"{type(exc).__name__}: {exc}", (time.monotonic() - start) * 1000.0


# ---------------------------------------------------------------------------
# Execution


def execute(plan: StagePlan, config: PipelineConfig) -> None:
    """Run a stage's tasks on the worker pool; skip completed, fail late."""
    by_id = {t.id: t for t in plan.tasks}
    pending = [t for t in plan.tasks if not t.is_done()]
    for task in plan.tasks:
        if task.is_done():
            logger.info(
                "task=%d stage=%s target=%s outcome=skipped", task.id, plan.stage, task.label
            )
    failures: list[tuple[str, str]] = []

    def record(task_id: int, error: str | None, duration_ms: float) -> None:
        task = by_id[task_id]
        outcome = "ok" if error is None else "failed"
        logger.info(
            "task=%d stage=%s target=%s outcome=%s duration_ms=%.1f%s",
            task.id,
            plan.stage,
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
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = {pool.submit(_run_task, config, task): task for task in pending}
            for future in as_completed(futures):
                try:
                    record(*future.result())
                except Exception as exc:  # e.g. BrokenProcessPool: a worker died
                    elapsed_ms = (time.monotonic() - start) * 1000.0
                    record(futures[future].id, f"{type(exc).__name__}: {exc}", elapsed_ms)

    if failures:
        failures.sort(key=lambda f: f[0])
        raise StageError(plan.stage, failures)


# ---------------------------------------------------------------------------
# Stages


def _stage_marker(state_dir: Path, stage: str) -> Path:
    return state_dir / stage / ".stage.done"


def run_extract(config: PipelineConfig) -> list[Path]:
    """Extract stage: per-video features, then range-partitioned shards."""
    entries, shard_count, state_dir = _prepare_stage(config)
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)

    marker = _stage_marker(state_dir, STAGE_EXTRACT)
    expected = [_shard_path(config, i) for i in range(shard_count)]
    if marker.exists() and all(p.exists() for p in expected):
        return expected

    plan = plan_extract(config, entries, state_dir)
    execute(plan, config)

    # task ids follow sorted keys, so the task archives are in key order
    shards = write_shards([t.out_path for t in plan.tasks], config.out_dir, shard_count)
    marker.touch()
    return [s.path for s in shards]


def reduce_mean(partials: list[tuple[dict, int]]) -> MeanCsd:
    """Deterministic reduce: sum slot sums and pair counts in list order."""
    sums = {slot: 0.0 for slot in SLOTS}
    total = 0
    for slot_sums, count in partials:
        for slot in SLOTS:
            sums[slot] += slot_sums[slot]
        total += count
    return mean_csd(sums, total)


def _require_shards(config: PipelineConfig, shard_count: int) -> None:
    missing = [
        str(_shard_path(config, i))
        for i in range(shard_count)
        if not _shard_path(config, i).exists()
    ]
    if missing:
        raise ConfigError(f"missing shard files: {', '.join(missing)} (run extract first)")


def run_mean(config: PipelineConfig) -> MeanCsd:
    """Mean stage: per-shard-pair partial sums reduced into mean_csd.csv."""
    _, shard_count, state_dir = _prepare_stage(config)
    _require_shards(config, shard_count)

    out_path = Path(config.out_dir) / "mean_csd.csv"
    marker = _stage_marker(state_dir, STAGE_MEAN)
    if marker.exists() and out_path.exists():
        return read_mean_csd_csv(out_path)

    plan = plan_pair_stage(STAGE_MEAN, shard_count, state_dir)
    execute(plan, config)

    partials = []
    for task in plan.tasks:  # ascending task id: fixed merge order
        payload = json.loads(Path(task.out_path).read_bytes())
        slot_sums = {
            (s, p): payload["sums"][f"{s}/{p}"] for s, p in SLOTS
        }
        partials.append((slot_sums, payload["pair_count"]))
    try:
        mean = reduce_mean(partials)
    except ValueError as exc:
        raise StageError(STAGE_MEAN, [("reduce", str(exc))]) from exc

    tmp = out_path.with_name(out_path.name + ".tmp")
    write_mean_csd_csv(mean, tmp)
    os.replace(tmp, out_path)
    marker.touch()
    return mean


SIMILARITY_HEADER = "video_a,video_b,similarity\n"


def run_similarity(config: PipelineConfig) -> Path:
    """Similarity stage: per-shard-pair partial CSVs merge-sorted into
    similarity.csv."""
    entries, shard_count, state_dir = _prepare_stage(config)
    _require_shards(config, shard_count)
    mean_path = Path(config.out_dir) / "mean_csd.csv"
    if not mean_path.exists():
        raise ConfigError(f"missing {mean_path} (run mean first)")
    if len(entries) < 2:
        raise StageError(STAGE_SIM, [("plan", "corpus has fewer than 2 videos")])

    out_path = Path(config.out_dir) / "similarity.csv"
    marker = _stage_marker(state_dir, STAGE_SIM)
    if marker.exists() and out_path.exists():
        return out_path

    plan = plan_pair_stage(STAGE_SIM, shard_count, state_dir)
    execute(plan, config)

    def parsed(task: Task):
        with open(task.out_path) as fh:
            for line in fh:
                key_a, key_b, _ = line.split(",", 2)
                yield (key_a, key_b), line

    streams = [parsed(task) for task in plan.tasks]
    tmp = out_path.with_name(out_path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(SIMILARITY_HEADER)
        for _, line in heapq.merge(*streams, key=lambda item: item[0]):
            fh.write(line)
    os.replace(tmp, out_path)
    marker.touch()
    return out_path


def run_pipeline(config: PipelineConfig) -> Path:
    """Extract, mean, and similarity in sequence with checkpointing."""
    run_extract(config)
    run_mean(config)
    return run_similarity(config)
