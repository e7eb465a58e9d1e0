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
  one open at a time, which is global key-pair order (``stage.key_rows``), and
  sums the rows strictly in that order into ``mean_csd.csv``, so no bit of
  it depends on the shard layout.
* similarity: no tasks of its own, no shard read and no numpy; it takes
  the same walk, and each pair's row, normalised by the means, becomes a
  line of ``similarity.csv`` (``stage.run_sim``). It refuses, as a resumed
  mean stage does, a ``mean_csd.csv`` whose pair count is not the layout's.

Every decision about the run's files and settings that needs no numpy
is ``layout``'s: the config and its checks, the manifest, the shard
layout, the fingerprint, the state dir, each marker's and output's name,
and a stage's sweep, marker and done rule. How a stage runs, the mean
rows' format and walk and the whole sim stage are ``stage``'s, which needs
no numpy either. This module computes extract and mean with them.

Every command, the CLI's and this module's, is driven by
``layout.run_command``: it checks the settings, reads the manifest, cuts
the shard layout and digests the inputs once, checks or writes the
fingerprint, and for each stage makes mean's pair-count check, the sweep
and the done rule, then runs a pending sim itself. A pending extract or
mean comes here, to ``stage_body``, and the flow window's fit, which needs
numpy, to ``check_fit``; ``run_extract``, ``run_mean``, ``run_similarity``
and ``run_pipeline`` hand both to the driver, and the CLI hands it
wrappers that import this module only when one is called. So a command
whose stages are all finished, or all but sim, never loads it.

Every file, markers included, is written to a temporary file of its own
attempt and renamed into place (``commit.committed``), so a file that
exists is finished. Each pending stage is its plan plus its reduce, run by
``stage.run_stage``, which is handed ``_run_packet`` to run the tasks: it
refuses missing inputs, runs the tasks whose outputs are missing and skips
the rest, logs the task counts, reduces and commits the marker
``<stage>.done``, which records its outputs' sizes. The state dir's
fingerprint covers the parameters, the flow's precision and the frame
files (names, sizes, mtimes), so a resume never reuses the results that
state dir holds for changed inputs or for a flow of another precision.
The files in ``--out`` are not covered: mean reads the shards there as
they are, and a stage whose marker is in its state dir keeps its outputs
there, so two state dirs with other parameters sharing one ``--out`` can
leave means and scores of one run beside the shards of the other. Outputs
are byte-identical for any worker count and shard layout: task outputs do
not depend on scheduling, and the reduce runs single-threaded in global
key-pair order after the stage barrier.
"""

from __future__ import annotations

import importlib
import time
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .archive import ArchiveRecord, read_archive, write_archive, write_shards
from .commit import committed
from .descriptors import block_pairs, compute_series, dump_series_text
from .flow import validate_params
from .frames import load_frame_sequence
from .layout import (
    MEAN_CSD_NAME,
    SIMILARITY_NAME,
    SLOTS,
    STAGE_EXTRACT,
    STAGE_MEAN,
    STAGE_SIM,
    STAGES,
    ConfigError,
    PipelineConfig,
    Run,
    ShardKeys,
    StageError,
    dump_paths,
    mean_rows_path,
    read_means,
    run_command,
    shard_path,
    write_means,
)
from .pooling import pot_vector
from .similarity import MeanCsd, csd_stack, mean_csd, ordered_sum
# unused here, but bound: perfbench's tracer wraps them by these names
from .similarity import csd_sixtuple, kernel_distance  # noqa: F401
from .stage import ROW_DTYPE, Task, TaskResults, describe, key_rows, run_stage


def check_fit(config: PipelineConfig) -> None:
    """Refuse flow settings whose expansion window has no fit
    (``flow.validate_params``): the one check of the settings that needs
    numpy, which ``layout.run_command`` runs before it writes a fingerprint."""
    try:
        validate_params(config.farneback)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Planning


def plan_extract(
    config: PipelineConfig, entries: list[tuple[str, str]], state_dir: Path
) -> list[Task]:
    """One task per video, ordered by key."""
    work_dir = state_dir / STAGE_EXTRACT
    return [
        Task(
            id=task_id,
            stage=STAGE_EXTRACT,
            label=key,
            payload=(key, directory),
            out_path=str(work_dir / f"task-{task_id}.out"),
            dump_paths=tuple(map(str, dump_paths(config, key))),
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
            out_path=str(mean_rows_path(state_dir, i)),
        )
        for i in range(len(shard_keys))
    ]


# ---------------------------------------------------------------------------
# Task bodies (module-level for multiprocessing)


def _run_extract_packet(config: PipelineConfig, packet: list[Task]) -> TaskResults:
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
            errors[i] = describe(exc)
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
                errors[i] = describe(exc)
        else:
            row = 0
            for i, length in lengths.items():
                tick = time.monotonic()
                series = hof[row : row + length - 1], hog[row : row + length - 1]
                row += length - 1
                try:
                    _commit_features(config, packet[i], length, *series)
                except Exception as exc:
                    errors[i] = describe(exc)
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
    feature = pot_vector(hof, hog, config.levels)
    record = ArchiveRecord(key=task.label, frame_count=frame_count, feature=feature)
    for series, path in zip((hof, hog), task.dump_paths):
        dump_series_text(series, path)
    # the task's last act: its archive exists only once the dumps do
    with committed(task.out_path) as tmp:
        write_archive([record], tmp)


def _read_shard(config: PipelineConfig, index: int, keys: tuple[str, ...]) -> np.ndarray:
    """Shard ``index``'s features as the columns of one (features x keys)
    block, the shard checked to hold exactly ``keys``."""
    path = shard_path(config.out_dir, index)
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


def _run_task(config: PipelineConfig, task: Task) -> tuple[str | None, float]:
    """Run a mean task: its error, None if it succeeded, and its duration
    in ms. Extract runs its tasks by packets (``_run_extract_packet``)."""
    start = time.monotonic()
    try:
        _run_mean_task(config, task)
        return None, (time.monotonic() - start) * 1000.0
    except Exception as exc:  # surfaced per task, stage fails afterwards
        return describe(exc), (time.monotonic() - start) * 1000.0


def _run_packet(config: PipelineConfig, packet: list[Task]) -> TaskResults:
    """Each task's error and duration in ms, as ``_run_task`` gives them:
    an extract packet's in one call, any other packet's task by task."""
    if packet[0].stage == STAGE_EXTRACT:
        return _run_extract_packet(config, packet)
    return [_run_task(config, task) for task in packet]


# ---------------------------------------------------------------------------
# Stages


def stage_body(config: PipelineConfig, run: Run, stage: str, outputs: list[Path]) -> None:
    """Run a pending extract or mean stage, which ``layout.run_command`` has
    swept and found not done."""
    (_extract if stage == STAGE_EXTRACT else _mean)(config, run, outputs)


def run_extract(config: PipelineConfig) -> list[Path]:
    """Extract stage: per-video features, then range-partitioned shards;
    returns the shards' paths."""
    shard_keys = run_command(config, (STAGE_EXTRACT,), check_fit, stage_body)
    return [shard_path(config.out_dir, i) for i in range(len(shard_keys))]


def run_mean(config: PipelineConfig) -> MeanCsd:
    """Mean stage: per-pair slot distances, summed in global key-pair order
    into mean_csd.csv, which is returned."""
    run_command(config, (STAGE_MEAN,), check_fit, stage_body)
    means, pair_count = read_means(Path(config.out_dir) / MEAN_CSD_NAME)
    return MeanCsd(means=np.array(means), pair_count=pair_count)


def run_similarity(config: PipelineConfig) -> Path:
    """Similarity stage: the mean rows, read in key-pair order and
    normalised by the corpus means into similarity.csv."""
    run_command(config, (STAGE_SIM,), check_fit, stage_body)
    return Path(config.out_dir) / SIMILARITY_NAME


def run_pipeline(config: PipelineConfig) -> Path:
    """Extract, mean, and similarity in sequence."""
    run_command(config, STAGES, check_fit, stage_body)
    return Path(config.out_dir) / SIMILARITY_NAME


def _extract(config: PipelineConfig, run: Run, outputs: list[Path]) -> None:
    tasks = plan_extract(config, run.entries, run.state_dir)
    archives = {task.label: task.out_path for task in tasks}

    def reduce() -> None:
        write_shards([[archives[key] for key in keys] for keys in run.shard_keys], config.out_dir)

    def pack(pending: list[Task]) -> list[list[Task]]:
        if pending:
            # flow's filters: imported once, before any task, so that forked
            # workers inherit them and no task's time holds the import
            importlib.import_module("scipy.ndimage")
        return plan_packets(config, pending, run.frame_counts)

    run_stage(config, run.state_dir, STAGE_EXTRACT, outputs, reduce, [], tasks, _run_packet, pack)


def _mean(config: PipelineConfig, run: Run, outputs: list[Path]) -> None:
    tasks = plan_pair_stage(run.shard_keys, run.state_dir)

    def reduce() -> None:
        # one row at a time in global key-pair order, as a += loop would:
        # the same order whatever the shard layout
        total = np.zeros(len(SLOTS))
        pair_count = 0
        for _, data in key_rows(run.state_dir, run.shard_keys):
            rows = np.frombuffer(data, dtype=ROW_DTYPE).reshape(-1, len(SLOTS))
            total = ordered_sum(np.vstack([total, rows]))
            pair_count += len(rows)
        try:
            mean = mean_csd(total, pair_count)
        except ValueError as exc:
            raise StageError(STAGE_MEAN, [("reduce", str(exc))]) from exc
        with committed(outputs[0]) as tmp:
            write_means(mean.means.tolist(), mean.pair_count, tmp)

    # the tasks check the keys of the shards they read
    shards = [shard_path(config.out_dir, i) for i in range(len(run.shard_keys))]
    run_stage(config, run.state_dir, STAGE_MEAN, outputs, reduce, shards, tasks, _run_packet)
