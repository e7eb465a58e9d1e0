"""
How a pending stage runs, and the whole sim stage, without numpy.

The driver (``layout.run_command``) has already swept a stage's files and
found it not done when ``run_stage`` runs it, the engine's stages and sim
alike: it refuses missing inputs, runs the tasks whose outputs are missing
through the runner the engine gives it and skips the rest, logs the task
counts, reduces and commits the marker (``layout.write_marker``).

A mean task writes one row per pair of six little-endian float64 slot
distances (``ROW_DTYPE``, ``ROW_BYTES``). ``key_rows`` walks the row files
in global key-pair order, one file open at a time, for mean's reduce and
sim's. Sim runs no tasks and needs no numpy: ``run_sim`` scores each pair
from its row and the corpus means (``write_similarity``).
"""

from __future__ import annotations

import logging
import math
import os
import sys
import time
from array import array
from dataclasses import dataclass
from operator import add
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .commit import committed
from .layout import (
    SIMILARITY_HEADER,
    SLOTS,
    STAGE_MEAN,
    STAGE_SIM,
    STAGES,
    ConfigError,
    PipelineConfig,
    Run,
    ShardKeys,
    StageError,
    check_pair_count,
    marker_path,
    mean_rows_path,
    read_means,
    stage_outputs,
    write_marker,
)

# the stage's lines keep the logger name they have always had, whichever
# path runs the stage
logger = logging.getLogger("potsim.engine")

SCORE_DECAY = 10.0  # kernel-distance scale in exp(-kd / SCORE_DECAY)

# A mean task's row: one pair's six slot distances in SLOTS order
ROW_DTYPE = "<f8"
ROW_BYTES = 8 * len(SLOTS)


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


# each task's error, None if it succeeded, and its duration in ms
TaskResults = list[tuple[str | None, float]]


def describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_stage(
    config: PipelineConfig,
    state_dir: Path,
    stage: str,
    outputs: list[Path],
    reduce: Callable[[], None],
    needs: list[Path],
    tasks: Sequence[Task] = (),
    run_packet: Callable[[PipelineConfig, list[Task]], TaskResults] | None = None,
    pack: Callable[[list[Task]], list[list[Task]]] | None = None,
) -> None:
    """Run ``stage``, which is not done (see the module docstring), and
    commit its marker over ``outputs``. ``needs`` are the earlier stage's
    outputs that it reads. ``run_packet`` runs a packet of pending
    ``tasks``, a module-level function so that a worker process can run
    it; ``pack`` cuts the pending tasks into packets, each run in one call
    by one worker, and without it each task is a packet of its own."""
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
        (state_dir / stage).mkdir(exist_ok=True)
    packets = pack(pending) if pack else [[task] for task in pending]
    if config.workers <= 1 or len(packets) <= 1:
        for packet in packets:
            for task, result in zip(packet, run_packet(config, packet)):
                record(task, *result)
    else:
        # imported here, so that a command that runs no pool does not pay for it
        from concurrent.futures import ProcessPoolExecutor, as_completed

        start = time.monotonic()
        # no idle workers: a fork pool starts all of them at the first submit
        with ProcessPoolExecutor(max_workers=min(config.workers, len(packets))) as pool:
            futures = {pool.submit(run_packet, config, packet): packet for packet in packets}
            for future in as_completed(futures):
                packet = futures[future]
                try:
                    results = future.result()
                except Exception as exc:  # e.g. BrokenProcessPool: a worker died
                    elapsed_ms = (time.monotonic() - start) * 1000.0
                    results = [(describe(exc), elapsed_ms)] * len(packet)
                for task, result in zip(packet, results):
                    record(task, *result)

    ran, skipped, failed = len(pending) - len(failures), len(tasks) - len(pending), len(failures)
    logger.info("stage=%s tasks_ran=%d tasks_skipped=%d tasks_failed=%d", stage, ran, skipped, failed)
    if failures:
        raise StageError(stage, sorted(failures))
    reduce()
    write_marker(state_dir, stage, outputs)


# ---------------------------------------------------------------------------
# Mean's rows and sim


def row_counts(shard_keys: ShardKeys, i: int) -> list[int]:
    """Rows of mean task i per key of shard i: one per later key of shards
    i, i + 1, ..."""
    later = sum(map(len, shard_keys[i:]))
    return [later - 1 - k for k in range(len(shard_keys[i]))]


def key_rows(state_dir: Path, shard_keys: ShardKeys) -> Iterator[tuple[str, bytes]]:
    """Walk the mean rows in global key-pair order, one row file open at a
    time: yield each key with the bytes of its rows, one per later key. Row
    file i holds the rows of shard i's keys, one key after another.

    Each file is checked to hold one row per pair of its task: a short,
    long or old-format file fails here, naming its path."""
    for i, keys in enumerate(shard_keys):
        counts = row_counts(shard_keys, i)
        pair_count = sum(counts)
        path = mean_rows_path(state_dir, i)
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != pair_count * ROW_BYTES:
                raise ValueError(
                    f"{path}: {size} bytes where {pair_count} rows of six "
                    f"float64 distances take {pair_count * ROW_BYTES}; to repair it, "
                    f"delete that file and rerun `potsim mean`, which reruns its task "
                    f"and the reduce"
                )
            for key, count in zip(keys, counts):
                yield key, fh.read(count * ROW_BYTES)


def similarity_score(kd: float) -> float:
    """Map a kernel distance in [0, inf) to a similarity in (0, 1]."""
    if kd < 0.0:
        raise ValueError(f"kernel distance must be >= 0, got {kd}")
    return math.exp(-kd / SCORE_DECAY)


def write_similarity(
    path: Path, state_dir: Path, shard_keys: ShardKeys, means: Sequence[float]
) -> None:
    """Score every pair from its row (``key_rows``) and the six slot
    ``means`` into ``path``, a line per pair in key-pair order, each score
    the bits that ``similarity_score(kernel_distance(row, means))`` gives.

    Only the kernel distance runs as Python code per pair:
    ``c0 / m0 + ... + c5 / m5``, added in SLOTS order as
    ``similarity.kernel_distance`` adds it, divided by ``-SCORE_DECAY``;
    ``map`` and ``str.join`` make the scores (``math.exp``), their ``repr``
    and the lines. The sum does not start from 0.0 as ``kernel_distance``'s
    does, and the sign is taken with the divisor, not the sum: each moves
    at most the sign of a zero, and ``exp(+-0.0)`` is 1.0. A slot whose
    mean is 0, which ``kernel_distance`` skips, is divided by inf instead,
    which is exact: ``read_means`` refuses a non-finite or negative mean,
    and a slot's mean is its distances' sum over the pairs, so each
    distance of a slot of mean 0 is finite and >= +0.0; divided by inf it
    is +0.0, which added leaves the sum as it was. The rows are
    little-endian, so a big-endian host swaps their bytes."""
    keys = [key for shard in shard_keys for key in shard]
    partners = [f"{key}," for key in keys]
    m0, m1, m2, m3, m4, m5 = (m if m > 0.0 else math.inf for m in means)
    scale = -SCORE_DECAY
    with committed(path) as tmp, open(tmp, "w", encoding="utf-8") as out:
        out.write(SIMILARITY_HEADER)
        # the mean tasks checked their shards against exactly these keys
        for g, (key_a, data) in enumerate(key_rows(state_dir, shard_keys)):
            values = array("d", data)
            if sys.byteorder == "big":
                values.byteswap()
            c = iter(values)
            scaled = [
                (c0 / m0 + c1 / m1 + c2 / m2 + c3 / m3 + c4 / m4 + c5 / m5) / scale
                for c0, c1, c2, c3, c4, c5 in zip(c, c, c, c, c, c)
            ]
            if scaled:
                # "key_a,key_b,score" lines: the text after each "key_a,"
                lines = map(add, partners[g + 1 :], map(repr, map(math.exp, scaled)))
                out.write(f"{key_a},")
                out.write(f"\n{key_a},".join(lines))
                out.write("\n")


def run_sim(config: PipelineConfig, run: Run, outputs: list[Path]) -> None:
    """The pending sim stage (``run_stage``): no tasks and no shard read.
    It needs mean's marker and outputs; its reduce refuses, as a resumed
    mean stage does, a ``mean_csd.csv`` whose pair count is not the
    manifest's, then writes ``similarity.csv`` (``write_similarity``)."""
    mean_outputs = stage_outputs(config, run.state_dir, STAGE_MEAN, run.shard_keys)

    def reduce() -> None:
        means, pair_count = read_means(mean_outputs[0])
        check_pair_count(mean_outputs[0], pair_count, len(run.entries))
        write_similarity(outputs[0], run.state_dir, run.shard_keys, means)

    needs = [marker_path(run.state_dir, STAGE_MEAN), *mean_outputs]
    run_stage(config, run.state_dir, STAGE_SIM, outputs, reduce, needs)
