"""Measurement helpers: timed child processes, percentiles, and the
engine's per-task log lines."""

from __future__ import annotations

import math
import os
import re
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the values at or below it (q in (0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    """Middle value, or the mean of the two middle values."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def maxrss_mb(ru_maxrss: int) -> float:
    """``ru_maxrss`` is in KiB on Linux; report MiB."""
    return ru_maxrss / 1024.0


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    # peak resident set of the largest process in the child's tree that
    # was waited for (the child itself or one of its pool workers)
    peak_rss_mb: float
    stderr_path: Path


def run_child(argv: list[str], env: dict, cwd: Path, log_path: Path) -> ChildResult:
    """Run a command to completion; time it and read its rusage.

    stdout is discarded and stderr is kept in ``log_path``. The child is
    reaped with ``wait4`` so its resource usage, including that of its own
    reaped children, comes back with its exit status. The child leads its
    own process group; if the wait is interrupted, the whole group (the
    child and any pool workers) is killed and reaped before re-raising.
    After the child exits, any process it left in its group is killed, so
    that nothing it started runs on into the next measurement.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=log,
            start_new_session=True,
        )
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        wall = time.perf_counter() - start
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(child.returncode, wall, maxrss_mb(usage.ru_maxrss), log_path)


# Written by potsim.engine.execute, one line per task, for example
#   ... potsim.engine task=3 stage=mean target=shards (0,3) outcome=ok duration_ms=41.2
TASK_LINE = re.compile(
    r"task=(?P<id>\d+) stage=(?P<stage>\S+) target=(?P<target>.*?) "
    r"outcome=(?P<outcome>ok|failed|skipped)(?: duration_ms=(?P<ms>[0-9.]+))?"
)


@dataclass
class TaskLine:
    task_id: int
    stage: str
    target: str
    outcome: str
    duration_ms: float | None


def parse_task_lines(text: str) -> list[TaskLine]:
    """All per-task lines in a stage invocation's log, in log order."""
    tasks = []
    for line in text.splitlines():
        match = TASK_LINE.search(line)
        if match is None:
            continue
        ms = match.group("ms")
        tasks.append(
            TaskLine(
                task_id=int(match.group("id")),
                stage=match.group("stage"),
                target=match.group("target"),
                outcome=match.group("outcome"),
                duration_ms=float(ms) if ms is not None else None,
            )
        )
    return tasks
