import os
import subprocess
import sys
import time

import pytest

from potsim.commit import committed, remove_stray_tmp


def test_interleaved_writers_never_leave_a_partial_file(tmp_path):
    """Writer A commits while writer B, on the same path, is half way
    through; then B dies. The path holds A's whole file: each attempt has
    a temporary file of its own."""
    path = tmp_path / "task-0.out"
    whole = bytes(range(100))
    writer_a = committed(path)
    tmp_a = writer_a.__enter__()
    tmp_a.write_bytes(whole)
    with pytest.raises(RuntimeError):
        with committed(path) as tmp_b:
            with open(tmp_b, "wb") as fh:
                fh.write(whole[:10])
                writer_a.__exit__(None, None, None)
                raise RuntimeError("writer B dies")
    assert path.read_bytes() == whole
    assert sorted(tmp_path.iterdir()) == [path]


def test_stray_tmp_removed_only_if_older_than_the_start_and_its_writer_gone(tmp_path):
    """A temporary file is removed when it is older than the run's start and
    the pid in its name is not running: it was left by an attempt that died.
    One of a running process, or newer than the start, is kept. A writer
    that exited but is not yet reaped (a zombie, as a killed pool worker is
    until its parent or init waits on it) is gone."""
    gone = subprocess.Popen([sys.executable, "-c", "pass"])
    gone.wait()
    zombie = subprocess.Popen([sys.executable, "-c", "pass"])
    # wait until it has exited, but leave it unreaped
    os.waitid(os.P_PID, zombie.pid, os.WEXITED | os.WNOWAIT)
    start = time.time_ns()
    names = {
        "task-1.out.tmp": False,  # no pid: an earlier layout's name
        f"task-2.out.{gone.pid}.0a1b2c3d.tmp": False,
        f"task-3.out.{os.getpid()}.0a1b2c3d.tmp": False,  # this run has none in flight
        f"task-4.out.{os.getppid()}.0a1b2c3d.tmp": True,  # a running writer
        f"task-6.out.{zombie.pid}.0a1b2c3d.tmp": False,
        "task-0.out": True,
    }
    for name in names:
        (tmp_path / name).write_bytes(b"x")
        os.utime(tmp_path / name, ns=(start - 10**9, start - 10**9))
    newer = tmp_path / f"task-5.out.{gone.pid}.0a1b2c3d.tmp"
    newer.write_bytes(b"x")
    os.utime(newer, ns=(start + 10**9, start + 10**9))
    try:
        remove_stray_tmp(tmp_path, start)
    finally:
        zombie.wait()
    kept = sorted(name for name, keep in names.items() if keep) + [newer.name]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept)
