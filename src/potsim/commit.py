"""
The one way potsim writes an output file: to a temporary file of its own,
then renamed.

``os.replace`` is atomic, so a file at an output path is always complete,
and a file that exists is finished; the engine's checkpoints rely on this.
A whole new file replaces the old one, never a rewrite in place, so a
hard-linked copy of an output directory keeps its own contents.

Each attempt writes ``<path>.<pid>.<random>.tmp``, created exclusively, so
two writers of one path (two runs on one state dir, say) never share a
temporary file: whichever renames last wins, with a complete file. An
attempt that dies without its ``finally`` (a killed process) leaves its
temporary file behind; ``remove_stray_tmp`` clears such files from a
directory, and keeps those of writers still running.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Collection, Iterator

TMP_SUFFIX = ".tmp"
# the output's name and the pid in ``<name>.<pid>.<random>.tmp``
_ATTEMPT = re.compile(r"(.*)\.(\d+)\.[0-9a-f]+\.tmp$", re.DOTALL)


def _create_tmp(path: Path) -> Path:
    """Create and return a new, empty temporary file beside ``path``."""
    while True:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}{TMP_SUFFIX}")
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except FileExistsError:
            continue
        return tmp


@contextmanager
def committed(path: str | Path) -> Iterator[Path]:
    """Yield a new temporary file of this attempt to write; rename it to
    ``path`` if the block succeeds. On failure the temporary file is
    removed, ``path`` is left as it was and the error propagates."""
    path = Path(path)
    tmp = _create_tmp(path)
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _writer_running(attempt: re.Match | None) -> bool:
    """Whether the temporary file that ``attempt`` matched was made by
    another process of this host that is still running (by the pid in its
    name). One that died but is not yet reaped, a zombie, is not: signal 0
    still reaches it, so on Linux its state in ``/proc/<pid>/stat`` is read,
    after the last ``)``, since the command name before it may hold any
    character."""
    if attempt is None:
        return False
    pid = int(attempt.group(2))
    if pid in (0, os.getpid()):
        return False
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):  # no such process, or no pid at all
        return False
    except PermissionError:  # it exists, as another user's
        pass
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:  # no /proc on this system, or the process just went
        return True
    return stat.rpartition(b")")[2].split()[:1] != [b"Z"]


def remove_stray_tmp(
    directory: str | Path, before_ns: int, outputs: Collection[str] | None = None
) -> None:
    """Remove the temporary files in ``directory`` that an attempt left when
    it died: those last modified before ``before_ns`` (``time.time_ns()`` at
    the start of the run calling this) whose writer is not running. A file
    modified since, or whose writer runs, belongs to an attempt that may
    still be writing it, such as one of a second run on the same state dir.
    A pid reused since only keeps a stray file until a later run.

    In a work dir every ``*.tmp`` file is one. In a directory shared with
    other files (``--out``, say) pass ``outputs``, the names written there:
    then only their attempts' files ``<name>.<pid>.<hex>.tmp`` are. A
    missing directory holds none."""
    with suppress(FileNotFoundError), os.scandir(directory) as entries:
        for entry in entries:
            attempt = _ATTEMPT.match(entry.name)
            if outputs is not None and (attempt is None or attempt.group(1) not in outputs):
                continue
            if not entry.name.endswith(TMP_SUFFIX) or _writer_running(attempt):
                continue
            try:
                if entry.stat(follow_symlinks=False).st_mtime_ns < before_ns:
                    os.unlink(entry.path)
            except FileNotFoundError:  # its writer renamed or removed it
                pass
