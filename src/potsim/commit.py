"""
The one way potsim writes an output file: to ``<path>.tmp``, then renamed.

``os.replace`` is atomic, so a file at an output path is always complete,
and a file that exists is finished; the engine's checkpoints rely on this.
A whole new file replaces the old one, never a rewrite in place, so a
hard-linked copy of an output directory keeps its own contents.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


@contextmanager
def committed(path: str | Path) -> Iterator[Path]:
    """Yield ``<path>.tmp`` to write; rename it to ``path`` if the block
    succeeds. On failure the tmp file is removed, ``path`` is left as it
    was and the error propagates."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
