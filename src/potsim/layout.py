"""
The run's files and settings, and the driver of every command, without
numpy.

Every pure-Python decision about what a run reads and writes is made here
once: the settings (``PipelineConfig``), their checks (``check_settings``)
and the errors a command exits with, the manifest and the shard layout,
the digest of the frame files and the state dir's fingerprint, the name of
every marker and output, a stage's sweep of dead attempts' files, its
marker and its done rule, and the ``mean_csd.csv`` format. The engine and
``potsim.stage`` compute with these; the modules that compute with numpy
import their names from here.

A stage's marker records the byte size of each output it vouches for, and
the stage is done only while each output has that size
(``stage_done``): an output cut short or emptied under its marker reruns
the stage's reduce instead of being handed back as finished.

``run_command`` drives every command, the CLI's and the library's
(``engine.run_extract`` and the others) alike: it reads the manifest and
digests the inputs once, checks or writes the fingerprint, and for each
stage makes mean's pair-count check, the sweep and the done rule. It runs
a pending sim through ``potsim.stage`` and hands a pending extract or mean
to the stage body its caller supplies. The flow window's fit, the one
check that needs numpy, is the caller's too, and runs only where the
state dir holds no fingerprint or another one: a matching fingerprint was
written after that check passed for these settings, so it vouches for it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, TypeVar

from .commit import committed, remove_stray_tmp
from .params import (
    DEFAULT_HOG_THRESHOLD,
    DEFAULT_LEVELS,
    DEFAULT_WORKING_RESOLUTION,
    FarnebackParams,
    default_workers,
)

VIDEOS_PER_SHARD = 64  # also the widest block a mean task scores

# the flow's precision, np.dtype(flow.FLOW_DTYPE).name, as the fingerprint
# names it: a state dir of the float64 flow engine is refused, not mixed in
FLOW_PRECISION = "float32"

STAGE_EXTRACT = "extract"
STAGE_MEAN = "mean"
STAGE_SIM = "sim"
STAGES = (STAGE_EXTRACT, STAGE_MEAN, STAGE_SIM)

SERIES_KINDS = ("hof", "hog")
POOL_OPS = ("sum", "gradient", "max")
# Fixed slot order used everywhere downstream (archives, CSVs).
SLOTS = tuple((s, p) for s in SERIES_KINDS for p in POOL_OPS)

SHARD_NAME_FORMAT = "features-{:05d}.potf"
MEAN_CSD_NAME = "mean_csd.csv"
MEAN_CSD_HEADER = ["series", "pooling", "mean_csd", "pair_count"]
SIMILARITY_NAME = "similarity.csv"
SIMILARITY_HEADER = "video_a,video_b,similarity\n"
_SERIES_SUFFIX = {"hof": ".of.txt", "hog": ".hog.txt"}
_FRAME_EXTENSIONS = (".pgm", ".ppm")

T = TypeVar("T")
ShardKeys = list[list[str]]


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
    workers: int = field(default_factory=default_workers)
    farneback: FarnebackParams = field(default_factory=FarnebackParams)
    state_dir: str | None = None  # default: <out_dir>/state
    dump_series: bool = False


def check_settings(config: PipelineConfig) -> None:
    """Refuse any setting that no run can use, but for the flow window's
    fit, which takes numpy (``engine.check_fit``; see ``run_command``)."""
    if config.working_w < 1 or config.working_h < 1:
        raise ConfigError(f"working size must be >= 1, got {config.working_w}x{config.working_h}")
    if not config.levels or any(level < 1 for level in config.levels):
        raise ConfigError(f"levels must be non-empty and all >= 1, got {list(config.levels)}")
    # hog_frame counts |D| >= threshold on 0-255 frames: above 255 (or nan)
    # no pixel can count
    if not (isinstance(config.hog_threshold, numbers.Real) and config.hog_threshold <= 255.0):
        raise ConfigError(f"hog threshold must be a number <= 255, got {config.hog_threshold}")
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {config.workers}")
    try:
        config.farneback.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Inputs


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


def shard_records(records: Sequence[T], shard_count: int) -> list[Sequence[T]]:
    """Partition sorted records (or their keys, or their files) into
    contiguous key-range shards of near-equal size, larger shards first and
    empty shards omitted: the one place the shard layout is made."""
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    base, rem = divmod(len(records), shard_count)
    # shard i holds base + 1 records if i < rem, else base
    bounds = [i * base + min(i, rem) for i in range(shard_count + 1)]
    return [records[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def shard_layout(entries: list[tuple[str, str]]) -> ShardKeys:
    """The manifest's keys cut into ``shard_count(N)`` shards: each shard's
    sorted keys. The layout is a function of the key set alone."""
    keys = [key for key, _ in entries]
    return shard_records(keys, shard_count(len(keys)))


def frame_files(directory: str | Path) -> list[os.DirEntry]:
    """The frame files of a video directory (.pgm/.ppm, any case), in
    ascending lexicographic filename order, as the entries of one
    ``os.scandir`` pass: ``entry.stat()`` is ``os.stat`` of the file."""
    with os.scandir(directory) as entries:
        files = [
            entry
            for entry in entries
            if os.path.splitext(entry.name)[1].lower() in _FRAME_EXTENSIONS
        ]
    return sorted(files, key=lambda entry: entry.name)


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
        "flow_dtype": FLOW_PRECISION,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# State directory and output names


def state_root(config: PipelineConfig) -> Path:
    return Path(config.state_dir) if config.state_dir else Path(config.out_dir) / "state"


def check_dir(path: Path, role: str) -> None:
    """Refuse, as a ConfigError naming it in its ``role``, a ``path`` that
    cannot be a directory: one that is, or whose nearest existing parent
    is, not a directory."""
    existing = next((p for p in (path, *path.parents) if p.exists()), path)
    if existing.exists() and not existing.is_dir():
        where = "" if existing == path else f": {existing}"
        raise ConfigError(f"{role} {path}{where} is not a directory")


def prepare_state(
    config: PipelineConfig, fingerprint: str, check_fit: Callable[[PipelineConfig], None]
) -> Path:
    """Create (or validate) the state dir against ``fingerprint``. Where it
    holds no fingerprint, or another, ``check_fit`` checks the flow
    window's fit first, before anything is written. Then refuse, before
    anything is written, an output or state dir that cannot be a directory
    (``check_dir``), and after its stray temporary files are swept, a
    fingerprint mismatch."""
    root = state_root(config)
    fp_file = root / "fingerprint"
    existing = fp_file.read_text(encoding="utf-8").strip() if fp_file.exists() else None
    if existing != fingerprint:
        check_fit(config)
    check_dir(Path(config.out_dir), "output dir")
    check_dir(root, "state dir")
    root.mkdir(parents=True, exist_ok=True)
    remove_stray_tmp(root, time.time_ns(), {fp_file.name})
    if existing is None:
        with committed(fp_file) as tmp:
            tmp.write_text(fingerprint + "\n", encoding="utf-8")
    elif existing != fingerprint:
        raise ConfigError(
            f"state dir {root} was produced with different parameters or inputs "
            f"(fingerprint {existing} != {fingerprint}); use a fresh state "
            f"dir or restore the original configuration and frame files"
        )
    return root


def marker_path(state_dir: Path, stage: str) -> Path:
    return state_dir / f"{stage}.done"


def shard_path(out_dir: str | Path, index: int) -> Path:
    return Path(out_dir) / SHARD_NAME_FORMAT.format(index)


def dump_paths(config: PipelineConfig, key: str) -> list[Path]:
    """The series dumps of ``key``, one per SERIES_KINDS in that order, if
    --dump-series asks for them: the one place their paths are made."""
    if not config.dump_series:
        return []
    return [Path(config.out_dir) / (key + _SERIES_SUFFIX[kind]) for kind in SERIES_KINDS]


def mean_rows_path(state_dir: Path, index: int) -> Path:
    """The rows of mean task ``index``, shard row ``index``."""
    return state_dir / STAGE_MEAN / f"rows-{index}.out"


def stage_outputs(
    config: PipelineConfig, state_dir: Path, stage: str, shard_keys: ShardKeys
) -> list[Path]:
    """The files a finished ``stage`` leaves: extract's shards, then each
    video's series dumps in key order if asked for; ``mean_csd.csv``, then
    mean's rows, which sim reads; ``similarity.csv``."""
    out_dir = Path(config.out_dir)
    if stage == STAGE_EXTRACT:
        return [
            *(shard_path(out_dir, i) for i in range(len(shard_keys))),
            *(path for keys in shard_keys for key in keys for path in dump_paths(config, key)),
        ]
    if stage == STAGE_MEAN:
        return [out_dir / MEAN_CSD_NAME, *(mean_rows_path(state_dir, i) for i in range(len(shard_keys)))]
    return [out_dir / SIMILARITY_NAME]


def sweep_stage(config: PipelineConfig, state_dir: Path, stage: str, outputs: list[Path]) -> None:
    """Remove what dead attempts left of ``stage``'s files: every temporary
    file of its work dir, and from --out and the state root those of
    ``outputs`` and its marker."""
    marker = marker_path(state_dir, stage)
    started = time.time_ns()
    remove_stray_tmp(state_dir / stage, started)
    for directory in (Path(config.out_dir), state_dir):
        names = {path.name for path in (*outputs, marker) if path.parent == directory}
        remove_stray_tmp(directory, started, names)


def write_marker(state_dir: Path, stage: str, outputs: list[Path]) -> None:
    """Commit ``stage``'s marker: the byte size of each of its ``outputs``,
    by file name (unique among one stage's outputs), as JSON."""
    sizes = {path.name: os.stat(path).st_size for path in outputs}
    with committed(marker_path(state_dir, stage)) as tmp:
        tmp.write_text(json.dumps(sizes) + "\n", encoding="utf-8")


def stage_done(state_dir: Path, stage: str, outputs: list[Path]) -> bool:
    """Whether ``stage`` is finished: its marker records each of
    ``outputs`` at the size it has now. A missing output, one of another
    size (cut short, say: a rename can reach the disk before the file's
    data), and a marker that records no sizes, such as the empty marker of
    earlier versions, each leave the stage not done."""
    try:
        sizes = json.loads(marker_path(state_dir, stage).read_bytes())
        return all(sizes[path.name] == os.stat(path).st_size for path in outputs)
    except (OSError, ValueError, KeyError, TypeError):
        return False


# ---------------------------------------------------------------------------
# mean_csd.csv


def write_means(means: Sequence[float], pair_count: int, path: str | Path) -> None:
    """Persist the six per-slot means, in SLOTS order, with round-trip
    float formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MEAN_CSD_HEADER)
        for (series, pooling), value in zip(SLOTS, means, strict=True):
            writer.writerow([series, pooling, repr(value), pair_count])


def read_means(path: str | Path) -> tuple[list[float], int]:
    """Read the file as the mean stage writes it: the header, then one row
    per slot in SLOTS order, each with a finite mean >= 0 and the same pair
    count >= 1. Returns the six means and the pair count. Anything else is
    a ValueError naming the first bad line."""
    means: list[float] = []
    pair_count = None
    lineno = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                (row,) = csv.reader([line.decode("utf-8")])
                if lineno == 1:
                    if row != MEAN_CSD_HEADER:
                        raise ValueError(f"bad mean CSD header {row}")
                    continue
                if len(means) == len(SLOTS):
                    raise ValueError(f"row {row} after the six slot rows")
                slot = SLOTS[len(means)]
                if len(row) != 4 or tuple(row[:2]) != slot:
                    raise ValueError(f"bad mean CSD row {row} where slot {slot} belongs")
                mean, count = float(row[2]), int(row[3])
                if not (math.isfinite(mean) and mean >= 0.0):
                    raise ValueError(f"mean {row[2]} is not a finite number >= 0")
                if count < 1:
                    raise ValueError(f"pair count {count} is not >= 1")
                if pair_count not in (None, count):
                    raise ValueError(f"pair count {count} differs from {pair_count} above")
                means.append(mean)
                pair_count = count
            # csv.Error: a CR inside a row, or a field past csv's size limit
            except (ValueError, csv.Error) as exc:  # a UnicodeDecodeError too
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(means) < len(SLOTS):
        missing = f"the row of slot {SLOTS[len(means)]}" if lineno else "the header"
        raise ValueError(f"{path}:{lineno + 1}: missing {missing}")
    return means, pair_count


def check_pair_count(path: Path, pair_count: int, video_count: int) -> None:
    """Refuse a mean_csd.csv whose pair count is not the manifest's: a file
    of another corpus (two state dirs sharing one --out, say) would
    normalise every score by foreign means."""
    pairs = video_count * (video_count - 1) // 2
    if pair_count != pairs:
        raise ValueError(
            f"{path}: pair count {pair_count} where the manifest's {video_count} videos "
            f"make {pairs} pairs"
        )


# ---------------------------------------------------------------------------
# The driver


class Run(NamedTuple):
    """What every stage of a command works from (``prepare_run``)."""

    entries: list[tuple[str, str]]  # the manifest's, in key order
    shard_keys: ShardKeys  # each shard's sorted keys, empty shards omitted
    state_dir: Path  # validated against the fingerprint
    frame_counts: dict[str, int]  # each key's, from the fingerprint's listing


def prepare_run(config: PipelineConfig, check_fit: Callable[[PipelineConfig], None]) -> Run:
    """A command's preamble: check the settings, read the manifest, digest
    the inputs, then check or write the state dir's fingerprint
    (``prepare_state``) and cut the shard layout."""
    check_settings(config)
    entries = parse_manifest(config.manifest)
    inputs, frame_counts = _input_digest(entries)
    state_dir = prepare_state(config, config_fingerprint(config, entries, inputs), check_fit)
    return Run(entries, shard_layout(entries), state_dir, frame_counts)


def run_command(
    config: PipelineConfig,
    stages: Sequence[str],
    check_fit: Callable[[PipelineConfig], None],
    stage_body: Callable[[PipelineConfig, Run, str, list[Path]], None],
) -> ShardKeys:
    """Run ``stages``, some of STAGES in that order, with checkpointing,
    after one preamble (``prepare_run``); return the shard layout.

    Each stage is first checked, swept and asked whether it is done, here
    alone: mean's ``mean_csd.csv`` under its marker must hold the
    manifest's pair count (one of another corpus, from two state dirs
    sharing one --out, is refused; one that does not parse is rewritten by
    the reduce, or refused if the marker still vouches for its size), then
    ``sweep_stage`` removes what dead attempts left, and a stage whose
    marker vouches for its outputs (``stage_done``) is skipped. A pending
    sim runs through ``stage.run_sim``; a pending extract or mean through
    ``stage_body(config, run, stage, outputs)``, the engine's, which
    the caller supplies with ``check_fit``, the flow window's fit. Neither
    needs importing before it is called, so a command with nothing left to
    run, or only sim, loads no numpy."""
    run = prepare_run(config, check_fit)
    for stage in stages:
        outputs = stage_outputs(config, run.state_dir, stage, run.shard_keys)
        done = stage_done(run.state_dir, stage, outputs)
        if stage == STAGE_MEAN and marker_path(run.state_dir, stage).exists():
            try:
                pair_count = read_means(outputs[0])[1]
            except (OSError, ValueError):
                if done:
                    raise
            else:
                check_pair_count(outputs[0], pair_count, len(run.entries))
        sweep_stage(config, run.state_dir, stage, outputs)
        if done:
            continue
        if stage == STAGE_SIM:
            # imported here: a command with no stage to run loads no stage code
            from .stage import run_sim

            run_sim(config, run, outputs)
        else:
            stage_body(config, run, stage, outputs)
    return run.shard_keys
