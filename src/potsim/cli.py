"""
Command-line entry points.

Subcommands map to pipeline stages plus conveniences::

    potsim extract  --manifest corpus.txt --out results/
    potsim mean     --manifest corpus.txt --out results/
    potsim sim      --manifest corpus.txt --out results/
    potsim run      --manifest corpus.txt --out results/
    potsim heatmap  results/similarity.csv --out results/heatmap

Exit codes: 0 success, 1 runtime/task failure, 2 usage or configuration
error. ``POT_STATE_DIR`` overrides the default state directory.

The parser is built from ``params`` alone, so ``--help``, a subcommand's
``--help`` and a usage error load neither numpy nor ``layout``. A stage
command runs through ``layout.run_command``, the driver of every command,
which needs no numpy: the CLI hands it ``_check_fit`` and ``_stage_body``,
which import the engine only when called, for a stage left to extract or
mean or a state dir without this fingerprint. So a command whose stages
are all finished, or all but sim, loads neither numpy nor the engine. The
driver returns the shard layout, from which ``_result_line`` makes the
line the command prints. ``heatmap``
refuses an ``--out`` whose directory cannot be one as the stage commands
refuse theirs (``layout.check_dir``), before it reads or writes anything.
``entry`` is the process entry of ``potsim``, ``python -m potsim`` and
``python -m potsim.cli``: it runs ``main`` and exits without the
interpreter's final GC sweep.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import logging
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .params import (
    DEFAULT_HOG_THRESHOLD,
    DEFAULT_LEVELS,
    DEFAULT_WORKING_RESOLUTION,
    FarnebackParams,
    default_workers,
)

if TYPE_CHECKING:
    from .layout import PipelineConfig, Run, ShardKeys

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


# argparse checks only the syntax of a value; layout.check_settings and
# engine.check_fit decide which values a run can use, for the CLI and
# library callers alike.
def _parse_resize(value: str) -> tuple[int, int]:
    try:
        w, h = value.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, got '{value}'")


def _parse_levels(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got '{value}'")


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=True, help="corpus manifest: <key>,<frames-dir> per line")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--workers", type=int, default=default_workers())
    parser.add_argument(
        "--resize", type=_parse_resize, default=DEFAULT_WORKING_RESOLUTION, metavar="WxH",
        help="working resolution (default %dx%d)" % DEFAULT_WORKING_RESOLUTION,
    )
    parser.add_argument(
        "--levels", type=_parse_levels, default=DEFAULT_LEVELS, metavar="L1,L2,...",
        help=f"temporal pyramid levels (default {','.join(map(str, DEFAULT_LEVELS))})",
    )
    parser.add_argument("--hog-threshold", type=float, default=DEFAULT_HOG_THRESHOLD)
    parser.add_argument("--state-dir", default=None, help="checkpoint state directory")
    # one flag per FarnebackParams field, typed and defaulted by it:
    # --pyr-scale, --flow-levels, --winsize, --iterations, --poly-n, --poly-sigma
    fb = parser.add_argument_group("optical flow")
    for param in dataclasses.fields(FarnebackParams):
        flag = "flow-levels" if param.name == "levels" else param.name.replace("_", "-")
        fb.add_argument(
            f"--{flag}", dest=f"flow_{param.name}", metavar=flag.replace("-", "_").upper(),
            type=type(param.default), default=param.default,
        )


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    from .layout import PipelineConfig

    farneback = FarnebackParams(
        **{p.name: getattr(args, f"flow_{p.name}") for p in dataclasses.fields(FarnebackParams)}
    )
    state_dir = args.state_dir or os.environ.get("POT_STATE_DIR") or None
    return PipelineConfig(
        manifest=args.manifest,
        out_dir=args.out,
        working_w=args.resize[0],
        working_h=args.resize[1],
        levels=args.levels,
        hog_threshold=args.hog_threshold,
        workers=args.workers,
        farneback=farneback,
        state_dir=state_dir,
        dump_series=getattr(args, "dump_series", False),
    )


def _similarity_rows(path: str | Path) -> Iterator[tuple[str, str, float]]:
    """Stream similarity.csv as the engine writes it: a key holds no comma,
    so each line splits on ',' (a quote is part of a key, not CSV quoting)."""
    from .layout import SIMILARITY_HEADER

    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header != SIMILARITY_HEADER:
            raise ValueError(f"{path}: bad header {header.rstrip()!r}")
        for lineno, line in enumerate(fh, start=2):
            row = line.rstrip("\n").split(",")
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: malformed row {line.rstrip()!r}")
            try:
                score = float(row[2])
            except ValueError:
                score = math.nan
            # a pixel is round(255 * score): inf and nan have no pixel value
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"{path}:{lineno}: score {row[2]!r} is not a number in [0, 1]")
            yield row[0], row[1], score


def render_heatmap(sim_csv: str | Path, out_prefix: str | Path) -> tuple[Path, Path]:
    """Render similarity.csv as an NxN PGM plus a key-order listing. The file
    is read twice, keys then scores, so memory holds two NxN byte arrays."""
    from .layout import check_dir

    out_prefix = Path(out_prefix)
    check_dir(out_prefix.parent, "output dir")

    import numpy as np

    from .frames import encode_pgm

    keys = sorted({key for key_a, key_b, _ in _similarity_rows(sim_csv) for key in (key_a, key_b)})
    if not keys:
        raise ValueError(f"{sim_csv}: no pairs to render")
    index = {key: i for i, key in enumerate(keys)}
    image = np.full((len(keys), len(keys)), 255, dtype=np.uint8)
    filled = np.tri(len(keys), dtype=bool)  # the a < b pairs are above the diagonal
    for key_a, key_b, score in _similarity_rows(sim_csv):
        i, j = index[key_a], index[key_b]
        if i < j:  # a later duplicate wins
            image[i, j] = image[j, i] = min(max(round(255.0 * score), 0), 255)
            filled[i, j] = True
    if not filled.all():
        i, j = np.unravel_index(np.argmin(filled), filled.shape)
        raise ValueError(f"{sim_csv}: missing pair ({keys[i]}, {keys[j]})")
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    pgm_path = out_prefix.with_name(out_prefix.name + ".pgm")
    keys_path = out_prefix.with_name(out_prefix.name + ".keys.txt")
    pgm_path.write_bytes(encode_pgm(image))
    keys_path.write_text("".join(key + "\n" for key in keys), encoding="utf-8")
    return pgm_path, keys_path


# the engine's halves of the driver, imported only when the driver calls one
def _check_fit(config: PipelineConfig) -> None:
    from .engine import check_fit

    check_fit(config)


def _stage_body(config: PipelineConfig, run: Run, stage: str, outputs: list[Path]) -> None:
    from .engine import stage_body

    stage_body(config, run, stage, outputs)


def _result_line(command: str, config: PipelineConfig, shard_keys: ShardKeys) -> str:
    """The line a finished ``command`` prints, from the shard layout: the
    mean stage has checked mean_csd.csv's pair count against it."""
    from .layout import SIMILARITY_NAME

    if command == "extract":
        return f"wrote {len(shard_keys)} shard(s) to {config.out_dir}"
    if command == "mean":
        n = sum(map(len, shard_keys))
        return f"wrote mean_csd.csv (pair_count={n * (n - 1) // 2})"
    return f"wrote {Path(config.out_dir) / SIMILARITY_NAME}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potsim",
        description="Pairwise video similarity via pooled time series of "
        "optical-flow and gradient histograms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="compute features and write archive shards")
    _add_pipeline_args(p_extract)
    p_extract.add_argument(
        "--dump-series", action="store_true",
        help="also write per-video <key>.of.txt / <key>.hog.txt text dumps",
    )

    p_mean = sub.add_parser("mean", help="compute corpus mean chi-square distances")
    _add_pipeline_args(p_mean)

    p_sim = sub.add_parser("sim", help="compute pairwise similarity scores")
    _add_pipeline_args(p_sim)

    p_run = sub.add_parser("run", help="full pipeline: extract, mean, sim")
    _add_pipeline_args(p_run)
    p_run.add_argument("--dump-series", action="store_true")

    p_heat = sub.add_parser("heatmap", help="render similarity.csv as an NxN PGM")
    p_heat.add_argument("sim_csv", help="path to similarity.csv")
    p_heat.add_argument("--out", required=True, help="output prefix (writes <out>.pgm, <out>.keys.txt)")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        logging.basicConfig(
            level=os.environ.get("POTSIM_LOG", "INFO"),
            format="%(asctime)s %(name)s %(message)s",
        )
    except ValueError as exc:  # a level name logging does not know
        print(f"error: POTSIM_LOG: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    # the run's settings and files load here, numpy and the engine only for
    # a command with work left but sim: parsing, --help and usage errors pay
    # for neither
    from .layout import STAGES, ConfigError, StageError, run_command

    try:
        if args.command == "heatmap":
            pgm_path, keys_path = render_heatmap(args.sim_csv, args.out)
            print(f"wrote {pgm_path} and {keys_path}")
            return EXIT_OK

        config = _config_from_args(args)
        stages = STAGES if args.command == "run" else (args.command,)
        shard_keys = run_command(config, stages, _check_fit, _stage_body)
        print(_result_line(args.command, config, shard_keys))
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


# The process entry of `potsim`, `python -m potsim` and `python -m
# potsim.cli`. At exit the interpreter runs a last cyclic-GC collection
# that walks every object numpy and scipy loaded, and a command exits right
# after it prints. gc.freeze() moves them all to the permanent generation,
# which that collection skips. Against the same code without it (2-core
# host, medians of alternated runs, 154 videos at 32x32): `sim` on a
# finished state 161 -> 142 ms and `--help` 56 -> 50 ms (faster in 12 of
# 12), a cold `extract --workers 2` 788 -> 758 ms (9 of 10). main() itself
# never freezes: called in-process it leaves the caller's GC, and the
# ResourceWarnings that GC raises, as they were.
def entry() -> None:
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
