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
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from .descriptors import DEFAULT_HOG_THRESHOLD
from .engine import (
    DEFAULT_WORKING_RESOLUTION,
    SIMILARITY_HEADER,
    ConfigError,
    PipelineConfig,
    StageError,
    run_extract,
    run_mean,
    run_pipeline,
    run_similarity,
)
from .flow import FarnebackParams
from .frames import encode_pgm
from .pooling import DEFAULT_LEVELS

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


# argparse checks only the syntax of a value; engine.check_config decides
# which values a run can use, for the CLI and library callers alike.
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
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
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
    with open(path) as fh:
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
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    pgm_path = out_prefix.with_name(out_prefix.name + ".pgm")
    keys_path = out_prefix.with_name(out_prefix.name + ".keys.txt")
    pgm_path.write_bytes(encode_pgm(image))
    keys_path.write_text("".join(key + "\n" for key in keys))
    return pgm_path, keys_path


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

    try:
        if args.command == "heatmap":
            pgm_path, keys_path = render_heatmap(args.sim_csv, args.out)
            print(f"wrote {pgm_path} and {keys_path}")
            return EXIT_OK

        config = _config_from_args(args)
        if args.command == "extract":
            shards = run_extract(config)
            print(f"wrote {len(shards)} shard(s) to {config.out_dir}")
        elif args.command == "mean":
            mean = run_mean(config)
            print(f"wrote mean_csd.csv (pair_count={mean.pair_count})")
        elif args.command == "sim":
            out = run_similarity(config)
            print(f"wrote {out}")
        elif args.command == "run":
            out = run_pipeline(config)
            print(f"wrote {out}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
