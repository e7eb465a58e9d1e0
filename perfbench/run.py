"""potsim benchmark: score a seeded corpus through the ``potsim`` CLI.

    python3 perfbench/run.py --workload extract-128 --seed 1 --seconds 55 --trace 0

Run from the root of a potsim checkout. The corpus for ``--workload`` is
built from ``--seed`` (not timed), then scored until ``--seconds`` is
spent, in steps: an extract step is one cold ``potsim extract``; a pair
step is one cold ``potsim mean`` and ``sim`` on the state the last
extract left, then ``potsim run`` against the completed state and
``potsim --help``. Every invocation is a child process with
``--workers 2``, and every output is checked. The last line of stdout is
a JSON object holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics of one in-process traced run (``--trace 1``). See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(ROOT))
from perfbench import measure, tracer  # noqa: E402  (needs ROOT on the path)

WORKERS = 2
SETUP_SAMPLES_FIRST = 2
STAGES = ("extract", "mean", "sim")
PAIR_STAGES = ("mean", "sim")
# Per workload: pair steps after each extract step, and `potsim run` and
# `potsim --help` samples in each pair step. Invocations that are mostly
# process start-up vary more from one to the next than a multi-second
# stage does, so they get more samples per run: extract-128's pair stages,
# and resume and set-up everywhere.
SCHEDULE = {"extract-128": (3, 1), "wide-32": (2, 2)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "extract_s": "s",
    "mean_s": "s",
    "sim_s": "s",
    "total_s": "s",
    "frame_pairs_per_s": "1/s",
    "pairs_per_s": "1/s",
    "resume_s": "s",
    "peak_rss_mb": "MiB",
}


def fail_usage(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


@dataclass
class Tally:
    """Operations attempted and failed: CLI invocations and output checks."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Bench:
    def __init__(self, workload: str, corpus, work_dir: Path):
        self.workload = workload
        self.corpus = corpus
        self.work_dir = work_dir
        self.tally = Tally()
        self.env = dict(os.environ)
        self.env.pop("POT_STATE_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env["POTSIM_LOG"] = "INFO"

    def cli(self, args: list[str], log_name: str):
        argv = [sys.executable, "-m", "potsim.cli", *args]
        result = measure.run_child(argv, self.env, self.work_dir, self.work_dir / log_name)
        self.tally.check(result.returncode == 0, f"potsim {args[0]} exit {result.returncode}")
        return result

    def stage_args(self, command: str, out: Path, workers: int = WORKERS) -> list[str]:
        return [
            command, "--manifest", str(self.corpus.manifest), "--out", str(out),
            "--workers", str(workers), *self.corpus.cli_args,
        ]

    def setup_sample(self) -> float:
        return self.cli(["--help"], "help.log").wall_s

    def extract_step(self, out: Path) -> dict:
        """One cold extract into a fresh ``out``."""
        if out.exists():
            shutil.rmtree(out)
        result = self.cli(self.stage_args("extract", out), "extract.log")
        return {
            "extract": result.wall_s,
            "log": result.stderr_path.read_text(),
            "peak_rss_mb": result.peak_rss_mb,
        }

    def pair_step(self, extracted: Path, out: Path, resumes: int = 1) -> dict:
        """Cold mean and sim on a copy of an extract's output directory,
        output checks, then ``resumes`` resumes.

        The copy is made of hard links: the stages write only new files
        or replace whole ones, so ``extracted`` stays as extract left it,
        and no copied data is written back to disk while a stage is timed.
        """
        if out.exists():
            shutil.rmtree(out)
        shutil.copytree(extracted, out, copy_function=os.link)
        times, logs = {}, {}
        for stage in PAIR_STAGES:
            result = self.cli(self.stage_args(stage, out), f"{stage}.log")
            times[stage] = result.wall_s
            logs[stage] = result.stderr_path.read_text()
        self.check_outputs(out)
        outputs = read_outputs(out)
        resume = []
        for _ in range(resumes):
            resume.append(self.cli(self.stage_args("run", out), "run.log").wall_s)
            self.tally.check(read_outputs(out) == outputs, "resume left the outputs unchanged")
        return {"outputs": outputs, "times": times, "logs": logs, "resume_s": resume}

    def cold_round(self) -> dict:
        """One extract step and one pair step on its output."""
        extracted = self.work_dir / "round-extract"
        extract = self.extract_step(extracted)
        pairs = self.pair_step(extracted, self.work_dir / "round-out")
        pairs["times"] = {"extract": extract["extract"], **pairs["times"]}
        pairs["logs"] = {"extract": extract["log"], **pairs["logs"]}
        return pairs

    def check_outputs(self, out: Path) -> None:
        corpus = self.corpus
        sim_path, mean_path = out / "similarity.csv", out / "mean_csd.csv"
        if not self.tally.check(sim_path.is_file() and mean_path.is_file(), "outputs exist"):
            return
        lines = sim_path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        expected = list(combinations(sorted(corpus.keys), 2))
        self.tally.check(
            lines[:1] == ["video_a,video_b,similarity"]
            and [tuple(row[:2]) for row in rows] == expected,
            f"similarity.csv holds exactly the {len(expected)} key pairs",
        )
        scores = {}
        for row in rows:
            try:
                scores[(row[0], row[1])] = float(row[2])
            except (IndexError, ValueError):
                scores[tuple(row[:2])] = math.nan
        self.tally.check(
            all(math.isfinite(s) and 0.0 < s <= 1.0 for s in scores.values()),
            "every score is finite and in (0, 1]",
        )
        if corpus.duplicate_pairs:
            self.tally.check(
                all(scores.get(pair) == 1.0 for pair in corpus.duplicate_pairs),
                "byte-identical duplicates score exactly 1.0",
            )
        mean_rows = [line.split(",") for line in mean_path.read_text().splitlines()[1:]]
        self.tally.check(
            len(mean_rows) == 6
            and all(row[3:] == [str(corpus.pair_count)] for row in mean_rows),
            "mean_csd.csv has six slots over every pair",
        )


def read_outputs(out: Path) -> tuple[bytes, bytes]:
    return tuple(
        (out / name).read_bytes() if (out / name).is_file() else b""
        for name in ("similarity.csv", "mean_csd.csv")
    )


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Extract and pair steps until ``seconds`` is spent; each metric is
    the median of its samples.

    Steps run in a fixed order (an extract step, then the workload's
    number of pair steps, repeated). A step is skipped when its last run
    says it would end after ``seconds``; a pair step may then still fit.
    """
    setup = [bench.setup_sample() for _ in range(SETUP_SAMPLES_FIRST)]
    samples = {name: [] for name in ("extract", "peak_rss_mb", "mean", "sim", "pairs", "resume")}
    extracted, out = bench.work_dir / "extracted", bench.work_dir / "out"
    per_extract, startup_samples = SCHEDULE[bench.workload]
    step_s = {}
    first_outputs = None
    start = time.perf_counter()

    def fits(step: str) -> bool:
        return time.perf_counter() - start + step_s.get(step, 0.0) <= seconds

    pair_steps = 0
    while True:
        if not samples["extract"] or (pair_steps >= per_extract and fits("extract")):
            step_start = time.perf_counter()
            r = bench.extract_step(extracted)
            step_s["extract"] = time.perf_counter() - step_start
            samples["extract"].append(r["extract"])
            samples["peak_rss_mb"].append(r["peak_rss_mb"])
            pair_steps = 0
            print(f"extract_s={r['extract']:.3f}", file=sys.stderr)
        elif not samples["mean"] or fits("pairs"):
            step_start = time.perf_counter()
            r = bench.pair_step(extracted, out, resumes=startup_samples)
            setup += [bench.setup_sample() for _ in range(startup_samples)]
            step_s["pairs"] = time.perf_counter() - step_start
            t = r["times"]
            samples["mean"].append(t["mean"])
            samples["sim"].append(t["sim"])
            samples["pairs"].append(t["mean"] + t["sim"])
            samples["resume"] += r["resume_s"]
            pair_steps += 1
            if first_outputs is None:
                first_outputs = r["outputs"]
            else:
                bench.tally.check(
                    r["outputs"] == first_outputs, "steps of one seed give identical outputs"
                )
            print(
                f"  mean_s={t['mean']:.3f} sim_s={t['sim']:.3f}"
                + "".join(f" resume_s={v:.3f}" for v in r["resume_s"])
                + "".join(f" setup_s={v:.3f}" for v in setup[-startup_samples:]),
                file=sys.stderr,
            )
        else:
            break

    corpus = bench.corpus
    med = {name: measure.median(v) for name, v in samples.items()}
    values = {
        "setup_s": measure.median(setup),
        "extract_s": med["extract"],
        "mean_s": med["mean"],
        "sim_s": med["sim"],
        "total_s": med["extract"] + med["mean"] + med["sim"],
        "frame_pairs_per_s": corpus.frame_pairs / med["extract"],
        "pairs_per_s": corpus.pair_count / med["pairs"],
        "resume_s": med["resume"],
        "peak_rss_mb": med["peak_rss_mb"],
    }
    print(
        f"{bench.workload}: {len(samples['extract'])} extract step(s),"
        f" {len(samples['mean'])} pair step(s), {len(samples['resume'])} resume and"
        f" {len(setup)} setup samples",
        file=sys.stderr,
    )
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def install_wrappers(t: tracer.Tracer) -> None:
    """Span every public layer function at the name its caller looks up."""
    from potsim import archive, descriptors, engine, flow, frames, similarity

    t.wrap_span(engine, "_run_task", "engine.task",
                trace_of=lambda config, task: f"{task.stage}:{task.label}")
    t.wrap_span(engine, "load_frame_sequence", "frames.load_frame_sequence")
    t.wrap_span(frames, "decode_frame_file", "frames.decode_frame_file")
    t.wrap_span(frames, "resize_bilinear", "frames.resize_bilinear")
    t.wrap_span(engine, "compute_series", "descriptors.compute_series")
    t.wrap_span(descriptors, "farneback_flow", "flow.farneback_flow")
    t.wrap_span(flow, "poly_expand", "flow.poly_expand")
    t.wrap_span(flow, "pyramid_downsample", "flow.pyramid_downsample")
    t.wrap_span(descriptors, "hof_frame", "descriptors.hof_frame")
    t.wrap_span(descriptors, "hog_frame", "descriptors.hog_frame")
    t.wrap_span(engine, "pot_vector", "pooling.pot_vector")
    for module in (engine, archive):
        t.wrap_span(module, "write_archive", "archive.write_archive",
                    on_result=lambda shard, *args: {"bytes": shard.path.stat().st_size})
        t.wrap_span(module, "read_archive", "archive.read_archive",
                    on_result=lambda records, *args: {"records": len(records)})
    # spanned only so that shard writing counts as archive, not engine, time
    t.wrap_span(engine, "write_shards", "archive.write_shards")
    t.wrap_span(engine, "csd_sixtuple", "similarity.csd_sixtuple")
    t.wrap_count(similarity, "chi_square", "similarity.chi_square")
    t.wrap_count(engine, "kernel_distance", "similarity.kernel_distance")


def traced(bench: Bench, seed: int) -> dict:
    """One untraced CLI round, then the same corpus in-process with
    workers=1 under the tracer; outputs of the two must be identical."""
    from potsim import cli, engine

    reference = bench.cold_round()
    out = bench.work_dir / "traced"
    # the CLI's own argument mapping, so both runs use one configuration
    args = cli.build_parser().parse_args(bench.stage_args("run", out, workers=1))
    config = cli._config_from_args(args)
    t = tracer.Tracer()
    runners = {"extract": engine.run_extract, "mean": engine.run_mean, "sim": engine.run_similarity}
    for stage in STAGES:
        install_wrappers(t)
        try:
            t.call(f"engine.{stage}", runners[stage], config, trace=f"stage:{stage}")
            ok = True
        except (engine.StageError, engine.ConfigError) as exc:
            print(f"traced {stage}: {exc}", file=sys.stderr)
            ok = False
        finally:
            t.restore()
        bench.tally.check(ok, f"traced {stage} stage")
    bench.check_outputs(out)
    bench.tally.check(
        read_outputs(out) == reference["outputs"],
        "traced workers=1 outputs are byte-identical to untraced workers=2",
    )
    dump = WORK / "traces" / f"{bench.workload}-seed{seed}.json.gz"
    dump.parent.mkdir(parents=True, exist_ok=True)
    t.dump(dump)
    print(f"span dump: {dump.relative_to(ROOT)} ({len(t.spans)} spans)", file=sys.stderr)
    return layer_metrics(t, bench.corpus, reference)


def layer_metrics(t: tracer.Tracer, corpus, reference: dict) -> dict:
    totals = t.totals()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {}

    def span(name: str, *fields: str) -> None:
        entry = totals.get(name, zero)
        for f in fields:
            if f == "calls":
                metrics[f"{name}.calls"] = (entry["calls"], "count")
            elif f == "self_s":
                metrics[f"{name}.self_s"] = (entry["self_s"], "s")
            elif f == "ms_per_call":
                metrics[f"{name}.ms_per_call"] = (1e3 * per_call(entry), "ms")
            elif f == "us_per_call":
                metrics[f"{name}.us_per_call"] = (1e6 * per_call(entry), "us")

    def per_call(entry) -> float:
        return entry["total_s"] / entry["calls"] if entry["calls"] else 0.0

    span("flow.farneback_flow", "calls", "self_s", "ms_per_call")
    span("flow.poly_expand", "calls", "self_s")
    span("flow.pyramid_downsample", "calls", "self_s")
    span("frames.load_frame_sequence", "self_s")
    span("frames.decode_frame_file", "calls", "self_s")
    span("frames.resize_bilinear", "calls", "self_s")
    span("descriptors.compute_series", "self_s")
    span("descriptors.hof_frame", "calls", "self_s")
    span("descriptors.hog_frame", "calls", "self_s")
    span("pooling.pot_vector", "calls", "self_s")
    span("archive.write_archive", "calls", "self_s")
    metrics["archive.write_archive.bytes"] = (t.counters["archive.write_archive.bytes"], "bytes")
    span("archive.read_archive", "calls", "self_s")
    records = t.counters["archive.read_archive.records"]
    metrics["archive.read_archive.records"] = (records, "count")
    metrics["archive.records_decoded_per_video"] = (records / len(corpus.keys), "records/video")
    span("similarity.csd_sixtuple", "calls", "self_s", "us_per_call")
    metrics["similarity.chi_square.calls"] = (t.counters["similarity.chi_square.calls"], "count")
    csd_calls = totals.get("similarity.csd_sixtuple", zero)["calls"]
    metrics["similarity.csd_per_pair"] = (csd_calls / corpus.pair_count, "calls/pair")
    metrics["similarity.kernel_distance.calls"] = (
        t.counters["similarity.kernel_distance.calls"], "count")
    for stage in STAGES:
        span(f"engine.{stage}", "self_s")

    untraced_task_ms = 0.0
    for stage in STAGES:
        tasks = measure.parse_task_lines(reference["logs"][stage])
        ms = [task.duration_ms for task in tasks if task.duration_ms is not None]
        untraced_task_ms += sum(ms)
        for outcome, label in (("ok", "ran"), ("skipped", "skipped"), ("failed", "failed")):
            count = sum(task.outcome == outcome for task in tasks)
            metrics[f"engine.{stage}.tasks_{label}"] = (count, "count")
        metrics[f"engine.{stage}.task_ms_p50"] = (measure.percentile(ms, 50) if ms else 0.0, "ms")
        metrics[f"engine.{stage}.task_ms_max"] = (max(ms, default=0.0), "ms")
        wall_ms = 1e3 * reference["times"][stage]
        metrics[f"engine.{stage}.busy_frac"] = (sum(ms) / (WORKERS * wall_ms), "frac")
    traced_task_ms = 1e3 * totals.get("engine.task", zero)["total_s"]
    overhead = traced_task_ms / untraced_task_ms - 1.0 if untraced_task_ms else 0.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seed < 0:
        return fail_usage(f"--seed must be >= 0, got {args.seed}")
    if not (SRC / "potsim" / "__init__.py").is_file():
        return fail_usage(f"no potsim sources under {SRC}; run from a potsim checkout")
    if not (ROOT / "tests" / "conftest.py").is_file():
        return fail_usage(f"no corpus generators at {ROOT / 'tests' / 'conftest.py'}")
    sys.path.insert(0, str(SRC))
    from perfbench import corpus as corpus_mod

    if args.workload not in corpus_mod.BUILDERS:
        return fail_usage(
            f"unknown workload {args.workload!r}; choose from {sorted(corpus_mod.BUILDERS)}"
        )
    # SIGTERM unwinds like an exception, so children are killed and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    try:
        corpus = corpus_mod.build(args.workload, work_dir / "corpus", args.seed)
        bench = Bench(args.workload, corpus, work_dir)
        if args.trace:
            metrics = traced(bench, args.seed)
        else:
            metrics = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    tracer.check_metric_names(metrics)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != declared:
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: {reported} != {declared}")
    tally = bench.tally
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"failed_frac = {len(tally.failures)}/{tally.attempted}", file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
