"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import shlex
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import measure, tracer  # noqa: E402
from perfbench.tracer import Span, Tracer, span_self_time  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    parent = Span("p", 0.0, 10.0, -1, "t")
    children = [
        Span("a", 1.0, 3.0, 0, "t"),
        Span("b", 2.0, 5.0, 0, "t"),  # overlaps a: [1, 5] counts once
        Span("c", 8.0, 12.0, 0, "t"),  # runs past the parent: clipped to [8, 10]
    ]
    assert span_self_time(parent, children) == pytest.approx(4.0)
    assert span_self_time(parent, []) == pytest.approx(10.0)


def test_tracer_nests_spans_and_restores_originals():
    module = types.SimpleNamespace()
    module.leaf = lambda x: x + 1
    module.inner = lambda x: module.leaf(x) * 2
    module.outer = lambda xs: [module.inner(x) for x in xs]
    originals = (module.leaf, module.inner, module.outer)

    t = Tracer()
    t.wrap_span(module, "outer", "m.outer", trace_of=lambda xs: f"job{len(xs)}")
    t.wrap_span(module, "inner", "m.inner",
                on_result=lambda result, x: {"sum": result})
    t.wrap_count(module, "leaf", "m.leaf")
    assert module.outer([1, 2, 3]) == [4, 6, 8]
    t.restore()
    assert (module.leaf, module.inner, module.outer) == originals

    outer, *inners = t.spans
    assert outer.name == "m.outer" and outer.parent == -1
    assert [s.parent for s in inners] == [0, 0, 0]
    assert {s.trace for s in t.spans} == {"job3"}
    assert t.counters["m.leaf.calls"] == 3
    assert t.counters["m.inner.sum"] == 18

    totals = t.totals()
    assert totals["m.inner"]["calls"] == 3
    inner_total = sum(s.end - s.start for s in inners)
    assert totals["m.outer"]["self_s"] == pytest.approx(
        totals["m.outer"]["total_s"] - inner_total
    )


def test_tracer_dump_round_trips(tmp_path):
    import gzip
    import json

    t = Tracer()
    t.call("a", lambda: t.call("b", lambda: None), trace="x")
    t.dump(tmp_path / "spans.json.gz")
    with gzip.open(tmp_path / "spans.json.gz", "rt") as fh:
        payload = json.load(fh)
    assert [row[0] for row in payload["spans"]] == ["a", "b"]
    assert [row[3] for row in payload["spans"]] == [-1, 0]
    assert payload["spans"][0][1] == 0.0


def test_metric_names_are_checked():
    tracer.check_metric_names(["flow.farneback_flow.ms_per_call", "engine.sim.task_ms_p50"])
    with pytest.raises(ValueError, match="shards"):
        tracer.check_metric_names(["engine.shards (0,1)"])


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 20) == 1.0
    assert measure.percentile(values, 21) == 2.0
    assert measure.percentile(values, 100) == 5.0
    assert measure.percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile(values, 0)


def test_median():
    assert measure.median([3.0, 1.0, 2.0]) == 2.0
    assert measure.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_run_child_reads_peak_rss_of_the_largest_process_in_the_tree(tmp_path):
    allocate = "import sys; block = b'x' * (96 << 20); sys.exit({code})"
    spawn = (
        "import subprocess, sys; "
        f"subprocess.run([sys.executable, '-c', {allocate.format(code=0)!r}], check=True); "
        "sys.exit(3)"
    )
    result = measure.run_child(
        [sys.executable, "-c", spawn], env=None, cwd=tmp_path, log_path=tmp_path / "log"
    )
    assert result.returncode == 3
    assert 96.0 <= result.peak_rss_mb < 96.0 + 200.0
    assert result.wall_s > 0.0

    small = measure.run_child(
        [sys.executable, "-c", "pass"], env=None, cwd=tmp_path, log_path=tmp_path / "log"
    )
    assert small.returncode == 0
    assert small.peak_rss_mb < 96.0


def test_run_child_kills_what_the_child_left_running(tmp_path):
    # the child starts a sleeper in its own process group and exits at once
    leave_sleeper = (
        "import subprocess, sys; "
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
        "print(p.pid)"
    )
    pid_file = tmp_path / "pid"
    result = measure.run_child(
        ["sh", "-c", f"{sys.executable} -c {shlex.quote(leave_sleeper)} > {pid_file}"],
        env=None, cwd=tmp_path, log_path=tmp_path / "log",
    )
    assert result.returncode == 0
    pid = int(pid_file.read_text())
    # the sleeper was re-parented when its parent exited; SIGKILL leaves at
    # most a zombie until init reaps it
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            break
        if state == "Z":
            break
        time.sleep(0.05)
    else:
        pytest.fail(f"process {pid} left by the child still runs")


def test_maxrss_is_kib():
    assert measure.maxrss_mb(2048) == 2.0


LOG = """\
2026-01-01 10:00:00,001 potsim.engine task=0 stage=extract target=clip00 outcome=skipped
2026-01-01 10:00:00,002 potsim.engine task=1 stage=extract target=clip01 outcome=ok duration_ms=812.5
2026-01-01 10:00:00,003 potsim.engine task=2 stage=mean target=shards (0,1) outcome=ok duration_ms=41.0
2026-01-01 10:00:00,004 potsim.engine task=3 stage=sim target=shards (1,1) outcome=failed duration_ms=2.0 error=ValueError: bad
Traceback lines and other output are ignored
"""


def test_parse_task_lines():
    tasks = measure.parse_task_lines(LOG)
    assert [(t.task_id, t.stage, t.target, t.outcome, t.duration_ms) for t in tasks] == [
        (0, "extract", "clip00", "skipped", None),
        (1, "extract", "clip01", "ok", 812.5),
        (2, "mean", "shards (0,1)", "ok", 41.0),
        (3, "sim", "shards (1,1)", "failed", 2.0),
    ]


def test_corpus_is_a_function_of_the_seed(tmp_path):
    from perfbench import corpus

    def snapshot(root: Path) -> dict:
        return {
            str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
        }

    first = corpus.build("extract-128", tmp_path / "a", seed=5)
    again = corpus.build("extract-128", tmp_path / "b", seed=5)
    corpus.build("extract-128", tmp_path / "c", seed=6)
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")
    assert snapshot(tmp_path / "a") != snapshot(tmp_path / "c")
    assert first.keys == again.keys == sorted(first.keys)
    assert first.manifest.read_text().splitlines()[0] == f"{first.keys[0]},{first.keys[0]}"
