"""``tools/bench_pairs``: the summary of hand-made runs, the parsing of
what the runs print and of ``--sample``; no subprocess starts."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def summarize():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return bench_pairs.summarize


def runs(values, name="samples_per_s"):
    """One run per side and pair, ``values`` a list of (base, head) pairs."""
    return [
        {"workload": "w", "pair": pair, "side": side, "metrics": {name: value}}
        for pair, both in enumerate(values)
        for side, value in zip(("base", "head"), both)
    ]


def test_a_pair_counts_only_where_both_sides_have_the_metric(summarize):
    out = summarize(runs([(10, 11), (None, 12), (10, None), (10, 11)]),
                    {"samples_per_s": "higher"})
    s = out["w"]["samples_per_s"]
    assert (s["pairs"], s["head_wins"]) == (2, 2)
    assert (s["base"]["median"], s["head"]["median"]) == (10, 11)


def test_a_tie_counts_for_neither_side(summarize):
    s = summarize(runs([(10, 10), (10, 11), (12, 11)]), {"samples_per_s": "higher"})
    assert (s["w"]["samples_per_s"]["pairs"], s["w"]["samples_per_s"]["head_wins"]) == (3, 1)


def test_lower_is_better(summarize):
    s = summarize(runs([(2.0, 1.0), (2.0, 3.0), (2.0, 1.5)], "latency_p50_s"),
                  {"latency_p50_s": "lower"})["w"]["latency_p50_s"]
    assert (s["pairs"], s["head_wins"]) == (3, 2)
    assert s["change_pct"] == pytest.approx(-25.0)
    assert s["gain_exceeds_base_iqr"]


def test_a_metric_no_pair_has_on_both_sides_is_left_out(summarize):
    out = summarize(runs([(None, 1.0), (1.0, None)]), {"samples_per_s": "higher"})
    assert out == {"w": {}}


def test_runs_write_bytecode_whatever_the_caller_set(summarize, monkeypatch):
    bench_pairs = sys.modules[summarize.__module__]
    seen = {}

    def fake_run(cmd, **kwargs):
        seen.update(kwargs)
        return subprocess.CompletedProcess(cmd, 0, stdout='{"correct": 1}\n', stderr="")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs._run(ROOT, "dickman", 1, 1) == {"correct": 1}
    assert "PYTHONDONTWRITEBYTECODE" not in seen["env"]
    assert seen["env"]["PATH"] == os.environ["PATH"]


RUN_PY_TAIL = """\
  latency_tail_s   0.912 s at p97.5 (10 of 400 invocations beyond it)
  phase start      median 0.0412 s
  phase import     median 0.521 s
  phase command    median 0.108 s
  phase exit       median 2.13e-02 s
  failed_share     0/400; replayed rows 40, mismatches 0, digests compared 12
{"correct": true}
"""


def test_phase_lines_are_parsed(summarize):
    bench_pairs = sys.modules[summarize.__module__]
    assert bench_pairs.parse_phases(RUN_PY_TAIL) == {
        "start": 0.0412, "import": 0.521, "command": 0.108, "exit": 0.0213}
    assert bench_pairs.parse_phases('{"correct": true}\n') == {}


def test_a_run_carries_its_phases(summarize, monkeypatch):
    bench_pairs = sys.modules[summarize.__module__]
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kwargs:
                        subprocess.CompletedProcess(cmd, 0, stdout=RUN_PY_TAIL, stderr=""))
    result = bench_pairs._run(ROOT, "dickman", 1, 1)
    assert result["correct"] is True and result["phases"]["exit"] == 0.0213


def test_phases_are_summarised_like_metrics(summarize):
    rs = [{"workload": "w", "pair": pair, "side": side, "metrics": {},
           "phases": {"exit": value}}
          for pair, both in enumerate([(0.1, 0.02), (0.08, 0.03), (0.09, 0.01)])
          for side, value in zip(("base", "head"), both)]
    s = summarize(rs, {"exit": "lower"}, "phases")["w"]["exit"]
    assert (s["pairs"], s["head_wins"]) == (3, 3)
    assert (s["base"]["median"], s["head"]["median"]) == (0.09, 0.02)


@pytest.mark.parametrize("text, want", [("2:20000", (2.0, 20000)), ("2.2:2e4", (2.2, 20000)),
                                        ("0.25:1", (0.25, 1))])
def test_sample_cases_are_parsed(summarize, text, want):
    assert sys.modules[summarize.__module__].parse_sample(text) == want


@pytest.mark.parametrize("text", ["2", "2:3:4", "x:10", "0:10", "-1:10", "nan:10",
                                  "2:0", "2:1.5", "2:inf", "2:"])
def test_bad_sample_cases_are_refused(summarize, text):
    bench_pairs = sys.modules[summarize.__module__]
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_sample(text)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "HEAD", "--sample", text, "--out", "x.json"])


def test_a_sample_run_times_the_sides_own_source(summarize, monkeypatch, tmp_path):
    bench_pairs = sys.modules[summarize.__module__]
    seen = {}

    def fake_run(cmd, **kwargs):
        seen["cmd"], seen["env"] = cmd, kwargs["env"]
        return subprocess.CompletedProcess(
            cmd, 0, stdout='{"wall_s": 0.5, "peak_rss_mb": 70.0}\n', stderr="")

    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    got = bench_pairs._sample_run(tmp_path, 2.0, 20000, 7)
    assert got == {"wall_s": 0.5, "peak_rss_mb": 70.0}
    assert seen["cmd"][-4:] == ["2.0", "20000", "7", str(bench_pairs._SAMPLE_CALLS)]
    assert bench_pairs._SAMPLE_CALLS >= 3  # the median of at least two calls after the first
    assert seen["env"]["PYTHONPATH"].split(os.pathsep) == [str(tmp_path / "src"), "elsewhere"]


def test_the_sample_code_reports_time_and_memory(summarize, monkeypatch):
    """The code a ``--sample`` run executes, in this interpreter, on a
    small case: it makes the calls it is told to, the first one timed
    apart, and prints one JSON line with every metric."""
    import contextlib
    import io

    import vervaat

    bench_pairs = sys.modules[summarize.__module__]
    calls, sample_many = [], vervaat.sample_many
    monkeypatch.setattr(vervaat, "sample_many",
                        lambda *a: calls.append(a[1:]) or sample_many(*a))
    out = io.StringIO()
    monkeypatch.setattr(sys, "argv", ["-c", "1.0", "10", "3", "4"])
    with contextlib.redirect_stdout(out):
        exec(bench_pairs._SAMPLE_CODE, {})
    assert calls == [(10, 3)] * 4
    got = json.loads(out.getvalue())
    assert set(got) == set(bench_pairs._SAMPLE_METRICS) == {
        "first_s", "wall_s", "peak_rss_mb", "import_rss_mb"}
    assert got["first_s"] > 0 and got["wall_s"] > 0 and got["peak_rss_mb"] > 1
    assert 1 < got["import_rss_mb"] <= got["peak_rss_mb"]


def test_the_first_call_is_timed_apart_from_the_median_of_the_rest(summarize, monkeypatch):
    import contextlib
    import io
    import time

    import vervaat

    bench_pairs = sys.modules[summarize.__module__]
    clock = iter([0, 5, 10, 11, 20, 23, 30, 32])  # calls of 5, 1, 3 and 2 s
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(vervaat, "sample_many", lambda *a: None)
    monkeypatch.setattr(sys, "argv", ["-c", "1.0", "10", "3", "4"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(bench_pairs._SAMPLE_CODE, {})
    got = json.loads(out.getvalue())
    assert (got["first_s"], got["wall_s"]) == (5, 2)


def test_sample_runs_are_summarised_lower_better(summarize):
    bench_pairs = sys.modules[summarize.__module__]
    rs = [{"workload": "2:20000", "pair": pair, "side": side,
           "metrics": {"wall_s": wall, "peak_rss_mb": 70.0}}
          for pair, both in enumerate([(1.5, 0.8), (1.6, 0.7), (1.4, 0.9)])
          for side, wall in zip(("base", "head"), both)]
    s = summarize(rs, bench_pairs._SAMPLE_METRICS)["2:20000"]
    assert (s["wall_s"]["head_wins"], s["peak_rss_mb"]["head_wins"]) == (3, 0)
    assert s["wall_s"]["change_pct"] == pytest.approx(-46.666, abs=1e-2)


def test_the_import_rss_is_read_before_the_first_call(summarize, monkeypatch):
    import contextlib
    import io
    import resource

    import vervaat

    bench_pairs = sys.modules[summarize.__module__]
    events = []

    def getrusage(who):
        events.append("rss")
        return argparse.Namespace(ru_maxrss=1024 * 10 * len(events))

    monkeypatch.setattr(resource, "getrusage", getrusage)
    monkeypatch.setattr(vervaat, "sample_many", lambda *a: events.append("call"))
    monkeypatch.setattr(sys, "argv", ["-c", "1.0", "10", "3", "3"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(bench_pairs._SAMPLE_CODE, {})
    got = json.loads(out.getvalue())
    assert events == ["rss", "call", "call", "call", "rss"]
    assert (got["import_rss_mb"], got["peak_rss_mb"]) == (10, 50)
