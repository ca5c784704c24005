"""``tools/bench_pairs.summarize`` on hand-made runs; no subprocess starts."""

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
