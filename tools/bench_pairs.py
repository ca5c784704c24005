"""Record alternating benchmark runs of two commits in one JSON file.

    python3 tools/bench_pairs.py --base <commit> --workload dickman \
        --workload deep --pairs 10 --out BENCH_<n>.json

Run it from the repository root of a clean working tree (untracked files
aside): the head side is ``HEAD``.  The base commit and ``HEAD`` are each
exported into a temporary directory with ``git archive``.  For each workload
and pair, ``perfbench/run.py --workload W --seed S --seconds R`` then runs
once from each side's root, the two sides taking turns at going first; R is
``run_seconds`` of ``BENCHMARK.json``.  Pair k runs with seed ``--seed + k``
on both sides.  The runs inherit the caller's environment except
``PYTHONDONTWRITEBYTECODE``, which is removed: both sides then write and
reuse their bytecode alike, and a caller's setting cannot add source
compilation to one side's ``setup_s`` or ``peak_rss_mb``.

The output holds every run (its side, order, seed, correctness counts and
metrics) and, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles, the pairs the head won (ties count for
neither side), the change of the median in percent and whether that change
exceeds the spread between the base's quartiles.  The exported trees are
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, into: Path) -> Path:
    """The tree of ``rev`` under ``into``, from ``git archive``."""
    into.mkdir()
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "archive", "--output", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into


def _run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run from ``root``: its result line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload and metric (``name -> "higher" | "lower"``): medians,
    quartiles, head wins over pairs and the change of the median."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        both = [p for p in pairs.values() if len(p) == 2]
        out[workload] = {}
        for name, better in metrics.items():
            kept = [(p["base"].get(name), p["head"].get(name)) for p in both]
            kept = [(x, y) for x, y in kept if x is not None and y is not None]
            if not kept:
                continue
            base, head = zip(*kept)
            sign = 1 if better == "higher" else -1
            b, h = _spread(base), _spread(head)
            gain = sign * (h["median"] - b["median"])
            out[workload][name] = {
                "better": better,
                "base": b,
                "head": h,
                "pairs": len(base),
                "head_wins": sum(sign * (y - x) > 0 for x, y in zip(base, head)),
                "change_pct": 100.0 * (h["median"] - b["median"]) / b["median"],
                "gain_exceeds_base_iqr": gain > b["q3"] - b["q1"],
            }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="Commit to compare against.")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="Output path (BENCH_<n>.json).")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if _git("status", "--porcelain", "--untracked-files=no"):
        parser.error("the working tree has uncommitted changes; commit them first")
    root = Path(_git("rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_rev = _git("rev-parse", args.base)
    head_rev = _git("rev-parse", "HEAD")
    seconds = spec["run_seconds"]
    runs: list[dict] = []
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        sides = {"base": _export(base_rev, tmp / "base"),
                 "head": _export(head_rev, tmp / "head")}
        for workload in args.workload:
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for position, side in enumerate(order):
                    result = _run(sides[side], workload, seed, seconds)
                    runs.append({
                        "workload": workload, "pair": pair, "side": side,
                        "first": position == 0, "seed": seed,
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    })
                    print(f"{workload} pair {pair} {side}: "
                          + " ".join(f"{k}={runs[-1]['metrics'].get(k)}" for k in metrics),
                          flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = {
        "base": base_rev,
        "head": head_rev,
        "seconds": seconds,
        "pairs": args.pairs,
        "machine": {
            "cpus": os.cpu_count(),
            # the CPUs the runs may use, and so the workers sample_many forks
            "cpus_available": (len(os.sched_getaffinity(0))
                               if hasattr(os, "sched_getaffinity") else None),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
