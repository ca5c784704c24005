"""Record alternating benchmark runs of two commits in one JSON file.

    python3 tools/bench_pairs.py --base <commit> --workload dickman \
        --workload deep --sample 2:20000 --pairs 10 --out BENCH_<n>.json

Run it from the repository root of a clean working tree (untracked files
aside): the head side is ``HEAD``.  The base commit and ``HEAD`` are each
exported into a temporary directory with ``git archive``.  For each workload
and pair, ``perfbench/run.py --workload W --seed S --seconds R`` then runs
once from each side's root, the two sides taking turns at going first; R is
``run_seconds`` of ``BENCHMARK.json``.  Pair k runs with seed ``--seed + k``
on both sides.  Each ``--sample BETA:N`` pair likewise times
``sample_many(make_params(BETA), N, S)``, as shipped, :data:`_SAMPLE_CALLS`
times in a fresh interpreter from each side's ``src``, recording the wall time
of the first call, the median of the others and the interpreter's peak RSS
(``ru_maxrss``), at the end and before the first call, so that engine changes
show at a beta no workload runs, and the calls' memory apart from the import's.
The runs inherit the caller's environment except
``PYTHONDONTWRITEBYTECODE``, which is removed: both sides then write and
reuse their bytecode alike, and a caller's setting cannot add source
compilation to one side's ``setup_s`` or ``peak_rss_mb``.

The output holds every run (its side, order, seed, correctness counts,
metrics, and the median seconds of each phase of an invocation that
``run.py`` prints: start, import, command and exit) and, per workload and
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles,
the pairs the head won (ties count for neither side), the change of the
median in percent and whether that change exceeds the spread between the
base's quartiles.  The phases are summarised the same way, lower being
better, and so are the ``--sample`` runs, under ``sample``.  The exported
trees are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

_PHASES = ("start", "import", "command", "exit")
#: ``run.py``'s line for one phase, e.g. ``  phase exit       median 0.0213 s``.
_PHASE = re.compile(r"^\s*phase (\w+)\s+median (\S+) s$", re.MULTILINE)
#: ``sample_many`` calls per ``--sample`` run: one call of a short case is at
#: the mercy of noise, and the first call also pays for first use.
_SAMPLE_CALLS = 5
#: What a ``--sample`` run records, lower being better: the first call's wall
#: time, the median wall time of the other calls, the peak RSS, and the peak
#: RSS before the first call, so that the calls' working set shows apart
#: from the import's.
_SAMPLE_METRICS = {"first_s": "lower", "wall_s": "lower", "peak_rss_mb": "lower",
                   "import_rss_mb": "lower"}
#: One ``--sample`` run: argv is BETA, N, the seed and the number of calls.
_SAMPLE_CODE = """\
import json, resource, statistics, sys, time
from vervaat import make_params, sample_many
params, n, seed = make_params(float(sys.argv[1])), int(sys.argv[2]), int(sys.argv[3])
imported = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
walls = []
for _ in range(int(sys.argv[4])):
    t0 = time.perf_counter()
    sample_many(params, n, seed)
    walls.append(time.perf_counter() - t0)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"first_s": walls[0], "wall_s": statistics.median(walls[1:]),
                  "peak_rss_mb": rss, "import_rss_mb": imported}))
"""


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


def parse_phases(stdout: str) -> dict[str, float]:
    """The median seconds of each phase that a ``run.py`` run printed."""
    return {name: float(value) for name, value in _PHASE.findall(stdout)}


def parse_sample(text: str) -> tuple[float, int]:
    """``BETA:N`` of ``--sample`` as (beta, n), N also as ``2e4``."""
    try:
        beta, n = (float(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected BETA:N, got {text!r}") from None
    if not (beta > 0 and n >= 1 and n.is_integer()):
        raise argparse.ArgumentTypeError(f"need beta > 0 and a whole N >= 1, got {text!r}")
    return beta, int(n)


def _env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _sample_run(root: Path, beta: float, n: int, seed: int) -> dict:
    """One ``--sample`` run from ``root``'s ``src``: its wall times and peak RSS."""
    env = _env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SAMPLE_CODE, repr(beta), str(n), str(seed),
         str(_SAMPLE_CALLS)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: sample run exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run from ``root``: its result line, with the
    phases it printed, if any, under ``"phases"``."""
    env = _env()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    phases = parse_phases(proc.stdout)
    if phases:
        result["phases"] = phases
    return result


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: dict[str, str], field: str = "metrics") -> dict:
    """Per workload and metric (``name -> "higher" | "lower"``) of each run's
    ``field``: medians, quartiles, head wins over pairs and the change of
    the median."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r[field]
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
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--sample", action="append", default=[], type=parse_sample,
                        metavar="BETA:N", help="Time sample_many at BETA with N rows.")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="Output path (BENCH_<n>.json).")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not args.workload and not args.sample:
        parser.error("give at least one --workload or --sample")
    if _git("status", "--porcelain", "--untracked-files=no"):
        parser.error("the working tree has uncommitted changes; commit them first")
    root = Path(_git("rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_rev = _git("rev-parse", args.base)
    head_rev = _git("rev-parse", "HEAD")
    seconds = spec["run_seconds"]
    runs: list[dict] = []
    sample_runs: list[dict] = []
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
                        "phases": result.get("phases", {}),
                    })
                    print(f"{workload} pair {pair} {side}: "
                          + " ".join(f"{k}={runs[-1]['metrics'].get(k)}" for k in metrics),
                          flush=True)
        for beta, n in args.sample:
            name = f"{beta:g}:{n}"
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for position, side in enumerate(order):
                    result = _sample_run(sides[side], beta, n, seed)
                    sample_runs.append({"workload": name, "pair": pair, "side": side,
                                        "first": position == 0, "seed": seed,
                                        "metrics": result})
                    print(f"sample {name} pair {pair} {side}: {result}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = {
        "base": base_rev,
        "head": head_rev,
        "seconds": seconds,
        "pairs": args.pairs,
        "machine": {
            "cpus": os.cpu_count(),
            # the CPUs the runs may use
            "cpus_available": (len(os.sched_getaffinity(0))
                               if hasattr(os, "sched_getaffinity") else None),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "summary": summarize(runs, metrics),
        "phases": summarize(runs, dict.fromkeys(_PHASES, "lower"), "phases"),
        "sample": summarize(sample_runs, _SAMPLE_METRICS),
        "runs": runs,
        "sample_runs": sample_runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
