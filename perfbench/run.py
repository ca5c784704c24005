"""The vervaat benchmark: sampling throughput, CLI start-up and validation.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md in this directory says why each exists):

    dickman   sample --beta 1 --n 100000            per-draw fixed costs
    deep      sample --beta 3 --n 400               the backward/forward step loops
    startup   sample --n 10 / analyze / trace       interpreter start and imports
    validate  validate --beta 1 --n 100000          the oracle layer

Every invocation is a fresh interpreter running the ``vervaat`` console entry
point (``vervaat_cli.py``), one after another: a closed loop with one client.
Each command's CLI seed is derived from ``--seed``; the program sees only its
command line.  After the measured window every output is checked against the
independent reference in ``reference.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the separate
traced run: it runs each command of the workload once more, then measures
the library layers in process (``layers.py``) and writes its spans to
``.bench_out/``.  Human-readable lines come first; the last line of standard
output is the JSON result.  Exit code 2, with no result, when the program is
not in ``src/vervaat`` or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
#: A single child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "streams.restart_us": "us",
    "streams.uniform_ns": "ns",
    "streams.uniforms_per_sample": "count",
    "streams.self_s": "s",
    "updates.self_s": "s",
    "engine.geometric_start_us": "us",
    "engine.sample_us": "us",
    "engine.backward_step_us": "us",
    "engine.forward_step_us": "us",
    "engine.steps_per_sample": "count",
    "engine.coalesce_ratio": "ratio",
    "engine.w2_draws_per_sample": "count",
    "engine.budget_aborts": "count",
    "engine.self_s": "s",
    "runtime.bracket_ms": "ms",
    "runtime.import_s": "s",
    "runtime.self_s": "s",
    "oracle.series_ns_per_uniform": "ns",
    "oracle.ks_ms": "ms",
    "oracle.self_s": "s",
    "cli.format_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.click_s": "s",
    "process.start_s": "s",
    "process.exit_s": "s",
    "share.restart_pct": "%",
    "share.import_pct": "%",
    "share.oracle_pct": "%",
    "trace.overhead_s": "s",
    "trace.sample_every": "count",
    "trace.spans": "count",
    "replay.rows_checked": "count",
    "replay.mismatches": "count",
}


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload."""

    kind: str  # sample | analyze | trace | validate
    beta: float
    n: int = 0
    replay_rows: int = 0  # sample rows replayed against the reference

    def argv(self, seed: int) -> list[str]:
        args = [self.kind, "--beta", f"{self.beta:g}"]
        if self.kind in ("sample", "validate"):
            args += ["--n", str(self.n)]
        if self.kind != "analyze":
            args += ["--seed", str(seed)]
        return args

    @property
    def draws(self) -> int:
        return {"sample": self.n, "validate": self.n, "trace": 1}.get(self.kind, 0)


@dataclass(frozen=True)
class Workload:
    rotation: tuple[Command, ...]
    #: All invocations of a run share one CLI seed (checked once, at length).
    fixed_seed: bool = False


WORKLOADS = {
    "dickman": Workload((Command("sample", 1.0, 100_000, replay_rows=512),)),
    "deep": Workload((Command("sample", 3.0, 400, replay_rows=8),)),
    "startup": Workload(
        (
            Command("sample", 1.0, 10, replay_rows=10),
            Command("analyze", 1.0),
            Command("trace", 1.0),
        )
    ),
    "validate": Workload((Command("validate", 1.0, 100_000),), fixed_seed=True),
}


def cli_seed(workload: Workload, seed: int, k: int) -> int:
    """CLI seed of invocation ``k`` of a run with benchmark seed ``seed``."""
    return seed * 1000 + (0 if workload.fixed_seed else k % 1000)


# ------------------------------------------------------------------ children


@dataclass
class Invocation:
    command: Command
    seed: int
    out: Path
    code: int
    latency: float
    phases: dict[str, float]
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    steps: int | None = None


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # A fixed hash seed removes one source of run-to-run spread (dict and set
    # layout); the program's outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], stdout: Path, stderr: Path, timeout: float):
    """Run one child to completion: (exit code, spawn time, exit time, peak RSS MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            args, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=_child_env()
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage.ru_maxrss / 1024.0


def invoke(command: Command, seed: int, tmp: Path, tag: str, timeout: float) -> Invocation:
    out = tmp / f"{tag}.out"
    err = tmp / f"{tag}.err"
    args = [sys.executable, str(HERE / "vervaat_cli.py"), *command.argv(seed), "--out", str(out)]
    code, t_spawn, t_exit, rss = spawn(args, tmp / f"{tag}.stdout", err, timeout)
    marks = {}
    text = err.read_text(errors="replace")
    for line in text.splitlines():
        if line.startswith("perfbench:phase "):
            _, name, value = line.split()
            marks[name] = float(value)
    inv = Invocation(command, seed, out, code, t_exit - t_spawn, {}, rss)
    if set(marks) == {"start", "ready", "done"}:
        inv.phases = {
            "start": marks["start"] - t_spawn,
            "import": marks["ready"] - marks["start"],
            "command": marks["done"] - marks["ready"],
            "exit": t_exit - marks["done"],
        }
    else:
        inv.problems.append("child did not report its phases")
    if "Traceback (most recent call last)" in text:
        inv.problems.append("traceback on stderr")
    return inv


# ---------------------------------------------------------------------- gate


class Gate:
    """Checks command outputs against the reference and the recorded digests."""

    def __init__(self, digests: dict[str, str] | None = None):
        if digests is None:
            digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.digests = digests
        self.rows_checked = 0
        self.mismatches = 0
        self.digests_checked = 0
        self._validate: dict[int, tuple] = {}

    def check(self, inv: Invocation) -> None:
        cmd = inv.command
        if cmd.kind == "validate":
            verdict = self.validate_reference(cmd, inv.seed)
            expected = 0 if verdict[0] else 1
        else:
            expected = 0
        if inv.code != expected:
            inv.problems.append(f"exit code {inv.code}, expected {expected}")
            return
        try:
            data = inv.out.read_bytes()
        except OSError:
            inv.problems.append("no output file")
            return
        key = " ".join(cmd.argv(inv.seed))
        if key in self.digests:
            self.digests_checked += 1
            if hashlib.sha256(data).hexdigest() != self.digests[key]:
                inv.problems.append("sha256 differs from the recorded digest")
        text = data.decode("utf-8", errors="replace")
        getattr(self, "_check_" + cmd.kind)(inv, text)

    def _mismatch(self, inv: Invocation, what: str) -> None:
        self.mismatches += 1
        if len(inv.problems) < 5:
            inv.problems.append(what)

    def _check_sample(self, inv: Invocation, text: str) -> None:
        cmd = inv.command
        lines = text.split("\n")
        if lines[0] != "index,y_value,steps,d0" or lines[-1] != "" or len(lines) != cmd.n + 2:
            inv.problems.append("CSV header or row count is wrong")
            return
        rows = [line.split(",") for line in lines[1:-1]]
        if any(len(r) != 4 or r[0] != str(i) for i, r in enumerate(rows)):
            inv.problems.append("CSV rows are malformed or out of order")
            return
        inv.steps = sum(int(r[2]) for r in rows)
        stride = max(1, cmd.n // cmd.replay_rows)
        replay = ref.Replayer(cmd.beta, inv.seed)
        for i in sorted(set(range(0, cmd.n, stride)) | {cmd.n - 1}):
            d = replay.draw(i)
            self.rows_checked += 1
            if rows[i][1:] != [ref.fmt(d.value), str(d.steps), str(d.d0)]:
                self._mismatch(inv, f"row {i} differs from the reference replay")

    def _check_trace(self, inv: Invocation, text: str) -> None:
        d = ref.Replayer(inv.command.beta, inv.seed).draw(0)
        self.rows_checked += 1
        lines = text.splitlines()
        want_d = f"D   (time 0 .. -{d.steps}): {d.d0} "
        if (
            len(lines) != 6
            or lines[3] != f"T = {d.steps}"
            or lines[5] != f"X0 = {ref.fmt(d.value)}"
            or not lines[1].startswith(want_d)
        ):
            self._mismatch(inv, "trace differs from the reference replay of row 0")
        inv.steps = d.steps

    def _check_analyze(self, inv: Invocation, text: str) -> None:
        beta = inv.command.beta
        x0 = ref.reference_x0(beta)
        try:
            rep = json.loads(text)
            ok = (
                rep["x0"] == x0
                and math.isclose(rep["bounds"]["lower"], x0**beta, rel_tol=1e-12)
                and math.isclose(rep["bounds"]["upper"], 2 * (x0 + 1) ** beta + 3, rel_tol=1e-12)
                and rep["bracket"]["upper"] - rep["bracket"]["lower"] < 1e-6
                and abs(rep["c"] - ref.small_beta_constant()) < 1e-8
            )
            if beta == 1.0:
                ok = ok and rep["bracket"]["lower"] <= ref.DICKMAN_MEAN_STEPS <= rep["bracket"]["upper"]
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            inv.problems.append("analyze report disagrees with the reference values")

    def validate_reference(self, cmd: Command, seed: int) -> tuple:
        """(passed, checks, total steps, values) of the reference for this seed, cached."""
        if seed not in self._validate:
            replay = ref.Replayer(cmd.beta, seed)
            draws = [replay.draw(i) for i in range(cmd.n)]
            values = ref.np.array([d.value for d in draws])
            steps = ref.np.array([d.steps for d in draws])
            checks = ref.validate_checks(cmd.beta, cmd.n, seed, values, steps)
            passed = all(s <= t for s, t in checks.values())
            self._validate[seed] = (passed, checks, int(steps.sum()), values)
        return self._validate[seed]

    def _check_validate(self, inv: Invocation, text: str) -> None:
        cmd = inv.command
        passed, checks, steps, _ = self.validate_reference(cmd, inv.seed)
        inv.steps = steps
        self.rows_checked += cmd.n
        try:
            rep = json.loads(text)
            got = {c["name"]: c for c in rep["checks"]}
            ok = (
                (rep["beta"], rep["n"], rep["seed"], rep["passed"]) == (cmd.beta, cmd.n, inv.seed, passed)
                and set(got) == set(checks)
                and all(
                    math.isclose(got[k]["statistic"], s, rel_tol=1e-9, abs_tol=1e-12)
                    and math.isclose(got[k]["threshold"], t, rel_tol=1e-9)
                    and got[k]["passed"] == (s <= t)
                    for k, (s, t) in checks.items()
                )
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            self._mismatch(inv, "validate report disagrees with the reference recomputation")


# ------------------------------------------------------------------- helpers


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten values beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 11
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def warm_up(workload: Workload, tmp: Path) -> None:
    """One untimed child so byte-compilation and the file cache are done."""
    inv = invoke(Command("analyze", workload.rotation[0].beta), 0, tmp, "warmup", CHILD_TIMEOUT_S)
    if inv.code != 0:
        raise SystemExit(f"warm-up child failed with exit code {inv.code}: {inv.out}")


def run_children(workload: Workload, seed: int, tmp: Path, until: float | None, count: int = 0):
    """Invocations in a closed loop, ``count`` of them or, with ``until``, whole
    rotations for as long as the next one is expected to end by ``until``."""
    invs: list[Invocation] = []
    k = 0
    size = len(workload.rotation)
    while True:
        if until is None:
            stop = k >= count
        else:
            rotation_s = sum(inv.latency for inv in invs[-size:]) if invs else 0.0
            stop = k > 0 and time.perf_counter() + rotation_s > until
        if k % size == 0 and stop:
            break
        cmd = workload.rotation[k % size]
        invs.append(invoke(cmd, cli_seed(workload, seed, k), tmp, f"run-{k}", CHILD_TIMEOUT_S))
        k += 1
    return invs


def gate_all(invs: list[Invocation], gate: Gate) -> int:
    failed = 0
    for inv in invs:
        if not inv.problems:
            gate.check(inv)
        failed += bool(inv.problems)
    return failed


def describe_failures(invs: list[Invocation]) -> None:
    for inv in invs:
        if inv.problems:
            print(f"FAILED {' '.join(inv.command.argv(inv.seed))}: {'; '.join(inv.problems)}")


# ------------------------------------------------------------ end-to-end run


def end_to_end(name: str, workload: Workload, seed: int, seconds: int, tmp: Path) -> dict:
    warm_up(workload, tmp)
    invs = run_children(workload, seed, tmp, until=time.perf_counter() + seconds)
    gate = Gate()
    failed = gate_all(invs, gate)
    describe_failures(invs)

    done = [inv for inv in invs if inv.phases]
    series = {
        "setup_s": [inv.phases["import"] for inv in done],
        "latency_p50_s": [inv.latency for inv in done],
        "peak_rss_mb": [inv.rss_mb for inv in done],
    }
    drawing = [inv for inv in done if inv.command.draws]
    command_s = sum(inv.phases["command"] for inv in drawing)
    metrics = {key: statistics.median(vals) for key, vals in series.items() if vals}
    if command_s > 0:
        metrics["samples_per_s"] = sum(inv.command.draws for inv in drawing) / command_s

    print(f"workload {name}: {len(invs)} invocations, seed {seed}, {seconds} s window")
    for key, vals in series.items():
        if vals:
            q1, med, q3 = quartiles(vals)
            print(f"  {key:<16} {med:.6g} {END_TO_END[key]}  (q1 {q1:.6g}, q3 {q3:.6g}, n {len(vals)})")
    if "samples_per_s" in metrics:
        print(f"  {'samples_per_s':<16} {metrics['samples_per_s']:.6g} 1/s  "
              f"({sum(i.command.draws for i in drawing)} draws over {command_s:.4g} s of command time)")
    stepped = [inv for inv in drawing if inv.steps is not None]
    if stepped:
        steps = sum(inv.steps for inv in stepped)
        secs = sum(inv.phases["command"] for inv in stepped)
        print(f"  {'steps_per_s':<16} {steps / secs:.6g} 1/s  ({steps} backward steps, unbounded)")
    tail_info = tail(series["latency_p50_s"])
    if tail_info:
        pct, value = tail_info
        print(f"  latency_tail_s   {value:.6g} s at p{pct:.1f} (10 of {len(done)} invocations beyond it)")
    for phase in ("start", "import", "command", "exit"):
        vals = [inv.phases[phase] for inv in done]
        if vals:
            print(f"  phase {phase:<10} median {statistics.median(vals):.6g} s")
    print(f"  failed_share     {failed}/{len(invs)}; replayed rows {gate.rows_checked}, "
          f"mismatches {gate.mismatches}, digests compared {gate.digests_checked}")
    correct = failed == 0 and gate.mismatches == 0 and set(metrics) == set(END_TO_END)
    return {
        "correct": correct,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {key: {"value": metrics.get(key), "unit": unit} for key, unit in END_TO_END.items()},
    }


# --------------------------------------------------------------- traced run


def import_profile(tmp: Path, repeats: int = 3) -> dict[str, float]:
    """Median ``-X importtime`` split of ``import vervaat.cli`` over fresh children."""
    runs = []
    for k in range(repeats):
        err = tmp / f"importtime-{k}.err"
        args = [sys.executable, "-X", "importtime", "-c", "import vervaat.cli"]
        code, _, _, _ = spawn(args, tmp / f"importtime-{k}.out", err, CHILD_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"importing vervaat.cli failed with exit code {code}")
        runs.append(layers.import_split(layers.parse_importtime(err.read_text())))
    return {key: statistics.median(r.get(key, 0.0) for r in runs) for key in runs[0]}


def _csv_rows(inv: Invocation) -> dict[int, tuple[str, str, str]]:
    if inv.command.kind == "trace":
        lines = inv.out.read_text().splitlines()
        t = lines[3].split(" = ")[1]
        d0 = lines[1].split(": ")[1].split()[0]
        return {0: (lines[5].split(" = ")[1], t, d0)}
    rows = {}
    for line in inv.out.read_text().split("\n")[1:-1]:
        i, y, s, d0 = line.split(",")
        rows[int(i)] = (y, s, d0)
    return rows


def traced(name: str, workload: Workload, seed: int, seconds: int, tmp: Path) -> dict:
    t_start = time.perf_counter()
    warm_up(workload, tmp)
    passes = 2 if len(workload.rotation) > 1 else 1
    invs = run_children(workload, seed, tmp, until=None, count=passes * len(workload.rotation))
    gate = Gate()
    failed = gate_all(invs, gate)
    describe_failures(invs)
    if failed:
        return {"correct": False, "attempted": len(invs), "failed": failed,
                "metrics": {key: {"value": None, "unit": unit} for key, unit in PER_LAYER.items()}}
    imports = import_profile(tmp)

    sys.path.insert(0, str(SRC))
    api = layers.Api()
    m: dict[str, float | None] = {}
    first = invs[: len(workload.rotation)]
    n_cmd = len(first)
    layer_self = {layer: 0.0 for layer in layers.SELF_LAYERS}
    format_s = overhead = 0.0
    counts = layers.Counts()
    mismatches = 0
    span_count = 0
    every_max = 1
    span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(span_file, "w", encoding="utf-8") as fh:
        for inv in first:
            cmd = inv.command
            job = layers.Job(cmd.kind, cmd.beta, cmd.n, inv.seed)
            argv = cmd.argv(inv.seed) + ["--out", str(tmp / "in-process.out")]
            format_s += layers.format_seconds(api, job, argv, pairs=2 if cmd.n >= 400 else 10)

            values = _engine_values(api, job) if cmd.kind == "validate" else None

            # Untraced, every draw: exact counts, and the rows the CLI printed.
            cmd_counts = layers.Counts()
            rows, _ = layers.replica(api, job, None, 1, cmd_counts, values)
            if cmd.kind in ("sample", "validate"):
                for key in ("draws", "uniforms", "steps", "aborts"):
                    setattr(counts, key, getattr(counts, key) + getattr(cmd_counts, key))
                counts.w2 = None if cmd_counts.w2 is None or counts.w2 is None else counts.w2 + cmd_counts.w2
            if cmd.kind in ("sample", "trace"):
                printed = _csv_rows(inv)
                for i, (x, t, d0) in rows.items():
                    if printed.get(i) != (ref.fmt(x), str(t), str(d0)):
                        mismatches += 1
            elif cmd.kind == "validate":
                ref_values = gate.validate_reference(cmd, inv.seed)[3]
                mismatches += int(sum(rows[i][0] != ref_values[i] for i in range(cmd.n)))

            # The same draws twice, sampled every k-th: untraced, then traced.
            every = max(1, math.ceil((cmd_counts.steps + 5 * cmd_counts.draws) / layers.SPAN_BUDGET))
            every_max = max(every_max, every)
            t0 = time.perf_counter()
            _, covered = layers.replica(api, job, None, every, None, values)
            untraced_s = time.perf_counter() - t0
            tracer = layers.Tracer()
            t0 = time.perf_counter()
            tracer.call("replica." + cmd.kind, None, layers.replica, api, job, tracer, every, None, values)
            traced_s = time.perf_counter() - t0
            scale = cmd.draws / covered if covered else 1.0
            overhead += (traced_s - untraced_s) * scale
            for layer, secs in tracer.layer_self(scale).items():
                if layer in layer_self:
                    layer_self[layer] += secs
            span_count += len(tracer.spans)
            fh.write(json.dumps({"command": " ".join(cmd.argv(inv.seed)), "sample_every": every,
                                 "spans": len(tracer.spans)}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    # Per invocation, averaged over the rotation; imports add each module's own body.
    for layer in layer_self:
        layer_self[layer] = layer_self[layer] / n_cmd + imports.get(f"self:vervaat.{layer}", 0.0)
    m["cli.format_s"] = format_s / n_cmd
    layer_self["cli"] += m["cli.format_s"]
    for layer, secs in layer_self.items():
        m[f"{layer}.self_s"] = secs

    m["cli.import_s"] = imports.get("cum:vervaat.cli")
    m["runtime.import_s"] = imports.get("cum:vervaat.runtime")
    m["import.numpy_s"] = imports.get("numpy")
    m["import.scipy_s"] = imports.get("scipy")
    m["import.click_s"] = imports.get("click")
    latency = [inv.latency for inv in invs]
    m["process.start_s"] = statistics.median(inv.phases["start"] for inv in invs)
    m["process.exit_s"] = statistics.median(inv.phases["exit"] for inv in invs)
    m["share.import_pct"] = 100.0 * sum(inv.phases["import"] for inv in invs) / sum(latency)
    m["share.oracle_pct"] = 100.0 * layer_self["oracle"] / statistics.median(latency)

    if counts.draws:
        m["streams.uniforms_per_sample"] = counts.uniforms / counts.draws
        m["engine.steps_per_sample"] = counts.steps / counts.draws
        m["engine.coalesce_ratio"] = counts.draws / counts.steps
        m["engine.w2_draws_per_sample"] = None if counts.w2 is None else counts.w2 / counts.draws
    m["engine.budget_aborts"] = counts.aborts
    m["trace.overhead_s"] = overhead / n_cmd
    m["trace.sample_every"] = every_max
    m["trace.spans"] = span_count
    m["replay.rows_checked"] = gate.rows_checked
    m["replay.mismatches"] = gate.mismatches + mismatches

    probe_values, rounds = layers.probes(api, workload.rotation[0].beta, seed, t_start + seconds)
    m.update(probe_values)
    # Restart plus first uniform, as a share of a whole draw (restart + run_ciaftp).
    restart_us, sample_us = m["streams.restart_us"], m["engine.sample_us"]
    m["share.restart_pct"] = 100.0 * restart_us / (restart_us + sample_us)

    print(f"workload {name}: traced run, seed {seed}; spans in {span_file.relative_to(ROOT)}")
    print(f"  children {len(invs)}, probe rounds {rounds}, spans {span_count} "
          f"(every {every_max}-th draw at most)")
    for key, unit in PER_LAYER.items():
        value = m.get(key)
        shown = "not measured" if value is None else f"{value:.6g} {unit}"
        print(f"  {key:<30} {shown}")
    correct = m["replay.mismatches"] == 0 and counts.aborts == 0
    return {
        "correct": correct,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {key: {"value": m.get(key), "unit": unit} for key, unit in PER_LAYER.items()},
    }


def _engine_values(api, job):
    params = api.updates.make_params(job.beta)
    return api.engine.sample_many(params, job.n, job.seed)[0]


# ---------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "vervaat" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'vervaat' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    ref.self_test()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        run = traced if args.trace else end_to_end
        result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
