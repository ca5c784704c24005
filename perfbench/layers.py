"""Per-layer measurements of ``vervaat`` for the benchmark's traced run.

Three sources, all driven from this file rather than from inside the program:

* a *replica* of each workload command's library work, built from public
  calls (``UniformStream.restart``, ``draw_initial_dominating``,
  ``backward_extend``, ``forward_reconstruct``, the oracle and runtime
  functions).  It runs twice on the same draws, once recording a span around
  every call and once not, and once more untraced over every draw of the
  command for the exact counts;
* *probes*: micro-timings of single public calls, repeated in rounds until
  the run's time is used up, reported as medians;
* the ``-X importtime`` split of ``import vervaat.cli`` (parsed here, run by
  ``run.py`` in fresh interpreters).

A span is ``(name, start, end, parent, draw)``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``draw`` the row index the span works on.
The layer of a span is the part of its name before the first dot; the
``replica`` layer is the benchmark's own loop.  A layer's self time is the
summed duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

#: Spans recorded per command at most; draws beyond it are traced every k-th.
SPAN_BUDGET = 200_000
#: Layers (modules of ``src/vervaat``) that get a ``<layer>.self_s`` metric.
SELF_LAYERS = ("streams", "updates", "engine", "runtime", "oracle", "cli")
#: Public names that a planned refactor may remove; probes that need them
#: report "not measured" when they are gone.
OPTIONAL_ENGINE = ("draw_initial_dominating", "backward_extend", "forward_reconstruct")


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, name, draw, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, draw)

    def layer_self(self, scale: float = 1.0) -> dict[str, float]:
        """Self time per layer; spans of sampled draws count ``scale`` times."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, t0, t1, _, draw), c in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            weight = 1.0 if draw is None else scale
            out[layer] = out.get(layer, 0.0) + weight * ((t1 - t0) - c)
        return out


def _direct(name, draw, fn, *args):
    return fn(*args)


class Api:
    """The ``vervaat`` modules, imported from the checkout's ``src``."""

    def __init__(self):
        import vervaat.cli
        import vervaat.engine
        import vervaat.oracle
        import vervaat.runtime
        import vervaat.streams
        import vervaat.updates

        self.cli = vervaat.cli
        self.engine = vervaat.engine
        self.oracle = vervaat.oracle
        self.runtime = vervaat.runtime
        self.streams = vervaat.streams
        self.updates = vervaat.updates
        self.decomposed = all(hasattr(self.engine, n) for n in OPTIONAL_ENGINE)


@dataclass
class Counts:
    """Exact counts over every draw of one command."""

    draws: int = 0
    uniforms: int = 0
    steps: int = 0
    w2: int | None = 0
    aborts: int = 0


def _draw(api: Api, params, stream, i, call):
    """One draw through public calls: (value, steps, d0, uniforms, w2 draws)."""
    call("streams.restart", i, stream.restart, i)
    if not api.decomposed:
        r = call("engine.run_ciaftp", i, api.engine.run_ciaftp, params, stream)
        return r.value, r.steps, r.d0, stream.position, None
    eng = api.engine
    d0 = call("engine.geometric_start", i, eng.draw_initial_dominating, params, stream)
    path = eng.BackwardPath(d_states=[d0])
    budget = params.step_budget
    while path.coalesce_index is None:
        if len(path.imputed_u) >= budget:
            raise eng.StepBudgetError(params.beta, params.x0, budget)
        call("engine.backward_step", i, eng.backward_extend, params, path, stream)
    before = stream.position
    x = call("engine.forward", i, eng.forward_reconstruct, params, path, stream, 0.0)
    return x, path.coalesce_index, d0, stream.position, stream.position - before


def replay_draws(api: Api, params, seed, indices, tracer=None, counts=None):
    """Draw rows ``indices`` of seed; returns {index: (value, steps, d0)}."""
    stream = api.streams.UniformStream(seed, 0)
    call = _direct if tracer is None else tracer.call
    rows = {}
    for i in indices:
        try:
            if tracer is None:
                x, t, d0, used, w2 = _draw(api, params, stream, i, call)
            else:
                x, t, d0, used, w2 = tracer.call(
                    "replica.draw", i, _draw, api, params, stream, i, call
                )
        except api.engine.StepBudgetError:
            if counts is not None:
                counts.aborts += 1
            continue
        rows[i] = (x, t, d0)
        if counts is not None:
            counts.draws += 1
            counts.uniforms += used
            counts.steps += t
            counts.w2 = None if w2 is None or counts.w2 is None else counts.w2 + w2
    return rows


@dataclass(frozen=True)
class Job:
    """One command of a workload, as the replica and the probes see it."""

    kind: str  # sample | analyze | trace | validate
    beta: float
    n: int
    seed: int


def replica(api: Api, job: Job, tracer=None, every: int = 1, counts=None, values=None):
    """The library work of one command, through public calls.

    Returns (rows drawn, number of draws covered).  Draw rows are limited to
    every ``every``-th index; everything else runs once.  For ``validate``,
    ``values`` are the command's n engine draws, which the KS test compares
    with the oracle series (the sampled draws are too few for that).
    """
    call = _direct if tracer is None else tracer.call
    params = call("updates.make_params", None, api.updates.make_params, job.beta)
    if job.kind == "analyze":
        call("runtime.theorem_bounds", None, api.runtime.theorem_bounds, params)
        call("runtime.absorption_bracket", None, api.runtime.absorption_bracket, params, 400)
        call("runtime.small_beta_constant", None, api.runtime.small_beta_constant, 1e-9)
        return {}, 0
    if job.kind == "trace":
        stream = call("streams.UniformStream", 0, api.streams.UniformStream, job.seed, 0)
        r = call("engine.run_ciaftp", 0, api.engine.run_ciaftp, params, stream, None, True)
        return {0: (r.value, r.steps, r.d0)}, 1
    indices = range(0, job.n, every)
    rows = replay_draws(api, params, job.seed, indices, tracer, counts)
    if job.kind == "validate":
        orc = api.oracle
        depth = call("oracle.oracle_depth", None, orc.oracle_depth, job.beta)
        stream = call(
            "streams.UniformStream", None, api.streams.UniformStream, job.seed, 1 << 62
        )
        series = call(
            "oracle.truncated_sum_batch", None, orc.truncated_sum_batch, params, depth, job.n, stream
        )
        call("oracle.ks_two_sample", None, orc.ks_two_sample, values, series)
        call("oracle.ks_critical_value", None, orc.ks_critical_value, job.n, job.n)
        call("oracle.exact_moments", None, orc.exact_moments, job.beta)
    return rows, len(indices)


def format_seconds(api: Api, job: Job, argv: list[str], pairs: int) -> float:
    """Command time minus library time for the same command, in process.

    The CLI command (``main(argv)``) and the library call behind it run
    alternately, in ABBA order so that a drift in machine speed cancels; the
    result is the median difference over ``pairs`` pairs.
    """

    def command() -> float:
        t0 = perf_counter()
        try:
            api.cli.main(argv, standalone_mode=False)
        except SystemExit:  # validate exits 1 on a failed check
            pass
        return perf_counter() - t0

    diffs = []
    for p in range(pairs):
        if p % 2:
            lib = library_seconds(api, job)
            diffs.append(command() - lib)
        else:
            cli = command()
            diffs.append(cli - library_seconds(api, job))
    return statistics.median(diffs)


def library_seconds(api: Api, job: Job) -> float:
    """Wall time of the library call the CLI makes for this command."""
    params = api.updates.make_params(job.beta)
    t0 = perf_counter()
    if job.kind == "sample":
        api.engine.sample_many(params, job.n, job.seed)
    elif job.kind == "validate":
        api.oracle.validate_run(params, job.n, job.seed)
    elif job.kind == "trace":
        api.engine.run_ciaftp(params, api.streams.UniformStream(job.seed, 0), collect_path=True)
    else:
        api.runtime.theorem_bounds(params)
        api.runtime.absorption_bracket(params, 400)
        api.runtime.small_beta_constant(1e-9)
    return perf_counter() - t0


# ---------------------------------------------------------------- probes


def _probe_round(api: Api, beta: float, seed: int, budget_s: float) -> dict[str, float | None]:
    st, eng = api.streams, api.engine
    params = api.updates.make_params(beta)
    out: dict[str, float | None] = {}

    s = st.UniformStream(seed, 0)
    k = 2000
    t0 = perf_counter()
    for i in range(k):
        s.restart(i)
        s.next_uniform()
    out["streams.restart_us"] = (perf_counter() - t0) / k * 1e6

    s = st.UniformStream(seed, 1)
    for _ in range(8192):  # grow the block to its largest size
        s.next_uniform()
    f = s.next_uniform
    k = 100_000
    t0 = perf_counter()
    for _ in range(k):
        f()
    out["streams.uniform_ns"] = (perf_counter() - t0) / k * 1e9

    # run_ciaftp per draw, fresh substreams, until the time slice is used.
    s = st.UniformStream(seed, 0)
    spent, draws, i = 0.0, 0, 10**6
    while spent < budget_s and draws < 5000:
        s.restart(i)
        t0 = perf_counter()
        eng.run_ciaftp(params, s)
        spent += perf_counter() - t0
        draws += 1
        i += 1
    out["engine.sample_us"] = spent / draws * 1e6

    if api.decomposed:
        s.restart(0)
        k = 2000
        t0 = perf_counter()
        for _ in range(k):
            eng.draw_initial_dominating(params, s)
        out["engine.geometric_start_us"] = (perf_counter() - t0) / k * 1e6
        back = fwd = 0.0
        steps = 0
        i = 2 * 10**6
        while back + fwd < budget_s and steps < 200_000:
            s.restart(i)
            path = eng.BackwardPath(d_states=[eng.draw_initial_dominating(params, s)])
            t0 = perf_counter()
            while path.coalesce_index is None:
                eng.backward_extend(params, path, s)
            t1 = perf_counter()
            eng.forward_reconstruct(params, path, s, 0.0)
            fwd += perf_counter() - t1
            back += t1 - t0
            steps += path.coalesce_index
            i += 1
        out["engine.backward_step_us"] = back / steps * 1e6
        out["engine.forward_step_us"] = fwd / steps * 1e6
    else:
        for name in ("engine.geometric_start_us", "engine.backward_step_us", "engine.forward_step_us"):
            out[name] = None

    t0 = perf_counter()
    api.runtime.absorption_bracket(params, 400)
    out["runtime.bracket_ms"] = (perf_counter() - t0) * 1e3

    orc = api.oracle
    n = 100_000
    depth = orc.oracle_depth(beta)
    t0 = perf_counter()
    a = orc.truncated_sum_batch(params, depth, n, st.UniformStream(seed, 1 << 62))
    out["oracle.series_ns_per_uniform"] = (perf_counter() - t0) / (n * depth) * 1e9
    b = orc.truncated_sum_batch(params, depth, n, st.UniformStream(seed, (1 << 62) + 1))
    t0 = perf_counter()
    orc.ks_two_sample(a, b)
    out["oracle.ks_ms"] = (perf_counter() - t0) * 1e3
    return out


def probes(api: Api, beta: float, seed: int, deadline: float) -> tuple[dict, int]:
    """Probe rounds until ``deadline`` (at least one); medians and round count."""
    rounds: list[dict] = []
    while not rounds or perf_counter() < deadline:
        rounds.append(_probe_round(api, beta, seed, budget_s=0.1))
    out = {}
    for name in rounds[0]:
        vals = [r[name] for r in rounds]
        out[name] = None if vals[0] is None else statistics.median(vals)
    return out, len(rounds)


# ---------------------------------------------------------------- imports


def parse_importtime(text: str) -> list[tuple[str, int, int, int]]:
    """``-X importtime`` lines as (module, depth, self_us, cumulative_us)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative, name = line[len("import time:") :].split("|", 2)
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((name.strip(), depth, int(self_us), int(cumulative)))
    return entries


def import_split(entries) -> dict[str, float]:
    """Seconds per import metric, from one ``-X importtime`` listing.

    ``<pkg>`` totals the cumulative time of the outermost entries of that
    package (entries nested in another entry of the same package are already
    inside it); ``self:<module>`` is a module's own body.
    """
    out: dict[str, float] = {}
    stack: list[tuple[int, str]] = []
    # A parent is printed after its children, so walk backwards.
    for name, depth, self_us, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        for pkg in ("numpy", "scipy", "click"):
            if (name == pkg or name.startswith(pkg + ".")) and not any(
                a == pkg or a.startswith(pkg + ".") for _, a in stack
            ):
                out[pkg] = out.get(pkg, 0.0) + cumulative / 1e6
        if name.startswith("vervaat"):
            out["self:" + name] = self_us / 1e6
            out["cum:" + name] = cumulative / 1e6
        stack.append((depth, name))
    return out

