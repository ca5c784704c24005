"""Perfect sampling by coupling into and from the past.

Backward phase: the dominating walk starts at time 0 from its stationary
law (``draw_initial_dominating``: a geometric shifted to the floor x0 - 1)
and grows backwards.  Each backward step imputes the uniform that drove the
observed forward transition from its conditional law: uniform on (2/3, 1)
for a forward up-move, on (0, 2/3] for a down-move or hold.  Step T
coalesces when W(1) = U^(1/beta) <= 1/(D + 1), because the multigamma
coupler then maps every state in [0, D] to one point.  Forward phase: the
chain restarts there at a fresh X(-T+1) = W(2) and runs to time 0 with the
imputed first drivers, drawing second drivers only for the collapsing
branch.  X(0) is an exact draw from the stationary perpetuity law.

Uniforms are consumed in a fixed order, so runs replay exactly: the start,
then per backward step a direction and an imputation (zeros redrawn), then
the second drivers (from ``w2_stream`` if given).  Without zeros, uniforms
2k - 1 and 2k drive step k and the second drivers start at 2T + 1.

``run_ciaftp`` grows the walk in chunks as long as the walk so far, of at
least x0^beta // 2 steps (x0^beta is the theorem's lower bound on E[T]) and
at most 4096: the walk is a reflected (Lindley) random walk, so a chunk's
states follow from a cumulative sum and minimum of its +-1 moves.  Where
x0^beta < 128 (as at beta <= 2) it first takes 64 steps one at a time
(``backward_extend``), so short walks touch no numpy.  ``sample_many``
advances batches one step per round, reading uniforms through a
``BlockCache``; a row that leaves the lockstep after k steps finishes its
walk on ``run_ciaftp``'s path, which rolls it forward to X(-k), and the
lockstep applies steps k .. 1 (see ``_backward``).  Every value that
decides the output is the per-step code's, because numpy's ``power`` and
``log`` differ from libm's in the last bit for some inputs: powers
U ** (1/beta) go through libm element by element (numpy's ``power`` only
preselects coalescence candidates, with a 1e-9 margin), and so does the
geometric start wherever numpy's log could round it differently.

``sample_many`` is the one fan-out.  Where its rows hold enough work (rows
times x0^beta, see ``_workers``), it forks workers, at most one per CPU this
process may use, and each fills a contiguous range of rows in shared memory,
about 24 bytes per row in all.  A row depends only on its substream, so the output
is byte-identical per (seed, libm) whatever the worker count, and no worker
outlives the call.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import traceback
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .streams import BlockCache, UniformStream, _geometric_array, geometric_half
from .updates import TWO_THIRDS, VervaatParams, _power, coupler_collapses

__all__ = [
    "BackwardPath",
    "SampleResult",
    "StepBudgetError",
    "draw_initial_dominating",
    "backward_extend",
    "run_ciaftp",
    "forward_reconstruct",
    "sample_many",
]


#: Samples advanced together in one lockstep batch.
_BATCH_ROWS = 1 << 15
#: Backward steps after which a sample still running resumes on the scalar
#: path (a Dickman draw needs more than 64 steps with probability ~2e-5).
_LOCKSTEP_DEPTH = 64
#: Once fewer samples than this are running, the batch hands them to the
#: scalar path, because a numpy round has a fixed cost of a few hundred
#: microseconds; smaller batches run on the scalar path from the start.
_MIN_ACTIVE = 512
#: Backward steps the scalar path takes one at a time before it chunks.
_SCALAR_STEPS = 64
#: Most steps in one chunk, backward or forward.
_CHUNK_MAX = 4096
#: Work per worker process, in rows times x0^beta (the theorem's lower bound
#: on E[T]).  Measured on 2 cores, two processes lost to one at 10^4 rows at
#: beta = 0.25 and 1 and at 8 rows at beta = 3, and won from 2 x 10^4 and 16
#: rows; 2 x 50,000 forks from 2 x 10^4 rows at beta <= 1 and 30 at beta = 3.
_FORK_WORK = 50_000
#: Least work counted per row: below beta = 1 a row costs about as much as
#: at beta = 1 (x0^beta = 5), because fixed costs per row and per round dominate.
_ROW_WORK = 5.0
#: prctl's option that signals a process when its parent dies (linux/prctl.h).
_PR_SET_PDEATHSIG = 1


class StepBudgetError(RuntimeError):
    """Backward phase exceeded the per-sample step budget; ``seed`` (as a
    64-bit Philox key) and ``index`` name ``stream``'s substream if it has one."""

    def __init__(self, beta: float, x0: int, budget: int, stream=None):
        self.beta = beta
        self.x0 = x0
        self.expected_floor = _power(x0, beta)
        self.budget = budget
        self.seed = seed = getattr(stream, "seed", None)
        self.index = index = getattr(stream, "index", None)
        where = "" if index is None else f" (seed {seed}, index {index})"
        super().__init__(
            f"no coalescence within {budget} backward steps for beta={beta:g}"
            f"{where}; expected steps grow like x0^beta = {x0}^{beta:g} ~ "
            f"{self.expected_floor:.3g}"
        )


@dataclass(slots=True)
class BackwardPath:
    """Dominating-walk trajectory grown backwards, with imputed drivers.

    ``d_states[t]`` is the walk at time -t (so ``d_states[0]`` is D(0));
    ``imputed_u[t-1]`` is the uniform U(-t) imputed for the forward
    transition D(-t) -> D(-t+1).  Invariants: every state is >= x0 - 1,
    consecutive states differ by one unit except for holds at the floor,
    and imputed_u[t-1] > 2/3 exactly when that forward transition is an
    up-move.  ``coalesce_index`` is T once U(-T)^(1/beta) <= 1/(D(-T)+1),
    and no earlier step satisfies that test.
    """

    d_states: list[int]
    imputed_u: list[float] = field(default_factory=list)
    coalesce_index: int | None = None


@dataclass(slots=True)
class SampleResult:
    """One perfect draw with its step-count diagnostics."""

    value: float
    steps: int
    d0: int
    path: BackwardPath | None = None
    x_path: list[float] | None = None


def draw_initial_dominating(params: VervaatParams, stream) -> int:
    """Stationary start of the dominating walk: x0 - 2 + Geom(1/2)."""
    return params.x0 - 2 + geometric_half(stream)


def backward_extend(params: VervaatParams, path: BackwardPath, stream) -> BackwardPath:
    """Grow the path one step backwards; mark coalescence if it occurs.

    Consumes one uniform for the backward walk direction (up with
    probability 1/3) and one for the conditional imputation.  Imputation
    uses the affine inverse-CDF maps 2/3 + u/3 (forward up) and (2/3) u
    (forward down or hold); a raw uniform of exactly 0 is redrawn so every
    imputed value stays inside the open interval and powers of it are
    well defined.
    """
    if path.coalesce_index is not None:
        raise RuntimeError("path already coalesced; cannot extend backwards")
    d_states = path.d_states
    floor = params.x0 - 1
    d_prev = d_states[-1]

    u_dir = stream.next_uniform()
    if u_dir > TWO_THIRDS:
        d = d_prev + 1
    elif d_prev > floor:
        d = d_prev - 1
    else:
        d = floor

    u = stream.next_uniform()
    while u == 0.0:
        u = stream.next_uniform()
    if d_prev == d + 1:  # forward transition d -> d_prev moves up
        u_imp = TWO_THIRDS + u / 3.0
    else:
        u_imp = TWO_THIRDS * u

    d_states.append(d)
    path.imputed_u.append(u_imp)

    # Coalescence test at the W level.  u_imp ** inv_beta underflows to 0
    # only when the exact value is far below any representable 1/(1+d), so
    # underflow can never claim a coalescence that did not happen.
    w1 = u_imp**params.inv_beta
    if coupler_collapses(d, w1):
        path.coalesce_index = len(path.imputed_u)
    return path


def run_ciaftp(
    params: VervaatParams,
    stream,
    w2_stream=None,
    collect_path: bool = False,
) -> SampleResult:
    """Produce one exact draw from the stationary perpetuity law.

    ``w2_stream``, when given, supplies the second coupler drivers so that
    :func:`forward_reconstruct` can replay them; otherwise they are drawn
    from ``stream`` after the backward phase.  ``collect_path`` attaches
    the backward path and the forward trajectory to the result.

    Raises :class:`StepBudgetError` if the backward phase exceeds
    ``params.step_budget`` steps (only plausible for large beta, where the
    expected step count x0^beta is itself enormous).
    """
    d0 = draw_initial_dominating(params, stream)
    path = BackwardPath(d_states=[d0])
    return _complete(params, path, stream, w2_stream, collect_path)


def _complete(
    params: VervaatParams,
    path: BackwardPath,
    stream,
    w2_stream=None,
    collect_path: bool = False,
    done: int = 0,
) -> SampleResult:
    """Grow ``path`` backwards until it coalesces, then run the forward pass.

    ``stream`` must be positioned just after the uniforms that built
    ``path``.  With ``done`` = k, ``path`` starts at D(-k) after k steps
    taken elsewhere: they count toward the budget and the chunk sizes,
    ``steps`` is the whole T, and ``value`` and ``d0`` are X(-k) and D(-k).
    """
    # x0^beta, the theorem's lower bound on E[T] (capped: it overflows to
    # inf above beta ~ 110), sizes the first chunk; walks expected to be
    # short start with single steps.
    first = int(min(_power(params.x0, params.beta), 2 * _CHUNK_MAX)) // 2
    prefix = _SCALAR_STEPS if first < _SCALAR_STEPS else 0
    while path.coalesce_index is None and done + len(path.imputed_u) < prefix:
        if done + len(path.imputed_u) >= params.step_budget:
            raise StepBudgetError(params.beta, params.x0, params.step_budget, stream)
        backward_extend(params, path, stream)
    t_coal = path.coalesce_index
    if t_coal is None:
        t_coal, u = _backward_chunked(params, path, stream, collect_path, first, done)
        # a slice at a time, so no list of a whole long path is ever built
        drivers = chain.from_iterable(reversed(u[max(h - _CHUNK_MAX, 0) : h].tolist())
                                      for h in range(t_coal - 1, 0, -_CHUNK_MAX))
    else:
        drivers = reversed(path.imputed_u[: t_coal - 1])

    w2s = stream if w2_stream is None else w2_stream
    x = w2s.next_uniform() ** params.inv_beta  # X(-T+1) = W(-T)(2), any start collapses here
    x_path = [x] if collect_path else None
    x = _forward_walk(params, drivers, x, w2s, x_path)
    return SampleResult(
        value=x,
        steps=done + t_coal,
        d0=path.d_states[0],
        path=path if collect_path else None,
        x_path=x_path,
    )


def _backward_chunked(params, path, stream, collect_path, first, done):
    """Grow ``path`` in chunks as long as the walk so far (``done`` steps
    before ``path`` included), and at least ``first`` steps (at most
    :data:`_CHUNK_MAX`), until it coalesces; return T within ``path`` and
    all its imputed U as an array.  ``path`` itself is extended only for
    ``collect_path``."""
    imputed = [np.array(path.imputed_u)]
    states = [np.array(path.d_states[1:], dtype=np.int64)]
    t, d, t_coal = len(path.imputed_u), path.d_states[-1], None
    while t_coal is None:
        k = min(max(done + t, first), _CHUNK_MAX, params.step_budget - done - t)
        if k <= 0:
            raise StepBudgetError(params.beta, params.x0, params.step_budget, stream)
        d_k, u_k, j = _backward_chunk(params, d, stream, k)
        if j is not None:
            d_k, u_k, t_coal = d_k[: j + 1], u_k[: j + 1], t + j + 1
        imputed.append(u_k)
        states.append(d_k)
        t, d = t + u_k.size, int(d_k[-1])
    imputed = np.concatenate(imputed)
    if collect_path:
        path.d_states[1:] = np.concatenate(states).tolist()
        path.imputed_u[:] = imputed.tolist()
        path.coalesce_index = t_coal
    return t_coal, imputed


def _backward_chunk(params, d, stream, k):
    """Up to ``k`` backward steps from D = ``d``: arrays of D and imputed U
    per step, and the index j of the first step that coalesces (None if
    none does), with ``stream`` left just after that step's uniforms.

    The walk reflects at its floor (a Lindley recursion), so D(-i) = floor
    + S_i + max(d - floor, -min_{h<=i} S_h) for the partial sums S of the
    +-1 moves.  A chunk holding a zero imputation uniform, which
    :func:`backward_extend` redraws, runs step by step."""
    start = stream.position
    u = stream.uniforms(2 * k)
    u_raw = u[1::2]
    if not u_raw.all():
        part = BackwardPath(d_states=[d])
        stream.seek(start)
        while part.coalesce_index is None and len(part.imputed_u) < k:
            backward_extend(params, part, stream)
        j = None if part.coalesce_index is None else part.coalesce_index - 1
        return np.array(part.d_states[1:]), np.array(part.imputed_u), j
    floor = params.x0 - 1
    s = np.cumsum(np.where(u[0::2] > TWO_THIRDS, 1, -1))
    d_k = floor + s + np.maximum(d - floor, -np.minimum.accumulate(s))
    up = np.concatenate(([d], d_k[:-1])) == d_k + 1  # forward move D(-i) -> D(-i+1)
    u_k = np.where(up, TWO_THIRDS + u_raw / 3.0, TWO_THIRDS * u_raw)
    # numpy's power is within a few ulps of libm's, far inside the 1e-9
    # margin, so every coalescing step is a candidate; libm decides.
    w1 = np.power(u_k, params.inv_beta)
    for j in np.flatnonzero(w1 <= (1.0 / (1.0 + d_k)) * (1.0 + 1e-9)).tolist():
        if coupler_collapses(int(d_k[j]), float(u_k[j]) ** params.inv_beta):
            stream.seek(start + 2 * (j + 1))
            return d_k, u_k, j
    return d_k, u_k, None


def _forward_walk(params, drivers, x, w2s, x_path=None):
    """Run the coupler from ``x`` on first drivers u ** (1/beta) for u in
    ``drivers`` (Python floats: libm's power) and second drivers from
    ``w2s``; return the last state, appending each state to ``x_path``."""
    inv_beta = params.inv_beta
    for u in drivers:
        w1 = u**inv_beta
        y = 1.0 + x
        if w1 <= 1.0 / y:  # coupler_collapses(x, w1), inlined: same float operations
            x = w2s.next_uniform() ** inv_beta
        else:
            x = w1 * y
        if x_path is not None:
            x_path.append(x)
    return x


def forward_reconstruct(
    params: VervaatParams, path: BackwardPath, stream, start: float
) -> float:
    """Roll the coupler forward from ``start`` at the coalescence time.

    ``stream`` supplies the second drivers; pass streams with identical
    seed and index to compare different starts against the same draws.
    Because the first application at time -T takes the collapsing branch
    for every start in [0, D(-T)], all starts consume the same lazy draws
    and return the same X(0).
    """
    t_coal = path.coalesce_index
    if t_coal is None:
        raise ValueError("path has not coalesced; nothing to reconstruct")
    d_top = path.d_states[t_coal]
    if not 0 <= start <= d_top:
        raise ValueError(
            f"start must lie in [0, D(-T)] = [0, {d_top}], got {start}"
        )
    return _forward_walk(params, reversed(path.imputed_u[:t_coal]), float(start), stream)


def sample_many(
    params: VervaatParams, n: int, seed: int, first_index: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``n`` perfect samples, sample i on substream first_index + i.

    Returns (values, steps, d0) arrays, 24 bytes per row.  Results depend
    only on (seed, substream index), never on batching or worker layout, so
    any partition of the index range reproduces the same rows, and each row
    is bit for bit what :func:`run_ciaftp` draws on that substream.  Raises
    :class:`StepBudgetError` for the first row, in index order, whose
    backward phase exceeds the step budget, and ValueError unless every
    index lies in [0, 2^64).

    Enough work (see :func:`_workers`) is split into contiguous index ranges,
    one per available CPU: forked workers fill theirs in shared memory while
    this process fills the first.  No worker outlives the call, and a
    worker's failure raises RuntimeError; rows are never partial.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= first_index <= (1 << 64) - n:
        raise ValueError(
            f"substreams first_index .. first_index + n - 1 must lie in "
            f"[0, 2^64), got first_index={first_index}, n={n}"
        )
    workers = _workers(params, n)
    if workers > 1:
        return _fan_out(params, n, seed, first_index, workers)
    values = np.empty(n)
    steps = np.empty(n, dtype=np.int64)
    d0s = np.empty(n, dtype=np.int64)
    _fill(params, seed, first_index, values, steps, d0s)
    return values, steps, d0s


def _workers(params, n):
    """Processes worth using for ``n`` rows: one per :data:`_FORK_WORK` of
    work, at most one per CPU this process may run on, and 1 off Linux, whose
    fork, CPU affinity and parent-death signal the fan-out relies on.  A row's
    work is x0^beta (the theorem's lower bound on E[T]), at least
    :data:`_ROW_WORK` and at most the step budget."""
    per_row = min(max(_power(params.x0, params.beta), _ROW_WORK), params.step_budget)
    if n * per_row < 2 * _FORK_WORK or sys.platform != "linux":
        return 1
    return min(len(os.sched_getaffinity(0)), int(n * per_row // _FORK_WORK))


def _fill(params, seed, first, values, steps, d0s):
    """Fill the rows of substreams first, first + 1, ... in this process."""
    n = values.size
    stream = UniformStream(seed, first)
    # batches of equal size: a small last batch would pay for whole rounds
    batches = max(1, -(-n // _BATCH_ROWS))
    bounds = [n * b // batches for b in range(batches + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        _sample_batch(params, stream, first + lo, values[lo:hi], steps[lo:hi], d0s[lo:hi])


def _fan_out(params, n, seed, first, workers):
    """:func:`sample_many` in ``workers`` contiguous ranges of rows: this
    process fills the first, and a forked child each other one, writing its
    rows to a shared map, and its abort slot: 1 + the offset in its range of
    its first budget abort, or 0.  The children are reaped in index order."""
    import ctypes
    import mmap

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    shared = mmap.mmap(-1, 24 * n + 8 * workers)
    values = np.frombuffer(shared, np.float64, n)
    steps = np.frombuffer(shared, np.int64, n, 8 * n)
    d0s = np.frombuffer(shared, np.int64, n, 16 * n)
    aborts = np.frombuffer(shared, np.uint64, workers, 24 * n)
    bounds = [n * w // workers for w in range(workers + 1)]
    parent, pids = os.getpid(), {}
    try:
        for w in range(1, workers):
            lo, rows = bounds[w], slice(bounds[w], bounds[w + 1])
            pid = os.fork()
            if pid == 0:
                # The child never returns into the caller, so no handler,
                # buffered output, finalizer or atexit hook of the caller's
                # runs in it.  It dies with its parent, and exits at once if
                # the parent died before prctl took effect.
                code = 1
                try:
                    gc.disable()
                    dies_with_parent = prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) == 0
                    if dies_with_parent and os.getppid() == parent:
                        try:
                            _fill(params, seed, first + lo, values[rows], steps[rows], d0s[rows])
                        except StepBudgetError as exc:
                            aborts[w] = exc.index - first - lo + 1
                        code = 0
                except Exception:
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(code)
            pids[w] = pid
        rows = slice(0, bounds[1])
        _fill(params, seed, first, values[rows], steps[rows], d0s[rows])
        for w, pid in list(pids.items()):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pids[w]
            if status:
                raise RuntimeError(
                    f"sample_many worker for substreams {first + bounds[w]} .. "
                    f"{first + bounds[w + 1] - 1} failed with exit status {status}"
                )
            if aborts[w]:
                index = first + bounds[w] + int(aborts[w]) - 1
                raise StepBudgetError(
                    params.beta, params.x0, params.step_budget, UniformStream(seed, index)
                )
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return values, steps, d0s


def _pow(u: np.ndarray, inv_beta: float) -> np.ndarray:
    """u ** inv_beta element by element with libm's pow, as the scalar path."""
    if inv_beta == 1.0:
        return u
    return np.array([x**inv_beta for x in u.tolist()], dtype=float)


def _sample_batch(params, stream, first, values, steps, d0s):
    """Fill the rows of substreams first, first + 1, ... in lockstep, with
    ``stream`` re-pointed, in row order, at each row handed off."""
    index = np.arange(values.size, dtype=np.uint64) + np.uint64(first)
    blocks = BlockCache(stream.seed, index)
    hist, pos, handoff = _backward(params, blocks, values, steps, d0s)
    for r, k, d in handoff:
        if d is None:
            d = d0s[r] = draw_initial_dominating(params, stream.restart(first + r))
        else:
            stream.seek(2 * k + 1, first + r)
        res = _complete(params, BackwardPath([d]), stream, done=k)
        values[r], steps[r], pos[r] = res.value, res.steps, stream.position
    _forward(params, blocks, hist, pos, values)


def _backward(params, blocks, values, steps, d0s):
    """Backward phase of the rows of ``blocks``' substreams, in lockstep.

    Writes each row's D(0) to ``d0s``, and T and X(-T+1) = W(-T)(2) of each
    row that coalesces to ``steps`` and ``values``.  Returns ``(hist, pos,
    handoff)``: ``hist[k - 1]`` holds (rows, W(-k)(1)) of the rows that take
    step k forward, in ascending order, and ``pos`` a coalesced row's next
    stream position.  ``handoff`` lists, in row order, (row, k, D(-k)) for
    the rows left to the per-row path after k steps, their streams at
    2k + 1, and (row, 0, None) for those to start there afresh: all rows of
    a batch below :data:`_MIN_ACTIVE`, and those whose start drew a zero.
    """
    m = values.size
    inv_beta = params.inv_beta
    hist, pos = [], np.zeros(m, np.int64)
    if m < _MIN_ACTIVE:
        return hist, pos, [(r, 0, None) for r in range(m)]
    u = blocks.take(np.arange(m), 0)
    zero = u == 0.0  # the geometric start redraws it: restart these rows
    handoff = [(r, 0, None) for r in np.flatnonzero(zero).tolist()]
    d0s[:] = params.x0 - 2 + _geometric_array(np.where(zero, 0.5, u))
    rows = np.flatnonzero(~zero)
    d = d0s[rows]
    depth = min(_LOCKSTEP_DEPTH, params.step_budget)
    k = 0
    while rows.size:
        if rows.size < _MIN_ACTIVE or k >= depth:
            handoff += zip(rows.tolist(), repeat(k), d.tolist())
            break
        k += 1
        u_dir, u = blocks.take(rows, 2 * k - 1), blocks.take(rows, 2 * k)
        zero = u == 0.0  # the imputation redraws it: step k runs on the per-row path
        if zero.any():
            handoff += zip(rows[zero].tolist(), repeat(k - 1), d[zero].tolist())
            keep = ~zero
            rows, d, u_dir, u = rows[keep], d[keep], u_dir[keep], u[keep]
        d_new = np.where(u_dir > TWO_THIRDS, d + 1, np.maximum(d - 1, params.x0 - 1))
        u_imp = np.where(d == d_new + 1, TWO_THIRDS + u / 3.0, TWO_THIRDS * u)
        w1 = _pow(u_imp, inv_beta)
        done = coupler_collapses(d_new, w1)
        c = rows[done]
        steps[c], pos[c] = k, 2 * k + 2
        values[c] = _pow(blocks.take(c, 2 * k + 1), inv_beta)
        going = ~done
        rows, d = rows[going], d_new[going]
        hist.append((rows, w1[going]))
    handoff.sort()
    return hist, pos, handoff


def _forward(params, blocks, hist, pos, x):
    """Forward steps of the rows in ``hist``, from the deepest step down,
    from the states in ``x``: X(-T+1) for a row that coalesced at T, X(-k)
    for one the per-row path finished after a hand-off at k.  A collapse
    takes the row's second driver from ``blocks`` at ``pos``, and advances it."""
    inv_beta = params.inv_beta
    for r, w1 in reversed(hist):
        xr = x[r]
        collapse = coupler_collapses(xr, w1)
        new = w1 * (1.0 + xr)
        if collapse.any():
            c = r[collapse]
            new[collapse] = _pow(blocks.take(c, pos[c]), inv_beta)
            pos[c] += 1
        x[r] = new
