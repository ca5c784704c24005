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

``run_ciaftp`` walks backwards one step at a time (``backward_extend``)
and then forwards over the walk's W(1).  ``sample_many`` runs the same
per-row loop in C (``_kernel.c``), one row after another in this process,
24 bytes per row of output.  The C code makes the same floating-point
operations with libm's ``pow`` and ``log`` and draws numpy's Philox
uniforms, so each row is bit for bit what ``run_ciaftp`` draws on its
substream.  The file also holds ``sample``'s CSV writer.  Its first use
compiles it with Python's C compiler into the package directory, or into
``~/.cache/vervaat`` where that is not writable, and later calls and
processes load that file; a new build removes the platform's older files
there.  Where no build succeeds, ``sample_many`` warns once and draws each
row with ``run_ciaftp``, and ``sample`` formats with ``%``: the same bytes,
more slowly.  Nothing else here starts a process.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import re
import shlex
import subprocess
import sysconfig
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.ctypeslib import ndpointer

from .streams import _MASK64, UniformStream, geometric_half
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


#: The C source of sample_many's per-row loop and sample's CSV writer.
_SOURCE = os.path.join(os.path.dirname(__file__), "_kernel.c")
#: Its compiler flags: no contraction into fused multiply-adds, which round
#: differently from the Python code.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: Work per kernel call, in rows times x0^beta (the theorem's lower bound on
#: E[T]): about 50 ms at beta = 1 on 2 cores.  Python handles Ctrl-C only
#: between calls, so the calls must be short.
_CALL_WORK = 500_000


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
    the backward path and the forward trajectory to the result.  The
    backward phase is :func:`backward_extend` until the walk coalesces, as in
    ``_kernel.c``; it keeps the walk's states and imputed uniforms in lists.

    Raises :class:`StepBudgetError` if the backward phase exceeds
    ``params.step_budget`` steps (only plausible for large beta, where the
    expected step count x0^beta is itself enormous).
    """
    path = BackwardPath(d_states=[draw_initial_dominating(params, stream)])
    while path.coalesce_index is None:
        if len(path.imputed_u) >= params.step_budget:
            raise StepBudgetError(params.beta, params.x0, params.step_budget, stream)
        backward_extend(params, path, stream)
    t_coal = path.coalesce_index
    drivers = (u**params.inv_beta for u in reversed(path.imputed_u[: t_coal - 1]))

    w2s = stream if w2_stream is None else w2_stream
    x = w2s.next_uniform() ** params.inv_beta  # X(-T+1) = W(-T)(2), any start collapses here
    x_path = [x] if collect_path else None
    x = _forward_walk(params, drivers, x, w2s, x_path)
    return SampleResult(
        value=x,
        steps=t_coal,
        d0=path.d_states[0],
        path=path if collect_path else None,
        x_path=x_path,
    )


def _forward_walk(params, drivers, x, w2s, x_path=None):
    """Run the coupler from ``x`` on the first drivers W(1) in ``drivers``
    (Python floats) and second drivers from ``w2s``; return the last state,
    appending each state to ``x_path``."""
    inv_beta = params.inv_beta
    for w1 in drivers:
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
    drivers = (u**params.inv_beta for u in reversed(path.imputed_u[:t_coal]))
    return _forward_walk(params, drivers, float(start), stream)


def sample_many(
    params: VervaatParams, n: int, seed: int, first_index: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``n`` perfect samples, sample i on substream first_index + i.

    Returns (values, steps, d0) arrays, 24 bytes per row.  Results depend
    only on (seed, substream index), so any partition of the index range
    reproduces the same rows, and each row is bit for bit what
    :func:`run_ciaftp` draws on that substream.  Raises
    :class:`StepBudgetError` for the first row, in index order, whose
    backward phase exceeds the step budget, and ValueError unless every
    index lies in [0, 2^64).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= first_index <= (1 << 64) - n:
        raise ValueError(
            f"substreams first_index .. first_index + n - 1 must lie in "
            f"[0, 2^64), got first_index={first_index}, n={n}"
        )
    values = np.empty(n)
    steps = np.empty(n, dtype=np.int64)
    d0s = np.empty(n, dtype=np.int64)
    kernel = _kernel()
    if kernel is None:
        stream = UniformStream(seed)
        for i in range(n):
            r = run_ciaftp(params, stream.restart(first_index + i))
            values[i], steps[i], d0s[i] = r.value, r.steps, r.d0
        return values, steps, d0s
    # Rows per call: Python handles Ctrl-C only between calls.
    per_row = min(_power(params.x0, params.beta), params.step_budget)
    rows = max(1, int(_CALL_WORK / max(per_row, 1)))
    budget = min(params.step_budget, 2**63 - 1)  # a C long long
    out = [a.ctypes.data for a in (values, steps, d0s)]  # 8 bytes per row each
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        abort = kernel.vervaat_rows(int(seed) & _MASK64, first_index + lo, m, params.inv_beta,
                                    params.x0, budget, *(p + 8 * lo for p in out))
        if abort == -2:
            raise MemoryError(f"no memory for the walks of rows {lo} .. {lo + m - 1}")
        if abort >= 0:
            raise StepBudgetError(params.beta, params.x0, params.step_budget,
                                  UniformStream(seed, first_index + lo + abort))
    return values, steps, d0s


@functools.cache
def _kernel():
    """The compiled :data:`_SOURCE` as :func:`_load` returns it, built on first
    use; None, after one warning, where it can be neither built nor loaded."""
    try:
        with open(_SOURCE, "rb") as fh:
            digest = hashlib.sha256(fh.read() + " ".join(_CFLAGS).encode()).hexdigest()
        # never a shared temporary directory, where another user could plant it
        where = os.path.dirname(_SOURCE)
        if not os.access(where, os.W_OK):
            where = os.path.join(os.path.expanduser("~"), ".cache", "vervaat")
        # the platform in the name: a cache shared by x86-64 and aarch64 holds both
        prefix = f"_kernel-{sysconfig.get_platform()}-"
        path = os.path.join(where, f"{prefix}{digest}.so")
        if not os.path.exists(path):
            os.makedirs(where, mode=0o700, exist_ok=True)
            _build(path)
            # one file per platform, and none from before the platform was in
            # the name; a *.tmp may be another process's build
            for name in os.listdir(where):
                old = os.path.join(where, name)
                if old != path and (name.startswith(prefix) and name.endswith(".so")
                                    or re.fullmatch(r"_kernel-[0-9a-f]{64}\.so", name)):
                    with contextlib.suppress(OSError):
                        os.remove(old)
        return _load(path)
    except (OSError, subprocess.SubprocessError) as exc:
        why = getattr(exc, "stderr", None)
        why = why.decode(errors="replace").strip() if why else exc
        warnings.warn(f"could not build {_SOURCE} ({why}); sample_many draws each row "
                      f"with run_ciaftp, and sample formats rows with %: the same bytes, "
                      f"more slowly", stacklevel=3)
        return None


def _load(path):
    """The shared library ``path``, with ``vervaat_rows`` and ``vervaat_csv``
    typed for ctypes."""
    lib = ctypes.CDLL(path)
    u64, i64, ptr = ctypes.c_uint64, ctypes.c_longlong, ctypes.c_void_p
    lib.vervaat_rows.argtypes = [u64, u64, i64, ctypes.c_double, i64, i64, ptr, ptr, ptr]
    # the CSV columns as arrays, whose dtype and contiguity ctypes checks
    lib.vervaat_csv.argtypes = [u64, i64, ndpointer(np.float64, flags="C"),
                                *[ndpointer(np.int64, flags="C")] * 2, ctypes.c_char_p]
    lib.vervaat_rows.restype = lib.vervaat_csv.restype = i64
    return lib


def _build(path, *defines):
    """Compile :data:`_SOURCE` to the shared library ``path`` with Python's C
    compiler, under a temporary name renamed at the end, so that no process
    ever loads a partial file; return ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    try:
        subprocess.run([*cc, *_CFLAGS, *defines, "-o", tmp, _SOURCE, "-lm"],
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
    return path
