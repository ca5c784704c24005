"""Command-line front end: sample, analyze, validate, trace.

Outputs are machine-readable and reproducible: sample row i is always
drawn on substream i of the given seed, so the same invocation produces
byte-identical output.  Exit codes: 0 success (all validation checks
passed), 1 validation failure, 2 bad arguments, 3 step-budget abort.

``sample`` writes its CSV rows with the kernel's ``vervaat_csv`` (see
``engine``), byte for byte as ``"%d,%.17g,%d,%d\n"`` formats them, and with
``%`` itself where no kernel could be built.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import itertools
import json
import os
import sys

import click

from . import engine
from .engine import StepBudgetError, run_ciaftp, sample_many
from .oracle import oracle_depth, validate_run
from .runtime import absorption_bracket, small_beta_constant, theorem_bounds
from .streams import UniformStream
from .updates import make_params

_BUDGET_EXIT = 3
#: Rows formatted per write, so no full list of lines is ever built.
_CSV_ROWS = 8192
#: Widest CSV row: index, value, steps, d0 and 4 separators.
_ROW_MAX = 20 + 24 + 19 + 19 + 4
#: Largest ``analyze --truncation``: the solve holds a few arrays of this
#: length, and the bracket reaches the solver tolerance by about 50.
_MAX_TRUNCATION = 10_000
#: Largest ``sample --n``: a run holds 24 bytes per row over a fixed 38 MB
#: (61 MB at n = 10^6), so about 2.4 GB at this size.
_MAX_SAMPLE_N = 10**8
#: Largest ``validate --n``: a run holds about 40 bytes per row over a fixed
#: 36 MB (76 MB at n = 10^6), so about 0.4 GB at this size.
_MAX_VALIDATE_N = 10**7
#: Largest ``validate --depth``, explicit or the default ``oracle_depth``.
#: The oracle's series blocks have a fixed byte size, so its memory does not
#: grow with depth; the cap bounds run time, which does.  The default depth
#: passes it only from beta ~ 40, far past beta ~ 4.3, where the default
#: step budget already aborts.
_MAX_DEPTH = 1000


def _fmt(x: float) -> str:
    """17 significant digits: enough for exact binary64 round-trips (the
    CSV writer of ``sample`` uses the same format)."""
    return f"{x:.17g}"


def _csv_rows(first: int, values, steps, d0s) -> str:
    """CSV lines ``index,y_value,steps,d0`` for rows first, first + 1, ...,
    byte for byte ``"%d,%.17g,%d,%d\\n"`` of each row: ``values`` float64,
    ``steps`` and ``d0s`` non-negative int64, all of one length."""
    m = len(values)
    kernel = engine._kernel()
    if kernel is None:
        rows = zip(range(first, first + m), values.tolist(), steps.tolist(), d0s.tolist())
        return ("%d,%.17g,%d,%d\n" * m) % tuple(itertools.chain.from_iterable(rows))
    out = ctypes.create_string_buffer(_ROW_MAX * m)
    size = kernel.vervaat_csv(first, m, values, steps, d0s, out)
    return ctypes.string_at(out, size).decode("ascii")


def _json_rows(first: int, values, steps, d0s) -> str:
    """The objects of rows first, first + 1, ... as ``json.dumps(rows,
    indent=2)`` writes them, without the list's brackets."""
    index = range(first, first + len(values))
    rows = [{"index": i, "y_value": v, "steps": s, "d0": d}
            for i, v, s, d in zip(index, values.tolist(), steps.tolist(), d0s.tolist())]
    return json.dumps(rows, indent=2)[2:-2]


def _check_out(ctx, param, out):
    """``out``, unless it names a file that cannot be written: that is a
    usage error before any work, and nothing is created or truncated."""
    if out == "-":
        if sys.stdout is not None:
            return out
        raise click.BadParameter("cannot write '-': standard output is closed", ctx, param)
    path = os.path.abspath(out)
    parent = os.path.dirname(path)
    if not os.path.isdir(parent):
        why = f"no directory {parent!r}"
    elif os.path.isdir(path):
        why = "it is a directory"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        why = "permission denied"
    else:
        return out
    raise click.BadParameter(f"cannot write {out!r}: {why}", ctx, param)


def _write(out, pieces):
    """Write the strings of ``pieces`` to ``out``.  An open, write, flush or
    close that fails (``out`` passed :func:`_check_out`, but the disk is full,
    say) is a usage error; a broken pipe is left to click, which exits 1 quietly."""
    try:
        fh = sys.stdout if out == "-" else open(out, "w", encoding="utf-8", newline="")
        try:
            for piece in pieces:
                fh.write(piece)
            fh.flush()  # stdout too: its failure is handled here, not at exit
        finally:
            if fh is not sys.stdout:
                fh.close()
    except BrokenPipeError:
        raise
    except OSError as exc:
        if out == "-":  # else the interpreter flushes the rest again at exit and exits 120
            with contextlib.suppress(OSError):
                sys.stdout.close()
        raise click.BadParameter(f"cannot write {out!r}: {exc.strerror}",
                                 param_hint="'--out'")


def _beta_option(f):
    return click.option(
        "--beta", type=float, required=True, help="Perpetuity exponent (> 0)."
    )(f)


def _seed_option(f):
    return click.option(
        "--seed",
        type=click.IntRange(-(2**63), 2**64 - 1),
        default=0,
        show_default=True,
        help="Root seed (decimal 64-bit integer, taken mod 2^64).",
    )(f)


def _out_option(f):
    return click.option(
        "--out",
        default="-",
        show_default=True,
        callback=_check_out,
        help="Output path, or - for standard output.",
    )(f)


@click.group()
def main():
    """Exact sampling from Vervaat perpetuities, with runtime analysis."""


def _params_or_usage(beta, **kwargs):
    try:
        return make_params(beta, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@main.command()
@_beta_option
@click.option(
    "--n",
    type=click.IntRange(1, _MAX_SAMPLE_N),
    default=10,
    show_default=True,
    help="Number of samples.",
)
@_seed_option
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
@_out_option
def sample(beta, n, seed, fmt, out):
    """Draw perfect samples; one row per draw (index, y_value, steps, d0)."""
    params = _params_or_usage(beta)
    try:
        values, steps, d0s = sample_many(params, n, seed)
    except StepBudgetError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_BUDGET_EXIT)

    def pieces():
        # JSON in chunks too: byte for byte json.dumps(rows, indent=2) + "\n"
        yield "[\n" if fmt == "json" else "index,y_value,steps,d0\n"
        for lo in range(0, n, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, n)
            chunk = (lo, values[lo:hi], steps[lo:hi], d0s[lo:hi])
            if fmt == "json":
                yield (",\n" if lo else "") + _json_rows(*chunk)
            else:
                yield _csv_rows(*chunk)
        yield "\n]\n" if fmt == "json" else ""

    _write(out, pieces())


@main.command()
@_beta_option
@click.option(
    "--truncation",
    type=click.IntRange(2, _MAX_TRUNCATION),
    default=400,
    show_default=True,
    help="States retained above the floor in the absorbing-chain solve.",
)
@_out_option
def analyze(beta, truncation, out):
    """Report runtime bounds and the exact expected-step bracket."""
    params = _params_or_usage(beta)
    try:
        bounds = theorem_bounds(params)
        bracket = absorption_bracket(params, truncation)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    gc.freeze()  # what the first solve imported (scipy.linalg) is kept to exit too
    payload = {
        "beta": params.beta,
        "x0": params.x0,
        "w_threshold": params.w_threshold,
        "bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "bracket": {
            "lower": bracket.lower,
            "upper": bracket.upper,
            "truncation": bracket.truncation,
        },
        "c": small_beta_constant(1e-9),
    }
    _write(out, [json.dumps(payload, indent=2) + "\n"])


@main.command()
@_beta_option
@click.option(
    "--n", type=click.IntRange(10**4, _MAX_VALIDATE_N), default=100_000, show_default=True
)
@_seed_option
@click.option(
    "--depth",
    type=click.IntRange(0, _MAX_DEPTH),
    default=None,
    help="Oracle series depth (default: tail bias below 1e-9).",
)
@_out_option
def validate(beta, n, seed, depth, out):
    """Compare the sampler against the series oracle; exit 1 on failure."""
    params = _params_or_usage(beta)
    if depth is None:
        depth = oracle_depth(params.beta)
        if depth > _MAX_DEPTH:
            raise click.UsageError(
                f"the default --depth for beta={beta:g} is {depth}, above the "
                f"maximum {_MAX_DEPTH}"
            )
    try:
        report = validate_run(params, n, seed, depth=depth)
    except StepBudgetError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_BUDGET_EXIT)
    _write(out, [json.dumps(report.to_dict(), indent=2) + "\n"])
    if not report.passed:
        sys.exit(1)


@main.command()
@_beta_option
@_seed_option
@click.option(
    "--index",
    type=click.IntRange(0, 2**64 - 1),
    default=0,
    show_default=True,
    help="Row of `sample` (same seed) to replay.",
)
@_out_option
def trace(beta, seed, index, out):
    """Render one run: backward walk, imputed uniforms, forward trajectory."""
    params = _params_or_usage(beta)
    stream = UniformStream(seed, index)  # matches sample row `index` exactly
    try:
        r = run_ciaftp(params, stream, collect_path=True)
    except StepBudgetError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_BUDGET_EXIT)
    path = r.path
    t = path.coalesce_index
    lines = [
        f"beta = {_fmt(params.beta)}  x0 = {params.x0}  "
        f"w_threshold = {_fmt(params.w_threshold)}",
        f"D   (time 0 .. -{t}): " + " ".join(str(d) for d in path.d_states),
        f"U   (time -1 .. -{t}): " + " ".join(_fmt(u) for u in path.imputed_u),
        f"T = {t}",
        f"X   (time {-(t - 1)} .. 0): " + " ".join(_fmt(x) for x in r.x_path),
        f"X0 = {_fmt(r.value)}",
    ]
    _write(out, ["\n".join(lines) + "\n"])


# The objects that numpy and click made at import live until exit; frozen, no
# collection (and not the final one) traverses them again.  scipy.linalg is
# imported by `analyze`'s first solve, which freezes once more.
gc.freeze()

if __name__ == "__main__":
    main()
