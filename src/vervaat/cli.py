"""Command-line front end: sample, analyze, validate, trace.

Outputs are machine-readable and reproducible: sample row i is always
drawn on substream i of the given seed, so the same invocation produces
byte-identical output.  Exit codes: 0 success (all validation checks
passed), 1 validation failure, 2 bad arguments, 3 step-budget abort.
"""

from __future__ import annotations

import json
import sys

import click

from .engine import StepBudgetError, run_ciaftp, sample_many
from .oracle import oracle_depth, validate_run
from .runtime import absorption_bracket, small_beta_constant, theorem_bounds
from .streams import UniformStream
from .updates import make_params

_BUDGET_EXIT = 3
#: CSV rows formatted per write, so no full list of lines is ever built.
_CSV_ROWS = 8192
#: Largest ``analyze --truncation``: the solve holds a few arrays of this
#: length, and the bracket reaches the solver tolerance by about 50.
_MAX_TRUNCATION = 10_000
#: Largest ``sample --n``: a run holds about 24 bytes per row, so about
#: 2.4 GB at this size.
_MAX_SAMPLE_N = 10**8
#: Largest ``validate --n``: a run holds about 125 bytes per row, so about
#: 1.3 GB at this size.
_MAX_VALIDATE_N = 10**7
#: Largest ``validate --depth``, explicit or the default ``oracle_depth``: a
#: series block holds 16384 rows of this many doubles, a few times over.
#: The default depth passes it only from beta ~ 40, far past beta ~ 4.3,
#: where the default step budget already aborts.
_MAX_DEPTH = 1000


def _fmt(x: float) -> str:
    """17 significant digits: enough for exact binary64 round-trips (the
    CSV writer of ``sample`` uses the same format)."""
    return f"{x:.17g}"


def _csv_rows(first: int, values, steps, d0s) -> str:
    """CSV lines ``index,y_value,steps,d0`` for rows first, first + 1, ...,
    formatted by one ``%`` operation."""
    m = len(values)
    flat = [None] * (4 * m)
    flat[0::4] = range(first, first + m)
    flat[1::4] = values.tolist()
    flat[2::4] = steps.tolist()
    flat[3::4] = d0s.tolist()
    return ("%d,%.17g,%d,%d\n" * m) % tuple(flat)


def _open_out(out):
    if out == "-":
        return sys.stdout, False
    return open(out, "w", encoding="utf-8", newline=""), True


def _emit(out, text):
    fh, close = _open_out(out)
    try:
        fh.write(text)
    finally:
        if close:
            fh.close()


def _beta_option(f):
    return click.option(
        "--beta", type=float, required=True, help="Perpetuity exponent (> 0)."
    )(f)


def _seed_option(f):
    return click.option(
        "--seed",
        type=int,
        default=0,
        show_default=True,
        help="Root seed (decimal 64-bit integer).",
    )(f)


def _out_option(f):
    return click.option(
        "--out",
        default="-",
        show_default=True,
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
    if fmt == "json":
        payload = [
            {"index": i, "y_value": v, "steps": s, "d0": d}
            for i, (v, s, d) in enumerate(
                zip(values.tolist(), steps.tolist(), d0s.tolist())
            )
        ]
        _emit(out, json.dumps(payload, indent=2) + "\n")
        return
    fh, close = _open_out(out)
    try:
        fh.write("index,y_value,steps,d0\n")
        for lo in range(0, n, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, n)
            fh.write(_csv_rows(lo, values[lo:hi], steps[lo:hi], d0s[lo:hi]))
    finally:
        if close:
            fh.close()


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
    _emit(out, json.dumps(payload, indent=2) + "\n")


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
    _emit(out, json.dumps(report.to_dict(), indent=2) + "\n")
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
    _emit(out, "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
