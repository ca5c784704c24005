"""Command-line front end: sample, analyze, validate, trace.

Outputs are machine-readable and reproducible: sample row i is always
drawn on substream i of the given seed, so the same invocation produces
byte-identical output.  Exit codes: 0 success (all validation checks
passed), 1 validation failure, 2 bad arguments, 3 step-budget abort.

``sample`` writes each float as ``"%.17g" % x`` would, but formats chunks of
at least :data:`_CSV_NUMPY_MIN` rows in numpy.  For 1e-4 <= x < 1e15 let
X = floor(log10 x) and p = 16 - X, so that 10^p (p <= 21) is an exact
double.  Dekker's TwoProduct (a Veltkamp split with 2^27 + 1) gives
hi + lo = x * 10^p exactly, and D = int(hi) + rint(lo).  Where D has 17
digits, hi >= 2^53 is an even integer, so rounding lo half to even rounds
the exact product half to even too: D is the correctly rounded 17-digit
significand that CPython's ``%.17g`` prints, and X is its exponent.  A
``log10`` off by one near a power of ten, or a product that rounds up to
10^17, leaves D with 16 or 18 digits instead.  Those rows, the values
outside the range (0.0, subnormals, values that ``%g`` writes in exponent
form, non-finite values) and the integers (written without a '.') are
formatted by ``%`` and stored over their numpy cells.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from .engine import StepBudgetError, run_ciaftp, sample_many
from .oracle import oracle_depth, validate_run
from .runtime import absorption_bracket, small_beta_constant, theorem_bounds
from .streams import UniformStream
from .updates import make_params

_BUDGET_EXIT = 3
#: Rows formatted per write, so no full list of lines is ever built.
_CSV_ROWS = 8192
#: Fewest rows that the numpy writer formats.  Its fixed cost, about 0.16 ms
#: per chunk, is what ``%`` takes for about 150-200 rows at 1.1 us per row.
_CSV_NUMPY_MIN = 200
#: Largest ``analyze --truncation``: the solve holds a few arrays of this
#: length, and the bracket reaches the solver tolerance by about 50.
_MAX_TRUNCATION = 10_000
#: Largest ``sample --n``: a run holds about 24 bytes per row, so about
#: 2.4 GB at this size.
_MAX_SAMPLE_N = 10**8
#: Largest ``validate --n``: a run holds about 70 bytes per row, so about
#: 0.7 GB at this size.
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


_DIGIT_GROUPS: np.ndarray | None = None


def _digit_groups() -> np.ndarray:
    """ASCII of each four-digit group, 4 bytes per entry, 0 for pad.

    Entry g of block b is the group g: block 0 as ``"%04d"``, block 1
    without its trailing zeros, block 2 without its leading zeros (but
    always with its units digit).  The last entry is all pad.  Built on
    first use, so that short runs, which format by ``%``, never pay for it.
    """
    global _DIGIT_GROUPS
    if _DIGIT_GROUPS is not None:
        return _DIGIT_GROUPS
    i = np.arange(10000)
    plain = np.empty((10000, 4), dtype=np.uint8)
    for j in range(4):
        plain[:, 3 - j] = i // 10**j % 10 + 48
    trail, lead = plain.copy(), plain.copy()
    zeros = np.ones(10000, dtype=bool)
    for j in range(3, -1, -1):
        zeros &= plain[:, j] == 48
        trail[:, j] *= ~zeros
    zeros[:] = True
    for j in range(3):
        zeros &= plain[:, j] == 48
        lead[:, j] *= ~zeros
    _DIGIT_GROUPS = np.concatenate([plain, trail, lead, np.zeros((1, 4), dtype=np.uint8)])
    return _DIGIT_GROUPS


def _value_layout() -> np.ndarray:
    """Row X + 4, for X = -4 .. 14: the value's prefix ("0." and -1 - X
    zeros where X < 0), then a '.' in column 5 + X where X >= 0."""
    lay = np.zeros((19, 20), dtype=np.uint8)
    for x in range(-4, 0):
        lay[x + 4, : 1 - x] = np.frombuffer(b"0." + b"0" * (-1 - x), np.uint8)
    lay[np.arange(4, 19), np.arange(5, 20)] = ord(".")
    return lay


_TRAIL, _LEAD, _PAD = 10000, 20000, 30000
_LAYOUT = _value_layout()
_POW10 = np.array([float(10**k) for k in range(22)])
_VELTKAMP = 134217729.0  # 2^27 + 1


def _split(a):
    """Veltkamp split: a = hi + lo exactly, each with at most 26 bits."""
    c = a * _VELTKAMP
    hi = c - (c - a)
    return hi, a - hi


def _groups(v: np.ndarray, top: int, n: int) -> np.ndarray:
    """Each non-negative int64 of ``v`` (at most ``top``) as ``n`` groups of
    four digits, most significant first (the first group takes all higher
    digits), computed on uint32 where ``top`` fits."""
    w = v.astype(np.uint32 if top < 2**32 else np.uint64)
    g = np.empty((len(v), n), dtype=np.intp)
    for j in range(n - 1, 0, -1):
        q = w // 10000
        g[:, j] = w - q * 10000
        w = q
    g[:, 0] = w
    return g


def _int_chars(v: np.ndarray) -> np.ndarray:
    """``"%d"`` of each non-negative int64 of ``v``, right-aligned, one
    (rows, digits) uint8 matrix with 0 for the leading pad."""
    top = int(v.max())
    width = len(str(top))
    n = -(-width // 4)
    g = _groups(v, top, n)
    # Zero groups before the first nonzero one are pad; that one, or the
    # last group, drops its leading zeros.
    lead = np.ones(len(v), dtype=bool)
    for j in range(n - 1):
        zero = g[:, j] == 0
        g[:, j] += np.where(lead, np.where(zero, _PAD, _LEAD), 0)
        lead &= zero
    g[:, n - 1] += lead * _LEAD
    return _digit_groups().take(g, axis=0).reshape(len(v), 4 * n)[:, 4 * n - width :]


def _value_digits(x: np.ndarray):
    """The 17 significant digits of each ``"%.17g" % x`` (see the module
    docstring), trailing zeros as pad, with their exponent X.

    Returns ``(digits, X, slow)``: a (rows, 17) uint8 matrix, and the rows
    that ``%`` must format instead, whose X is set to -1.
    """
    fast = (x >= 1e-4) & (x < 1e15)
    xf = np.where(fast, x, 0.5)
    X = np.floor(np.log10(xf)).astype(np.intp)  # -5 .. 15 after rounding
    s = _POW10[16 - X]
    hi = xf * s
    xh, xl = _split(xf)
    sh, sl = _split(s)
    lo = ((xh * sh - hi) + xh * sl + xl * sh) + xl * sl
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    slow = ~fast | (D < 10**16) | (D >= 10**17) | (xf == np.floor(xf))
    D[slow] = 10**16 + 1
    X[slow] = -1
    g = _groups(D, 10**17, 5)  # 1 + 4 + 4 + 4 + 4 digits
    # The last nonzero group drops its trailing zeros and later groups are
    # pad.  That is almost always the last group, so only the rows whose
    # last group is zero take the general loop.
    g[:, 4] += _TRAIL
    r = np.flatnonzero(g[:, 4] == _TRAIL)
    if r.size:
        sub = g[r]
        tail = np.ones(r.size, dtype=bool)
        for j in range(3, 0, -1):
            zero = sub[:, j] == 0
            sub[:, j] += np.where(tail, np.where(zero, _PAD, _TRAIL), 0)
            tail &= zero
        sub[:, 0] += tail * _TRAIL
        g[r] = sub
    return _digit_groups().take(g, axis=0).reshape(len(x), 20)[:, 3:], X, slow


def _csv_rows(first: int, values, steps, d0s) -> str:
    """CSV lines ``index,y_value,steps,d0`` for rows first, first + 1, ...,
    byte for byte ``"%d,%.17g,%d,%d\\n"`` of each row.

    ``steps`` and ``d0s`` are non-negative int64.  A chunk of
    :data:`_CSV_NUMPY_MIN` rows or more is built as one (rows, width) uint8
    matrix whose pad cells hold 0, and the pad is then deleted.
    """
    m = len(values)
    if m < _CSV_NUMPY_MIN:
        flat = [None] * (4 * m)
        flat[0::4] = range(first, first + m)
        flat[1::4] = values.tolist()
        flat[2::4] = steps.tolist()
        flat[3::4] = d0s.tolist()
        return ("%d,%.17g,%d,%d\n" * m) % tuple(flat)
    ints = [_int_chars(np.arange(first, first + m, dtype=np.int64)),
            _int_chars(steps), _int_chars(d0s)]
    digits, X, slow = _value_digits(values)
    rows = np.flatnonzero(slow)
    texts = ["%.17g" % v for v in values[rows].tolist()]
    zeros = max(0, -1 - int(X.min()))  # zeros after "0." (at most 3)
    dots = max(0, int(X.max()) + 1)  # digits that a '.' may follow
    width = max(19 + zeros + dots, max(map(len, texts), default=0))
    # Columns: index ',' value ',' steps ',' d0 '\n'.
    ends = np.cumsum([ints[0].shape[1] + 1, width + 1, ints[1].shape[1] + 1,
                      ints[2].shape[1] + 1])
    mat = np.zeros((m, ends[-1]), dtype=np.uint8)
    mat[:, ends - 1] = np.frombuffer(b",,,\n", np.uint8)
    for chars, end in zip(ints, ends[[0, 2, 3]]):
        mat[:, end - 1 - chars.shape[1] : end - 1] = chars
    # The value: its prefix, the first `dots` digits each followed by its
    # '.' cell, then the other digits.
    val = mat[:, ends[0] : ends[0] + width]
    lay = _LAYOUT.take(X + 4, axis=0)
    a = 2 + zeros
    val[:, :a] = lay[:, :a]
    pairs = val[:, a : a + 2 * dots].reshape(m, dots, 2)
    pairs[:, :, 0] = digits[:, :dots]
    pairs[:, :, 1] = lay[:, 5 : 5 + dots]
    val[:, a + 2 * dots : a + dots + 17] = digits[:, dots:]
    if rows.size:
        val[rows] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return mat.tobytes().translate(None, b"\0").decode("ascii")


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
        return out
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


def _open_out(out):
    if out == "-":
        return sys.stdout, False
    try:
        return open(out, "w", encoding="utf-8", newline=""), True
    except OSError as exc:  # passed _check_out, but the open itself failed
        raise click.BadParameter(f"cannot write {out!r}: {exc.strerror}",
                                 param_hint="'--out'")


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
    # JSON in chunks too: byte for byte json.dumps(rows, indent=2) + "\n"
    head, tail = ("[\n", "\n]\n") if fmt == "json" else ("index,y_value,steps,d0\n", "")
    fh, close = _open_out(out)
    try:
        fh.write(head)
        for lo in range(0, n, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, n)
            chunk = (lo, values[lo:hi], steps[lo:hi], d0s[lo:hi])
            if fmt == "json":
                fh.write((",\n" if lo else "") + _json_rows(*chunk))
            else:
                fh.write(_csv_rows(*chunk))
        fh.write(tail)
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
