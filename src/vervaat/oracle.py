"""Independent ground truth and the statistical validation harness.

Nothing here touches the coupling machinery: samples come from the
defining series Y = W1 + W1 W2 + W1 W2 W3 + ..., truncated at a depth
whose geometric tail bound makes the bias negligible, and moments come in
closed form from the fixed point Y =d W (1 + Y):

    E W = beta / (beta + 1)          E Y  = beta
    E W^2 = beta / (beta + 2)        E Y^2 = beta (1 + 2 beta) / 2

``validate_run`` draws the same number of samples from the perfect sampler
and from the truncated series and compares them: a two-sample KS test at
the 1% level, z-scores of mean and variance, and for beta = 1 the known
step-count tail percentages and the Dickman mass exp(-gamma) of (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import sample_many
from .updates import VervaatParams

__all__ = [
    "EULER_GAMMA",
    "truncated_sum_batch",
    "oracle_depth",
    "truncation_bias",
    "exact_moments",
    "ks_two_sample",
    "ks_critical_value",
    "Check",
    "TestReport",
    "validate_run",
]

#: Euler's constant, 15 significant digits; exp(-EULER_GAMMA) is the
#: Dickman density on (0, 1] and hence the mass of that interval.
EULER_GAMMA = 0.577215664901533

#: Substream index reserved for oracle draws, far above any per-sample
#: engine index.
_ORACLE_STREAM_INDEX = 1 << 62

#: Bytes of one series block (rows x depth doubles, at least one row).  The
#: block is drawn, powered and multiplied in place and freed before the
#: next, so the oracle holds one block whatever the depth.  The output does
#: not depend on the size: the uniforms are consumed in the same order, and
#: each row's products and sum are the same float operations.
_BLOCK_BYTES = 1 << 20

#: Grid points per searchsorted scan of :func:`ks_two_sample`; the same
#: kind of bound, on its n-length temporaries.  On ``validate --n 1e5``,
#: 8192 lowered the peak RSS by about 1 MB from 65,536 at no cost in time;
#: 4096 and 16,384 read the same as 8192.
_KS_CHUNK = 1 << 13


def truncated_sum_batch(
    params: VervaatParams, depth: int, n: int, stream
) -> np.ndarray:
    """``n`` independent truncated-series draws (vectorized, chunked)."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    rows = max(_BLOCK_BYTES // (8 * max(depth, 1)), 1)
    out = np.empty(n)
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        u = stream.uniforms(m * depth).reshape(m, depth)
        np.power(u, params.inv_beta, out=u)
        np.cumprod(u, axis=1, out=u)
        u.sum(axis=1, out=out[lo : lo + m])
        del u
    return out


def truncation_bias(beta: float, depth: int) -> float:
    """Expected mass of the discarded tail: (E W)^(depth+1) / (1 - E W)."""
    ew = beta / (beta + 1.0)
    return ew ** (depth + 1) / (1.0 - ew)


def oracle_depth(beta: float, tol: float = 1e-9) -> int:
    """Smallest depth with expected truncation bias at most ``tol``."""
    ew = beta / (beta + 1.0)
    if ew == 1.0:
        # beta above about 2^53, where E W rounds to 1: ln E W = -log1p(1/beta)
        # and 1 - E W = 1/(beta + 1) instead
        return math.ceil(math.log(tol / (beta + 1.0)) / -math.log1p(1.0 / beta)) - 1
    depth = math.ceil(math.log(tol * (1.0 - ew)) / math.log(ew)) - 1
    depth = max(depth, 0)
    while truncation_bias(beta, depth) > tol:
        depth += 1
    return depth


def exact_moments(beta: float) -> tuple[float, float]:
    """(mean, second moment) of the perpetuity: (beta, beta (1 + 2 beta)/2)."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    return beta, beta * (1.0 + 2.0 * beta) / 2.0


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    a = np.sort(a)
    b = np.sort(b)

    def sup(grid):  # over a's points, then b's: no pooled grid is built
        d = 0.0
        for lo in range(0, grid.size, _KS_CHUNK):
            part = grid[lo : lo + _KS_CHUNK]
            gap = np.searchsorted(a, part, side="right") / a.size
            gap -= np.searchsorted(b, part, side="right") / b.size
            d = max(d, np.abs(gap, out=gap).max())
        return d

    return float(max(sup(a), sup(b)))


def ks_critical_value(m: int, n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value c(alpha) sqrt((m+n)/(mn)).

    c(0.01) = sqrt(-ln(0.005)/2) ~ 1.628; the asymptotic form is accurate
    at the sample sizes used here (10^4 and up).
    """
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((m + n) / (m * n))


@dataclass(frozen=True, slots=True)
class Check:
    """One named validation check; passes iff statistic <= threshold."""

    name: str
    statistic: float
    threshold: float
    sample_sizes: tuple[int, ...]
    passed: bool


@dataclass(slots=True)
class TestReport:
    """Outcome of the validation suite for one parameter point."""

    beta: float
    n: int
    seed: int
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "n": self.n,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "statistic": c.statistic,
                    "threshold": c.threshold,
                    "sample_sizes": list(c.sample_sizes),
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def _check(name, statistic, threshold, sizes) -> Check:
    statistic = float(statistic)
    threshold = float(threshold)
    return Check(name, statistic, threshold, tuple(sizes), statistic <= threshold)


def _z(diff: float, se: float) -> float:
    """|diff| / se, with 0 / 0 = 0 and x / 0 = inf."""
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return abs(diff) / se


# beta = 1 step-count tail targets with the tolerances used at n = 10^6;
# at smaller n the thresholds widen to 5 standard errors so the harness
# stays usable at its n >= 10^4 minimum.
_DICKMAN_TAILS = (
    ("steps_eq_1", lambda s: s == 1, 0.174, 0.003),
    ("steps_gt_4", lambda s: s > 4, 0.476, 0.004),
    ("steps_gt_8", lambda s: s > 8, 0.234, 0.004),
    ("steps_gt_27", lambda s: s > 27, 0.010, 0.002),
)


def validate_run(
    params: VervaatParams,
    n: int,
    seed: int,
    depth: int | None = None,
) -> TestReport:
    """Run engine and oracle side by side and report the comparison.

    Draws n perfect samples (substreams 0..n-1 of ``seed``) and n
    truncated-series samples (a reserved oracle substream), then checks:
    KS distance below the asymptotic 1% critical value, |z| of the sample
    mean against beta at most 4, |z| of the sample variance against
    beta (1 + 2 beta)/2 - beta^2 at most 5 (variance standard error taken
    from the empirical fourth moment), and for beta = 1 the step-count
    tails and the Dickman unit-interval mass.  A z-score with a zero
    standard error (every sample equal) is 0 when the difference is 0 and
    inf otherwise.
    """
    if n < 10**4:
        raise ValueError(f"n must be at least 10^4, got {n}")
    from .streams import UniformStream

    values, steps = sample_many(params, n, seed)[:2]  # D(0) is dropped at once
    if depth is None:
        depth = oracle_depth(params.beta)
    oracle_values = truncated_sum_batch(
        params, depth, n, UniformStream(seed, _ORACLE_STREAM_INDEX)
    )

    report = TestReport(beta=params.beta, n=n, seed=seed)
    checks = report.checks

    d = ks_two_sample(values, oracle_values)
    checks.append(_check("ks_engine_vs_oracle", d, ks_critical_value(n, n), (n, n)))

    mean, second = exact_moments(params.beta)
    variance = second - mean**2
    centered = values - values.mean()
    sample_var = float(np.mean(centered**2))
    se_mean = math.sqrt(sample_var) / math.sqrt(n)  # values.std(), bit for bit
    checks.append(_check("mean_z", _z(values.mean() - mean, se_mean), 4.0, (n,)))
    m4 = float(np.mean(np.power(centered, 4, out=centered)))
    se_var = math.sqrt(max(m4 - sample_var**2, 0.0) / n)
    checks.append(_check("variance_z", _z(sample_var - variance, se_var), 5.0, (n,)))

    if params.beta == 1.0:
        for name, pred, target, tol in _DICKMAN_TAILS:
            freq = float(pred(steps).mean())
            se = math.sqrt(target * (1.0 - target) / n)
            checks.append(
                _check(name, abs(freq - target), max(tol, 5.0 * se), (n,))
            )
        del steps
        unit_mass = float(((values > 0.0) & (values <= 1.0)).mean())
        target = math.exp(-EULER_GAMMA)
        se = math.sqrt(target * (1.0 - target) / n)
        checks.append(
            _check(
                "dickman_unit_mass",
                abs(unit_mass - target),
                max(0.005, 5.0 * se),
                (n,),
            )
        )
    return report
