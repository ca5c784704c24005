"""Vervaat perpetuity parameters and the two Markov update rules.

A Vervaat perpetuity with exponent beta > 0 is the stationary law of the
chain X' = W(1 + X) with W = U^(1/beta), U uniform on [0, 1).  Two update
functions drive the perfect sampler built on that chain:

* the *multigamma coupler* ``multigamma_update``: a monotone two-driver
  update whose range collapses to a single point whenever the first driver
  is small enough, which is what makes coalescence detectable on a
  continuous state space;
* the *dominating rule* ``dominating_update``: a lazy random walk on the
  integers {x0 - 1, x0, ...} (down with probability 2/3, up with 1/3,
  holding at the floor) that always sits above the coupler chain when fed
  the same first driver.

The reference state x0 = ceil(2 / (1 - (2/3)^(1/beta))) - 1 (never below 2)
is the smallest integer for which (x0 - 1)/(x0 + 1) >= (2/3)^(1/beta), the
inequality that makes the domination argument go through.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

TWO_THIRDS = 2.0 / 3.0

#: Largest beta for which x0 == 2 (the dominating walk is the same for all
#: smaller exponents): ln(3/2) / ln 3.
BETA0 = math.log(1.5) / math.log(3.0)

#: Default cap on backward steps per sample before aborting.
DEFAULT_STEP_BUDGET = 10**6


class StepBudgetWarning(UserWarning):
    """Expected runtime exceeds the configured per-sample step budget."""


@dataclass(frozen=True, slots=True)
class VervaatParams:
    """Exponent beta with its derived sampling constants.

    w_threshold = (2/3)^(1/beta) splits up-moves from down-moves of the
    dominating walk at the W level; x0 - 1 is the walk's floor.
    """

    beta: float
    w_threshold: float
    x0: int
    inv_beta: float
    step_budget: int


class DrivingPair(NamedTuple):
    """The two independent W-drivers consumed by the multigamma coupler."""

    w1: float
    w2: float


def make_params(beta: float, step_budget: int = DEFAULT_STEP_BUDGET) -> VervaatParams:
    """Build :class:`VervaatParams` for the given exponent.

    ``beta`` may be any real number type (``int``, ``float``, numpy
    floats, ``Fraction``), but not ``bool``.  Raises ValueError for a
    non-real, non-positive or non-finite beta.  Emits a
    :class:`StepBudgetWarning` when the expected number of backward steps,
    which grows like x0^beta, already exceeds ``step_budget``: sampling at
    large beta is exponentially expensive and should fail loudly rather
    than hang.  The practical range is roughly beta in [1e-3, 1e3].
    """
    real = isinstance(beta, numbers.Real) and not isinstance(beta, bool)
    if not (real and math.isfinite(beta)) or beta <= 0:
        raise ValueError(f"beta must be a positive finite real, got {beta!r}")
    beta = float(beta)
    log_ratio = math.log(TWO_THIRDS) / beta
    # exp/expm1 keep full accuracy for extreme beta, where a direct power
    # call loses digits in 1 - (2/3)^(1/beta).
    w_threshold = math.exp(log_ratio)
    one_minus = -math.expm1(log_ratio)
    x0 = max(2, math.ceil(2.0 / one_minus) - 1)
    # Rounding in the ceiling can only be off by one; repair against the
    # inequality the value exists to guarantee.
    while (x0 - 1) / (x0 + 1) < w_threshold:
        x0 += 1
    try:
        expected_steps = math.exp(beta * math.log(x0))  # x0^beta
    except OverflowError:
        expected_steps = math.inf
    if expected_steps > step_budget:
        warnings.warn(
            f"beta={beta:g} gives x0={x0}; expected backward steps per sample "
            f"is at least x0^beta ~ {expected_steps:.3g}, above the step "
            f"budget {step_budget}",
            StepBudgetWarning,
            stacklevel=2,
        )
    return VervaatParams(
        beta=beta,
        w_threshold=w_threshold,
        x0=x0,
        inv_beta=1.0 / beta,
        step_budget=int(step_budget),
    )


def sample_w(params: VervaatParams, stream) -> float:
    """Draw one W = U^(1/beta) factor; always in [0, 1)."""
    return stream.next_uniform() ** params.inv_beta


def natural_update(params: VervaatParams, x: float, w: float) -> float:
    """One step of the plain chain: w * (1 + x).

    Strictly monotone in x, so it can never coalesce two trajectories; it
    serves as the distributional reference for the coupler.
    """
    if x < 0:
        raise ValueError(f"state must be >= 0, got {x}")
    return w * (1.0 + x)


def coupler_collapses(x: float, w1: float) -> bool:
    """Branch predicate of the multigamma coupler.

    True when the first driver forces the collapsing branch at state x.
    Shared with the sampling engine so that coalescence detection and the
    forward application of the coupler can never disagree: the predicate
    is monotone in x (1/(1+x) is computed identically everywhere), hence
    w1 <= 1/(1 + d) guarantees collapse for every start below d.
    """
    return w1 <= 1.0 / (1.0 + x)


def multigamma_update(params: VervaatParams, x: float, pair: DrivingPair) -> float:
    """Monotone coupling update: returns w2 on the collapsing branch
    (w1 <= 1/(1+x)), else w1 * (1 + x).

    For fixed drivers the map is nondecreasing in x, and for random drivers
    W(1), W(2) the output at x is distributed exactly like W * (1 + x).
    """
    if x < 0:
        raise ValueError(f"state must be >= 0, got {x}")
    w1, w2 = pair
    if coupler_collapses(x, w1):
        return w2
    return w1 * (1.0 + x)


def dominating_update(params: VervaatParams, d: int, w1: float) -> int:
    """One step of the dominating walk driven by the shared first driver.

    Up one unit when w1 exceeds the threshold (2/3)^(1/beta), otherwise
    down one unit, holding at the floor x0 - 1.  A tie w1 == threshold
    counts as down.  Fed the same w1 as the coupler, the walk started at
    or above the coupler chain stays above it.
    """
    floor = params.x0 - 1
    if d < floor:
        raise ValueError(f"dominating state must be >= x0 - 1 = {floor}, got {d}")
    if w1 > params.w_threshold:
        return d + 1
    return d - 1 if d > floor else floor
