"""Vervaat perpetuity parameters and the coupler predicate.

A Vervaat perpetuity with exponent beta > 0 is the stationary law of the
chain X' = W(1 + X) with W = U^(1/beta), U uniform on [0, 1).  The perfect
sampler in ``engine`` drives two update rules on that chain with a shared
first driver W(1):

* the *multigamma coupler*: X' = W(2) when ``coupler_collapses(X, W(1))``,
  that is W(1) <= 1/(1 + X), else W(1)(1 + X).  It is nondecreasing in X,
  and its range collapses to one point whenever W(1) is small enough, which
  makes coalescence detectable on a continuous state space;
* the *dominating walk*: a lazy random walk on the integers
  {x0 - 1, x0, ...} (up when W(1) exceeds ``w_threshold`` = (2/3)^(1/beta),
  else down, holding at the floor) that always sits above the coupler chain.

This module holds the constants of both rules (:func:`make_params`) and the
coupler's branch predicate, the one test that the backward walk's
coalescence check and the forward pass share.  The reference state
x0 = ceil(2 / (1 - (2/3)^(1/beta))) - 1 (never below 2) is the smallest
integer for which (x0 - 1)/(x0 + 1) >= (2/3)^(1/beta), the inequality that
makes the domination argument go through.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

TWO_THIRDS = 2.0 / 3.0

#: Largest beta for which x0 == 2 (the dominating walk is the same for all
#: smaller exponents): ln(3/2) / ln 3.
BETA0 = math.log(1.5) / math.log(3.0)

#: Default cap on backward steps per sample before aborting.
DEFAULT_STEP_BUDGET = 10**6

#: Largest reference state x0.  The engine holds the walk state as an int64,
#: and the walk climbs at most one unit per step above x0.
_X0_MAX = 2**62


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


def make_params(beta: float, step_budget: int = DEFAULT_STEP_BUDGET) -> VervaatParams:
    """Build :class:`VervaatParams` for the given exponent.

    ``beta`` may be any real number type (``int``, ``float``, numpy
    floats, ``Fraction``), but not ``bool``.  Raises ValueError for a
    non-real, non-positive or non-finite beta.  Emits a
    :class:`StepBudgetWarning` when the expected number of backward steps,
    which grows like x0^beta, already exceeds ``step_budget``: sampling at
    large beta is exponentially expensive and should fail loudly rather
    than hang.  Raises ValueError when x0 would pass 2^62, the largest
    reference state the engine's int64 walk state holds (beta above about
    9.3e17); sampling already exceeds the default budget from beta ~ 4.
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
    ratio = 2.0 / one_minus
    if not ratio < _X0_MAX:
        raise ValueError(
            f"beta={beta:g} gives x0 ~ {ratio:.3g}, above 2^62, the largest "
            f"reference state the engine's int64 walk holds"
        )
    x0 = max(2, math.ceil(ratio) - 1)
    # Rounding in the ceiling can only be off by one; repair against the
    # inequality the value exists to guarantee.
    while (x0 - 1) / (x0 + 1) < w_threshold:
        x0 += 1
    expected_steps = _power(x0, beta)
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


def _power(base: int, beta: float) -> float:
    """base^beta, or inf where that overflows float64."""
    try:
        return base**beta
    except OverflowError:
        return math.inf


def coupler_collapses(x: float, w1: float) -> bool:
    """Branch predicate of the multigamma coupler.

    True when the first driver forces the collapsing branch at state x.
    Shared with the sampling engine so that coalescence detection and the
    forward application of the coupler can never disagree: the predicate
    is monotone in x (1/(1+x) is computed identically everywhere), hence
    w1 <= 1/(1 + d) guarantees collapse for every start below d.
    """
    return w1 <= 1.0 / (1.0 + x)
