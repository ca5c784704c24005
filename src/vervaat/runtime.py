"""Runtime analysis of the backward step count T.

The number of backward steps until coalescence satisfies

    x0^beta  <=  E T  <=  2 (x0 + 1)^beta + 3,

and T is distributed as the absorption time of the dominating walk run
*forward* from stationarity when each step, from state d, absorbs with
probability q(d) = (d + 1)^(-beta), moves up (no absorption) with
probability min(1 - q(d), 1/3) and moves down or holds (no absorption)
with probability max(2/3 - q(d), 0).  Truncating that infinite-state
absorbing chain and solving the expected-absorption-time system twice,
once with boundary value 0 and once with the supermartingale potential cap
as the boundary value, gives rigorous lower and upper bounds on E T that
tighten geometrically in the truncation level.

For small beta the expected step count expands as E T = 1 + (1 + o(1)) c
beta with c = sum_{i>=1} 2^-i ln(i + 1) ~ 1.016, the stationary mean of
ln(D + 1); ``expansion_check`` compares that prediction against simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .engine import sample_many
from .updates import BETA0, VervaatParams, _power, make_params

__all__ = [
    "RuntimeBounds",
    "AbsorptionBracket",
    "ExpansionReport",
    "theorem_bounds",
    "supermartingale_cap",
    "absorption_probabilities",
    "absorption_bracket",
    "small_beta_constant",
    "expansion_check",
]

#: Padding factor covering float64 rounding in the banded solve and the
#: stationary averaging; the returned bracket is widened by this amount on
#: each side so it still rigorously contains the exact expectation.
_SOLVER_TOL = 1e-12

#: Largest (x0 + 1)^beta the bounds accept (beta up to about 110).  The
#: bracket's solve scales it by small factors, so it stays inside float64.
_MAX_TOP_POWER = 1e300


@dataclass(frozen=True, slots=True)
class RuntimeBounds:
    """Closed-form bounds on the expected backward step count."""

    lower: float
    upper: float


@dataclass(frozen=True, slots=True)
class AbsorptionBracket:
    """Two-sided numerical bracket on E T from the truncated solve."""

    lower: float
    upper: float
    truncation: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, slots=True)
class ExpansionReport:
    """Simulation check of the small-beta expansion E T ~ 1 + c beta."""

    beta: float
    n: int
    empirical_mean: float
    predicted_mean: float
    std_error: float
    c: float


def _top_power(params: VervaatParams) -> float:
    """(x0 + 1)^beta; ValueError above :data:`_MAX_TOP_POWER`."""
    top = _power(params.x0 + 1, params.beta)
    if top > _MAX_TOP_POWER:
        raise ValueError(
            f"beta={params.beta:g} is too large for the runtime bounds: "
            f"(x0 + 1)^beta = {params.x0 + 1}^{params.beta:g} ~ {top:.3g} "
            f"exceeds {_MAX_TOP_POWER:g}"
        )
    return top


def theorem_bounds(params: VervaatParams) -> RuntimeBounds:
    """The closed-form pair (x0^beta, 2 (x0 + 1)^beta + 3).

    Raises ValueError when (x0 + 1)^beta exceeds 1e300.
    """
    top = _top_power(params)  # checked first: x0^beta cannot overflow before it
    return RuntimeBounds(lower=params.x0**params.beta, upper=2.0 * top + 3.0)


def supermartingale_cap(params: VervaatParams, d: int) -> float:
    """Upper bound on the expected absorption time started at state d.

    Equals 3 * (d - (x0 - 1) + (2/3)(x0 + 1)^beta): the potential
    d - (x0 - 1) + (2/3)(x0 + 1)^beta drops by at least 1/3 per step in
    expectation until absorption, where it drops to zero, so optional
    sampling bounds E T by three times the starting potential.  Raises
    ValueError where :func:`theorem_bounds` does.
    """
    floor = params.x0 - 1
    if d < floor:
        raise ValueError(f"state must be >= x0 - 1 = {floor}, got {d}")
    return 3.0 * ((d - floor) + (2.0 / 3.0) * _top_power(params))


def absorption_probabilities(
    params: VervaatParams, truncation: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-state (q, p_up, p_down) of the truncated absorbing walk.

    State j holds walk position d = x0 - 1 + j for j = 0..truncation.
    The three arrays sum to one entrywise.
    """
    d = params.x0 - 1 + np.arange(truncation + 1, dtype=float)
    q = (d + 1.0) ** (-params.beta)
    p_up = np.minimum(1.0 - q, 1.0 / 3.0)
    p_down = np.maximum(2.0 / 3.0 - q, 0.0)
    return q, p_up, p_down


def _solve_hitting_times(p_up, p_down, boundary: float) -> np.ndarray:
    """Expected absorption times h with h(top + 1) pinned to ``boundary``.

    The system h(j) = 1 + p_up(j) h(j+1) + p_down(j) h(j-1), with the
    down-move folded into the diagonal at the floor, is tridiagonal and
    strictly diagonally dominant, so the banded solve is O(n) and stable.
    """
    n = len(p_up)
    ab = np.zeros((3, n))
    ab[1, :] = 1.0
    ab[1, 0] -= p_down[0]  # hold at the floor
    ab[0, 1:] = -p_up[:-1]
    ab[2, :-1] = -p_down[1:]
    rhs = np.ones(n)
    rhs[-1] += p_up[-1] * boundary
    return solve_banded((1, 1), ab, rhs)


def absorption_bracket(params: VervaatParams, truncation: int) -> AbsorptionBracket:
    """Rigorous two-sided bounds on E T from the truncated absorbing chain.

    Solves the hitting-time system twice: boundary value 0 above the
    truncation (optimistic) and the supermartingale cap (pessimistic),
    then averages over the shifted-geometric stationary start.  Stationary
    mass beyond the truncation contributes 0 to the lower bound; for the
    upper bound it is charged the cap of each tail state exactly, which the
    affine form of the cap reduces to the closed-form term below.  Both
    sides are finally widened by a small solver tolerance so the interval
    still contains the exact value despite float64 rounding.

    Increasing the truncation never widens the bracket; by truncation ~50
    the width is already dominated by the solver tolerance.
    """
    if truncation < 2:
        raise ValueError(f"truncation must be >= 2, got {truncation}")
    q, p_up, p_down = absorption_probabilities(params, truncation)
    top_plus_1 = params.x0 - 1 + truncation + 1

    weights = 0.5 ** (np.arange(truncation + 1) + 1.0)  # pi(x0 - 1 + j) = 2^-(j+1)

    h_low = _solve_hitting_times(p_up, p_down, 0.0)
    lower = float(weights @ h_low)

    h_up = _solve_hitting_times(p_up, p_down, supermartingale_cap(params, top_plus_1))
    upper = float(weights @ h_up)
    # sum_{j > truncation} 2^-(j+1) * cap(x0 - 1 + j), cap affine in j
    upper += 0.5 ** (truncation + 1) * (
        3.0 * (truncation + 2) + 2.0 * _top_power(params)
    )

    pad = _SOLVER_TOL * max(1.0, upper)
    # The closed-form bounds hold unconditionally, so intersecting with
    # them only tightens the bracket (visible at small truncations, where
    # the zero-boundary solve undershoots the closed-form lower bound).
    closed = theorem_bounds(params)
    return AbsorptionBracket(
        lower=max(lower - pad, closed.lower),
        upper=min(upper + pad, closed.upper),
        truncation=truncation,
    )


def small_beta_constant(tol: float) -> float:
    """The series c = sum_{i>=1} 2^-i ln(i + 1), truncated below ``tol``.

    Terms are added until the analytic tail bound
    sum_{i>=m} 2^-i ln(i+1) <= 2^-(m-1) (ln(m+1) + 1/(m+1)),
    from the concavity of the log, falls below the tolerance.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    total = 0.0
    i = 1
    while True:
        total += 0.5**i * math.log(i + 1)
        m = i + 1
        if 0.5 ** (m - 1) * (math.log(m + 1) + 1.0 / (m + 1)) < tol:
            return total
        i += 1


def expansion_check(beta: float, n: int, seed: int) -> ExpansionReport:
    """Compare the empirical mean step count against 1 + c beta.

    Valid for 0 < beta <= beta0 = ln(3/2)/ln 3, the range on which the
    dominating walk has x0 = 2 and the expansion is derived.
    """
    if not 0 < beta <= BETA0:
        raise ValueError(f"beta must lie in (0, {BETA0:.6f}], got {beta}")
    params = make_params(beta)
    _, steps, _ = sample_many(params, n, seed)
    c = small_beta_constant(1e-9)
    mean = float(steps.mean())
    se = float(steps.std() / math.sqrt(n))
    return ExpansionReport(
        beta=beta,
        n=n,
        empirical_mean=mean,
        predicted_mean=1.0 + c * beta,
        std_error=se,
        c=c,
    )
