import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from vervaat import (
    BETA0,
    absorption_bracket,
    absorption_probabilities,
    make_params,
    small_beta_constant,
    supermartingale_cap,
    theorem_bounds,
)

from conftest import expansion_check

# E T for beta = 1 computed independently at 50-digit precision from the
# truncated absorbing chain (truncations 100 and 200 agree to 25 digits).
EXACT_ET_DICKMAN = 6.079126903314678261472165


def decimal_hitting_bounds(beta, truncation, digits=60):
    """The two solves of absorption_bracket in ``digits``-digit decimal:
    E T of the truncated chain with boundary 0, and with the
    supermartingale cap plus the closed-form tail.  E T lies between them."""
    x0 = make_params(beta).x0
    with localcontext() as ctx:
        ctx.prec = digits
        b, third = Decimal(repr(beta)), Decimal(1) / 3
        coeffs, a, g = [], Decimal(0), Decimal(1)  # h(-1) = h(0): hold at the floor
        for j in range(truncation + 1):  # h(j) = a(j) + g(j) h(j + 1)
            q = Decimal(x0 + j) ** -b
            p_up, p_down = min(1 - q, third), max(2 * third - q, Decimal(0))
            pivot = 1 - p_down * g
            a, g = (1 + p_down * a) / pivot, p_up / pivot
            coeffs.append((a, g))

        def mean(boundary):
            h, total = boundary, Decimal(0)
            for j in reversed(range(truncation + 1)):
                h = coeffs[j][0] + coeffs[j][1] * h
                total += h / 2 ** (j + 1)
            return total

        top = Decimal(x0 + 1) ** b
        tail = (3 * (truncation + 2) + 2 * top) / Decimal(2) ** (truncation + 1)
        return mean(Decimal(0)), mean(3 * (truncation + 1) + 2 * top) + tail


class TestTheoremBounds:
    def test_dickman(self):
        b = theorem_bounds(make_params(1.0))
        assert (b.lower, b.upper) == (5.0, 15.0)

    def test_beta_two(self):
        b = theorem_bounds(make_params(2.0))
        assert (b.lower, b.upper) == (100.0, 245.0)

    def test_upper_at_beta0_is_six(self):
        b = theorem_bounds(make_params(BETA0))
        assert b.upper == pytest.approx(6.0, abs=1e-12)

    def test_ordering(self):
        for beta in (0.05, 0.5, 1.0, 3.0):
            b = theorem_bounds(make_params(beta))
            assert 1.0 <= b.lower <= b.upper


class TestSupermartingaleCap:
    def test_dickman_floor_value(self):
        assert supermartingale_cap(make_params(1.0), 4) == pytest.approx(12.0)

    def test_affine_increment(self):
        p = make_params(0.5)
        caps = [supermartingale_cap(p, d) for d in range(p.x0 - 1, p.x0 + 20)]
        assert np.allclose(np.diff(caps), 3.0)

    def test_stationary_average_equals_theorem_upper(self):
        # E cap(D0) over the shifted geometric start telescopes to the
        # closed-form upper bound 2 (x0+1)^beta + 3
        for beta in (0.5, 1.0, 2.0):
            p = make_params(beta)
            avg = sum(
                0.5 ** (k + 1) * supermartingale_cap(p, p.x0 - 1 + k)
                for k in range(200)
            )
            assert avg == pytest.approx(theorem_bounds(p).upper, rel=1e-12)

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            supermartingale_cap(make_params(1.0), 3)


class TestAbsorptionProbabilities:
    @pytest.mark.parametrize("beta", [0.1, 0.25, 1.0, 2.0])
    def test_stochastic(self, beta):
        q, p_up, p_down = absorption_probabilities(make_params(beta), 300)
        for arr in (q, p_up, p_down):
            assert arr.min() >= 0.0
            assert arr.max() <= 1.0
        assert np.allclose(q + p_up + p_down, 1.0, atol=1e-15)


class TestAbsorptionBracket:
    def test_dickman_exact_value(self):
        b = absorption_bracket(make_params(1.0), 400)
        assert b.width <= 1e-10
        assert b.lower <= EXACT_ET_DICKMAN <= b.upper
        assert b.lower <= 6.0791269033146813 <= b.upper
        assert 5.0 <= b.lower and b.upper <= 15.0

    def test_ordering_everywhere(self):
        for beta in (0.1, 0.5, 1.0, 2.0):
            for trunc in (2, 10, 50):
                b = absorption_bracket(make_params(beta), trunc)
                assert b.lower <= b.upper

    def test_nesting_in_truncation(self):
        brackets = [
            absorption_bracket(make_params(1.0), t) for t in (50, 100, 200, 400)
        ]
        for small, big in zip(brackets, brackets[1:]):
            assert small.lower <= big.lower
            assert big.upper <= small.upper

    def test_theorem_bounds_contain_bracket(self):
        for beta in (0.5, 1.0, 2.0):
            p = make_params(beta)
            rb = theorem_bounds(p)
            b = absorption_bracket(p, 600)
            assert rb.lower <= b.lower <= b.upper <= rb.upper

    def test_endpoints_inside_closed_bounds_even_when_crude(self):
        # at tiny truncations the raw solves under/overshoot; the returned
        # bracket is intersected with the unconditional closed-form bounds
        for beta in (0.5, 1.0, 2.0):
            p = make_params(beta)
            rb = theorem_bounds(p)
            for trunc in (2, 3, 5):
                b = absorption_bracket(p, trunc)
                assert rb.lower <= b.lower <= b.upper <= rb.upper

    def test_simulation_agrees_with_bracket(self, dickman_batch):
        _, steps, _ = dickman_batch
        mean = steps.mean()
        se = steps.std() / math.sqrt(steps.size)
        b = absorption_bracket(make_params(1.0), 400)
        assert b.lower - 4 * se <= mean <= b.upper + 4 * se

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_contains_the_60_digit_solve(self, beta):
        low, high = decimal_hitting_bounds(beta, 400)
        b = absorption_bracket(make_params(beta), 400)
        assert Decimal(b.lower) <= low <= high <= Decimal(b.upper)

    @pytest.mark.parametrize("beta", [3.5, 4.0])
    def test_rounding_past_the_pad_raises(self, beta):
        # x0^beta * 2^-52 is 5.5e-12 and 3.6e-11 here: the float solve's
        # bracket would miss the 60-digit value
        with pytest.raises(ValueError, match="cancellation"):
            absorption_bracket(make_params(beta), 400)

    def test_truncation_too_small(self):
        with pytest.raises(ValueError):
            absorption_bracket(make_params(1.0), 1)


class TestSmallBetaConstant:
    def test_value(self):
        c = small_beta_constant(1e-9)
        assert 1.015 <= c <= 1.017
        # frozen 50-digit reference for the series limit
        assert c == pytest.approx(1.0156678457360116, abs=2e-9)

    def test_partial_sums_increase(self):
        assert small_beta_constant(1.0) >= 0.5 * math.log(2.0) - 1e-15

    def test_tolerance_contract(self):
        assert abs(small_beta_constant(1e-3) - small_beta_constant(1e-9)) < 1e-3

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            small_beta_constant(0.0)


class TestExpansionCheck:
    def test_small_beta_quick(self):
        rep = expansion_check(0.05, 20_000, seed=2024)
        assert rep.predicted_mean == pytest.approx(1.0 + rep.c * 0.05, abs=1e-15)
        assert rep.empirical_mean >= 1.0
        # exact E T(0.05) = 1.0530879; generous margin at this n
        assert abs(rep.empirical_mean - rep.predicted_mean) < 0.02
