import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vervaat import (
    BETA0,
    StepBudgetWarning,
    UniformStream,
    ks_critical_value,
    ks_two_sample,
    make_params,
)

from conftest import (
    ScriptedStream,
    dominating_update,
    multigamma_update,
    natural_update,
    sample_w,
)


class TestMakeParams:
    def test_dickman(self):
        p = make_params(1.0)
        assert p.w_threshold == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert p.x0 == 5

    def test_small_beta_floor(self):
        assert make_params(0.25).x0 == 2
        assert make_params(BETA0).x0 == 2
        assert make_params(1e-3).x0 == 2  # survives (2/3)^(1/beta) underflow

    def test_beta_ten(self):
        with pytest.warns(StepBudgetWarning):  # 50^10 dwarfs the default budget
            assert make_params(10.0).x0 == 50

    def test_beta_two(self):
        assert make_params(2.0).x0 == 10

    def test_threshold_matches_power(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepBudgetWarning)
            for beta in (0.1, 0.5, 1.0, 3.0, 20.0):
                p = make_params(beta)
                assert p.w_threshold == pytest.approx(
                    (2.0 / 3.0) ** (1.0 / beta), rel=1e-14
                )

    def test_domination_inequality_holds(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepBudgetWarning)
            for beta in np.geomspace(1e-3, 1e3, 61):
                p = make_params(float(beta))
                assert (p.x0 - 1) / (p.x0 + 1) >= p.w_threshold
                assert p.x0 >= 2

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_beta(self, bad):
        with pytest.raises(ValueError):
            make_params(bad)

    @pytest.mark.parametrize(
        "beta, want", [(np.float32(1.0), 1.0), (np.int64(2), 2.0), (Fraction(1, 2), 0.5)]
    )
    def test_real_number_types(self, beta, want):
        p = make_params(beta)
        assert type(p.beta) is float and p.beta == want

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1", None, 1 + 0j])
    def test_non_real_beta(self, bad):
        with pytest.raises(ValueError):
            make_params(bad)

    @pytest.mark.parametrize("beta", [9.4e17, 1e20, 1e300, 1e308])
    def test_x0_beyond_int64_walk_rejected(self, beta):
        with pytest.raises(ValueError, match="2\\^62"):
            make_params(beta)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.floats())
    @example(5e-324)
    @example(9.3e17)
    def test_any_float_beta(self, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepBudgetWarning)
            try:
                p = make_params(beta)
            except ValueError:
                assert not 0 < beta < 9.3e17
                return
        assert 2 <= p.x0 <= 2**62
        assert (p.x0 - 1) / (p.x0 + 1) >= p.w_threshold

    def test_budget_warning(self):
        with pytest.warns(StepBudgetWarning):
            make_params(1000.0)

    def test_no_warning_for_moderate_beta(self, recwarn):
        make_params(2.0)
        assert not recwarn.list


class TestSampleW:
    @pytest.mark.parametrize(
        "beta, u, expected",
        [(1.0, 0.49, 0.49), (2.0, 0.49, 0.7), (0.5, 0.5, 0.25)],
    )
    def test_power_law(self, beta, u, expected):
        w = sample_w(make_params(beta), ScriptedStream([u]))
        assert w == pytest.approx(expected, abs=1e-15)

    def test_range(self):
        p = make_params(0.7)
        s = UniformStream(3)
        ws = [sample_w(p, s) for _ in range(1000)]
        assert all(0.0 <= w < 1.0 for w in ws)


class TestNaturalUpdate:
    def test_values(self):
        p = make_params(1.0)
        assert natural_update(p, 0.0, 0.3) == 0.3
        assert natural_update(p, 4.0, 0.5) == 2.5
        assert natural_update(p, 0.0, 0.0) == 0.0

    def test_negative_state(self):
        with pytest.raises(ValueError):
            natural_update(make_params(1.0), -0.1, 0.5)


class TestMultigammaUpdate:
    def test_bottom_state_always_collapses(self):
        p = make_params(1.0)
        for w1 in (0.0, 0.3, 0.999):
            assert multigamma_update(p, 0.0, (w1, 0.42)) == 0.42

    def test_branches(self):
        p = make_params(1.0)
        assert multigamma_update(p, 2.0, (0.5, 0.3)) == 1.5
        assert multigamma_update(p, 2.0, (0.25, 0.7)) == 0.7

    def test_accepts_plain_tuple(self):
        assert multigamma_update(make_params(1.0), 2.0, (0.25, 0.7)) == 0.7

    def test_negative_state(self):
        with pytest.raises(ValueError):
            multigamma_update(make_params(1.0), -1.0, (0.5, 0.5))

    def test_monotone_in_state(self):
        p = make_params(1.0)
        rng = np.random.Generator(np.random.Philox(key=(11, 0)))
        for _ in range(20_000):
            x, span, w1, w2 = rng.random(4)
            x *= 10.0
            y = x + span * 10.0
            assert multigamma_update(p, x, (w1, w2)) <= multigamma_update(
                p, y, (w1, w2)
            )

    def test_matches_natural_update_in_law(self):
        # same fixed state, coupler output vs plain chain output, KS at 1%
        p = make_params(1.0)
        x = 3.0
        n = 100_000
        s = UniformStream(777)
        coupled = np.array(
            [
                multigamma_update(p, x, (sample_w(p, s), sample_w(p, s)))
                for _ in range(n)
            ]
        )
        plain = np.array([natural_update(p, x, sample_w(p, s)) for _ in range(n)])
        assert ks_two_sample(coupled, plain) < ks_critical_value(n, n)


class TestDominatingUpdate:
    def test_branches_dickman(self):
        p = make_params(1.0)  # x0 = 5, threshold 2/3
        assert dominating_update(p, 5, 0.7) == 6
        assert dominating_update(p, 5, 0.5) == 4
        assert dominating_update(p, 4, 0.5) == 4  # holds at the floor

    def test_tie_goes_down(self):
        p = make_params(1.0)
        assert dominating_update(p, 5, p.w_threshold) == 4

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            dominating_update(make_params(1.0), 3, 0.5)

    def test_never_below_floor(self):
        p = make_params(0.5)
        floor = p.x0 - 1
        rng = np.random.Generator(np.random.Philox(key=(13, 0)))
        d = floor
        for w1 in rng.random(10_000):
            d = dominating_update(p, d, float(w1))
            assert d >= floor

    def test_dominates_coupler(self):
        p = make_params(1.0)
        rng = np.random.Generator(np.random.Philox(key=(17, 0)))
        floor = p.x0 - 1
        for _ in range(20_000):
            u_d, u_x, w1, w2 = rng.random(4)
            d = floor + int(u_d * 30)
            x = u_x * d  # any 0 <= x <= d
            assert multigamma_update(p, x, (w1, w2)) <= dominating_update(
                p, d, w1
            )
