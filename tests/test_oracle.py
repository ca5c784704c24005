import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from vervaat import (
    UniformStream,
    exact_moments,
    ks_critical_value,
    ks_two_sample,
    make_params,
    oracle_depth,
    truncated_sum_batch,
    truncation_bias,
    validate_run,
)

from conftest import SEED_ORACLE, ScriptedStream, stationarity_check, truncated_sum_sample


class TestTruncatedSum:
    def test_constant_half_depth_three(self):
        p = make_params(1.0)
        y = truncated_sum_sample(p, 3, ScriptedStream([0.5, 0.5, 0.5]))
        assert y == pytest.approx(0.875, abs=1e-15)

    def test_depth_zero_is_empty_sum(self):
        assert truncated_sum_sample(make_params(1.0), 0, ScriptedStream([])) == 0.0

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            truncated_sum_sample(make_params(1.0), -1, ScriptedStream([]))
        with pytest.raises(ValueError):
            truncated_sum_batch(make_params(1.0), -1, 5, UniformStream(1))

    def test_batch_matches_scalar(self):
        p = make_params(0.5)
        batch = truncated_sum_batch(p, 25, 64, UniformStream(44, 2))
        s = UniformStream(44, 2)
        scalar = np.array([truncated_sum_sample(p, 25, s) for _ in range(64)])
        assert np.allclose(batch, scalar, rtol=1e-12)

    def test_tail_bias_dickman_depth_40(self):
        assert truncation_bias(1.0, 40) == pytest.approx(2.0**-40, rel=1e-12)
        assert truncation_bias(1.0, 40) == pytest.approx(9.1e-13, rel=0.01)

    def test_oracle_depth_is_minimal(self):
        for beta in (0.25, 0.5, 1.0, 2.0, 5.0):
            d = oracle_depth(beta)
            assert truncation_bias(beta, d) <= 1e-9
            assert truncation_bias(beta, d - 1) > 1e-9


class TestExactMoments:
    def test_dickman(self):
        mean, second = exact_moments(1.0)
        assert (mean, second) == (1.0, 1.5)
        assert second - mean**2 == pytest.approx(0.5)

    def test_beta_two(self):
        assert exact_moments(2.0) == (2.0, 5.0)

    def test_small_beta_limit(self):
        mean, _ = exact_moments(1e-9)
        assert mean == pytest.approx(0.0, abs=1e-8)

    def test_invalid(self):
        with pytest.raises(ValueError):
            exact_moments(0.0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_oracle_consistency(self, beta):
        # truncated-series means match the fixed-point moments within 4 SE
        p = make_params(beta)
        n = 1_000_000
        y = truncated_sum_batch(p, oracle_depth(beta), n, UniformStream(SEED_ORACLE))
        mean, second = exact_moments(beta)
        se = y.std() / math.sqrt(n)
        assert abs(y.mean() - mean) <= 4 * se


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.arange(10.0)
        assert ks_two_sample(a, a) == 0.0

    def test_disjoint_supports(self):
        assert ks_two_sample([1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_hand_enumerated_gap(self):
        assert ks_two_sample([1.0, 2.0], [1.5, 2.5]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_matches_scipy(self):
        rng = np.random.Generator(np.random.Philox(key=(21, 0)))
        a = rng.normal(size=701)
        b = rng.normal(0.2, 1.1, size=997)
        ours = ks_two_sample(a, b)
        assert ours == pytest.approx(scipy_stats.ks_2samp(a, b).statistic, abs=1e-12)

    def test_critical_value_constant(self):
        # c(0.01) ~ 1.628
        assert ks_critical_value(1, 1) / math.sqrt(2.0) == pytest.approx(
            1.628, abs=5e-4
        )


class TestStationarity:
    def test_interior_residual_negligible(self):
        assert stationarity_check(make_params(1.0), 50) <= 1e-14

    def test_truncation_leak_at_tiny_support(self):
        # support 2 keeps only the floor and one state; the top state sees
        # pi(0)/3 = 1/6 instead of 1/4, a leak of exactly 1/12
        res = stationarity_check(make_params(1.0), 2)
        assert res == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_kernel_independent_of_beta(self):
        r = [stationarity_check(make_params(b), 40) for b in (0.5, 1.0, 2.0)]
        assert r[0] == r[1] == r[2]

    def test_support_too_small(self):
        with pytest.raises(ValueError):
            stationarity_check(make_params(1.0), 1)


class TestValidateRun:
    def test_minimum_n_enforced(self):
        with pytest.raises(ValueError):
            validate_run(make_params(1.0), 9_999, seed=1)

    def test_quick_pass_dickman(self):
        report = validate_run(make_params(1.0), 20_000, seed=90210)
        names = [c.name for c in report.checks]
        assert names[:3] == ["ks_engine_vs_oracle", "mean_z", "variance_z"]
        assert "steps_eq_1" in names and "dickman_unit_mass" in names
        assert report.passed
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert len(payload["checks"]) == len(report.checks)

    def test_quick_pass_other_beta_omits_dickman_checks(self):
        report = validate_run(make_params(0.5), 10_000, seed=31337)
        names = [c.name for c in report.checks]
        assert "dickman_unit_mass" not in names
        assert report.passed

    def test_dickman_with_explicit_depth_60(self):
        report = validate_run(make_params(1.0), 100_000, seed=SEED_ORACLE, depth=60)
        assert report.passed

    def test_detects_tampered_engine(self, monkeypatch):
        # negate the collapse predicate inside the engine: coalescence is
        # then declared on the wrong branch and the output law is wrong
        import vervaat.engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "coupler_collapses", lambda x, w1: w1 > 1.0 / (1.0 + x)
        )
        report = validate_run(make_params(1.0), 10_000, seed=90210)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "ks_engine_vs_oracle" in failed
