"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The heavy sample batches are session fixtures shared
with the rest of the suite (see conftest.py); everything is seeded, so the
numbers below are reproducible bit for bit.
"""

import math

import numpy as np
from click.testing import CliRunner

from vervaat import (
    EULER_GAMMA,
    UniformStream,
    absorption_bracket,
    forward_reconstruct,
    ks_critical_value,
    ks_two_sample,
    make_params,
    oracle_depth,
    run_ciaftp,
    small_beta_constant,
    theorem_bounds,
    truncated_sum_batch,
)
from vervaat.cli import main as cli_main

from conftest import (
    SEED_EXPANSION,
    SEED_ORACLE,
    audit_path,
    dominating_update,
    expansion_check,
    multigamma_update,
    stationarity_check,
)

EXACT_ET_DICKMAN = 6.079126903314678261472165


def _criterion(num, description, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_mean_steps(dickman_batch):
    _, steps, _ = dickman_batch
    mean = steps.mean()
    _criterion(
        1,
        "beta=1 mean steps over 1e6 runs within 6.079 +/- 0.03",
        abs(mean - 6.079) <= 0.03,
        f"mean={mean:.4f}",
    )


def test_criterion_2_step_tails(dickman_batch):
    _, steps, _ = dickman_batch
    checks = [
        ("P(T=1)", (steps == 1).mean(), 0.174, 0.003),
        ("P(T>4)", (steps > 4).mean(), 0.476, 0.004),
        ("P(T>8)", (steps > 8).mean(), 0.234, 0.004),
        ("P(T>27)", (steps > 27).mean(), 0.010, 0.002),
    ]
    ok = all(abs(freq - target) <= tol for _, freq, target, tol in checks)
    detail = ", ".join(f"{n}={f:.4f} (target {t})" for n, f, t, _ in checks)
    _criterion(2, "beta=1 step-count tail frequencies over 1e6 runs", ok, detail)


def test_criterion_3_absorption_bracket():
    bracket = absorption_bracket(make_params(1.0), 400)
    ok = (
        bracket.width <= 1e-10
        and bracket.lower <= 6.0791269033146813 <= bracket.upper
        and bracket.lower <= EXACT_ET_DICKMAN <= bracket.upper
        and 5.0 <= bracket.lower
        and bracket.upper <= 15.0
    )
    _criterion(
        3,
        "absorbing-chain bracket at truncation 400 pins the exact E T",
        ok,
        f"[{bracket.lower:.14f}, {bracket.upper:.14f}] width={bracket.width:.2e}",
    )


def test_criterion_4_small_beta_constant_and_expansion():
    c = small_beta_constant(1e-9)
    report = expansion_check(0.05, 1_000_000, seed=SEED_EXPANSION)
    gap = abs(report.empirical_mean - report.predicted_mean)
    ok = 1.015 <= c <= 1.017 and gap <= 0.01
    _criterion(
        4,
        "c in [1.015, 1.017]; empirical E T at beta=0.05 within 1 + 0.05 c +/- 0.01",
        ok,
        f"c={c:.6f}, empirical={report.empirical_mean:.4f}, "
        f"predicted={report.predicted_mean:.4f}, gap={gap:.4f}",
    )


def test_criterion_5_theorem_bound_conformance(batch_by_beta):
    details = []
    ok = True
    for beta in (0.25, 0.5, 1.0, 2.0):
        _, steps, _ = batch_by_beta[beta]
        n = steps.size
        mean = steps.mean()
        se = steps.std() / math.sqrt(n)
        bounds = theorem_bounds(make_params(beta))
        inside = bounds.lower - 4 * se <= mean <= bounds.upper + 4 * se
        ok = ok and inside
        details.append(
            f"beta={beta}: {mean:.3f} in [{bounds.lower:.3f}, {bounds.upper:.3f}]"
        )
    _criterion(5, "empirical E T within the closed-form bounds", ok, "; ".join(details))


def test_criterion_6_distributional_correctness(batch_by_beta):
    details = []
    ok = True
    for k, beta in enumerate((0.5, 1.0, 2.0)):
        values = batch_by_beta[beta][0][:100_000]
        n = values.size
        params = make_params(beta)
        oracle = truncated_sum_batch(
            params,
            oracle_depth(beta),
            n,
            UniformStream(SEED_ORACLE, index=1000 + k),
        )
        d = ks_two_sample(values, oracle)
        crit = ks_critical_value(n, n)

        mean_z = abs(values.mean() - beta) / (values.std() / math.sqrt(n))
        exact_var = beta * (1 + 2 * beta) / 2 - beta**2
        centered = values - values.mean()
        sample_var = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        var_z = abs(sample_var - exact_var) / math.sqrt((m4 - sample_var**2) / n)

        good = d < crit and mean_z <= 4.0 and var_z <= 5.0
        ok = ok and good
        details.append(
            f"beta={beta}: KS={d:.5f}<{crit:.5f}, |z_mean|={mean_z:.2f}, "
            f"|z_var|={var_z:.2f}"
        )
    _criterion(
        6, "engine matches the series oracle (KS at 1%, moments)", ok, "; ".join(details)
    )


def test_criterion_7_dickman_unit_mass(dickman_batch):
    values, _, _ = dickman_batch
    frac = ((values > 0.0) & (values <= 1.0)).mean()
    target = math.exp(-EULER_GAMMA)
    _criterion(
        7,
        "beta=1 mass of (0, 1] equals exp(-gamma) +/- 0.005 over 1e6 draws",
        abs(frac - target) <= 0.005,
        f"mass={frac:.5f}, target={target:.5f}",
    )


def test_criterion_8_property_suites():
    params = make_params(1.0)
    rng = np.random.Generator(np.random.Philox(key=(8888, 0)))

    # coupler monotonicity, 1e6 random (x, y, w1, w2) with x <= y
    xs, spans, w1s, w2s = rng.random((4, 1_000_000))
    xs = xs * 20.0
    ys = xs + spans * 20.0
    mono_viol = sum(
        1
        for x, y, w1, w2 in zip(xs, ys, w1s, w2s)
        if multigamma_update(params, x, (w1, w2))
        > multigamma_update(params, y, (w1, w2))
    )

    # domination, 1e6 random tuples with 0 <= x <= d, d >= x0 - 1
    floor = params.x0 - 1
    us, fracs, w1s, w2s = rng.random((4, 1_000_000))
    ds = floor + (us * 40.0).astype(int)
    dom_viol = 0
    floor_viol = 0
    for u, frac, w1, w2, d in zip(us, fracs, w1s, w2s, ds):
        d = int(d)
        psi = dominating_update(params, d, w1)
        if psi < floor:
            floor_viol += 1
        if multigamma_update(params, frac * d, (w1, w2)) > psi:
            dom_viol += 1

    # coalescence consensus over 1e4 paths, three starts each, with the
    # backward-path structural audit (imputation direction consistency,
    # floor invariance, one-step moves) on every path
    consensus_viol = 0
    for idx in range(10_000):
        r = run_ciaftp(
            params,
            UniformStream(42_000, idx),
            w2_stream=UniformStream(43_000, idx),
            collect_path=True,
        )
        audit_path(params, r.path)
        top = r.path.d_states[r.path.coalesce_index]
        outs = {
            forward_reconstruct(params, r.path, UniformStream(43_000, idx), start)
            for start in (0.0, top / 2.0, float(top))
        }
        if outs != {r.value}:
            consensus_viol += 1

    residual = stationarity_check(params, 50)

    ok = (
        mono_viol == 0
        and dom_viol == 0
        and floor_viol == 0
        and consensus_viol == 0
        and residual <= 1e-14
    )
    _criterion(
        8,
        "property suites with zero violations",
        ok,
        f"monotone={mono_viol}, domination={dom_viol}, floor={floor_viol}, "
        f"consensus={consensus_viol}, stationarity residual={residual:.2e}",
    )


def test_criterion_9_reproducibility():
    runner = CliRunner()
    args = ["sample", "--beta", "1", "--n", "200", "--seed", "1234"]
    first = runner.invoke(cli_main, args, catch_exceptions=False).output
    second = runner.invoke(cli_main, args, catch_exceptions=False).output
    ok = first == second and len(first.strip().split("\n")) == 201
    _criterion(
        9,
        "identical seed and n give byte-identical CSV",
        ok,
        f"bytes={len(first)}",
    )
