"""Shared fixtures: scripted streams, sample batches, path auditing, and the
reference update rules the property tests check.

The statistical fixtures are expensive (up to 10^6 perfect samples) and
session-scoped so the whole suite draws each batch exactly once.  Seeds
are fixed arbitrary constants; the streams are counter-based, so every
number asserted downstream is fully deterministic.

The reference rules are the paper's update functions one step at a time:
the plain chain, the multigamma coupler, the dominating walk, the truncated
series and the walk's stationary law.  The engine never calls them; the
coupler here uses the engine's own predicate, ``updates.coupler_collapses``,
so the monotonicity and domination sweeps check the test the engine makes.
"""

import numpy as np
import pytest

from vervaat import make_params, sample_many
from vervaat.updates import coupler_collapses

SEED_DICKMAN = 20260810
SEED_HALF = 31415926
SEED_TWO = 27182818
SEED_QUARTER = 16180339
SEED_EXPANSION = 14142135
SEED_ORACLE = 57721566


class ScriptedStream:
    """Replays a fixed list of 'uniforms'; for hand-traced expectations."""

    def __init__(self, values):
        self.values = list(values)
        self.position = 0

    def next_uniform(self):
        v = self.values[self.position]
        self.position += 1
        return v


def sample_w(params, stream):
    """Draw one W = U^(1/beta) factor; always in [0, 1)."""
    return stream.next_uniform() ** params.inv_beta


def natural_update(params, x, w):
    """One step of the plain chain: w * (1 + x).

    Strictly monotone in x, so it can never coalesce two trajectories; it
    serves as the distributional reference for the coupler.
    """
    if x < 0:
        raise ValueError(f"state must be >= 0, got {x}")
    return w * (1.0 + x)


def multigamma_update(params, x, pair):
    """Monotone coupling update on drivers ``pair`` = (w1, w2): returns w2
    on the collapsing branch (w1 <= 1/(1+x)), else w1 * (1 + x).

    For fixed drivers the map is nondecreasing in x, and for random drivers
    W(1), W(2) the output at x is distributed exactly like W * (1 + x).
    """
    if x < 0:
        raise ValueError(f"state must be >= 0, got {x}")
    w1, w2 = pair
    if coupler_collapses(x, w1):
        return w2
    return w1 * (1.0 + x)


def dominating_update(params, d, w1):
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


def truncated_sum_sample(params, depth, stream):
    """One draw of the series W1 + W1 W2 + ... truncated after ``depth``
    products; the scalar form of ``oracle.truncated_sum_batch``."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    total = 0.0
    prod = 1.0
    for _ in range(depth):
        prod *= sample_w(params, stream)
        total += prod
    return total


def stationarity_check(params, support_size):
    """Residual max |pi P - pi| of the shifted geometric under the walk.

    pi(x0 - 1 + k) = 2^-(k+1) should be invariant for the kernel that moves
    down with probability 2/3 (holding at the floor) and up with 1/3.  On a
    truncated support the result is exact up to rounding at interior states;
    the top state carries a truncation leak of order 2^-support_size, so
    small supports report a visibly nonzero residual.  The kernel does not
    depend on beta, so the residual is parameter-free apart from the floor
    shift.
    """
    if support_size < 2:
        raise ValueError(f"support_size must be >= 2, got {support_size}")
    k = support_size
    pi = 0.5 ** (np.arange(k) + 1.0)
    p = np.zeros((k, k))
    p[0, 0] = 2.0 / 3.0
    p[0, 1] = 1.0 / 3.0
    for j in range(1, k):
        p[j, j - 1] = 2.0 / 3.0
        if j + 1 < k:
            p[j, j + 1] = 1.0 / 3.0
    return float(np.abs(pi @ p - pi).max())


def audit_path(params, path):
    """Assert every structural invariant of a coalesced backward path."""
    floor = params.x0 - 1
    ds, us = path.d_states, path.imputed_u
    t_coal = path.coalesce_index
    assert t_coal == len(us) == len(ds) - 1
    assert all(d >= floor for d in ds)
    for s in range(1, len(ds)):
        jump = ds[s - 1] - ds[s]  # forward transition D(-s) -> D(-s+1)
        assert jump in (-1, 0, 1)
        if jump == 0:
            assert ds[s] == floor, "hold is only allowed at the floor"
        assert (jump == 1) == (us[s - 1] > 2.0 / 3.0), "imputation direction"
        assert 0.0 < us[s - 1] < 1.0
    # coalescence exactly at T and never earlier
    assert us[t_coal - 1] ** params.inv_beta <= 1.0 / (1.0 + ds[t_coal])
    for s in range(1, t_coal):
        assert us[s - 1] ** params.inv_beta > 1.0 / (1.0 + ds[s])


@pytest.fixture(scope="session")
def params_dickman():
    return make_params(1.0)


@pytest.fixture(scope="session")
def dickman_batch(params_dickman):
    """(values, steps, d0) for beta = 1, 10^6 samples."""
    return sample_many(params_dickman, 1_000_000, SEED_DICKMAN)


@pytest.fixture(scope="session")
def half_batch():
    """(values, steps, d0) for beta = 0.5, 10^6 samples."""
    return sample_many(make_params(0.5), 1_000_000, SEED_HALF)


@pytest.fixture(scope="session")
def two_batch():
    """(values, steps, d0) for beta = 2, 10^5 samples."""
    return sample_many(make_params(2.0), 100_000, SEED_TWO)


@pytest.fixture(scope="session")
def quarter_batch():
    """(values, steps, d0) for beta = 0.25, 10^5 samples."""
    return sample_many(make_params(0.25), 100_000, SEED_QUARTER)


@pytest.fixture(scope="session")
def batch_by_beta(dickman_batch, half_batch, two_batch, quarter_batch):
    return {
        1.0: dickman_batch,
        0.5: half_batch,
        2.0: two_batch,
        0.25: quarter_batch,
    }
