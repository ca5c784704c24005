import math

import numpy as np
import pytest

from vervaat import UniformStream, geometric_half, make_params, run_ciaftp, sample_many

from conftest import ScriptedStream


def test_same_seed_reproduces_first_1000():
    a = UniformStream(42)
    b = UniformStream(42)
    assert [a.next_uniform() for _ in range(1000)] == [
        b.next_uniform() for _ in range(1000)
    ]


def test_outputs_in_unit_interval():
    s = UniformStream(7)
    u = s.uniforms(100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_position_counts_consumption():
    s = UniformStream(1)
    s.next_uniform()
    s.next_uniform()
    s.uniforms(10)
    assert s.position == 12


def test_recorded_sequence_replays_byte_identical():
    s = UniformStream(987654321, 5)
    recorded = [s.next_uniform() for _ in range(2500)]
    replay = UniformStream(987654321, 5)
    assert recorded == [replay.next_uniform() for _ in range(2500)]


def test_bulk_and_scalar_draws_share_one_sequence():
    s = UniformStream(5)
    head = [s.next_uniform() for _ in range(10)]
    tail = s.uniforms(300)
    ref = UniformStream(5).uniforms(310)
    assert np.array_equal(np.array(head), ref[:10])
    assert np.array_equal(tail, ref[10:])


def test_restart_equals_fresh_stream():
    s = UniformStream(99, 0)
    s.uniforms(137)  # consume an odd amount first
    s.restart(3)
    fresh = UniformStream(99, 3)
    assert [s.next_uniform() for _ in range(500)] == [
        fresh.next_uniform() for _ in range(500)
    ]
    assert s.position == 500


def test_seek_equals_fresh_stream_after_that_many_draws():
    ref = UniformStream(99, 4).uniforms(40)
    s = UniformStream(99, 4)
    for position in (0, 1, 3, 4, 9, 31, 17):
        s.seek(position)
        assert s.next_uniform() == ref[position]
        assert s.position == position + 1


@pytest.mark.parametrize("seed", [99, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("index", [4, 2**63, 2**64 - 1])
def test_seek_with_index_equals_fresh_stream_seek(seed, index):
    s = UniformStream(seed, 7)
    s.uniforms(13)
    for position in (0, 5, 129):
        s.seek(position, index)
        assert (s.index, s.position) == (index, position)
        want = UniformStream(seed, index).seek(position).uniforms(70)
        assert np.array_equal(s.uniforms(70), want)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        UniformStream(1, -1)
    with pytest.raises(ValueError):
        UniformStream(1).restart(-2)


def test_index_above_64_bits_rejected():
    last = UniformStream(1, 2**64 - 1)
    assert np.array_equal(last.uniforms(8), UniformStream(1).restart(2**64 - 1).uniforms(8))
    with pytest.raises(ValueError):
        UniformStream(1, 2**64)
    with pytest.raises(ValueError):
        UniformStream(1).restart(2**64)


def test_substream_determinism_and_distinctness():
    seq0a = UniformStream(7, 0).uniforms(200)
    assert np.array_equal(seq0a, UniformStream(7, 0).uniforms(200))
    assert not np.array_equal(seq0a, UniformStream(7, 1).uniforms(200))


def test_substreams_uncorrelated():
    a = UniformStream(7, 0).uniforms(100_000)
    b = UniformStream(7, 1).uniforms(100_000)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.01


def test_uniform_mean():
    u = UniformStream(123456).uniforms(1_000_000)
    assert abs(u.mean() - 0.5) < 0.002


# -- seeds of 64 bits ------------------------------------------------------


def test_seeds_above_2_63_are_not_rounded():
    # numpy rounds a key tuple through float64, which merged these seeds
    a = UniformStream(2**63 + 1, 1 << 62).uniforms(8)
    b = UniformStream(2**63 + 7, 1 << 62).uniforms(8)
    assert not np.array_equal(a, b)


def test_negative_seed_is_its_64_bit_mask():
    fresh = UniformStream(-5, 3)
    assert fresh.seed == 2**64 - 5
    restarted = UniformStream(-5, 0).restart(3)
    assert np.array_equal(fresh.uniforms(16), restarted.uniforms(16))


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 77, 1 << 62])
def test_philox_block_matches_numpy_philox(seed, index):
    # UniformStream and the compiled kernel's Philox blocks against numpy's
    # own Philox: walks of about 3,400 steps at beta = 3 read some 1,700
    # blocks of each substream
    key = np.array([seed, index], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key)).random(64)
    assert np.array_equal(UniformStream(seed, index).uniforms(64), ref)
    params = make_params(3.0)
    rows = [run_ciaftp(params, UniformStream(seed, index + i)) for i in range(3)]
    values, steps, d0s = sample_many(params, 3, seed, first_index=index)
    assert np.array_equal(values, np.array([r.value for r in rows]))
    assert steps.tolist() == [r.steps for r in rows]
    assert d0s.tolist() == [r.d0 for r in rows]


# -- geometric draws ---------------------------------------------------------


@pytest.mark.parametrize(
    "u, g",
    [
        (0.5, 1),  # -ln(0.5)/ln 2 = 1 exactly
        (0.6, 1),  # ceil(0.7370)
        (0.2, 3),  # ceil(2.3219)
        (0.25, 2),
        (0.999, 1),
    ],
)
def test_geometric_values(u, g):
    assert geometric_half(ScriptedStream([u])) == g


def test_geometric_redraws_zero():
    s = ScriptedStream([0.0, 0.0, 0.5])
    assert geometric_half(s) == 1
    assert s.position == 3


def test_geometric_law():
    s = UniformStream(20260810, 1)
    n = 500_000
    draws = np.array([geometric_half(s) for _ in range(n)])
    assert draws.min() >= 1
    for k in range(1, 11):
        p = 2.0**-k
        se = math.sqrt(p * (1 - p) / n)
        assert abs((draws == k).mean() - p) <= 3 * se, f"k={k}"
