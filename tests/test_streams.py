import math

import numpy as np
import pytest

from vervaat import UniformStream, geometric_half
import vervaat.streams as streams_mod
from vervaat.streams import BlockCache, philox_block

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


# -- seeds of 64 bits and the vectorized Philox ------------------------------

PHILOX_SEEDS = (0, 1, 2**63 + 12345, 2**64 - 1)
PHILOX_INDICES = (0, 1, 77, 1 << 62)


@pytest.mark.parametrize("seed", PHILOX_SEEDS)
@pytest.mark.parametrize("index", PHILOX_INDICES)
def test_philox_block_matches_numpy_philox(seed, index):
    key = np.array([seed, index], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key)).random(64)
    got = np.concatenate([philox_block(seed, [index], b)[:, 0] for b in range(16)])
    assert np.array_equal(got, ref)
    assert np.array_equal(UniformStream(seed, index).uniforms(64), ref)


def numpy_philox(seed, index, block):
    """Uniforms ``4 * block .. 4 * block + 3`` of substream (seed, index),
    drawn by numpy's own Philox."""
    bits = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    bits.advance(block)
    return np.random.Generator(bits).random(4)


@pytest.mark.parametrize("seed", [2**63, 2**63 + 12345, 2**64 - 1])
def test_philox_block_folded_rounds_at_far_blocks(seed):
    # key word 0 >= 2^63, and a counter word 0 far from 1: the folded first
    # two rounds carry both
    index = np.array([0, 5, 1 << 62, 2**64 - 1], dtype=np.uint64)
    for block in (0, 1, 2**40):
        want = np.array([numpy_philox(seed, int(i), block) for i in index]).T
        assert np.array_equal(philox_block(seed, index, block), want)
    blocks = np.array([2**40, 0, 1, 2**40], dtype=np.uint64)
    want = np.array([numpy_philox(seed, int(i), int(b)) for i, b in zip(index, blocks)]).T
    assert np.array_equal(philox_block(seed, index, blocks), want)


@pytest.mark.parametrize("extra", [1, streams_mod._TILE_KEYS + 3])
def test_block_cache_takes_more_rows_than_a_tile(extra):
    # tile + 1 and 2 * tile + 3 stale rows, so the keys go to Philox in
    # two and in three tiles: at one block number, then at one per row
    seed, n = 2**63 + 7, streams_mod._TILE_KEYS + extra
    index = np.arange(n, dtype=np.uint64) + np.uint64(1000)
    rows = np.arange(n)
    cache = BlockCache(seed, index)
    want = [numpy_philox(seed, 1000 + r, 1)[2] for r in range(n)]
    assert np.array_equal(cache.take(rows, 6), want)
    pos = 4 * (2 + rows % 5) + rows % 4  # blocks 2 .. 6: every row is stale
    want = [numpy_philox(seed, 1000 + r, 2 + r % 5)[r % 4] for r in range(n)]
    assert np.array_equal(cache.take(rows, pos), want)


def test_philox_block_per_row_block_numbers():
    indices = np.arange(12)
    blocks = np.arange(12) * 3
    got = philox_block(5, indices, blocks)
    for i, b in zip(indices.tolist(), blocks.tolist()):
        ref = UniformStream(5, i).uniforms(4 * b + 4)[4 * b :]
        assert np.array_equal(got[:, i], ref)


@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_block_cache_take_matches_uniform_stream(seed):
    index = np.array([0, 3, 1 << 62, 2**64 - 1], dtype=np.uint64)
    ref = np.array([UniformStream(seed, int(i)).uniforms(40) for i in index])
    cache = BlockCache(seed, index)
    rows = np.arange(index.size)
    for pos in (0, 3, 4, 7, 8, 2, 13, 39, 17):  # across blocks, and back
        assert np.array_equal(cache.take(rows, pos), ref[:, pos])
    sub = np.array([3, 1])
    for pos in ([4, 0], [5, 5], [38, 9], [39, 35]):
        assert np.array_equal(cache.take(sub, np.array(pos)), ref[sub, pos])
    assert cache.take(rows[:0], 12).size == 0


def test_block_cache_loads_a_block_only_when_a_row_leaves_it(monkeypatch):
    loads = []

    def spy(seed, index, block):
        loads.append((index.tolist(), np.asarray(block).tolist()))
        return philox_block(seed, index, block)

    monkeypatch.setattr(streams_mod, "philox_block", spy)
    cache = BlockCache(9, np.arange(4, dtype=np.uint64))
    rows = np.arange(4)
    for pos in range(8):
        cache.take(rows, pos)
    assert loads == [([0, 1, 2, 3], 0), ([0, 1, 2, 3], 1)]
    loads.clear()
    cache.take(rows, np.array([4, 7, 8, 1]))  # rows 2 and 3 leave block 1
    cache.take(rows[2:], np.array([11, 1]))  # both now hold their block
    cache.take(rows[:1], 6)
    assert loads == [([2, 3], [2, 0])]


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
