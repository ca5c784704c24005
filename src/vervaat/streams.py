"""Seeded, splittable uniform random streams.

Every stochastic routine in this package draws its randomness from a
:class:`UniformStream`, a thin buffered wrapper around numpy's Philox
counter-based generator.  Philox is keyed with the pair ``(seed, index)``,
so substreams are cheap, statistically independent, and fully determined
by their key: the same ``(seed, index)`` always replays the same sequence,
regardless of platform or of how many other streams exist.  That is what
makes parallel sampling reproducible (one substream per sample) and what
lets tests replay recorded draws byte for byte.

Values are 53-bit-mantissa doubles on [0, 1): uniform number ``p`` of
substream ``(seed, i)`` is word ``p % 4`` of the Philox4x64-10 block with
key ``(seed, i)`` and counter ``(p // 4 + 1, 0, 0, 0)``, shifted right by 11
bits and scaled by 2^-53.  Because that is a pure function of the key and
the position, :func:`philox_block` computes the same uniforms for many
substreams at once in numpy, bit for bit equal to :class:`UniformStream`.
Code that turns those uniforms into output must also transform them as the
scalar code does: numpy's vectorized ``log`` and ``power`` differ from
libm's (which Python's ``math.log`` and ``**`` use) in the last bit for
some inputs, so such values go through libm (see ``engine``).
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)
_MASK64 = (1 << 64) - 1
_BLOCK_MIN = 64
_BLOCK_MAX = 4096

# Philox4x64-10 round multipliers and Weyl key increments (Salmon et al.,
# "Parallel random numbers: as easy as 1, 2, 3", SC'11), as numpy uses them.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_TWO_M53 = 1.0 / 9007199254740992.0


def _check_index(index: int) -> int:
    """``index`` as an int; ValueError unless it is a 64-bit Philox key word."""
    if not 0 <= index <= _MASK64:
        raise ValueError(f"substream index must be in [0, 2^64), got {index}")
    return int(index)


class UniformStream:
    """A single consumer-owned stream of uniforms on [0, 1).

    Not safe to share between concurrent consumers; spawn one substream
    per worker (or per sample) instead.
    """

    __slots__ = ("seed", "index", "position", "_gen", "_buf", "_i", "_block", "_state")

    def __init__(self, seed: int, index: int = 0):
        self.seed = int(seed) & _MASK64
        self.index = _check_index(index)
        self.position = 0
        # A uint64 array, not a tuple: numpy would round a tuple holding a
        # seed >= 2^63 through float64.
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.index], dtype=np.uint64))
        )
        self._buf: list[float] = []
        self._i = 0
        # Buffered blocks grow with consumption so short-lived streams
        # (one per sample) never pay for a large unconsumed block.
        self._block = _BLOCK_MIN
        self._state = self._gen.bit_generator.state  # reusable template

    def next_uniform(self) -> float:
        """Return the next uniform on [0, 1) and advance the position."""
        i = self._i
        buf = self._buf
        if i >= len(buf):
            buf = self._gen.random(self._block).tolist()
            if self._block < _BLOCK_MAX:
                self._block *= 4
            self._buf = buf
            i = 0
        self._i = i + 1
        self.position += 1
        return buf[i]

    def uniforms(self, n: int) -> np.ndarray:
        """Return the next ``n`` uniforms as an array (same sequence as
        repeated :meth:`next_uniform` calls)."""
        out = np.empty(n)
        take = min(n, len(self._buf) - self._i)
        if take > 0:
            out[:take] = self._buf[self._i : self._i + take]
            self._i += take
        if take < n:
            out[take:] = self._gen.random(n - take)
            self._buf = []
            self._i = 0
        self.position += n
        return out

    def restart(self, index: int | None = None) -> "UniformStream":
        """Rewind to the start of this stream (optionally re-pointing it at
        another substream index).  Cheaper than constructing a fresh stream;
        the replayed sequence is identical to a freshly built one."""
        return self.seek(0, index)

    def seek(self, position: int, index: int | None = None) -> "UniformStream":
        """Move to uniform number ``position`` of the current substream (or
        of substream ``index``), so that the next draw is the one a fresh
        stream would make after ``position`` draws.  Re-keying and
        positioning take one Philox state load."""
        if position < 0:
            raise ValueError(f"stream position must be >= 0, got {position}")
        if index is not None:
            self.index = _check_index(index)
        block, word = divmod(int(position), 4)
        state = self._state
        counter = state["state"]["counter"]
        counter[:] = 0
        counter[0] = block  # the generator increments it before each block
        state["state"]["key"][0] = self.seed
        state["state"]["key"][1] = self.index
        state["buffer_pos"] = 4  # mark the Philox output buffer drained
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._gen.bit_generator.state = state
        if word:
            self._gen.random(word)
        self._buf = []
        self._i = 0
        self._block = _BLOCK_MIN
        self.position = int(position)
        return self

    def __repr__(self):
        return (
            f"UniformStream(seed={self.seed}, index={self.index}, "
            f"position={self.position})"
        )


def geometric_half(stream) -> int:
    """Draw G >= 1 with P(G = k) = 2^-k.

    Uses G = ceil(-ln(U) / ln 2).  A uniform equal to 0 (probability 2^-53
    per draw) is rejected and redrawn so the log is always defined and the
    geometric law is exact.
    """
    u = stream.next_uniform()
    while u == 0.0:
        u = stream.next_uniform()
    return _geometric(u)


def _geometric(u: float) -> int:
    """ceil(-ln(u) / ln 2) for a uniform u > 0."""
    return math.ceil(-math.log(u) / _LN2)


def _geometric_array(u: np.ndarray) -> np.ndarray:
    """:func:`_geometric` of each element of ``u`` (all > 0), bit for bit.

    numpy's vectorized log differs from libm's in the last bit for some
    inputs.  That moves -ln(u) / ln 2 by far less than 1e-9, so it can only
    change the ceiling where the quotient is that close to an integer; those
    elements are recomputed with libm.
    """
    q = -np.log(u) / _LN2
    g = np.ceil(q).astype(np.int64)
    for i in np.flatnonzero(np.abs(q - np.rint(q)) < 1e-9):
        g[i] = _geometric(float(u[i]))
    return g


def _mulhi(a, m_lo, m_hi, t, w, out):
    """out = high 64 bits of the 128-bit products a * m, in 32-bit halves.

    ``a`` is a uint64 array, ``m_lo``/``m_hi`` the halves of the constant
    multiplier m; ``t`` and ``w`` are scratch arrays shaped like ``a``.
    """
    np.bitwise_and(a, _LOW32, out=w)  # a_lo
    np.multiply(w, m_lo, out=t)
    t >>= _SHIFT32  # carry out of a_lo * m_lo
    w *= m_hi  # a_lo * m_hi
    np.right_shift(a, _SHIFT32, out=out)  # a_hi
    t += out * m_lo  # a_hi * m_lo + carry: cannot overflow
    out *= m_hi  # a_hi * m_hi
    out += t >> _SHIFT32
    t &= _LOW32
    w += t  # cannot overflow either
    w >>= _SHIFT32
    out += w
    return out


def philox_block(seed: int, index, block) -> np.ndarray:
    """Uniforms ``4 * block .. 4 * block + 3`` of substreams ``(seed, index)``.

    ``index`` is an array of substream indices and ``block`` a block number
    (a scalar, or an array shaped like ``index``).  Returns a
    ``(4, len(index))`` float64 array whose row ``w`` holds uniform
    ``4 * block + w`` of each substream: bit for bit what
    :class:`UniformStream` draws there, because this is the same
    Philox4x64-10 with key ``(seed, index)`` and counter
    ``(block + 1, 0, 0, 0)``, evaluated for all keys at once.
    """
    k1 = np.array(index, dtype=np.uint64)
    k0 = int(seed) & _MASK64
    n = len(k1)
    x0 = np.empty(n, dtype=np.uint64)
    x0[:] = np.asarray(block, dtype=np.uint64) + np.uint64(1)
    x1, x2, x3 = (np.zeros(n, dtype=np.uint64) for _ in range(3))
    h0, h1, t, w = (np.empty(n, dtype=np.uint64) for _ in range(4))
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    m0_lo, m0_hi = np.uint64(m0 & 0xFFFFFFFF), np.uint64(m0 >> 32)
    m1_lo, m1_hi = np.uint64(m1 & 0xFFFFFFFF), np.uint64(m1 >> 32)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k1 += np.uint64(w1)
        _mulhi(x0, m0_lo, m0_hi, t, w, h0)
        _mulhi(x2, m1_lo, m1_hi, t, w, h1)
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
        h1 ^= x1
        h1 ^= np.uint64((k0 + r * w0) & _MASK64)
        np.multiply(x2, np.uint64(m1), out=x1)
        h0 ^= x3
        h0 ^= k1
        np.multiply(x0, np.uint64(m0), out=x3)
        x0, h1 = h1, x0
        x2, h0 = h0, x2
    out = np.empty((4, n))
    for row, x in enumerate((x0, x1, x2, x3)):
        out[row] = x >> _SHIFT11
    out *= _TWO_M53
    return out


class BlockCache:
    """Uniforms of substreams ``(seed, index[r])`` at per-row positions,
    holding one block per row: a row's :func:`philox_block` is computed only
    when its position leaves the block it holds."""

    __slots__ = ("seed", "index", "_held", "_words")

    def __init__(self, seed: int, index: np.ndarray):
        self.seed = seed
        self.index = index
        self._held = np.full(index.size, -1)
        self._words = np.empty((4, index.size))

    def take(self, rows: np.ndarray, pos) -> np.ndarray:
        """Uniform ``pos`` of each row in ``rows`` (``pos`` a scalar, or an
        array shaped like ``rows``)."""
        block, word = np.divmod(pos, 4)
        stale = self._held[rows] != block
        if stale.any():
            s, b = rows[stale], (block[stale] if np.ndim(block) else block)
            self._words[:, s] = philox_block(self.seed, self.index[s], b)
            self._held[s] = b
        return self._words[word, rows]
