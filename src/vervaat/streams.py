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
bits and scaled by 2^-53.  That is a pure function of the key and the
position, which the compiled per-row loop of ``engine.sample_many``
(``_kernel.c``) computes too, bit for bit equal to :class:`UniformStream`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, Philox

_LN2 = math.log(2.0)
_MASK64 = (1 << 64) - 1
_BLOCK_MIN = 64
_BLOCK_MAX = 4096


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
        self._gen = Generator(Philox(key=np.array([self.seed, self.index], dtype=np.uint64)))
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
            self._gen.random(out=out[take:])  # drawn in place: no temporary
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
    per draw) is rejected and redrawn so the log is always defined.  The law
    is not quite exact: at U = 2^-j for j in {29, 31, 39, 47, 51} the rounded
    quotient gives j + 1 where the law gives j, 5 * 2^-53 of mass per draw
    (ROADMAP item 17).  ``_kernel.c`` computes the same G.
    """
    u = stream.next_uniform()
    while u == 0.0:
        u = stream.next_uniform()
    return math.ceil(-math.log(u) / _LN2)
