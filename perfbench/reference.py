"""Independent reference for the benchmark's correctness gate.

Written against ``numpy.random.Philox(key=(seed, i))`` directly, not against
the ``vervaat`` package.  It follows the per-sample stream-consumption order
that ``vervaat/engine.py`` documents:

1. uniforms for the geometric start ``x0 - 2 + G``, ``G = ceil(-ln U / ln 2)``
   (a zero is redrawn);
2. per backward step one uniform for the walk direction (up when above 2/3,
   else down, holding at the floor ``x0 - 1``) and one for the imputation
   (zero redrawn), mapped to ``2/3 + u/3`` for a forward up-move and to
   ``(2/3) u`` otherwise; the step coalesces once
   ``(u_imp)^(1/beta) <= 1/(1 + D)``;
3. the forward pass from the coalescence time, drawing a second driver
   ``U^(1/beta)`` only on the collapsing branch.

Row ``i`` of ``sample --beta b --seed s`` must equal ``Replayer(b, s).draw(i)`` bit for bit.
The module also recomputes every check of ``validate`` from scratch, so that
the benchmark can confirm the command's verdict rather than trust it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_TWO_THIRDS = 2.0 / 3.0
_LN2 = math.log(2.0)
_MASK64 = (1 << 64) - 1
#: Substream reserved for the series oracle of ``validate``.
ORACLE_INDEX = 1 << 62
#: Exact E[T] at beta = 1 (absorbing-chain solve, 25 digits).
DICKMAN_MEAN_STEPS = 6.079126903314678
EULER_GAMMA = 0.5772156649015329


def reference_x0(beta: float) -> int:
    """Smallest integer x0 >= 2 with (x0 - 1)/(x0 + 1) >= (2/3)^(1/beta)."""
    threshold = math.exp(math.log(_TWO_THIRDS) / beta)
    x0 = 2
    while (x0 - 1) / (x0 + 1) < threshold:
        x0 += 1
    return x0


class _Uniforms:
    """Sequential doubles of Philox substreams of one seed, counted.

    ``restart(i)`` puts the generator in the state that
    ``Philox(key=(seed, i))`` starts from; building a fresh Philox per row
    would cost about 20 us, mostly seeding work that the key makes moot.
    """

    __slots__ = ("_bitgen", "_gen", "_state", "_buf", "_i", "count")

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=(seed & _MASK64, 0))
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._buf: list[float] = []
        self._i = 0
        self.count = 0

    def restart(self, index: int) -> "_Uniforms":
        state = self._state
        state["state"]["counter"][:] = 0
        state["state"]["key"][1] = index
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bitgen.state = state
        self._buf = []
        self._i = 0
        self.count = 0
        return self

    def __call__(self) -> float:
        if self._i == len(self._buf):
            self._buf = self._gen.random(32 if self.count == 0 else 1024).tolist()
            self._i = 0
        u = self._buf[self._i]
        self._i += 1
        self.count += 1
        return u

    def nonzero(self) -> float:
        u = self()
        while u == 0.0:
            u = self()
        return u


def self_test() -> None:
    """Check that ``restart`` reproduces freshly keyed Philox streams."""
    u = _Uniforms(2**63 + 12345)
    for index in (0, 1, 77, ORACLE_INDEX):
        fresh = np.random.Generator(np.random.Philox(key=(2**63 + 12345, index)))
        u.restart(index)
        if [u() for _ in range(40)] != fresh.random(40).tolist():
            raise RuntimeError("reference stream restart diverges from Philox(key=(seed, i))")


class Draw(NamedTuple):
    """One reference row: what ``sample`` prints for it."""

    value: float
    steps: int
    d0: int


class Replayer:
    """Replays rows of ``sample --beta beta --seed seed``."""

    def __init__(self, beta: float, seed: int):
        self.beta = beta
        self.x0 = reference_x0(beta)
        self._u = _Uniforms(seed)

    def draw(self, index: int) -> Draw:
        """Row ``index`` of the sample output."""
        return _draw(self.beta, self.x0, self._u.restart(index))


def _draw(beta: float, x0: int, u: _Uniforms) -> Draw:
    inv_beta = 1.0 / beta
    floor = x0 - 1
    d0 = x0 - 2 + math.ceil(-math.log(u.nonzero()) / _LN2)
    d = d0
    imputed = []
    while True:
        d_next = d + 1 if u() > _TWO_THIRDS else max(d - 1, floor)
        v = u.nonzero()
        imputed.append(_TWO_THIRDS + v / 3.0 if d == d_next + 1 else _TWO_THIRDS * v)
        d = d_next
        if imputed[-1] ** inv_beta <= 1.0 / (1.0 + d):
            break
    x = u() ** inv_beta
    for s in range(len(imputed) - 1, 0, -1):
        w1 = imputed[s - 1] ** inv_beta
        x = u() ** inv_beta if w1 <= 1.0 / (1.0 + x) else w1 * (1.0 + x)
    return Draw(x, len(imputed), d0)


def fmt(x: float) -> str:
    """The CLI's float format: 17 significant digits."""
    return f"{x:.17g}"


def series_depth(beta: float, tol: float = 1e-9) -> int:
    """Smallest depth whose expected series tail, (EW)^(depth+1)/(1-EW), is at most tol."""
    ew = beta / (beta + 1.0)
    depth = 0
    while ew ** (depth + 1) / (1.0 - ew) > tol:
        depth += 1
    return depth


def series_batch(beta: float, depth: int, n: int, seed: int, rows: int = 65536) -> np.ndarray:
    """``n`` draws of the series truncated after ``depth`` products, on the oracle substream."""
    gen = np.random.Generator(np.random.Philox(key=(seed & _MASK64, ORACLE_INDEX)))
    out = np.empty(n)
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        w = gen.random(m * depth).reshape(m, depth) ** (1.0 / beta)
        out[lo : lo + m] = np.cumprod(w, axis=1).sum(axis=1)
    return out


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sup |F_a - F_b| over the pooled sample points."""
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def validate_checks(beta: float, n: int, seed: int, values: np.ndarray, steps: np.ndarray):
    """Every check ``validate`` reports, as {name: (statistic, threshold)}.

    ``values`` and ``steps`` are the reference rows 0..n-1 of ``seed``.
    """
    oracle = series_batch(beta, series_depth(beta), n, seed)
    checks = {
        "ks_engine_vs_oracle": (
            ks_distance(values, oracle),
            math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(2.0 / n),
        )
    }
    mean, second = beta, beta * (1.0 + 2.0 * beta) / 2.0
    checks["mean_z"] = (abs(values.mean() - mean) / (values.std() / math.sqrt(n)), 4.0)
    centered = values - values.mean()
    var = float(np.mean(centered**2))
    se_var = math.sqrt(max(float(np.mean(centered**4)) - var**2, 0.0) / n)
    checks["variance_z"] = (abs(var - (second - mean**2)) / se_var, 5.0)
    if beta == 1.0:
        tails = (
            ("steps_eq_1", steps == 1, 0.174, 0.003),
            ("steps_gt_4", steps > 4, 0.476, 0.004),
            ("steps_gt_8", steps > 8, 0.234, 0.004),
            ("steps_gt_27", steps > 27, 0.010, 0.002),
        )
        for name, hits, target, tol in tails:
            se = math.sqrt(target * (1.0 - target) / n)
            checks[name] = (abs(float(hits.mean()) - target), max(tol, 5.0 * se))
        target = math.exp(-EULER_GAMMA)
        se = math.sqrt(target * (1.0 - target) / n)
        mass = float(((values > 0.0) & (values <= 1.0)).mean())
        checks["dickman_unit_mass"] = (abs(mass - target), max(0.005, 5.0 * se))
    return checks


def small_beta_constant() -> float:
    """c = sum_{i>=1} 2^-i ln(i + 1), summed to double precision."""
    return math.fsum(0.5**i * math.log(i + 1) for i in range(1, 80))
