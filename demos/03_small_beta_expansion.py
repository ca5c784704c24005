"""The small-beta regime: nearly free perfect simulation.

As beta -> 0 the expected number of backward steps approaches 1, with the
refinement E T = 1 + (1 + o(1)) c beta where

    c = sum_{i >= 1} 2^-i ln(i + 1) ~ 1.0157,

the stationary mean of ln(D + 1) for the dominating walk (whose floor is
the same for every beta below ln(3/2)/ln 3 ~ 0.369).  This script compares
the prediction with simulation and with the exact absorbing-chain value.

Run:  python demos/03_small_beta_expansion.py
"""

import math

from vervaat import absorption_bracket, make_params, sample_many, small_beta_constant

c = small_beta_constant(1e-9)
print(f"c = {c:.9f} (series truncated once the tail bound is below 1e-9)\n")

print(f"{'beta':>7} {'1 + c*beta':>11} {'exact E T':>12} {'simulated':>20}")
for beta, n in ((0.02, 200_000), (0.05, 200_000), (0.1, 200_000),
                (0.2, 100_000), (0.369, 100_000)):
    params = make_params(beta)
    _, steps, _ = sample_many(params, n, seed=11)
    se = steps.std() / math.sqrt(n)
    bracket = absorption_bracket(params, truncation=400)
    exact = 0.5 * (bracket.lower + bracket.upper)
    print(f"{beta:>7} {1.0 + c * beta:>11.5f} {exact:>12.5f} "
          f"{steps.mean():>14.5f}+-{2 * se:.5f}")

print("\nThe linear term is exact in the limit; at finite beta the")
print("absorbing-chain value shows how small the o(1) correction is.")
