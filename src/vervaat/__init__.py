"""Exact sampling from Vervaat perpetuities.

A Vervaat perpetuity is the law of Y = W1 + W1 W2 + W1 W2 W3 + ... with
independent factors W = U^(1/beta); beta = 1 gives the Dickman
distribution.  This package draws *perfect* (exactly stationary) samples
from that law by dominated coupling into and from the past, and ships the
analysis tools that bound and compute the expected number of coupling
steps, together with a statistical validation harness.

Quick start::

    from vervaat import make_params, run_ciaftp, UniformStream

    params = make_params(1.0)                 # Dickman
    draw = run_ciaftp(params, UniformStream(seed=7))
    print(draw.value, draw.steps)
"""

from .engine import (
    BackwardPath,
    SampleResult,
    StepBudgetError,
    backward_extend,
    draw_initial_dominating,
    forward_reconstruct,
    run_ciaftp,
    sample_many,
)
from .oracle import (
    EULER_GAMMA,
    Check,
    TestReport,
    exact_moments,
    ks_critical_value,
    ks_two_sample,
    oracle_depth,
    truncated_sum_batch,
    truncation_bias,
    validate_run,
)
from .runtime import (
    AbsorptionBracket,
    RuntimeBounds,
    absorption_bracket,
    absorption_probabilities,
    small_beta_constant,
    supermartingale_cap,
    theorem_bounds,
)
from .streams import UniformStream, geometric_half
from .updates import (
    BETA0,
    StepBudgetWarning,
    VervaatParams,
    coupler_collapses,
    make_params,
)

__version__ = "0.1.0"

__all__ = [
    "BETA0",
    "EULER_GAMMA",
    "AbsorptionBracket",
    "BackwardPath",
    "Check",
    "RuntimeBounds",
    "SampleResult",
    "StepBudgetError",
    "StepBudgetWarning",
    "TestReport",
    "UniformStream",
    "VervaatParams",
    "absorption_bracket",
    "absorption_probabilities",
    "backward_extend",
    "coupler_collapses",
    "draw_initial_dominating",
    "exact_moments",
    "forward_reconstruct",
    "geometric_half",
    "ks_critical_value",
    "ks_two_sample",
    "make_params",
    "oracle_depth",
    "run_ciaftp",
    "sample_many",
    "small_beta_constant",
    "supermartingale_cap",
    "theorem_bounds",
    "truncated_sum_batch",
    "truncation_bias",
    "validate_run",
]
