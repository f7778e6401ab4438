"""Exponential Taylor expansions.

Expand smooth functions in powers of ``exp(lam (x - x0)) - 1`` instead of
``x - x0``, with exact integral remainders, computable error bounds, and
convergence diagnostics, in one and several variables.
"""

from .errors import (
    DiagnosticError,
    DomainError,
    ExpTaylorError,
    ParseError,
    ValidationError,
)
from .expr import ExprAst, eval_complex, parse, to_source
from .identities import (
    IdentityResult,
    cosine_series,
    linear_series,
    log_series,
    run_suite,
    stirling_log2_series,
    suite_names,
)
from .jet import Jet, lift
from .operators import cascade_values, stage_rows, stage_tensor, stirling_rows
from .series1d import (
    ConvergenceReport,
    GrowthReport,
    RemainderEstimate,
    epsilon_sup,
    growth_diagnostic,
    radius_estimate,
    remainder_bound,
    remainder_bounds,
)
from .seriesnd import (
    Expansion,
    evaluate,
    expand,
    multi_indices,
    remainder_bound_nd,
)
from .stirling import ratio_rows, stage_matrix

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "DiagnosticError",
    "DomainError",
    "ExpTaylorError",
    "Expansion",
    "ExprAst",
    "GrowthReport",
    "IdentityResult",
    "Jet",
    "ParseError",
    "RemainderEstimate",
    "ValidationError",
    "cascade_values",
    "cosine_series",
    "epsilon_sup",
    "eval_complex",
    "evaluate",
    "expand",
    "growth_diagnostic",
    "lift",
    "linear_series",
    "log_series",
    "multi_indices",
    "parse",
    "radius_estimate",
    "ratio_rows",
    "remainder_bound",
    "remainder_bound_nd",
    "remainder_bounds",
    "run_suite",
    "stage_matrix",
    "stage_rows",
    "stage_tensor",
    "stirling_log2_series",
    "stirling_rows",
    "suite_names",
    "to_source",
]
