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
from .jet import Jet1D, JetND, lift, lift_nd
from .operators import cascade_values, d_lambda_stirling, stage_rows, stage_tensor
from .series1d import (
    ConvergenceReport,
    Expansion1D,
    GrowthReport,
    RemainderEstimate,
    epsilon_sup,
    eval_series,
    expand_1d,
    growth_diagnostic,
    radius_estimate,
    remainder_bound,
    remainder_bounds,
)
from .seriesnd import (
    ExpansionND,
    NdConvergenceReport,
    convergence_check_nd,
    eval_nd,
    expand_nd,
    multi_index_factorial,
    multi_indices,
    multi_indices_of_degree,
    remainder_bound_nd,
)
from .stirling import (
    StirlingRatioRow,
    StirlingTable,
    build_ratio_rows,
    build_table,
    ratio_rows,
    stage_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "DiagnosticError",
    "DomainError",
    "ExpTaylorError",
    "Expansion1D",
    "ExpansionND",
    "ExprAst",
    "GrowthReport",
    "IdentityResult",
    "Jet1D",
    "JetND",
    "NdConvergenceReport",
    "ParseError",
    "RemainderEstimate",
    "StirlingRatioRow",
    "StirlingTable",
    "ValidationError",
    "build_ratio_rows",
    "build_table",
    "cascade_values",
    "convergence_check_nd",
    "cosine_series",
    "d_lambda_stirling",
    "epsilon_sup",
    "eval_complex",
    "eval_nd",
    "eval_series",
    "expand_1d",
    "expand_nd",
    "growth_diagnostic",
    "lift",
    "lift_nd",
    "linear_series",
    "log_series",
    "multi_index_factorial",
    "multi_indices",
    "multi_indices_of_degree",
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
    "suite_names",
    "to_source",
]
