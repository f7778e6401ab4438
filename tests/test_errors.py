"""The integer-argument messages of every public entry point, pinned word for word."""

import numpy as np
import pytest

from exptaylor.errors import ValidationError, check_int
from exptaylor.expr import parse
from exptaylor.identities import cosine_series, linear_series, log_series, stirling_log2_series
from exptaylor.jet import lift
from exptaylor.series1d import growth_diagnostic, remainder_bound, remainder_bounds
from exptaylor.seriesnd import expand, multi_indices, remainder_bound_nd
from exptaylor.stirling import ratio_rows, stage_matrix

X, X12 = parse("x"), parse("x1*x2", dims=2)

# (the message with ``{}`` for the value's repr, the entry point called with the value, an out-of-range
# value, a value that is not an int)
CASES = {
    "cosine_J": ("J must be an integer in [2, 1000000], got {}", lambda v: cosine_series(0.1, v), 1, 2.0),
    "linear_J": ("J must be an integer in [1, 1000000], got {}", lambda v: linear_series(0.1, v), 10**6 + 1, "3"),
    "log_k": ("k must be an integer >= 2, got {}", lambda v: log_series(v, 5), 1, 2.0),
    "log_J": ("J must be an integer in [1, 1000000], got {}", lambda v: log_series(2, v), 0, None),
    "stirling_k": ("k must be an integer in [1, 4], got {}", lambda v: stirling_log2_series(v, True, 8), 5, 1.0),
    "stirling_J": ("J must be an integer in [2, 999999], got {}", lambda v: stirling_log2_series(2, True, v), 1,
                   np.int64(8)),
    "stirling_J_top": ("J must be an integer in [1, 999999], got {}", lambda v: stirling_log2_series(1, True, v),
                       10**6, 3.0),
    "lift_order": ("jet order must be an integer in [0, 64], got {}", lambda v: lift(X, (0.0,), v), 65, 3.0),
    "lift_nd_order": ("jet order must be an integer in [0, 16], got {}", lambda v: lift(X12, (0, 0), v), 17,
                      np.int64(2)),
    "expand_order": ("order must be an integer in [1, 64], got {}", lambda v: expand(X, 1, (0.0,), v), 0, 4.0),
    "bounds_order": ("order must be an integer in [1, 64], got {}", lambda v: remainder_bounds(X, 1, 0, [0.5], [v]),
                     65, 4.0),
    "quad_nodes": ("quad_nodes must be an integer in [2, 1024], got {}",
                   lambda v: remainder_bound(X, 1, 0.0, 0.5, 3, quad_nodes=v), 1025, 64.0),
    "growth_n_max": ("n_max must be an integer in [1, 32], got {}", lambda v: growth_diagnostic(X, 1, 1.0, n_max=v),
                     33, 16.0),
    "growth_grid": ("grid must be an integer >= 2, got {}", lambda v: growth_diagnostic(X, 1, 1.0, grid=v), 1, 9.0),
    "nd_order": ("order must be an integer in [1, 16], got {}", lambda v: expand(X12, 1, (0, 0), v), 17, 3.0),
    "nd_bound_order": ("order must be an integer in [1, 16], got {}",
                       lambda v: remainder_bound_nd(X12, 1, (0, 0), (0.1, 0.1), v), 0, 3.0),
    "nd_grid": ("grid must be an integer >= 3, got {}",
                lambda v: remainder_bound_nd(X12, 1, (0, 0), (0.1, 0.1), 3, grid=v), 2, 33.0),
    "multi_indices_n": ("n must be an integer in [1, 4], got {}", lambda v: multi_indices(v, 3), 5, 2.0),
    "multi_indices_order": ("order must be an integer in [1, 64], got {}", lambda v: multi_indices(2, v), 65, 3.0),
    "matrix_k_max": ("k_max must be an integer in [0, 64], got {}", lambda v: stage_matrix(v), 65, 4.0),
    "ratio_k_max": ("k_max must be an integer in [1, 8], got {}", lambda v: next(ratio_rows(v, 10)), 9, 2.0),
    "ratio_j_max": ("j_max must be an integer in [2, 1000000], got {}", lambda v: next(ratio_rows(2, v)), 1, 10.0),
}


@pytest.mark.parametrize("which", ["out_of_range", "not_an_int"])
@pytest.mark.parametrize("name", CASES)
def test_integer_argument_messages(name, which):
    message, call, out_of_range, not_an_int = CASES[name]
    value = out_of_range if which == "out_of_range" else not_an_int
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert str(exc.value) == message.format(repr(value))


def test_check_int_takes_a_bool_and_refuses_a_numpy_integer():
    check_int("flag", True, 0, 1)
    with pytest.raises(ValidationError) as exc:
        check_int("k", np.int64(1), 0)
    assert str(exc.value) == f"k must be an integer >= 0, got {np.int64(1)!r}"
