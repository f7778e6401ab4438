"""The benchmark tracer's hooks still name functions of the program.

``bench/tracer.py`` wraps functions by name and reports a hook whose name
or arguments changed as absent, then runs on without it.  These tests read
its hook table, so such a loss fails here instead of thinning the
benchmark's per-layer counts.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from exptaylor import jet
from exptaylor.expr import parse
from exptaylor.operators import cascade_values

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# deleted with the n-D big-integer stage sums (now operators.stage_tensor/stage_rows), with
# the n-D expander (now seriesnd.expand, for 1 to 4 variables), with the n-D jet (now
# jet.lift, for 1 to 4 variables), and with the exact Stirling table and the ratio-row list,
# which nothing but the tests called (stage_matrix runs its own recurrence; the identities
# stream stirling.ratio_rows)
ALREADY_ABSENT = {
    "operators.d_lambda_nd",
    "operators.nd_stage_value",
    "seriesnd.expand_nd",
    "jet.lift_nd",
    "stirling.build_table",
    "stirling.build_ratio_rows",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_names_a_function():
    tracer = load_tracer()
    assert ALREADY_ABSENT <= {*tracer.HOOKS, *tracer.SAMPLING}
    for key in (*tracer.HOOKS, *tracer.SAMPLING):
        home, name = key.split(".")
        found = getattr(importlib.import_module(f"exptaylor.{home}"), name, None)
        # listed if and only if absent: a stale entry would hide a hooked function that came back
        assert (found is None) == (key in ALREADY_ABSENT), key
        assert found is None or inspect.isfunction(found), key


def test_lift_hooks_read_ast_centers_order():
    for fn in (jet._lift_1d_array, jet._lift_nd_arrays):
        assert list(inspect.signature(fn).parameters)[:3] == ["ast", "centers", "order"]
    # the single-lift hook reads the expression and the order
    assert list(inspect.signature(jet.lift).parameters)[:3] == ["ast", "center", "order"]


# series1d and the tracer's hooks index lifted jets and stage values by their
# last axis and count points by the centers' size, whatever the storage order
@pytest.mark.parametrize("shape", [(1,), (577,), (3, 5)])
def test_lift_and_cascade_shapes(shape):
    centers = np.linspace(0.1, 0.9, int(np.prod(shape))).reshape(shape)
    coeffs = jet._lift_1d_array(parse("sin(x)/(2+x)"), centers, 9)
    assert coeffs.shape == shape + (10,)
    assert cascade_values(coeffs, 2j, 6).shape == shape + (7,)
    assert cascade_values(coeffs[(0,) * len(shape)], 2j, 9).shape == (10,)
