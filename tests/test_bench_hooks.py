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
# deleted with the n-D big-integer stage sums (now operators.stage_tensor/stage_rows), and
# with the n-D expander (now seriesnd.expand, for 1 to 4 variables)
ALREADY_ABSENT = {"operators.d_lambda_nd", "operators.nd_stage_value", "seriesnd.expand_nd"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_names_a_function():
    tracer = load_tracer()
    for key in (*tracer.HOOKS, *tracer.SAMPLING):
        if key in ALREADY_ABSENT:
            continue
        home, name = key.split(".")
        module = importlib.import_module(f"exptaylor.{home}")
        assert inspect.isfunction(getattr(module, name, None)), key


def test_lift_hooks_read_ast_centers_order():
    for fn in (jet._lift_1d_array, jet._lift_nd_arrays):
        assert list(inspect.signature(fn).parameters)[:3] == ["ast", "centers", "order"]


# series1d and the tracer's hooks index lifted jets and stage values by their
# last axis and count points by the centers' size, whatever the storage order
@pytest.mark.parametrize("shape", [(1,), (577,), (3, 5)])
def test_lift_and_cascade_shapes(shape):
    centers = np.linspace(0.1, 0.9, int(np.prod(shape))).reshape(shape)
    coeffs = jet._lift_1d_array(parse("sin(x)/(2+x)"), centers, 9)
    assert coeffs.shape == shape + (10,)
    assert cascade_values(coeffs, 2j, 6).shape == shape + (7,)
    assert cascade_values(coeffs[(0,) * len(shape)], 2j, 9).shape == (10,)
