"""Per-layer spans and work counts, recorded from outside the program.

``Tracer.install`` replaces every reference that one ``exptaylor`` module
holds to a function defined in another ``exptaylor`` module (for example
``series1d``'s ``_lift_1d_array``) with a wrapper that records a span
attributed to the defining module.  Calls inside one module are not
wrapped, so their time counts toward that module.  Method calls (such as
``StirlingTable.value``) count toward their caller.

A layer's self time is its spans' duration minus the time of the spans they
contain.  Work counts are taken by hooks on named functions; a hooked
function that the program no longer has, or whose arguments changed, is
reported as absent and never stops the run.  Spans stay in memory until
``write`` dumps them.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "exptaylor"
LAYERS = ("cli", "expr", "jet", "operators", "stirling", "series1d", "seriesnd", "identities")


def _size(a) -> int:
    return int(np.size(a))


def _lift_1d(t, a, result):
    points = _size(a["centers"])
    t.lifted(points, points * (a["order"] + 1))


def _lift_single(t, a, result):
    dims = a["ast"].dims
    t.lifted(1, math.comb(a["order"] + dims, dims))


def _lift_nd(t, a, result):
    points = int(np.shape(a["centers"])[0])
    dims = a["ast"].dims
    t.lifted(points, points * math.comb(a["order"] + dims, dims))


def _cascade(t, a, result):
    t.counts["operators.stage_values"] += _size(result)


def _field(t, a, result):
    t.counts["operators.stage_values"] += len(result.values)


def _build_table(t, a, result):
    n_max = a["n_max"]
    t.counts["stirling.table_builds"] += 1
    t.counts["stirling.table_rebuilds"] += n_max in t.tables_built
    t.tables_built.add(n_max)


def _ratio_rows(t, a, result):
    t.counts["stirling.ratio_cells"] += (a["k_max"] + 1) * (a["j_max"] + 1)


def _remainder_bound(t, a, result):
    t.counts["series1d.grid_evals"] += a["grid"]
    t.counts["series1d.quad_evals"] += a["quad_nodes"]


def _growth(t, a, result):
    t.counts["series1d.grid_evals"] += a["grid"]


def _expand_nd(t, a, result):
    t.counts["seriesnd.coeffs"] += len(result.coeffs)


def _run_suite(t, a, result):
    t.counts["identities.terms"] += sum(r.terms_used for r in result)


# hooks run after the call, with the bound arguments and the result
HOOKS = {
    "jet._lift_1d_array": _lift_1d,
    "jet.lift": _lift_single,
    "jet.lift_nd": _lift_single,
    "jet._lift_nd_arrays": _lift_nd,
    "operators.cascade_values": _cascade,
    "operators.d_lambda_nd": _field,
    "operators.nd_stage_value": _cascade,
    "stirling.build_table": _build_table,
    "stirling.build_ratio_rows": _ratio_rows,
    "series1d.remainder_bound": _remainder_bound,
    "series1d.growth_diagnostic": _growth,
    "seriesnd.expand_nd": _expand_nd,
    "identities.run_suite": _run_suite,
}
# points lifted inside this span are the n-D bound's sample points
SAMPLING = {"seriesnd.remainder_bound_nd"}

COUNTS = (
    "jet.points",
    "jet.coeffs",
    "operators.stage_values",
    "stirling.table_builds",
    "stirling.ratio_cells",
    "series1d.grid_evals",
    "series1d.quad_evals",
    "seriesnd.sample_points",
    "seriesnd.coeffs",
    "cli.bytes_out",
    "identities.terms",
)


class Tracer:
    """Spans and counters for one traced run; install, run ops, uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, layer, name, start, end, error)
        self.stack: list[list] = []  # [span id, time of child spans]
        self.self_s = Counter()
        self.calls = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.batch_sizes = Counter()
        self.tables_built: set[int] = set()
        self.absent: set[str] = set()
        self.op = -1
        self._patched: list[tuple] = []
        self._sampling_depth = 0

    # -- counters used by hooks
    def lifted(self, points: int, coeffs: int) -> None:
        self.counts["jet.points"] += points
        self.counts["jet.coeffs"] += coeffs
        self.counts["jet.lifts"] += 1
        self.batch_sizes[points] += 1
        if self._sampling_depth:
            self.counts["seriesnd.sample_points"] += points

    # -- installation
    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items() if name.startswith(PACKAGE + ".")}
        for modname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None)
                if not inspect.isfunction(obj) or home == modname or home not in mods:
                    continue
                key = f"{home.split('.', 1)[1]}.{obj.__name__}"
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(obj, key))
        for key in (*HOOKS, *SAMPLING):
            home, name = key.split(".")
            if not inspect.isfunction(getattr(mods.get(f"{PACKAGE}.{home}"), name, None)):
                self.absent.add(key)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def wrap(self, fn, key: str):
        layer = key.split(".", 1)[0]
        hook = HOOKS.get(key)
        sampling = key in SAMPLING
        sig = inspect.signature(fn) if hook else None

        def span(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append([sid, 0.0])
            self.spans.append(None)  # reserve the id; filled in below
            self._sampling_depth += sampling
            failed = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                _, child = self.stack.pop()
                self._sampling_depth -= sampling
                self.spans[sid] = (sid, parent, self.op, layer, key, start, end, failed)
                self.calls[layer] += 1
                self.self_s[layer] += end - start - child
                self.errors[layer] += failed
                if self.stack:
                    self.stack[-1][1] += end - start
            if hook is not None and key not in self.absent:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
                except (KeyError, TypeError, AttributeError):
                    self.absent.add(key)  # the function's signature changed
            return result

        return span

    # -- output
    def write(self, path) -> None:
        fields = ["id", "parent", "op", "layer", "name", "start", "end", "error"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
