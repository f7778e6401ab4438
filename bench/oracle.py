"""Output oracle: every op's stdout is checked against independent values.

Tolerances follow the repository's acceptance tests, never observed errors:

* a printed value agrees with its reference to ``REL`` relative, or to
  ``SCALE`` times the roundoff scale of the Stirling sum that produces it
  (the criterion of ``tests/test_acceptance.py::test_01``);
* ``abs_error <= 1.01 * bound_tight`` and ``bound_tight <= 1.02 * bound_loose``
  (``test_04``), and ``abs_error <= 1.02 * bound`` in n dimensions
  (``test_08``), each plus the rounding floor of the quantities involved;
* function values agree to ``VALUE_REL`` relative, a few ulps of each
  elementary operation.

The reference values come from ``reference.py``, which shares no algorithm
with the program.  Sampled bounds are recomputed on the program's documented
grid from reference stage values.  Coefficients of non-separable n-D
functions and the n-D bound have no reference here; they are checked through
the value at the center, the series value at the point, and the relations
above.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

import reference as R

EPS = float(np.finfo(np.float64).eps)
REL = 1e-9
SCALE = 1e-12
VALUE_REL = 1e-12
GRID_1D = 513  # default sampling grid of eval and sweep
GRID_GROWTH = 257  # default sampling grid of growth


class Mismatch(Exception):
    """An output that disagrees with its reference."""


def _require(ok, what: str) -> None:
    if not bool(np.all(ok)):
        raise Mismatch(what)


def _cx(d: dict) -> complex:
    return complex(d["re"], d["im"])


def check(op, code: int, out: str) -> str | None:
    """``None`` when the output is correct, otherwise the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        _CHECKS[op.kind](op, out)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None


# ---- 1-D helpers --------------------------------------------------------------


def _facts(n: int) -> np.ndarray:
    return np.array([math.factorial(j) for j in range(n + 1)], dtype=np.float64)


def _series_ref(fn, lam, x0, order, xs):
    """Partial sums ``S_N(x)`` for ``N = 1..order`` at each x, with their floors.

    Returns arrays of shape ``(len(xs), order)``: column ``N-1`` holds the
    sum of the first ``N`` terms.  The floor allows ``SCALE`` times the
    coefficients' roundoff scale plus Horner rounding on every term.
    """
    c = R.coefficients(fn, lam, [x0], order - 1)[0]
    sc = R.roundoff_scales(fn, lam, [x0], order - 1)[0] / _facts(order - 1)
    w = np.exp(lam * (np.asarray(xs) - x0)) - 1.0
    pows = w[:, None] ** np.arange(order)
    sums = np.cumsum(c * pows, axis=1)
    err_terms = (SCALE * sc + 4 * order * EPS * np.abs(c)) * np.abs(pows)
    return sums, np.cumsum(err_terms, axis=1)


def _bounds_ref(fn, lam, x0, x, orders):
    """Reference ``bound_tight``, ``bound_loose`` and their floors, per order.

    The program samples stage ``N`` on ``GRID_1D`` equally spaced points of
    the segment from ``x0`` to ``x``; the same points are used here.
    """
    s = np.linspace(0.0, 1.0, GRID_1D)
    dx = x - x0
    top = max(orders)
    v = R.stage_values(fn, lam, x0 + s * dx, top)
    sc = R.roundoff_scales(fn, lam, x0 + s * dx, top)
    eps = R.epsilon_sup(lam, abs(dx))
    base = np.abs(np.exp(lam * (1.0 - s) * dx) - 1.0)
    out = []
    for N in orders:
        prefix = abs(lam) / math.factorial(N - 1) * abs(dx)
        fac = base ** (N - 1)
        tight = prefix * np.max(np.abs(v[:, N]) * fac)
        tight_floor = 2 * SCALE * prefix * np.max(sc[:, N] * fac)
        loose = prefix * np.max(np.abs(v[:, N])) * eps ** (N - 1)
        loose_floor = 2 * SCALE * prefix * np.max(sc[:, N]) * eps ** (N - 1)
        out.append((tight, tight_floor, loose, loose_floor))
    return out


def _check_row(label, abs_error, bt, bl, err_ref, err_floor, bounds):
    tight, tight_floor, loose, loose_floor = bounds
    _require(abs(abs_error - err_ref) <= REL * err_ref + err_floor, f"{label}: abs_error {abs_error!r} vs reference {err_ref!r}")
    _require(abs(bt - tight) <= REL * tight + tight_floor, f"{label}: bound_tight {bt!r} vs reference {tight!r}")
    _require(abs(bl - loose) <= REL * loose + loose_floor, f"{label}: bound_loose {bl!r} vs reference {loose!r}")
    _require(abs_error <= 1.01 * bt + err_floor + tight_floor, f"{label}: abs_error {abs_error!r} > 1.01 * bound_tight {bt!r}")
    _require(bt <= 1.02 * bl + tight_floor + loose_floor, f"{label}: bound_tight {bt!r} > 1.02 * bound_loose {bl!r}")


def _check_eval(op, out):
    p = json.loads(out)
    fn, x0, x, N, lam = op.meta["fn"], op.meta["x0"], op.meta["x"], op.order, op.lam
    _require(p["check"]["passed"] is True, "eval --check did not pass")
    f = fn.value(x)
    _require(abs(_cx(p["true"]) - f) <= VALUE_REL * max(1.0, abs(f)), "true value disagrees")
    sums, floors = _series_ref(fn, lam, x0, N, [x])
    S, floor = sums[0, -1], floors[0, -1] + 4 * EPS * abs(f)
    _require(abs(_cx(p["series"]) - S) <= REL * abs(S) + floor, f"series {p['series']} vs reference {S!r}")
    bounds = _bounds_ref(fn, lam, x0, x, [N])[0]
    _check_row("eval", p["abs_error"], p["bound_tight"], p["bound_loose"], abs(f - S), floor, bounds)


def _read_csv(out: str, first: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out)))
    _require(rows[0] == [first, "abs_error", "bound_tight", "bound_loose"], f"bad CSV header {rows[0]}")
    return rows[1:]


def _check_sweep_x(op, out):
    fn, x0, lam, N = op.meta["fn"], op.meta["x0"], op.lam, op.order
    rows = _read_csv(out, "x")
    xs = np.linspace(op.meta["lo"], op.meta["hi"], op.meta["steps"])
    _require(len(rows) == len(xs), f"{len(rows)} rows, expected {len(xs)}")
    _require([float(r[0]) for r in rows] == [float(v) for v in xs], "x column disagrees with the range")
    sums, floors = _series_ref(fn, lam, x0, N, xs)
    for i, (row, x) in enumerate(zip(rows, xs)):
        f = fn.value(float(x))
        bounds = _bounds_ref(fn, lam, x0, float(x), [N])[0]
        floor = floors[i, -1] + 4 * EPS * abs(f)
        _check_row(f"x={row[0]}", float(row[1]), float(row[2]), float(row[3]), abs(f - sums[i, -1]), floor, bounds)


def _check_sweep_n(op, out):
    fn, x0, x, lam, top = op.meta["fn"], op.meta["x0"], op.meta["x"], op.lam, op.order
    rows = _read_csv(out, "N")
    _require([int(r[0]) for r in rows] == list(range(1, top + 1)), "N column disagrees with the range")
    f = fn.value(x)
    sums, floors = _series_ref(fn, lam, x0, top, [x])
    all_bounds = _bounds_ref(fn, lam, x0, x, list(range(1, top + 1)))
    for N, (row, bounds) in enumerate(zip(rows, all_bounds), start=1):
        floor = floors[0, N - 1] + 4 * EPS * abs(f)
        _check_row(f"N={N}", float(row[1]), float(row[2]), float(row[3]), abs(f - sums[0, N - 1]), floor, bounds)


# ---- pointwise ----------------------------------------------------------------


def _check_expand(op, out):
    p = json.loads(out)
    fn, x0, lam, N = op.meta["fn"], op.meta["x0"], op.lam, op.order
    got = np.array([_cx(c) for c in p["coeffs"]])
    _require(len(got) == N and [c["index"] for c in p["coeffs"]] == list(range(N)), "coefficient count")
    ref = R.coefficients(fn, lam, [x0], N - 1)[0]
    scale = R.roundoff_scales(fn, lam, [x0], N - 1)[0] / _facts(N - 1)
    bad = np.abs(got - ref) > np.maximum(REL * np.abs(ref), SCALE * scale)
    _require(~bad, f"coefficient {int(np.argmax(bad))} disagrees with reference" if bad.any() else "")


def _check_radius(op, out):
    p = json.loads(out)
    fn, x0, lam, j_max = op.meta["fn"], op.meta["x0"], op.lam, op.order
    js = [r["j"] for r in p["ratios"]]
    vals = np.array([r["value"] for r in p["ratios"]])
    _require(js == sorted(set(js)) and all(1 <= j < j_max for j in js), "ratio indices")
    v = np.abs(R.stage_values(fn, lam, [x0], j_max)[0])
    sc = R.roundoff_scales(fn, lam, [x0], j_max)[0]
    idx = np.array(js)
    ref = idx * v[idx] / v[idx + 1]
    rel_err = SCALE * (sc[idx] / v[idx] + sc[idx + 1] / v[idx + 1])
    _require(np.abs(vals - ref) <= (REL + rel_err) * ref, "ratio disagrees with reference")
    window = p["window"]
    r = p["r_estimate"]
    _require(len(vals) >= window and r == float(np.max(vals[-window:])), "r_estimate is not the max of the window")
    T = 2.0 * math.pi / abs(lam.imag)
    half = p["x_region_halfwidth"]
    expected = math.inf if r > 2.0 else T * math.asin(r / 2.0) / math.pi
    _require(half == "inf" if expected == math.inf else abs(half - expected) <= 1e-12 * expected, "half-width")
    if fn.source.startswith("cos("):
        _require(0.95 <= r <= 1.05 and abs(half - T / 6.0) <= 0.01 * T, "cosine radius outside [0.95, 1.05]")


def _check_growth(op, out):
    p = json.loads(out)
    fn, lam, n_max, T = op.meta["fn"], op.lam, op.order, op.meta["T"]
    got = np.array([s["value"] for s in p["sup"]])
    _require([s["n"] for s in p["sup"]] == list(range(1, n_max + 1)), "sup indices")
    xs = np.linspace(0.0, T, GRID_GROWTH)
    v = np.abs(R.stage_values(fn, lam, xs, n_max))
    sc = R.roundoff_scales(fn, lam, xs, n_max)
    ref = np.max(v, axis=0)[1:]
    floor = 2 * SCALE * np.max(sc, axis=0)[1:]
    _require(np.abs(got - ref) <= REL * ref + floor, "stage sup disagrees with reference")
    f = np.array([fn.value(float(x)) for x in xs])
    gap = abs(f[0] - f[-1])
    thresh = 1e-9 * (1.0 + float(np.max(np.abs(f))))
    if gap < 0.5 * thresh or gap > 2.0 * thresh:
        _require(p["periodic_input"] == (gap <= thresh), "periodic_input flag")


# ---- multivar -----------------------------------------------------------------


def _check_nd(op, out):
    p = json.loads(out)
    fn, center, lam, K, n = op.meta["fn"], op.meta["center"], op.lam, op.order, op.dims
    idx = [tuple(c["index"]) for c in p["coeffs"]]
    got = np.array([_cx(c) for c in p["coeffs"]])
    _require(len(idx) == math.comb(K - 1 + n, n) and len(set(idx)) == len(idx), "coefficient count")
    _require(all(len(g) == n and min(g) >= 0 and sum(g) < K for g in idx), "multi-indices")
    _require(np.isfinite(got), "non-finite coefficient")
    zero = idx.index((0,) * n)
    f0 = fn.value(center)
    _require(abs(got[zero] - f0) <= VALUE_REL * max(1.0, abs(f0)), "constant term is not f(center)")
    if fn.factors is not None:
        # separable: every coefficient is a product of 1-D coefficients
        axes = [R.coefficients(g, lam, [c], K - 1)[0] for g, c in zip(fn.factors, center)]
        scales = [R.roundoff_scales(g, lam, [c], K - 1)[0] / _facts(K - 1) for g, c in zip(fn.factors, center)]
        checked = list(range(len(idx)))
        ref = [math.prod(a[i] for a, i in zip(axes, g)) for g in idx]
        scale = [math.prod(s[i] for s, i in zip(scales, g)) for g in idx]
    else:
        # otherwise the coefficients on axis i are those of f with every
        # other coordinate held at the center; mixed ones have no reference
        axes, scales = [], []
        for i, c in enumerate(center):
            g1 = fn.axis(center, i)
            axes.append(R.coefficients(g1, lam, [c], K - 1)[0])
            scales.append(R.roundoff_scales(g1, lam, [c], K - 1)[0] / _facts(K - 1))
        checked, ref, scale = [], [], []
        for k, g in enumerate(idx):
            support = [i for i, v in enumerate(g) if v]
            if len(support) <= 1:
                i = support[0] if support else 0
                checked.append(k)
                ref.append(axes[i][g[i]])
                scale.append(scales[i][g[i]])
    ref, scale = np.array(ref), np.array(scale)
    bad = np.abs(got[checked] - ref) > np.maximum(REL * np.abs(ref), SCALE * scale)
    _require(~bad, f"coefficient {idx[checked[int(np.argmax(bad))]]} disagrees with reference" if bad.any() else "")
    if "x" not in op.meta:
        _require("point" not in p, "unexpected point block")
        return
    pt = p["point"]
    x = op.meta["x"]
    f = fn.value(x)
    _require(abs(_cx(pt["true"]) - f) <= VALUE_REL * max(1.0, abs(f)), "true value disagrees")
    w = [np.exp(lam * (xi - ci)) - 1.0 for xi, ci in zip(x, center)]
    terms = np.array([math.prod(wi**gi for wi, gi in zip(w, g)) for g in idx]) * got
    S = complex(np.sum(terms))
    floor = 8 * K * n * EPS * float(np.sum(np.abs(terms))) + 4 * EPS * abs(f)
    _require(abs(_cx(pt["series"]) - S) <= REL * abs(S) + floor, "series disagrees with the printed coefficients")
    err = pt["abs_error"]
    _require(abs(err - abs(f - S)) <= REL * abs(f - S) + floor, "abs_error disagrees")
    _require(err <= 1.02 * pt["bound"] + floor, f"abs_error {err!r} > 1.02 * bound {pt['bound']!r}")


# ---- identities ---------------------------------------------------------------

_LOG2 = math.log(2.0)


def identity_target(name: str) -> float:
    """Closed-form target of a registered identity, from its name alone."""
    kind = name.split("_", 1)[0]
    if kind == "cosine":
        return math.cos(2.0 * math.pi * float(re.search(r"_x(-?[\d.]+)_", name).group(1)))
    if kind == "linear":
        return 1.0 / 6.0 if "boundary" in name else float(re.search(r"_x(-?[\d.]+)_", name).group(1))
    if kind == "log":
        return math.log(int(re.search(r"_k(\d+)_", name).group(1)))
    k = int(re.search(r"_k(\d+)_", name).group(1))
    sign = (-1) ** k if "_weighted" in name else 1
    return sign * _LOG2**k / math.factorial(k)


def _check_identities(op, out):
    results = json.loads(out)
    names = op.meta["names"]
    _require(len(results) == len(names), f"{len(results)} results for {len(names)} identities")
    for name, r in zip(names, results):
        target = identity_target(name)
        _require(r["passed"] is True and r["abs_error"] <= r["tolerance"], f"{name} failed")
        _require(abs(_cx(r["target"]) - target) <= 4 * EPS * abs(target), f"{name}: target disagrees")
        err = abs(_cx(r["computed"]) - target)
        _require(err <= r["tolerance"] + 4 * EPS * abs(target), f"{name}: computed value outside tolerance")


_CHECKS = {
    "eval": _check_eval,
    "sweep_x": _check_sweep_x,
    "sweep_n": _check_sweep_n,
    "expand": _check_expand,
    "radius": _check_radius,
    "growth": _check_growth,
    "nd": _check_nd,
    "identities": _check_identities,
}


# ---- self-check: corrupted outputs must fail ------------------------------------


def _perturb_largest_coeff(out: str) -> str | None:
    p = json.loads(out)
    coeffs = p["coeffs"]
    # n-D coefficients with more than one nonzero index may have no reference
    refd = [i for i, c in enumerate(coeffs) if not isinstance(c["index"], list) or sum(1 for v in c["index"] if v) <= 1]
    k = max(refd, key=lambda i: abs(_cx(coeffs[i])))
    c = _cx(coeffs[k])
    if abs(c) < 1e-3:
        return None
    coeffs[k]["re"] = c.real + 1e-6 * abs(c)
    return json.dumps(p, indent=2) + "\n"


def _halve_json_bound(out: str) -> str | None:
    p = json.loads(out)
    if p["bound_tight"] < 1e-8:
        return None
    p["bound_tight"] /= 2.0
    return json.dumps(p, indent=2) + "\n"


def _halve_csv_bound(out: str) -> str | None:
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    k = max(range(len(rows)), key=lambda i: float(rows[i][2]))
    if float(rows[k][2]) < 1e-8:
        return None
    rows[k][2] = repr(float(rows[k][2]) / 2.0)
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def _halve_largest_sup(out: str) -> str | None:
    p = json.loads(out)
    top = max(p["sup"], key=lambda s: s["value"])
    top["value"] /= 2.0
    return json.dumps(p, indent=2) + "\n"


def _halve_r_estimate(out: str) -> str | None:
    p = json.loads(out)
    p["r_estimate"] /= 2.0
    return json.dumps(p, indent=2) + "\n"


def _shift_identity(out: str) -> str | None:
    results = json.loads(out)
    results[0]["computed"]["re"] += 10.0 * results[0]["tolerance"]
    return json.dumps(results, indent=2) + "\n"


CORRUPTIONS = {
    "eval": (("bound halved", _halve_json_bound),),
    "sweep_x": (("bound halved", _halve_csv_bound),),
    "sweep_n": (("bound halved", _halve_csv_bound),),
    "expand": (("coefficient perturbed by 1e-6", _perturb_largest_coeff),),
    "nd": (("coefficient perturbed by 1e-6", _perturb_largest_coeff),),
    "radius": (("r_estimate halved", _halve_r_estimate),),
    "growth": (("stage sup halved", _halve_largest_sup),),
    "identities": (("computed value shifted by 10 tolerances", _shift_identity),),
}


def self_check(op, out: str) -> list[tuple[str, bool]]:
    """Corrupt a correct output; each entry is (label, rejected by the oracle)."""
    results = []
    for label, corrupt in CORRUPTIONS[op.kind]:
        bad = corrupt(out)
        if bad is not None:
            results.append((label, check(op, 0, bad) is not None))
    return results
