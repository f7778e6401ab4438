"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-check lines;
each test prints an explicit PASS/FAIL line as well (visible with ``-s``).
"""

import json
import math

import numpy as np
import pytest

from exptaylor import cli
from exptaylor.errors import DiagnosticError, ValidationError
from exptaylor.expr import eval_complex, parse
from exptaylor.identities import (
    cosine_series,
    linear_series,
    log_series,
    stirling_log2_series,
)
from exptaylor.jet import lift
from exptaylor.operators import cascade_values, stage_tensor
from exptaylor.series1d import (
    radius_estimate,
    remainder_bound,
)
from exptaylor.seriesnd import evaluate, expand, multi_indices, remainder_bound_nd
from exptaylor.stirling import build_ratio_rows, build_table

TWO_PI_I = 2j * math.pi

# test functions with their lambdas; the flag marks periodic cases, which
# stay inside the guaranteed-convergence region
FUNCTIONS = [
    ("cos(2*pi*x)", TWO_PI_I, True),
    ("x", TWO_PI_I, False),
    ("x^2", TWO_PI_I, False),
    ("exp(x)", 1.0, False),
    ("exp(2*x)", 1.0, False),
    ("sin(x) + x^3", TWO_PI_I, False),
]


def check(label: str, ok: bool) -> None:
    print(("PASS " if ok else "FAIL ") + label)
    assert ok, label


def run_main(capsys, *argv):
    """``cli.main`` in this process: (exit code, stdout).  ``test_cli.py`` launches
    the process for what only a process shows."""
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_01_operator_paths_agree():
    # recursive cascade vs Stirling form, N <= 12; near-zero entries are
    # compared against the roundoff scale of the cancelling Stirling sum
    table = build_table(12)
    ok = True
    for src, lam, _ in FUNCTIONS:
        jet = lift(parse(src), 0.0, 12)
        a = cascade_values(jet.coeffs, lam, 12)
        b = stage_tensor(jet.coeffs, lam)
        absc = np.abs(jet.coeffs)
        inv = 1.0 / abs(lam)
        for j in range(13):
            if j == 0:
                scale = float(absc[0])
            else:
                scale = sum(
                    abs(table.value(j, m)) * inv**m * math.factorial(m) * float(absc[m])
                    for m in range(1, j + 1)
                )
            tol = max(1e-9 * max(abs(a[j]), abs(b[j])), 1e-12 * scale)
            ok = ok and abs(a[j] - b[j]) <= tol
    check("1 operator recursion and Stirling form agree (N <= 12)", ok)


def test_02_cosine_coefficients():
    e = expand(parse("cos(2*pi*x)"), TWO_PI_I, (0.0,), 8)
    ok = abs(e.coeffs[0] - 1.0) <= 1e-10 and abs(e.coeffs[1]) <= 1e-10
    for j in range(2, 8):
        ok = ok and abs(e.coeffs[j] - (-1.0) ** j * 0.5) <= 1e-10
    check("2 cosine expansion coefficients 1, 0, +-1/2 within 1e-10", ok)


def test_03_series_plus_remainder_reconstructs():
    ok = True
    for src, lam, periodic in FUNCTIONS:
        ast = parse(src)
        xs = [0.05, -0.05, 0.1, -0.1] + ([] if periodic else [0.3])
        for order in range(1, 11):
            e = expand(ast, lam, (0.0,), order)
            for x in xs:
                est = remainder_bound(ast, lam, 0.0, x, order, grid=513, quad_nodes=64)
                recon = abs(evaluate(e, (x,)) + est.integral_value - eval_complex(ast, x))
                ok = ok and recon <= 1e-9
    check("3 series + integral remainder reconstructs within 1e-9", ok)


def test_04_remainder_bounds_dominate():
    ok = True
    for src, lam, periodic in FUNCTIONS:
        ast = parse(src)
        xs = [0.05, -0.05, 0.1, -0.1] + ([] if periodic else [0.3])
        for order in range(1, 11):
            for x in xs:
                est = remainder_bound(ast, lam, 0.0, x, order, grid=513, quad_nodes=64)
                ok = ok and abs(est.integral_value) <= 1.01 * est.bound_tight
                ok = ok and 1.01 * est.bound_tight <= 1.02 * est.bound_loose
    check("4 |remainder| <= 1.01 tight bound <= 1.02 loose bound", ok)


def test_05_radius_and_halfwidth():
    rep = radius_estimate(parse("cos(2*pi*x)"), TWO_PI_I, 0.0)
    ok = 0.95 <= rep.r_estimate <= 1.05
    ok = ok and abs(rep.x_region_halfwidth - 1.0 / 6.0) <= 0.01
    check("5 cosine radius in [0.95, 1.05], half-width within 0.01 of 1/6", ok)


def test_06_identity_tolerances():
    ok = log_series(2, 60).abs_error <= 1e-12
    ok = ok and log_series(5, 200).abs_error <= 1e-10
    ok = ok and stirling_log2_series(2, True, 60).abs_error <= 1e-10
    ok = ok and stirling_log2_series(2, False, 100000).abs_error <= 1e-4
    ok = ok and cosine_series(0.1, 60).abs_error <= 1e-10
    ok = ok and linear_series(0.1, 80).abs_error <= 1e-8
    check("6 identity suite hits its stated error levels", ok)


def test_07_terminating_exponential():
    ast = parse("exp(x)")
    e = expand(ast, 1.0, (0.0,), 16)
    ok = all(abs(c) <= 1e-13 for c in e.coeffs[2:])
    e2 = expand(ast, 1.0, (0.0,), 2)
    for x in np.linspace(-1.0, 1.0, 41):
        ok = ok and abs(evaluate(e2, (float(x),)) - math.exp(float(x))) <= 1e-12
    check("7 exp(x) at lam=1 terminates after two terms (1e-12 on [-1,1])", ok)


def test_08_multivariate_expansion():
    ast2 = parse("cos(2*pi*x1) * cos(2*pi*x2)", 2)
    e2 = expand(ast2, TWO_PI_I, (0.0, 0.0), 10)
    e1 = expand(parse("cos(2*pi*x)"), TWO_PI_I, (0.0,), 10)
    ok = True
    for g1, g2 in multi_indices(2, 10):
        ref = e1.coeffs[g1] * e1.coeffs[g2]
        ok = ok and abs(e2.coeffs[g1, g2] - ref) <= 1e-9 * max(abs(ref), 1e-3)
    true = math.cos(0.1 * math.pi) ** 2
    e8 = expand(ast2, TWO_PI_I, (0.0, 0.0), 8)
    measured = abs(evaluate(e8, (0.05, 0.05)) - true)
    bound = remainder_bound_nd(ast2, 2, TWO_PI_I, (0.0, 0.0), (0.05, 0.05), 8, grid=33).bound_loose
    ok = ok and measured <= 1.02 * bound
    errs = []
    for order in range(2, 13):
        eN = expand(ast2, TWO_PI_I, (0.0, 0.0), order)
        errs.append(abs(evaluate(eN, (0.05, 0.05)) - true))
    for a, b in zip(errs, errs[1:]):
        ok = ok and b <= 0.95 * a
    check("8 product-cosine coefficients factor; bound and decay hold", ok)


def test_09_stirling_table_invariants():
    table = build_table(64)
    ok = True
    for n in range(64):
        for k in range(n + 2):
            lhs = table.value(n + 1, k)
            rhs = (table.value(n, k - 1) if k >= 1 else 0) - n * table.value(n, k)
            ok = ok and lhs == rhs
    for n in range(2, 65):
        row = table.row(n)
        ok = ok and sum(row) == 0
        ok = ok and sum(abs(v) for v in row) == math.factorial(n)
    rows = build_ratio_rows(4, 64)
    for k in range(1, 5):
        for j in range(k, 65):
            exact = abs(table.value(j, k)) / math.factorial(j)
            got = rows[k][j]
            ok = ok and (exact == got == 0.0 or abs(got - exact) <= 1e-12 * exact)
    check("9 Stirling table recurrence, row sums, and float rows (n <= 64)", ok)


def test_10_cli_determinism_and_exit_codes(capsys):
    cases = [
        ("expand", "--fn", "cos(2*pi*x)", "--lambda", "0+6.283185307179586i",
         "--order", "6", "--format", "json"),
        ("eval", "--fn", "cos(2*pi*x)", "--lambda", "0+6.283185307179586i",
         "--x", "0.1", "--order", "6", "--grid", "65", "--quad-nodes", "32",
         "--format", "json"),
        ("sweep", "--fn", "x", "--lambda", "0+6.283185307179586i",
         "--order", "4", "--x-range", "0:0.1:3", "--grid", "33",
         "--quad-nodes", "16"),
        ("radius", "--fn", "cos(2*pi*x)", "--lambda", "0+6.283185307179586i",
         "--j-max", "16", "--window", "4", "--format", "json"),
        ("growth", "--fn", "cos(2*pi*x)", "--lambda", "0+6.283185307179586i",
         "--n-max", "6", "--grid", "65", "--format", "json"),
        ("nd", "--fn", "x1*x2", "--dims", "2", "--lambda",
         "0+6.283185307179586i", "--x", "0.05,0.05", "--order", "4",
         "--grid", "9", "--seed", "3", "--format", "json"),
        ("identities", "--suite", "log_k2_J60,stirling_k1_weighted_J60",
         "--format", "csv"),
    ]
    ok = True
    for argv in cases:
        a = run_main(capsys, *argv)
        b = run_main(capsys, *argv)
        ok = ok and a[0] == 0 and b[0] == 0
        ok = ok and a[1] == b[1]
    codes = {
        1: run_main(capsys, "radius", "--fn", "exp(x)", "--lambda", "1", "--j-max", "24"),
        2: run_main(capsys, "eval", "--fn", "log(x)", "--lambda", "1", "--x0", "1",
                    "--x", "-0.5"),
        3: run_main(capsys, "identities", "--suite", "log_k2_J60",
                    "--tol-override", "log_k2_J60=1e-30"),
    }
    for expected, (code, _) in codes.items():
        ok = ok and code == expected
    with capsys.disabled():  # the PASS line, past the capture of the CLI's output
        check("10 CLI byte-identical reruns; exit codes 0/1/2/3 exercised", ok)
