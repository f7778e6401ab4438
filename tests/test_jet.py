"""Jet lifts vs closed-form Taylor coefficients and finite differences."""

import math
import operator
import re
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exptaylor import series1d, seriesnd
from exptaylor.errors import DiagnosticError, DomainError, ValidationError
from exptaylor.expr import BinOp, Call, Const, ExprAst, NamedConst, Neg, Var, int_exponent, parse
from exptaylor.jet import (
    Jet, _Dense, _digits, _Flat, _keys, _layout, _lift_1d_array, _lift_nd_arrays, _Sparse, lift,
)
from exptaylor.operators import cascade_values, stage_rows, stage_tensor, stirling_rows
from exptaylor.series1d import growth_diagnostic, radius_estimate, remainder_bound
from exptaylor.seriesnd import expand, remainder_bound_nd
from exptaylor.stirling import stage_matrix


TWO_PI_I = 2j * math.pi


def coeffs_of(src, x0, order):
    return lift(parse(src), (x0,), order).coeffs


# closed-form normalized Taylor coefficients, independent of the jet kernels
def exp_coeff(x0, j):
    return math.exp(x0) / factorial(j)


def sin_coeff(x0, j):
    return math.sin(x0 + j * math.pi / 2) / factorial(j)


def cos_coeff(x0, j):
    return math.cos(x0 + j * math.pi / 2) / factorial(j)


def log1p_coeff(x0, j):
    if j == 0:
        return math.log(1 + x0)
    return (-1) ** (j - 1) / (j * (1 + x0) ** j)


def sqrt1p_coeff(x0, j):
    # d^j/dx^j (1+x)^(1/2) / j! = binom(1/2, j) (1+x0)^(1/2-j)
    b = 1.0
    for i in range(j):
        b *= (0.5 - i) / (i + 1)
    return b * (1 + x0) ** (0.5 - j)


def test_exp_jet_known_values():
    got = coeffs_of("exp(x)", 0.0, 3)
    np.testing.assert_allclose(got, [1, 1, 0.5, 1 / 6], rtol=1e-15)


def test_square_jet():
    got = coeffs_of("(1+x)*(1+x)", 0.0, 2)
    np.testing.assert_allclose(got, [1, 2, 1], rtol=0, atol=1e-15)


def test_cosine_jet_second_coefficient():
    got = coeffs_of("cos(2*pi*x)", 0.0, 2)
    np.testing.assert_allclose(got, [1, 0, -2 * math.pi**2], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("x0", [0.0, 0.37, -1.2])
def test_exp_chain_rule(x0):
    got = coeffs_of("exp(2*x)", x0, 10)
    want = [math.exp(2 * x0) * 2**j / factorial(j) for j in range(11)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("x0", [0.0, 0.4, 1.7])
def test_sin_cos_jets(x0):
    got_s = coeffs_of("sin(x)", x0, 12)
    got_c = coeffs_of("cos(x)", x0, 12)
    np.testing.assert_allclose(got_s, [sin_coeff(x0, j) for j in range(13)], atol=1e-15)
    np.testing.assert_allclose(got_c, [cos_coeff(x0, j) for j in range(13)], atol=1e-15)


@pytest.mark.parametrize("x0", [0.0, 0.5, 2.0])
def test_log_sqrt_jets(x0):
    got_l = coeffs_of("log(1+x)", x0, 12)
    got_r = coeffs_of("sqrt(1+x)", x0, 12)
    np.testing.assert_allclose(got_l, [log1p_coeff(x0, j) for j in range(13)], rtol=1e-12)
    np.testing.assert_allclose(got_r, [sqrt1p_coeff(x0, j) for j in range(13)], rtol=1e-12)


def test_sinh_cosh_jets():
    got_s = coeffs_of("sinh(x)", 0.3, 10)
    got_c = coeffs_of("cosh(x)", 0.3, 10)
    want_s = [
        (math.sinh(0.3) if j % 2 == 0 else math.cosh(0.3)) / factorial(j) for j in range(11)
    ]
    want_c = [
        (math.cosh(0.3) if j % 2 == 0 else math.sinh(0.3)) / factorial(j) for j in range(11)
    ]
    np.testing.assert_allclose(got_s, want_s, rtol=1e-13)
    np.testing.assert_allclose(got_c, want_c, rtol=1e-13)


def test_tan_equals_sin_over_cos():
    got = coeffs_of("tan(x)", 0.2, 14)
    quotient = coeffs_of("sin(x)/cos(x)", 0.2, 14)
    np.testing.assert_allclose(got, quotient, rtol=1e-12)


def test_geometric_series_jet():
    got = coeffs_of("1/(1+x)", 0.0, 20)
    want = [(-1.0) ** j for j in range(21)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_integer_powers():
    got = coeffs_of("x^5", 2.0, 7)
    want = [comb(5, j) * 2.0 ** (5 - j) if j <= 5 else 0.0 for j in range(8)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    # negative exponent: d^j (x^-2)/j! = (-1)^j (j+1) x^(-2-j)
    got = coeffs_of("x^-2", 3.0, 6)
    want = [(-1.0) ** j * (j + 1) * 3.0 ** (-2 - j) for j in range(7)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_general_power_matches_sqrt():
    got = coeffs_of("(1+x)^0.5", 0.25, 10)
    want = coeffs_of("sqrt(1+x)", 0.25, 10)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_product_rule_convolution():
    # lift(f*g) must equal the Cauchy product of lift(f) and lift(g)
    f = coeffs_of("sin(x)+x^3", 0.3, 12)
    g = coeffs_of("exp(x)*cos(2*pi*x)", 0.3, 12)
    prod = coeffs_of("(sin(x)+x^3)*(exp(x)*cos(2*pi*x))", 0.3, 12)
    conv = np.array([np.sum(f[: j + 1] * g[j::-1]) for j in range(13)])
    np.testing.assert_allclose(prod, conv, rtol=1e-11, atol=1e-13)


def finite_difference_coeff(fn, x0, j, h=4e-3):
    # central stencil, error c*h^2 + O(h^4); one Richardson pass removes the
    # h^2 term.  Roundoff grows like h^-j, which limits this oracle to
    # j <= 3 even with the larger step.
    def central(step):
        total = 0.0
        for i in range(j + 1):
            total += (-1) ** i * comb(j, i) * fn(x0 + (j / 2 - i) * step)
        return total / step**j

    if j == 0:
        return fn(x0)
    return (4 * central(h / 2) - central(h)) / 3 / factorial(j)


@pytest.mark.parametrize(
    "src, fn",
    [
        ("sin(x)+x^3", lambda x: math.sin(x) + x**3),
        ("exp(2*x)", lambda x: math.exp(2 * x)),
        ("1/(2+x)", lambda x: 1 / (2 + x)),
    ],
)
@pytest.mark.parametrize("j", [1, 2, 3])
def test_low_order_against_finite_differences(src, fn, j):
    got = coeffs_of(src, 0.4, 3)[j]
    want = finite_difference_coeff(fn, 0.4, j)
    assert got == pytest.approx(want, rel=1e-5)


def test_lift_validates_order():
    ast = parse("x")
    with pytest.raises(ValidationError):
        lift(ast, (0.0,), -1)
    with pytest.raises(ValidationError):
        lift(ast, (0.0,), 65)
    jet = lift(ast, (1.5,), 4)
    np.testing.assert_allclose(jet.coeffs, [1.5, 1, 0, 0, 0], atol=0)


@pytest.mark.parametrize(
    "src, center",
    [
        ("1/x", 0.0),
        ("log(x)", 0.0),
        ("log(x)", -2.0),   # branch cut
        ("sqrt(x)", -1.0),
        ("x^-1", 0.0),
        ("x^0", 0.0),       # 0^0, matching scalar evaluation
        ("x^x", 0.0),
    ],
)
def test_lift_domain_errors(src, center):
    with pytest.raises(DomainError):
        lift(parse(src), (center,), 4)


def test_quotient_by_a_zero_tan_keeps_the_division_message():
    # a / tan(u) lifts as a * cot(u); a zero tan(u0) is still a zero divisor
    for ast, center in ((parse("x / tan(x - x)"), (0.3,)), (parse("x1 / tan(x2)", 2), (0.3, 0.0))):
        with pytest.raises(DomainError, match="^division: argument is zero at a lift point$"):
            lift(ast, center, 4)


def test_nd_zero_power():
    with pytest.raises(DomainError):
        lift(parse("x1^0 + x2", 2), (0.0, 0.0), 4)
    jet = lift(parse("(1+x1)^0 + x2", 2), (0.0, 0.0), 4)
    assert jet.coeffs[0, 0] == pytest.approx(1.0)
    assert jet.coeffs[0, 1] == pytest.approx(1.0)


def test_part_subtraction_is_addition_of_the_negation():
    # the fused a - b must keep the bits of a + -b, signed zeros included, on shared rows and on rows one side
    # stores alone; degree 2 in two variables has the rows (2,0), (1,1), (0,2)
    vals = np.array([0.0, -0.0, 1.5, -2.0])
    x, y = np.repeat(vals, len(vals)), np.tile(vals, len(vals))  # every pair of values
    a = _Flat(np.array([x, y]), np.array([0, 1]))
    b = _Flat(np.array([y, x]), np.array([0, 2]))
    for x, y in ((a, b), (b, a), (a, a), (_Flat(), b)):
        fused, negated = x - y, x + -y
        assert np.array_equal(fused.rows, negated.rows)
        assert np.array_equal(fused.values.view(np.uint64), negated.values.view(np.uint64))


def compositions(degree, n):
    return [(degree,)] if n == 1 else [(g,) + h for g in range(degree + 1) for h in compositions(degree - g, n - 1)]


def of_degree(n, degree):
    """The multi-indices with ``|g| == degree``: the last degree block of ``multi_indices(n, degree + 1)``."""
    return seriesnd.multi_indices(n, degree + 1)[math.comb(degree - 1 + n, n) :]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_and_key_round_trip(n):
    # the rows of a part of degree k are the degree-k block of multi_indices, which within a degree is descending
    # lexicographic order, and a product's code of each key ranks it back to its row; the cached tables are the
    # lift's, and shifting a code ranks g + e_k
    _, starts, codes, ranks = _layout(n, 17)
    sparse = _Sparse(np.zeros((1, n)), 16)
    assert sparse.starts is starts and sparse.codes is codes and sparse.ranks is ranks  # built once, not per lift
    for degree in range(17):
        keys = of_degree(n, degree)
        assert keys == sorted(compositions(degree, n), reverse=True)
        rows = np.arange(starts[degree], starts[degree + 1])
        assert _keys(n, 17, rows) == keys
        assert np.array_equal(_digits(n, 17, rows), np.array(keys, dtype=np.intp).reshape(len(keys), n))
        above = {g: row for row, g in enumerate(of_degree(n, degree + 1))}
        for row, g in enumerate(keys):
            code = sum(sum(g[i:]) * 17 ** (i - 1) for i in range(1, n))
            assert codes[row] == code
            assert ranks[code] == row
            if degree < 16:
                for k in range(n):
                    shift = sum(17 ** (i - 1) for i in range(1, k + 1))
                    assert ranks[code + shift] == above[g[:k] + (g[k] + 1,) + g[k + 1 :]]


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.25, 1e300, 5e-324]


def same_bits(a, b):
    """Bit for bit, but any nan equals any nan: no output shows a nan's sign or payload."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all((bits(a) == bits(b)) | (np.isnan(a) & np.isnan(b))))


@st.composite
def flat_jets(draw):
    """Two n-D jets of random sparse parts, part 0 always stored, and values that include +-0, +-inf and nan."""
    n, K, P = draw(st.integers(2, 4)), draw(st.integers(1, 4)), draw(st.sampled_from([1, 3]))
    finite = st.floats(-4.0, 4.0, allow_subnormal=False)  # so that sums of three or more round by their order
    value = st.one_of(finite, finite, finite, st.sampled_from(SPECIAL))
    jets = []
    for _ in range(2):
        jet = []
        for k in range(K + 1):
            size = math.comb(k + n - 1, n - 1)
            rows = sorted(draw(st.sets(st.integers(0, size - 1), min_size=int(k == 0), max_size=size)))
            values = draw(st.lists(value, min_size=len(rows) * P, max_size=len(rows) * P))
            values = np.array(values, dtype=np.float64).reshape(len(rows), P)
            jet.append(_Flat(values, np.array(rows, dtype=np.intp)) if rows else _Flat())
        jets.append(jet)
    scale = draw(st.sampled_from(SPECIAL + ["points"]))
    scale = np.array(draw(st.lists(value, min_size=P, max_size=P))) if scale == "points" else scale
    return n, K, P, jets, scale


def as_map(part, n, k):
    """A flat part as the map from its stored multi-indices to values that parts used to be."""
    if part.rows is None:
        return {}
    return dict(zip(_keys(n, k + 1, math.comb(k - 1 + n, n) + part.rows), part.values))


def map_conv(k, a, b, lo, hi):
    """The map-based sum: j, then a's keys in graded-lex order, then b's; each key's sum from its first term."""
    out = {}
    for j in range(lo, hi + 1):
        for ga, va in sorted(a[j].items(), reverse=True):
            for gb, vb in sorted(b[k - j].items(), reverse=True):
                g = tuple(map(operator.add, ga, gb))
                out[g] = va * vb if g not in out else out[g] + va * vb
    return out


def assert_part_is(part, want, n, k):
    got = as_map(part, n, k)
    assert list(got) == sorted(want, reverse=True), (k, list(got), list(want))
    for g, v in want.items():
        assert same_bits(got[g], v), (k, g, got[g], v)


@settings(max_examples=200, deadline=None)
@given(case=flat_jets())
def test_flat_parts_match_the_map_algebra(case):
    n, K, P, (a, b), scale = case
    sparse = _Sparse(np.zeros((P, n)), K)
    maps = [[as_map(p, n, k) for k, p in enumerate(jet)] for jet in (a, b)]
    with np.errstate(all="ignore"):
        for k in range(K + 1):
            x, y = maps[0][k], maps[1][k]
            assert_part_is(a[k] + b[k], {**x, **{g: x[g] + v if g in x else v for g, v in y.items()}}, n, k)
            assert_part_is(a[k] - b[k], {**x, **{g: x[g] - v if g in x else -v for g, v in y.items()}}, n, k)
            # a scaled part keeps its rows: an unstored row stays +0, so no 0 * inf reaches a later sum
            scaled = scale * a[k]
            assert_part_is(scaled, {g: scale * v for g, v in x.items()}, n, k)
            dense = np.zeros((math.comb(k + n - 1, n - 1), P))
            if scaled.rows is not None:
                dense[scaled.rows] = scaled.values
            unstored = np.setdiff1d(np.arange(len(dense)), [] if a[k].rows is None else a[k].rows)
            assert np.all(bits(dense[unstored]) == 0)
            for lo, hi in ((0, k), (1, k), (0, k - 1)):
                assert_part_is(sparse.conv(k, a, b, lo, hi), map_conv(k, *maps, lo, hi), n, k)
        for k, part in enumerate(sparse.mul(a, b)):
            assert_part_is(part, map_conv(k, *maps, 0, k), n, k)
        for k, part in enumerate(sparse.mul(b, a)):  # the other side then has the fewer rows, or as many
            assert_part_is(part, map_conv(k, *maps[::-1], 0, k), n, k)


def test_nd_jet_separable_product():
    ast = parse("sin(x1)*exp(x2)", 2)
    jet = lift(ast, (0.2, -0.1), 8)
    a = coeffs_of("sin(x)", 0.2, 8)
    b = coeffs_of("exp(x)", -0.1, 8)
    for g1, g2 in seriesnd.multi_indices(2, 9):
        assert jet.coeffs[g1, g2] == pytest.approx(a[g1] * b[g2], rel=1e-12, abs=1e-15)


def test_nd_jet_total_degree_truncation():
    jet = lift(parse("x1*x2", 2), (0.0, 0.0), 3)
    assert jet.dims == 2 and jet.order == 3 and jet.coeffs.shape == (4, 4)
    assert not jet.coeffs[np.add.outer(np.arange(4), np.arange(4)) > 3].any()
    assert jet.coeffs[1, 1] == pytest.approx(1.0)
    assert jet.coeffs[3, 3] == 0  # past the total degree, zero


def test_nd_jet_mixed_composition():
    # f(x1,x2) = cos(x1 + 2*x2): d^g f / g! = cos^(|g|)(c1+2c2) 2^g2 / (g1! g2!)
    c1, c2 = 0.3, 0.1
    jet = lift(parse("cos(x1+2*x2)", 2), (c1, c2), 6)
    u0 = c1 + 2 * c2
    for g1, g2 in seriesnd.multi_indices(2, 7):
        want = math.cos(u0 + (g1 + g2) * math.pi / 2) * 2**g2 / (factorial(g1) * factorial(g2))
        assert jet.coeffs[g1, g2] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_scalar_lift_dispatches_to_1d():
    jet = lift(parse("x"), (0.0,), 2)
    assert isinstance(jet, Jet) and jet.dims == 1 and jet.coeffs.shape == (3,)
    nd = lift(parse("x1+x2", 2), (0.0, 0.0), 2)
    assert isinstance(nd, Jet) and nd.dims == 2 and nd.coeffs.shape == (3, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lift_is_the_batched_lift_scattered_into_the_dense_tensor(n):
    # the one public jet: the batched lift's row in 1-D and its rows scattered at their multi-indices in
    # more, bit for bit at each center of a batch, zero past the total degree, and capped at order 16 in n-D
    xs = ["x"] if n == 1 else [f"x{i}" for i in range(1, n + 1)]
    ast = parse(f"exp({xs[0]}) * sin({' + '.join(xs)}) / (3 + {xs[-1]})", n)
    order = 40 if n == 1 else 16
    centers = np.random.default_rng(n).uniform(-0.5, 0.5, (3, n))
    if n == 1:
        batched = _lift_1d_array(ast, centers[:, 0], order)
    else:
        rows, values = _lift_nd_arrays(ast, centers, order)
        batched = np.zeros((len(centers),) + (order + 1,) * n)
        batched[(slice(None), *_digits(n, order + 1, rows).T)] = values.T
    degrees = np.indices((order + 1,) * n).sum(axis=0)
    for c, want in zip(centers, batched):
        jet = lift(ast, c, order)
        assert (jet.center, jet.dims, jet.order) == (tuple(c), n, order)
        assert jet.coeffs.shape == (order + 1,) * n and jet.coeffs.dtype == np.float64
        assert np.array_equal(bits(jet.coeffs), bits(want))
        assert not jet.coeffs[degrees > order].any()
    top = 64 if n == 1 else 16
    assert lift(ast, (0.1,) * n, top).order == top
    with pytest.raises(ValidationError, match=rf"^jet order must be an integer in \[0, {top}\], got {top + 1}$"):
        lift(ast, (0.1,) * n, top + 1)
    with pytest.raises(ValidationError, match=f"^center has {n + 1} coordinates, need {n}$"):
        lift(ast, (0.1,) * (n + 1), 2)


def along(jet, d):
    """Coefficients of ``t -> f(center + t*d)``: ``sum over |g| = k of c_g d^g``."""
    out = np.zeros(jet.order + 1, dtype=np.complex128)
    for g in seriesnd.multi_indices(jet.dims, jet.order + 1):
        out[sum(g)] += complex(jet.coeffs[g]) * math.prod(di**gi for di, gi in zip(d, g))
    return out


def line_through(src, c, d):
    """``src`` on the line ``c + x d``, as a 1-D expression in ``x``."""
    return re.sub(r"x(\d)", lambda m: f"({c[int(m[1]) - 1]!r}+({d[int(m[1]) - 1]!r})*x)", src)


def along_tolerance(line, n, order):
    """Twice the first-order ``RoundingBound`` of the n-D jet summed along the line, with
    ``spread = (K + 1)^(n - 1)``: per multi-index ``along`` adds n powers within 1 ulp, n - 1
    products and one with the coefficient (2n u in all; 6u kept at n = 2), and a sum over at
    most ``spread`` multi-indices."""
    spread = (order + 1) ** (n - 1)
    _, m, e = RoundingBound(0.0, order, spread).walk(parse(line).root)
    return 2 * (e + (max(2 * n, 6) + spread) * UNIT_ROUNDOFF * m)


def test_nd_jet_against_mpmath_along_directions():
    # (0.257, 0.152) is where the quotient by tan once cancelled to 1.8e-11 of
    # the largest coefficient; 1e-12 of it, a chosen tolerance, holds at (0.05, 0.07)
    mpmath = pytest.importorskip("mpmath")
    src, order = "sqrt(3+x1*x2)*log(2+x2)^2.5/tan(1+x1)", 12
    for c, chosen in (((0.05, 0.07), 1e-12), ((0.257, 0.152), None)):
        jet = lift(parse(src, 2), c, order)
        for i in range(6):
            d = (math.cos(i * math.pi / 6), math.sin(i * math.pi / 6))
            with mpmath.workdps(40):

                def f(t):
                    x1, x2 = c[0] + t * mpmath.mpf(d[0]), c[1] + t * mpmath.mpf(d[1])
                    return mpmath.sqrt(3 + x1 * x2) * mpmath.log(2 + x2) ** 2.5 / mpmath.tan(1 + x1)

                want = mpmath.taylor(f, 0, order)
                got = along(jet, d)
                tol = along_tolerance(line_through(src, c, d), 2, order)
                assert_within([mpmath.mpf(v.real) for v in got], want, tol, (c, d))
            if chosen:
                err = np.abs(got - np.array([complex(v) for v in want])).max()
                assert err <= chosen * max(abs(complex(v)) for v in want), (c, d, err)


# every grammar function, integer and real powers, and division, in 2-4 variables
LINE_EXPRS = [
    ("exp(x1*x2) + sin(x1 - x2)", 2),
    ("log(2 + x1 + x2) * cos(x1 + x2) / (1 + x1^2)", 2),
    ("sqrt(3 + x1*x2) - tan(x1 - x2)", 2),
    ("sinh(x1 + x2) * cosh(x1 - x2) + (1 + x1 + x2)^2.5", 2),
    ("(x1 + x2 + 1)^-3 - x1^0 * x2^3 + e*pi", 2),
    ("exp(x1) * log(1 + x2*x3) - cos(x3)^2 / (2 + x1)", 3),
    ("sqrt(1 + x1^2 + x2^2 + x3^2) * tan(x1*x2 - x3)", 3),
    ("sinh(x1 + x2 - x3) / cosh(x4) - x4^3 * x1", 4),
    ("(2 + x1*x2 + x3*x4)^(1/3) - exp(-x4) * sin(x1)", 4),
]


@st.composite
def line_cases(draw):
    src, n = draw(st.sampled_from(LINE_EXPRS))
    c = draw(st.lists(st.floats(0.05, 0.3), min_size=n, max_size=n))
    raw = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n).filter(lambda v: math.hypot(*v) > 0.1))
    return src, n, c, [v / math.hypot(*raw) for v in raw], draw(st.integers(2, 12))


@settings(max_examples=40, deadline=None)
@given(case=line_cases())
@example(case=("sqrt(3 + x1*x2) - tan(x1 - x2)", 2, [0.257, 0.152], [0.6, 0.8], 12))
@example(case=("sqrt(3+x1*x2)*log(2+x2)^2.5/tan(1+x1)", 2, [0.257, 0.152], [0.6, 0.8], 12))
def test_nd_jet_agrees_with_1d_jet_along_a_line(case):
    src, n, c, d, order = case
    # the 1-D jet of f(c + x*d) at x = 0; the goldens pin the 1-D kernels
    line = line_through(src, c, d)
    want = _lift_1d_array(parse(line), np.array([0.0]), order)[0]
    got = along(lift(parse(src, n), c, order), d)
    # each side within its own rounding bound of the exact line coefficients
    tol = along_tolerance(line, n, order) + 2 * RoundingBound(0.0, order).walk(parse(line).root)[2]
    assert np.all(np.abs(got - want) <= tol), np.abs(got - want) / tol
    if (src, n) in LINE_EXPRS:  # the chosen tolerance, where the drawn cases hold it
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---- the tan recurrence against mpmath, within a rounding bound from analysis

UNIT_ROUNDOFF = 2.0**-53
LIBM_UNITS = 8  # each library value within 4 ulps of the function at its computed argument


class RoundingBound:
    """A first-order bound on the rounding error of every lifted part, by running
    error analysis over the jet recurrences (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sec. 3.3).

    The walk mirrors ``jet._Algebra`` kernel by kernel.  A jet is ``(v0, m, e)``:
    ``v0`` the constant term, ``m[k]`` the size of part k and of every term summed
    into it (the recurrence on absolute values), ``e[k]`` a bound on the error of
    the computed part k.  A sum of n products, in any order, is within n u of the
    sum of their sizes; perturbed factors add ``|a| e_b + |b| e_a``; a library
    value of a constant term is within ``LIBM_UNITS`` u of the function at the
    computed argument, which it moves by ``|f'(u0)| e(u0)``.  In n variables
    every sum into one multi-index of a part takes at most ``spread = (K +
    1)^(n - 1)`` times the products of the 1-D sum, and sizes and errors
    distribute over the multi-indices, so the bound of the expression on the line
    ``c + x d`` also bounds the n-D jet summed along ``d``.  The literals used
    here are exact doubles.
    """

    def __init__(self, center, order, spread=1):
        self.center, self.K, self.spread = center, order, spread

    def jet(self, v0, m0, e0):
        m, e = np.zeros(self.K + 1), np.zeros(self.K + 1)
        m[0], e[0] = m0, e0
        return [v0, m, e]

    def conv(self, k, a, b, lo, hi):
        terms = range(lo, hi + 1)
        m = sum(a[1][j] * b[1][k - j] for j in terms)
        e = sum(a[1][j] * b[2][k - j] + a[2][j] * b[1][k - j] for j in terms)
        return m, e + (hi - lo + 1) * self.spread * UNIT_ROUNDOFF * m

    def scaled(self, s, me, rounded_s=False):
        # s * part: the product rounds once, and a reciprocal 1/k once more
        m, e = me
        return s * m, s * e + (2 if rounded_s else 1) * UNIT_ROUNDOFF * s * m

    def add(self, a, b):
        m = a[1] + b[1]
        return [a[0] + b[0], m, a[2] + b[2] + UNIT_ROUNDOFF * m]

    def mul(self, a, b):
        out = self.jet(a[0] * b[0], 0.0, 0.0)
        for k in range(self.K + 1):
            out[1][k], out[2][k] = self.conv(k, a, b, 0, k)
        return out

    def libm(self, value, slope, u):
        # f(u0) within LIBM_UNITS u, moved by |f'(u0)| e(u0)
        return self.jet(value, abs(value), slope * u[2][0] + LIBM_UNITS * UNIT_ROUNDOFF * abs(value))

    def reciprocal(self, b0, e0):
        # 1/b0 rounded once, of a b0 off by e0
        rec = 1.0 / b0
        return abs(rec), abs(rec) * (e0 / abs(b0) + UNIT_ROUNDOFF)

    def solve(self, out, k, rec, a_k, s):
        # out_k = rec * (a_k - s): the difference and the product round once each
        m_d, e_d = a_k[0] + s[0], a_k[1] + s[1] + UNIT_ROUNDOFF * (a_k[0] + s[0])
        out[1][k] = rec[0] * m_d
        out[2][k] = rec[0] * e_d + rec[1] * m_d + UNIT_ROUNDOFF * out[1][k]

    def euler(self, u):
        ks = np.arange(self.K + 1)
        return [u[0], ks * u[1], ks * u[2] + UNIT_ROUNDOFF * ks * u[1]]

    def exp(self, u):
        v = math.exp(u[0])
        e, ju = self.libm(v, v, u), self.euler(u)
        for k in range(1, self.K + 1):
            e[1][k], e[2][k] = self.scaled(1.0 / k, self.conv(k, ju, e, 1, k), True)
        return e

    def log(self, u):
        out, jl = self.libm(math.log(u[0]), 1.0 / abs(u[0]), u), self.jet(0.0, 0.0, 0.0)
        rec = self.reciprocal(u[0], u[2][0])
        for k in range(1, self.K + 1):
            s = self.scaled(1.0 / k, self.conv(k, jl, u, 1, k - 1), True)
            self.solve(out, k, rec, (u[1][k], u[2][k]), s)
            jl[1][k], jl[2][k] = self.scaled(k, (out[1][k], out[2][k]))
        return out

    def sqrt(self, u):
        r0 = math.sqrt(u[0])
        out = self.libm(r0, 0.5 / r0, u)
        rec = self.reciprocal(2 * r0, 2 * out[2][0])
        for k in range(1, self.K + 1):
            self.solve(out, k, rec, (u[1][k], u[2][k]), self.conv(k, out, out, 1, k - 1))
        return out

    def trig(self, u, func):
        hyperbolic = func.endswith("h")
        s0 = (math.sinh if hyperbolic else math.sin)(u[0])
        c0 = (math.cosh if hyperbolic else math.cos)(u[0])
        s, c, ju = self.libm(s0, abs(c0), u), self.libm(c0, abs(s0), u), self.euler(u)
        for k in range(1, self.K + 1):
            s[1][k], s[2][k] = self.scaled(1.0 / k, self.conv(k, ju, c, 1, k), True)
            c[1][k], c[2][k] = self.scaled(1.0 / k, self.conv(k, ju, s, 1, k), True)
        return c if func.startswith("cos") else s

    def tan(self, u, cot=False):
        t0 = math.tan(u[0])
        if cot:
            # the reciprocal of tan's library value: its error, one rounding, and |cot'| e(u0)
            t0 = 1.0 / t0
            t = self.jet(t0, abs(t0), (1.0 + t0 * t0) * u[2][0] + (LIBM_UNITS + 1) * UNIT_ROUNDOFF * abs(t0))
        else:
            t = self.libm(t0, 1.0 + t0 * t0, u)
        ju = self.euler(u)
        # 1 + t0 * t0: a product and a sum, each rounding once
        p = self.jet(1.0 + t0 * t0, 1.0 + t0 * t0, 2 * abs(t0) * t[2][0] + 2 * UNIT_ROUNDOFF * (1.0 + t0 * t0))
        for k in range(1, self.K + 1):
            t[1][k], t[2][k] = self.scaled(1.0 / k, self.conv(k, ju, p, 1, k), True)
            p[1][k], p[2][k] = self.conv(k, t, t, 0, k)
        return t

    def div(self, a, b):
        rec = self.reciprocal(b[0], b[2][0])
        out = self.jet(a[0] / b[0], 0.0, 0.0)
        for k in range(self.K + 1):
            s = self.conv(k, out, b, 0, k - 1) if k else (0.0, 0.0)
            self.solve(out, k, rec, (a[1][k], a[2][k]), s)
        return out

    def ipow(self, u, n):
        # square-and-multiply as jet._Algebra.ipow; x^0 is an exact 1, x^-n the quotient 1/x^n
        if n == 0:
            return self.jet(1.0, 1.0, 0.0)
        if n < 0:
            return self.div(self.jet(1.0, 1.0, 0.0), self.ipow(u, -n))
        acc = None
        while n:
            if n & 1:
                acc = u if acc is None else self.mul(acc, u)
            n >>= 1
            if n:
                u = self.mul(u, u)
        return acc

    def walk(self, node):
        """The bound of the subexpression ``node``: constants, ``x``, ``+ - * /``, integer
        and real powers, every grammar function, and a quotient by ``tan`` as a product with
        ``cot``, as ``jet._Algebra.walk`` lifts them.  Named constants are the same doubles."""
        if isinstance(node, (Const, NamedConst)):
            return self.jet(node.value.real, abs(node.value.real), 0.0)
        if isinstance(node, Var):
            out = self.jet(self.center, abs(self.center), 0.0)
            out[1][1] = 1.0
            return out
        if isinstance(node, Neg):
            v0, m, e = self.walk(node.operand)
            return [-v0, m, e]
        if isinstance(node, Call) and node.func in ("exp", "log", "sqrt", "tan"):
            return getattr(self, node.func)(self.walk(node.arg))
        if isinstance(node, Call):
            return self.trig(self.walk(node.arg), node.func)
        if isinstance(node, BinOp) and node.op == "/" and isinstance(node.right, Call) and node.right.func == "tan":
            return self.mul(self.walk(node.left), self.tan(self.walk(node.right.arg), cot=True))
        if isinstance(node, BinOp) and node.op != "^":
            a, b = self.walk(node.left), self.walk(node.right)
            if node.op == "-":
                b = [-b[0], b[1], b[2]]
            return {"+": self.add, "-": self.add, "*": self.mul, "/": self.div}[node.op](a, b)
        if int_exponent(node.right) is not None:
            return self.ipow(self.walk(node.left), int_exponent(node.right))
        return self.exp(self.mul(self.walk(node.right), self.log(self.walk(node.left))))


def tan_taylor(mpmath, x0, order):
    """Taylor coefficients of tan about ``x0`` from its derivative polynomials,
    ``P_0(T) = T`` and ``P_(k+1) = (1 + T^2) P_k'(T)`` at ``T = tan(x0)``: no
    jet recurrence and no numerical differentiation."""
    T, poly, out = mpmath.tan(mpmath.mpf(x0)), [0, 1], []
    for k in range(order + 1):
        out.append(mpmath.polyval(poly[::-1], T) / mpmath.factorial(k))
        deriv = [i * c for i, c in enumerate(poly)][1:]
        poly = [a + b for a, b in zip(deriv + [0, 0], [0, 0] + deriv)]
    return out


def assert_within(got, want, tol, what):
    """``|got[k] - want[k]| <= tol[k]``, the difference taken in mpmath."""
    for k, (g, w, t) in enumerate(zip(got, want, tol)):
        err = abs(g - w)
        assert err <= t, (what, k, float(err), t, float(abs(w)))


@pytest.mark.parametrize("offset", [-0.05, -1e-3, 1e-3, 0.05])
def test_tan_jet_near_its_pole_against_mpmath(offset):
    # on either side of the pole every sum of the recurrence adds terms of one
    # sign, so the sizes are the values themselves and the bound stays within
    # a small factor of the error; twice the first-order bound covers the
    # second-order terms, each a product of two errors below 1e-12 of a size
    mpmath = pytest.importorskip("mpmath")
    x0, order, ast = math.pi / 2 + offset, 12, parse("tan(x)")
    bound = RoundingBound(x0, order).walk(ast.root)
    got = _lift_1d_array(ast, np.array([x0]), order)[0]
    with mpmath.workdps(40):
        assert_within([mpmath.mpf(v) for v in got], tan_taylor(mpmath, x0, order), 2 * bound[2], x0)


def test_jet_with_tan_against_mpmath_on_the_1d_and_nd_paths():
    # twice the first-order bound covers the second-order terms (along_tolerance
    # for the n-D jet summed along d)
    mpmath = pytest.importorskip("mpmath")
    src, c, order = "sqrt(3+x1*x2)*log(2+x2)^2.5/tan(1+x1)", (0.257, 0.152), 12
    nd = lift(parse(src, 2), c, order)
    for i in range(6):
        d = (math.cos(i * math.pi / 6), math.sin(i * math.pi / 6))
        line = parse(line_through(src, c, d))
        with mpmath.workdps(40):

            def f(t):
                x1, x2 = c[0] + t * mpmath.mpf(d[0]), c[1] + t * mpmath.mpf(d[1])
                return mpmath.sqrt(3 + x1 * x2) * mpmath.log(2 + x2) ** 2.5 / mpmath.tan(1 + x1)

            want = mpmath.taylor(f, 0, order)
            one_d = _lift_1d_array(line, np.array([0.0]), order)[0]
            assert_within([mpmath.mpf(v) for v in one_d], want, 2 * RoundingBound(0.0, order).walk(line.root)[2], d)
            tol = along_tolerance(line_through(src, c, d), 2, order)
            assert_within([mpmath.mpf(v.real) for v in along(nd, d)], want, tol, d)


def test_quotient_by_tan_lifts_through_cot_against_mpmath():
    # 1/tan(1+x) at 0.5 once lifted by the division recurrence, which cancels
    # against tan's growing parts: its order-12 coefficient was off by 0.18
    mpmath = pytest.importorskip("mpmath")
    ast, x0, order = parse("1/tan(1+x)"), 0.5, 12
    got = _lift_1d_array(ast, np.array([x0]), order)[0]
    with mpmath.workdps(40):
        want = mpmath.taylor(lambda t: mpmath.cot(1 + x0 + t), 0, order)
        assert_within([mpmath.mpf(v) for v in got], want, 2 * RoundingBound(x0, order).walk(ast.root)[2], x0)


# ---- the coefficient-major 1-D layout keeps the bits of the point-major one


def mixed_values(rng, shape):
    """Complex values over 60 binades, about a third of each part +0 or -0."""
    parts = rng.standard_normal(shape + (2,)) * 2.0 ** rng.integers(-30, 30, size=shape + (2,))
    pick = rng.random(shape + (2,))
    parts[pick < 0.15] = 0.0
    parts[pick > 0.85] = -0.0
    return parts.view(np.complex128)[..., 0]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("P", [1, 2, 577])
def test_conv_adds_in_numpy_pairwise_order(P):
    # conv's one reduction must give np.sum's bits over a contiguous axis of
    # n <= 64 terms; if a numpy release changes that order, printed digits
    # could move, and this fails first
    rng = np.random.default_rng(P)
    a, b = mixed_values(rng, (65, P)), mixed_values(rng, (65, P))
    # every part of the first point is a signed zero, so some lanes sum to -0
    a[:, 0] = np.where(rng.random(65) < 0.5, -0.0, 0.0) + 1j * np.where(rng.random(65) < 0.5, -0.0, 0.0)
    dense = _Dense(np.zeros(P), 64)
    A, B = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)  # point-major, rows contiguous
    # the real parts a lift stores add in the complex order too: a float64
    # np.sum would use eight lanes, not four
    ra, rb = a.real.copy(), b.real.copy()
    RA, RB = A.real + 0j, B.real + 0j
    for n in range(1, 65):
        k = n - 1
        want = np.sum(A[:, :n] * B[:, k::-1], axis=-1)
        assert np.array_equal(bits(dense.conv(k, a, b, 0, k)), bits(want)), n
        want = np.sum(RA[:, :n] * RB[:, k::-1], axis=-1)
        assert np.all(want.imag == 0)
        assert np.array_equal(bits(dense.conv(k, ra, rb, 0, k)), bits(want.real)), n


def same_up_to_zero_signs(got, want, what):
    """Nonzero values keep their bits; a zero may change sign, which no output prints."""
    assert got.shape == want.shape, what
    nonzero = want != 0
    assert np.array_equal(bits(got[nonzero]), bits(want[nonzero])), what
    assert np.all(got[~nonzero] == 0), what


@pytest.mark.parametrize("P", [1, 2, 577])
def test_narrowed_conv_and_mul_keep_the_full_sums(P):
    # a jet stored up to its degree: conv and mul skip every term past it,
    # which is a product with a +-0 part; against the full sums over the same
    # parts padded to the order with signed zeros
    rng = np.random.default_rng(100 + P)
    K = 16
    dense = _Dense(np.zeros(P), K)
    degrees = (0, 1, 2, 3, 5, K)
    parts = {d: mixed_values(rng, (d + 1, P)).real for d in degrees}
    full = {}
    for d, p in parts.items():
        full[d] = np.where(rng.random((K + 1, P)) < 0.5, -0.0, 0.0)  # a computed tail holds zeros of either sign
        full[d][: d + 1] = p
    for da in degrees:
        for db in degrees:
            a, b, A, B = parts[da], parts[db], full[da], full[db]
            for k in range(1, K + 1):
                # the windows of exp and trig, of log and sqrt, of div, and a whole product
                for lo, hi in ((1, k), (1, k - 1), (0, k - 1), (0, k)):
                    stop = k - hi - 1 if hi < k else None
                    terms = A[lo : hi + 1] * B[k - lo : stop : -1] + 0j  # point-major below, as in np.sum
                    want = np.sum(np.ascontiguousarray(terms.T), axis=-1)
                    assert np.all(want.imag == 0)
                    same_up_to_zero_signs(dense.conv(k, a, b, lo, hi), want.real, (da, db, k, lo, hi))
            want = np.zeros_like(A)
            for i in range(K + 1):
                want[i:] += A[i : i + 1] * B[: K + 1 - i]
            got = dense.mul(a, b)
            assert len(got) == min(da + db, K) + 1
            same_up_to_zero_signs(np.concatenate((got, np.zeros((K + 1 - len(got), P)))), want, (da, db))


# ---- the frozen complex oracle ------------------------------------------------


def old_check_nonzero(u0, what):
    if np.any(u0 == 0):
        raise DomainError(f"{what}: argument is zero at a lift point")


def old_check_off_cut(u0, what):
    old_check_nonzero(u0, what)
    if np.any((u0.imag == 0) & (u0.real < 0)):
        raise DomainError(f"{what}: argument on the negative real axis at a lift point")


class ComplexKernels:
    """The jet kernels and the expression walk as they were over complex parts.

    A copy, not a subclass of ``jet._Algebra``, so the real lift is checked
    against the code it replaced: constant terms are numpy's complex
    functions, and every division is one, ``/ k`` and ``/ u0``.
    """

    def __init__(self, centers, order):
        self.centers = centers
        self.order = order

    def exp(self, u):
        e = self.const(np.exp(self.c0(u)))
        ju = self.euler(u)
        for k in range(1, self.order + 1):
            self.set(e, k, self.conv(k, ju, e, 1, k) / k)
        return e

    def log(self, u, what="log"):
        u0 = self.c0(u)
        old_check_off_cut(u0, what)
        out = self.const(np.log(u0))
        jl = self.const(0)
        for k in range(1, self.order + 1):
            s = self.conv(k, jl, u, 1, k - 1)
            self.set(out, k, (self.part(u, k) - s / k) / u0)
            self.set(jl, k, k * self.part(out, k))
        return out

    def sqrt(self, u):
        u0 = self.c0(u)
        old_check_off_cut(u0, "sqrt")
        r0 = np.sqrt(u0)
        out = self.const(r0)
        for k in range(1, self.order + 1):
            self.set(out, k, (self.part(u, k) - self.conv(k, out, out, 1, k - 1)) / (2 * r0))
        return out

    def trig(self, u, func):
        hyperbolic = func.endswith("h")
        u0 = self.c0(u)
        s = self.const((np.sinh if hyperbolic else np.sin)(u0))
        c = self.const((np.cosh if hyperbolic else np.cos)(u0))
        ju = self.euler(u)
        for k in range(1, self.order + 1):
            self.set(s, k, self.conv(k, ju, c, 1, k) / k)
            t = self.conv(k, ju, s, 1, k)
            self.set(c, k, (t if hyperbolic else -t) / k)
        return c if func.startswith("cos") else s

    def tan(self, u, cot=False):
        # t' = u' (1 + t^2), restated from the sin/cos quotient the lift used before;
        # cot = 1/tan by t' = -u' (1 + t^2), for a quotient by tan
        t0 = np.tan(self.c0(u))
        if cot:
            old_check_nonzero(t0, "division")
            t0 = 1.0 / t0
        t, p = self.const(t0), self.const(1.0 + t0 * t0)
        ju = self.euler(u)
        for k in range(1, self.order + 1):
            v = self.conv(k, ju, p, 1, k) / k
            self.set(t, k, -v if cot else v)
            self.set(p, k, self.conv(k, t, t, 0, k))
        return t

    def div(self, a, b, what="division"):
        b0 = self.c0(b)
        old_check_nonzero(b0, what)
        out = self.const(0)
        self.set(out, 0, self.part(a, 0) / b0)
        for k in range(1, self.order + 1):
            self.set(out, k, (self.part(a, k) - self.conv(k, out, b, 0, k - 1)) / b0)
        return out

    def ipow(self, u, n, what="power"):
        if n == 0:
            old_check_nonzero(self.c0(u), what)
            return self.const(1.0)
        if n < 0:
            return self.div(self.const(1.0), self.ipow(u, -n), what=what)
        acc = None
        while n:
            if n & 1:
                acc = u if acc is None else self.mul(acc, u)
            n >>= 1
            if n:
                u = self.mul(u, u)
        return acc

    def walk(self, node):
        if isinstance(node, (Const, NamedConst)):
            return self.const(node.value)
        if isinstance(node, Var):
            return self.var(node.index)
        if isinstance(node, Neg):
            return self.neg(self.walk(node.operand))
        if isinstance(node, Call):
            u = self.walk(node.arg)
            if node.func in ("exp", "log", "sqrt", "tan"):
                return getattr(self, node.func)(u)
            return self.trig(u, node.func)
        if node.op == "^":
            n = int_exponent(node.right)
            base = self.walk(node.left)
            if n is not None:
                return self.ipow(base, n)
            return self.exp(self.mul(self.walk(node.right), self.log(base, what="power base")))
        a = self.walk(node.left)
        if node.op == "/" and isinstance(node.right, Call) and node.right.func == "tan":
            return self.mul(a, self.tan(self.walk(node.right.arg), cot=True))
        b = self.walk(node.right)
        if node.op == "+":
            return self.add(a, b)
        if node.op == "-":
            return self.add(a, self.neg(b))
        if node.op == "*":
            return self.mul(a, b)
        return self.div(a, b)


class PointMajor(ComplexKernels):
    """The 1-D part algebra as it was: complex parts, stored point-major (part k is column k)."""

    add = staticmethod(np.add)
    neg = staticmethod(np.negative)

    def const(self, c0):
        out = np.zeros(self.centers.shape + (self.order + 1,), dtype=np.complex128)
        out[..., 0] = c0
        return out

    def var(self, index):
        out = self.const(self.centers)
        out[..., 1:2] = 1.0
        return out

    def c0(self, u):
        return u[..., 0]

    def part(self, u, k):
        return u[..., k]

    def set(self, u, k, v):
        u[..., k] = v

    def euler(self, u):
        return u * np.arange(self.order + 1)

    def mul(self, a, b):
        out = np.zeros_like(a)
        for i in range(self.order + 1):
            out[..., i:] += a[..., i : i + 1] * b[..., : self.order + 1 - i]
        return out

    def conv(self, k, a, b, lo, hi):
        stop = k - hi - 1 if hi < k else None
        return np.sum(a[..., lo : hi + 1] * b[..., k - lo : stop : -1], axis=-1)


def point_major_cascade(coeffs, lam, count):
    out = np.empty(coeffs.shape[:-1] + (count + 1,), dtype=np.complex128)
    cur = coeffs
    out[..., 0] = cur[..., 0]
    inv = 1.0 / lam
    for j in range(count):
        m = cur.shape[-1] - 1
        # a named operand: numpy may reuse a large temporary as the output of
        # `inv * temp` with the operands swapped, and its fused complex product
        # does not commute bit for bit
        deriv = cur[..., 1:] * np.arange(1, m + 1)
        cur = inv * deriv - j * cur[..., :m]
        out[..., j + 1] = cur[..., 0]
    return out


def point_major_rows(coeffs, orders, lam):
    # stages `orders` of the complex point-major jet: each its own Stirling row nested in 1/lam
    q = 1.0 / lam
    rows = []
    for order in orders:
        S = stage_matrix(order)[order]
        acc = S[order] * coeffs[..., order]
        for m in range(order - 1, 0, -1):
            acc = acc * q + S[m] * coeffs[..., m]
        rows.append(acc * q)
    return np.array(rows)


def point_major_stages(coeffs, lam):
    # every stage of the complex point-major jet by the Stirling matrix: its complex form where 1/lam is
    # complex, else the real form of its real parts, since numpy's real and complex matrix products round apart
    return stage_tensor(coeffs.real if (1 / lam).imag == 0 else coeffs, lam)


BIT_EXPRS = [
    "sin(x) + cos(2*pi*x)",
    "tan(x)",
    "exp(-x) * sinh(x) - cosh(2*x)",
    "log(2+x)",
    "sqrt(3+x)",
    "(1+x)^5",
    "(2+x)^-3",
    "(1+x)^0",
    "(2+x)^2.5",
    "(2+x)^(1/3)",
    "x^x",
    "sin(x)/(2+x)",
    "1/(3+cos(2*pi*x))",
    "x - x",
    # kernels of constant, affine, quadratic and cubic arguments: their sums
    # skip the parts past a degree, down to one or two terms
    "exp(2)*x",
    "x/2",
    "sin(2*pi*x) * log(2+x)",
    "exp(x^2)",
    "log(2+x^2)",
    "1/(1+x^2)",
    "sqrt(3+x^2) - cosh(x^2-x)",
    "sin(x^3/3) + exp(1-x^3)",
    "exp((1+x)^4) / (2+x)^3",
    "exp(x) / tan(1+x)",  # lifted as a product with cot
    "log(x-1)",  # each lift fails with a domain error from here on
    "1/(x-x)",
    "sqrt(x-2)",
    "(x-x)^0",
]


LAMS = (1.0, -0.5, TWO_PI_I, 0.3 - 1.7j)


def assert_same_bits(got, want, what):
    """``got`` has ``want``'s bits; where ``got`` is real, it has the real parts and ``want``'s imaginary parts are 0."""
    if not np.iscomplexobj(got):
        assert np.all(want.imag == 0), what
        want = want.real
    assert got.dtype == want.dtype, what
    assert np.array_equal(bits(got), bits(want)), what


@pytest.mark.parametrize("P", [1, 57, 577])
def test_lift_and_cascade_keep_the_point_major_bits(P):
    # the real coefficient-major lift against the complex point-major oracle;
    # the cascade and the Stirling row are real where 1/lam is, and complex otherwise
    centers = np.linspace(0.05, 1.4, P) if P > 1 else np.array([0.3])
    for src in BIT_EXPRS:
        ast = parse(src)
        for order in (0, 1, 3, 4, 7, 8, 9, 16, 33, 64):
            with np.errstate(all="ignore"):
                try:
                    want = PointMajor(centers, order).walk(ast.root)
                except DomainError as err:
                    with pytest.raises(DomainError, match=f"^{re.escape(str(err))}$"):
                        _lift_1d_array(ast, centers, order)
                    continue
                got = _lift_1d_array(ast, centers, order)
                assert got.dtype == np.float64
                assert_same_bits(got, want, (src, order))
                for lam in LAMS:
                    stages = cascade_values(got, lam, order)
                    assert np.iscomplexobj(stages) == (lam.imag != 0)
                    assert_same_bits(stages, point_major_cascade(want, lam, order), (src, order, lam))
                    if order:
                        row = stirling_rows(got, [order], lam)
                        assert_same_bits(row, point_major_rows(want, [order], lam), (src, order, lam))


@pytest.mark.parametrize("lam", LAMS, ids=str)
def test_expansion_coefficients_keep_the_complex_quotients(lam):
    # expand stages the real lift as point_major_stages stages the complex
    # oracle's jet, then multiplies by 1/j!, which is how numpy's complex
    # division by j! + 0j rounds; that division turns a -0 real part into +0
    # and the product keeps it, so zeros are compared by value (no renderer
    # prints their sign) and every other value by its bits
    for src in BIT_EXPRS:
        ast = parse(src)
        for x0 in (0.3, 1.1):
            for order in (1, 2, 9, 17, 34, 64):
                facts = np.array([factorial(j) for j in range(order)], dtype=np.float64)
                with np.errstate(all="ignore"):
                    try:
                        jet = PointMajor(np.array([x0]), order - 1).walk(ast.root)[0]
                    except DomainError:
                        break
                    want = point_major_stages(jet, lam).astype(np.complex128) / facts
                if not np.all(np.isfinite(want)):
                    with pytest.raises(DomainError, match="^non-finite expansion coefficient"):
                        expand(ast, lam, (x0,), order)
                    continue
                got = expand(ast, lam, (x0,), order).coeffs
                assert np.iscomplexobj(got) == (lam.imag != 0)
                assert_same_bits(got + 0.0, want + 0.0, (src, x0, order))


# domain errors, and overflows that the lift carries to a later refusal
ERROR_EXPRS = [
    "log(exp(800*x))",
    "sqrt(-exp(800*x))",
    "log(x-x)",
    "1/(exp(800*x)-exp(800*x))",
    "exp(800*x)",
    "cosh(710*x) - sinh(710*x)",
    "tan(x)^40 / (x - 1)",
    "(exp(400*x) * exp(400*x))^0",
    # a constant or affine factor meets an overflowed jet
    "2*exp(800*x)",
    "sin(x)*exp(800*x)",
    "exp(800*x)/(2+x)",
    "log(2+x)*cosh(710*x)",
    # an overflowed constant: its jet is formed in full, so 1/inf = 0 does
    # not turn the overflow into a number, nor do stages that skip part 0
    "x/exp(800)",
    "exp(-exp(800)) + x",
    "710*x - 1e308/0.5",
    "(1e308*1e308)*2 + x",
]


@pytest.mark.parametrize("src", ERROR_EXPRS)
def test_domain_and_overflow_errors_keep_their_messages(monkeypatch, src):
    # every 1-D entry point, first with the real lift, cascade and Stirling
    # row, then with the complex oracle's patched in: the same values or the
    # same message
    ast = parse(src)
    calls = [
        lambda: expand(ast, 1.0, (1.0,), 8).coeffs,
        lambda: expand(ast, TWO_PI_I, (0.2,), 8).coeffs,
        lambda: remainder_bound(ast, 1.0, 0.5, 1.0, 6),
        lambda: radius_estimate(ast, -0.5, 1.0).ratios,
        lambda: growth_diagnostic(ast, 1.0, 1.5, grid=33).sup_values,
    ]
    outcomes = []
    for oracle in (False, True):
        if oracle:
            lift_oracle = lambda ast, centers, order: PointMajor(centers, order).walk(ast.root)
            monkeypatch.setattr(series1d, "_lift_1d_array", lift_oracle)
            monkeypatch.setattr(series1d, "lift", lambda ast, x0, order: Jet(lift_oracle(ast, np.array(x0), order)[0], x0))
            monkeypatch.setattr(series1d, "stage_tensor", point_major_stages)
            monkeypatch.setattr(series1d, "stirling_rows", point_major_rows)
        outcomes.append([])
        for call in calls:
            try:
                outcomes[-1].append(call())
            except (DomainError, DiagnosticError) as err:
                outcomes[-1].append(f"{type(err).__name__}: {err}")
    for got, want in zip(*outcomes):
        assert type(got) is type(want)
        assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want
    assert any(isinstance(v, str) for v in outcomes[0])


# ---- the real n-D lift keeps the bits of the complex one


class ComplexPart(dict):
    """Part k of an n-D jet as it was stored: complex128 values."""

    def __add__(self, other):
        out = ComplexPart(self)
        for g, v in other.items():
            cur = out.get(g)
            out[g] = v if cur is None else cur + v
        return out

    def __neg__(self):
        return ComplexPart({g: -v for g, v in self.items()})

    def __sub__(self, other):
        out = ComplexPart(self)
        for g, v in other.items():
            cur = out.get(g)
            out[g] = -v if cur is None else cur - v
        return out

    def __truediv__(self, s):
        return ComplexPart({g: v / s for g, v in self.items()})

    def __rmul__(self, s):
        return ComplexPart({g: s * v for g, v in self.items()})


class ComplexSparse(ComplexKernels):
    """The n-D part algebra as it was: complex parts, numpy's complex functions and division."""

    def const(self, c0):
        zero = (0,) * self.centers.shape[1]
        first = ComplexPart({zero: np.full(len(self.centers), c0, dtype=np.complex128)})
        return [first] + [ComplexPart() for _ in range(self.order)]

    def var(self, index):
        out = self.const(self.centers[:, index])
        if self.order >= 1:
            unit = tuple(int(i == index) for i in range(self.centers.shape[1]))
            out[1] = ComplexPart({unit: np.ones(len(self.centers), dtype=np.complex128)})
        return out

    def c0(self, u):
        (values,) = u[0].values()
        return values

    def part(self, u, k):
        return u[k]

    def set(self, u, k, v):
        u[k] = v

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def neg(self, a):
        return [-x for x in a]

    def euler(self, u):
        return [k * p for k, p in enumerate(u)]

    def mul(self, a, b):
        return [self.conv(k, a, b, 0, k) for k in range(self.order + 1)]

    def conv(self, k, a, b, lo, hi):
        out = ComplexPart()
        for j in range(lo, hi + 1):
            for ga, va in graded(a[j]):
                for gb, vb in b[k - j].items():
                    g = tuple(map(operator.add, ga, gb))
                    cur = out.get(g)
                    out[g] = va * vb if cur is None else cur + va * vb
        return out


def graded(part):
    """A part's items in graded-lex order, which within a degree is descending lexicographic order."""
    return sorted(part.items(), reverse=True)


def complex_lift(ast, centers, order):
    """The complex lift in the real lift's format: the rows of ``_layout`` that its keys take, and their values."""
    lifted = {g: v for part in ComplexSparse(centers, order).walk(ast.root) for g, v in graded(part)}
    n = centers.shape[1]
    row = {g: r for r, g in enumerate(_keys(n, order + 1, np.arange(math.comb(order + n, n))))}
    return np.array([row[g] for g in lifted], dtype=np.intp), np.array(list(lifted.values()))


# (expression, dims, top order): the dense 3-D and 4-D quotients stop early,
# since their order-16 lifts take seconds
ND_BIT_EXPRS = [
    ("exp(x1*x2) + sin(x1 - x2)", 2, 16),
    ("log(2 + x1 + x2) * cos(x1 + x2) / (1 + x1^2)", 2, 16),
    ("sqrt(3 + x1*x2) - tan(x1 - x2)", 2, 16),
    ("sinh(x1 + x2) * cosh(x1 - x2) - x1*x2", 2, 16),
    ("(1 + x1*x2)^5 - (2 + x1 + x2)^-3 + (x1 + x2)^0", 2, 16),
    ("(2 + x1 - x2)^2.5 * (3 + x1*x2)^(1/3)", 2, 16),
    ("x1^x2 + e*pi - x2", 2, 16),
    ("exp(x1) * log(1 + x2*x3) - cos(x3)^2 / (2 + x1)", 3, 16),
    ("1/(4 + x1 + x2 + x3)", 3, 16),
    ("tan(x1*x2 - x3) / sqrt(1 + x1^2 + x2^2 + x3^2)", 3, 12),
    ("(1 + x1*x2) / tan(1 + x1 - x2)", 2, 16),
    ("sinh(x1 + x2 - x3) / cosh(x4) - x4^3 * x1", 4, 16),
    ("cos(2*pi*x1)*cos(2*pi*x2)*cos(2*pi*x3)*cos(2*pi*x4)", 4, 16),
    ("(2 + x1*x2 + x3*x4)^(1/3) - exp(-x4) * sin(x1) / (3 + x2)", 4, 8),
    ("log(x1 - 1) + x2", 2, 16),  # each lift fails with a domain error from here on
    ("sqrt(x3 - 2) * x1 * x2", 3, 16),
    ("(x1 - x1)^0 + x2", 2, 16),
    ("x1 / (x2 - x4) + x3", 4, 16),  # the divisor vanishes only at the last center
]


def nd_centers(P, n):
    centers = np.random.default_rng(P + n).uniform(0.05, 0.4, size=(P, n))
    centers[-1, -1] = centers[-1, 1]
    return centers


def same_as_the_complex_lift(ast, centers, order):
    """Assert the real lift's keys and bits are the complex lift's; domain errors by message."""
    with np.errstate(all="ignore"):
        try:
            want = complex_lift(ast, centers, order)
        except DomainError as err:
            with pytest.raises(DomainError, match=f"^{re.escape(str(err))}$"):
                _lift_nd_arrays(ast, centers, order)
            return None
        got = _lift_nd_arrays(ast, centers, order)
    assert np.array_equal(got[0], want[0])
    assert np.all(want[1].imag == 0)
    assert got[1].dtype == np.float64
    assert np.array_equal(bits(got[1]), bits(want[1].real))
    return got, want


@pytest.mark.parametrize("P", [1, 7, 1024])
def test_real_nd_lift_keeps_the_complex_lift_bits(P):
    for src, n, top in ND_BIT_EXPRS:
        ast = parse(src, n)
        for order in (0, 1, 3, 8, 12, 16):
            if order <= top and (P < 1024 or n * order <= 36):  # 1,024 points stop at 4-D order 8
                same_as_the_complex_lift(ast, nd_centers(P, n), order)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_signed_zeros_the_real_lift_moves_never_reach_a_stage(n):
    # at a zero coordinate a real product can be -0 where the complex one was
    # +0 (2 * -0 against (2 + 0i)(-0 - 0i)); every stage value is a sum that
    # starts from +0, so the stages keep their bits, and so does every
    # printed coefficient and bound
    srcs = ["*".join(f"cos(2*pi*x{i})" for i in range(1, n + 1)), f"2*(-x1) * sin(x{n}) + (x1 - x1)*exp(x2)"]
    centers = np.zeros((5, n))
    centers[2:, 0] = 0.25
    for src in srcs:
        ast = parse(src, n)
        (rows, got), (want_rows, want) = _lift_nd_arrays(ast, centers, 8), complex_lift(ast, centers, 8)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(got, want.real)  # equal values; zeros may differ in sign
        keys = _digits(n, 9, rows)
        for lam in (1.0, TWO_PI_I):
            for N in range(9):
                # the real lift's stages against the complex lift's real parts: a real lam stages both in float64
                staged = (stage_rows(rows, values, n, N, lam) for values in (got, want.real))
                assert np.array_equal(*map(bits, staged))
            for p in range(len(centers)):
                dense = [np.zeros((9,) * n, dtype=np.complex128) for _ in (got, want)]
                for t, values in zip(dense, (got, want)):
                    t[tuple(keys.T)] = values[:, p]
                assert np.array_equal(*(bits(stage_tensor(t, lam)) for t in dense))


@pytest.mark.parametrize(
    "src, n, x",
    [
        ("1/(4 + x1 + x2 + x3)", 3, (0.3, 0.2, 0.1)),
        ("cos(2*pi*x1)*cos(2*pi*x2)*exp(x3)", 3, (0.2, 0.1, 0.25)),
        ("sinh(x1 + x2 - x3) / cosh(x4) - x4^3 * x1", 4, (0.2, 0.1, 0.3, 0.1)),
        ("1/(x1 - 0.001953125) + x2 + x3", 3, (0.0625, 0.0625, 0.0625)),  # zero at the segment's second sample
    ],
)
def test_sampled_bound_is_the_complex_lifts_bound(monkeypatch, src, n, x):
    ast = parse(src, n)
    results = []
    for lifter in (_lift_nd_arrays, complex_lift):
        monkeypatch.setattr(seriesnd, "_lift_nd_arrays", lifter)
        try:
            est = remainder_bound_nd(ast, 1.0, (0.0,) * n, x, 6)
            results.append((est.integral_value, est.bound_tight, est.bound_loose))
        except DomainError as err:
            results.append(str(err))
    assert results[0] == results[1]
    assert isinstance(results[0], tuple) or results[0] == "division: argument is zero at a lift point"


def test_an_imaginary_constant_is_refused_in_n_d():
    # the grammar has no imaginary literal: only a hand-built AST holds one,
    # and a real jet would silently drop its imaginary part
    ast = ExprAst(BinOp("+", Var(0, "x1"), BinOp("*", Const(1j), Var(1, "x2"))), 2)
    with pytest.raises(ValidationError, match="real"):
        lift(ast, (0.1, 0.2), 3)
    with pytest.raises(ValidationError, match="real"):
        remainder_bound_nd(ast, 1.0, (0.1, 0.2), (0.2, 0.3), 3, grid=5)
    real = ExprAst(BinOp("+", Var(0, "x1"), Const(complex(2.0, 0.0))), 2)
    assert lift(real, (0.1, 0.2), 2).coeffs[0, 0] == 2.1


def test_an_imaginary_constant_is_refused_in_1_d():
    # 1-D jets are real as well: a hand-built imaginary constant is refused
    # rather than dropped
    ast = ExprAst(BinOp("+", Var(0, "x"), Const(1j)), 1)
    with pytest.raises(ValidationError, match="real"):
        lift(ast, (0.1,), 3)
    with pytest.raises(ValidationError, match="real"):
        expand(ast, 1.0, (0.1,), 3)
    real = ExprAst(BinOp("+", Var(0, "x"), Const(complex(2.0, 0.0))), 1)
    assert lift(real, (0.1,), 2).coeffs[0] == 2.1
