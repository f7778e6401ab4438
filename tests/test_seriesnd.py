"""Tests for expansions in 1 to 4 variables, their remainder along the segment and its bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exptaylor
from exptaylor import jet, series1d, seriesnd, stirling
from exptaylor.errors import DomainError, ValidationError
from exptaylor.expr import parse
from exptaylor.jet import _lift_1d_array, _lift_nd_arrays, lift
from exptaylor.operators import stage_rows, stage_tensor
from exptaylor.series1d import (
    _quad_rule,
    epsilon_sup,
    expm1,
    horner,
    remainder_bound,
)
from exptaylor.seriesnd import (
    POINT_CHUNK,
    evaluate,
    expand,
    multi_indices,
    remainder_bound_nd,
)

LAM = 2j * math.pi


def product_cosine():
    return parse("cos(2*pi*x1) * cos(2*pi*x2)", 2)


def of_degree(n, degree):
    """The multi-indices with ``|g| == degree``: the last degree block of ``multi_indices(n, degree + 1)``."""
    return multi_indices(n, degree + 1)[math.comb(degree - 1 + n, n) :]


def factorial(g):
    """``g! = prod_i g_i!``."""
    return math.prod(map(math.factorial, g))


# ---- multi-index machinery --------------------------------------------------


def test_multi_indices_two_dims_order_two():
    assert multi_indices(2, 2) == [(0, 0), (1, 0), (0, 1)]


def test_multi_indices_two_dims_order_three():
    # within a degree the earlier axis dominates
    assert multi_indices(2, 3) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_multi_indices_one_dim():
    assert multi_indices(1, 4) == [(0,), (1,), (2,), (3,)]


@pytest.mark.parametrize("n,order", [(1, 6), (2, 5), (3, 5), (4, 4)])
def test_multi_indices_count(n, order):
    assert len(multi_indices(n, order)) == math.comb(order - 1 + n, n)


@pytest.mark.parametrize("n,degree", [(2, 2), (3, 4), (4, 3)])
def test_degree_slice_count(n, degree):
    got = of_degree(n, degree)
    assert len(got) == math.comb(degree + n - 1, n - 1)
    assert all(sum(g) == degree for g in got)


def test_degree_slice_matches_full_list_order():
    full = multi_indices(3, 5)
    sliced = [g for g in full if sum(g) == 3]
    assert sliced == of_degree(3, 3)


def test_multi_index_factorial():
    assert seriesnd._factorials(np.array([(2, 3, 1)])).tolist() == [12]
    assert seriesnd._factorials(np.array([(0, 0)])).tolist() == [1]
    assert seriesnd._factorials(np.array([(5,)])).tolist() == [120]
    # the float table the remainder reads is exact for every |g| <= 16
    for n in range(1, 5):
        keys = multi_indices(n, 17)
        assert seriesnd._factorials(np.array(keys)).tolist() == [factorial(g) for g in keys]


# ---- the segment ---------------------------------------------------------------


def spy_lifts(monkeypatch):
    """Record the points that ``remainder_bound_nd`` hands to each n-D lift."""
    batches = []

    def recording(ast, centers, order):
        batches.append(np.array(centers))
        return _lift_nd_arrays(ast, centers, order)

    monkeypatch.setattr(seriesnd, "_lift_nd_arrays", recording)
    return batches


def test_segment_runs_from_center_to_x(monkeypatch):
    # the grid's samples in t order, then the Gauss-Legendre nodes, all on c + t (x - c)
    batches = spy_lifts(monkeypatch)
    c, x = np.array([0.2, -0.1]), np.array([-0.3, 0.4])
    remainder_bound_nd(product_cosine(), LAM, tuple(c), tuple(x), 3, grid=5)
    (points,) = batches
    theta, _ = _quad_rule(64)
    t = np.concatenate((np.linspace(0.0, 1.0, 5), theta))
    assert np.array_equal(points, c + t[:, None] * (x - c))
    assert np.array_equal(points[0], c)
    assert np.allclose(points[4], x, rtol=0, atol=1e-16)


def test_expansion_lifts_once_at_the_center(monkeypatch):
    # the expansion's jet is one lift at the center, to order - 1
    calls = []

    def recording(ast, center, order):
        calls.append((tuple(center), order))
        return lift(ast, center, order)

    monkeypatch.setattr(seriesnd, "lift", recording)
    expand(product_cosine(), LAM, (0.2, -0.1), 5)
    assert calls == [((0.2, -0.1), 4)]


def test_segment_validation():
    ast = product_cosine()
    with pytest.raises(ValidationError, match="center and x must have length 2"):
        remainder_bound_nd(ast, LAM, (0.0,), (1.0, 2.0), 3)
    with pytest.raises(ValidationError, match="center and x must have length 2"):
        remainder_bound_nd(ast, LAM, (0.0, 0.0), (1.0, 2.0, 3.0), 3)
    for grid in (0, 2, 5.0):
        with pytest.raises(ValidationError, match=f"grid must be an integer >= 3, got {grid!r}"):
            remainder_bound_nd(ast, LAM, (0.0, 0.0), (0.1, 0.1), 3, grid=grid)
    # four axes take the same segment, and the same grid check
    with pytest.raises(ValidationError, match="grid must be an integer >= 3, got 2"):
        remainder_bound_nd(parse("x1*x4", 4), LAM, (0.0,) * 4, (0.1,) * 4, 3, grid=2)


# ---- expansion coefficients ---------------------------------------------------


def test_expand_constant():
    e = expand(parse("3", 2), LAM, (0.0, 0.0), 4)
    assert e.coeffs[(0, 0)] == 3
    assert all(e.coeffs[g] == 0 for g in multi_indices(2, 4) if g != (0, 0))


def test_expand_keys_cover_all_indices():
    # a dense (order,) * n array: the multi-indices of |g| < order, and zeros past them
    e = expand(product_cosine(), LAM, (0.0, 0.0), 6)
    assert e.coeffs.shape == (6, 6)
    past = np.ones((6, 6), dtype=bool)
    past[tuple(np.array(multi_indices(2, 6)).T)] = False
    assert np.count_nonzero(past) == 36 - 21 and np.all(e.coeffs[past] == 0)
    assert np.count_nonzero(e.coeffs[~past]) > 0


def test_product_coefficient_xy():
    e = expand(parse("x1*x2", 2), LAM, (0.0, 0.0), 3)
    assert e.coeffs[(1, 1)] == pytest.approx(-1.0 / (4 * math.pi**2), rel=1e-14)


def test_separability_product_cosine():
    e2 = expand(product_cosine(), LAM, (0.0, 0.0), 10)
    e1 = expand(parse("cos(2*pi*x)"), LAM, (0.0,), 10)
    for g1, g2 in multi_indices(2, 10):
        ref = e1.coeffs[g1] * e1.coeffs[g2]
        assert e2.coeffs[g1, g2] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_constant_factor_scales_coefficients():
    a = expand(parse("5 * x1 * x2", 2), LAM, (0.0, 0.0), 4)
    b = expand(parse("x1*x2", 2), LAM, (0.0, 0.0), 4)
    for g in multi_indices(2, 4):
        assert a.coeffs[g] == pytest.approx(5 * b.coeffs[g], rel=1e-13, abs=1e-15)


def test_center_coefficient_is_function_value():
    e = expand(product_cosine(), LAM, (0.05, -0.03), 4)
    true = math.cos(2 * math.pi * 0.05) * math.cos(2 * math.pi * -0.03)
    assert e.coeffs[(0, 0)] == pytest.approx(true, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coefficients_are_the_per_key_quotients(n):
    # the one array product keeps the bits and the key order of multiplying each stage by 1/g! on its
    # own, signed zeros included.  That is how numpy's complex division by g! + 0i rounds, so each value
    # is also that quotient, up to the sign of a zero, which no renderer prints
    def check(stages, got, order):
        keys = multi_indices(n, order)
        values = np.array([got[g] for g in keys])
        want = np.array([stages[g] * (1.0 / factorial(g)) for g in keys])
        assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
        quotients = np.array([np.complex128(stages[g]) / float(factorial(g)) for g in keys])
        assert np.array_equal(values + 0.0, quotients + 0.0)

    xs = ["x"] if n == 1 else [f"x{i}" for i in range(1, n + 1)]
    srcs = ["*".join(f"cos(2*pi*{x})" for x in xs), f"{xs[0]} * sin({xs[-1]}) / (4 + {xs[0]} + {xs[-1]})"]
    for src in srcs:
        ast = parse(src, n)
        for order in range(1, 17):
            for lam in (1.0, LAM):
                got = expand(ast, lam, (0.0,) * n, order).coeffs
                assert got.shape == (order,) * n and np.iscomplexobj(got) == (lam != 1.0)
                check(stage_tensor(lift(ast, (0.0,) * n, order - 1).coeffs, lam), got, order)
    # stages over 60 binades, a third of their parts +0 or -0, up to the highest order of the lift
    top = 64 if n == 1 else 16
    rng = np.random.default_rng(n)
    parts = rng.standard_normal((top,) * n + (2,)) * 2.0 ** rng.integers(-30, 30, size=(top,) * n + (2,))
    pick = rng.random(parts.shape)
    parts[pick < 0.15], parts[pick > 0.85] = 0.0, -0.0
    stages = parts.view(np.complex128)[..., 0]
    index, factorials = seriesnd._expansion_table(n, top)
    got = np.zeros_like(stages)
    got[index] = stages[index] * (1.0 / factorials)
    check(stages, got, top)


def test_expansion_table_cannot_be_changed_by_a_caller():
    index, factorials = seriesnd._expansion_table(3, 5)
    assert isinstance(index, tuple)
    assert list(zip(*(a.tolist() for a in index))) == multi_indices(3, 5)
    for a in (*index, factorials):
        with pytest.raises(ValueError):
            a[0] = 7
    assert seriesnd._expansion_table(3, 5)[0] is index


# ---- evaluation ----------------------------------------------------------------


def test_eval_at_center_returns_c0():
    e = expand(product_cosine(), LAM, (0.1, 0.2), 5)
    assert evaluate(e, (0.1, 0.2)) == pytest.approx(e.coeffs[(0, 0)], abs=1e-15)


def test_eval_product_cosine_high_order():
    e = expand(product_cosine(), LAM, (0.0, 0.0), 16)
    true = math.cos(0.1 * math.pi) ** 2
    assert abs(evaluate(e, (0.05, 0.05)) - true) < 1e-5


def test_eval_one_dim_matches_series1d():
    # one variable takes the 1-D lift, its stages times 1/j!, and series1d's Horner in w, bit for bit
    ast = parse("cos(2*pi*x)")
    e = expand(ast, LAM, (0.1,), 8)
    want = stage_tensor(lift(ast, (0.1,), 7).coeffs, LAM) * (1.0 / np.array([math.factorial(j) for j in range(8)]))
    assert e.coeffs.shape == (8,)
    assert np.array_equal(e.coeffs.view(np.uint64), want.view(np.uint64))
    for x in (0.05, 0.18, -0.12):
        assert evaluate(e, (x,)) == complex(horner(want, expm1(LAM * (complex(x) - 0.1))))


def test_eval_complex_point():
    e = expand(parse("exp(x1 + x2)", 2), 1.0, (0.0, 0.0), 3)
    # exp(x1+x2) with lam = 1 terminates on each axis at degree 1
    val = evaluate(e, (0.3 + 0.1j, -0.2))
    assert val == pytest.approx(np.exp(0.1 + 0.1j), rel=1e-12)


ND_POINTS = [
    ("cos(2*pi*x1)*cos(2*pi*x2)", 2, LAM, (0.0, 0.0), 8, (0.05, 0.05)),
    ("cos(2*pi*x1)*cos(2*pi*x2)", 2, LAM, (0.0, 0.0), 16, (0.1 + 0.02j, -0.07)),
    ("exp(x1*x2)/(2+x2)", 2, 0.3 + 1.0j, (0.1, -0.2), 12, (0.35, 0.05 - 0.1j)),
    ("exp(x1*x2)+x3^2/(2+x1)", 3, 1.0, (0.1, 0.2, 0.3), 10, (0.25, 0.1, 0.4)),
    ("exp(x1*x2)+x3^2/(2+x1)", 3, -0.5, (0.1, 0.2, 0.3), 10, (0.25j, 0.1, 0.4 - 0.2j)),
    ("exp(x1*x2)+x3^2*x4", 4, LAM, (0.1, 0.2, 0.3, 0.4), 8, (0.15, 0.25, 0.2, 0.45)),
]


@pytest.mark.parametrize("src, n, lam, center, order, x", ND_POINTS)
def test_eval_against_an_mpmath_sum_of_the_same_coefficients(src, n, lam, center, order, x):
    mpmath = pytest.importorskip("mpmath")
    e = expand(parse(src, n), lam, center, order)
    with mpmath.workdps(30):
        mlam = mpmath.mpc(complex(lam))
        w = [mpmath.expm1(mlam * (mpmath.mpc(complex(xi)) - ci)) for xi, ci in zip(x, center)]
        terms = [
            mpmath.mpc(complex(e.coeffs[g])) * mpmath.fprod(wi**gi for wi, gi in zip(w, g))
            for g in multi_indices(n, order)
        ]
        want = complex(mpmath.fsum(terms))
        size = float(mpmath.fsum(abs(t) for t in terms))
    # each term passes through order - 1 complex multiply-adds per axis, within
    # 4u each, and carries the error of each w_i (within 8u, test_series1d's
    # expm1 check) to a power of at most order - 1: (4n + 8)(order - 1)u in all
    tol = 8 * (n + 1) * (order - 1) * 2.0**-53 * size
    assert abs(evaluate(e, x) - want) <= tol


# ---- remainder along the segment ------------------------------------------------


def bits(est):
    """The estimate's numbers as raw bits, so signed zeros and NaNs compare too."""
    values = [est.integral_value.real, est.integral_value.imag, est.bound_tight, est.bound_loose]
    return np.array(values).view(np.uint64).tolist() + [est.order, est.grid_points]


def test_bound_zero_at_center():
    est = remainder_bound_nd(product_cosine(), LAM, (0.1, 0.1), (0.1, 0.1), 4)
    assert (est.integral_value, est.bound_tight, est.bound_loose) == (0, 0.0, 0.0)


def test_bound_zero_for_constant():
    est = remainder_bound_nd(parse("3", 2), LAM, (0.0, 0.0), (0.3, 0.2), 4)
    assert (est.integral_value, est.bound_tight, est.bound_loose) == (0, 0.0, 0.0)


def test_bound_dominates_measured_error():
    ast = product_cosine()
    e = expand(ast, LAM, (0.0, 0.0), 8)
    true = math.cos(0.1 * math.pi) ** 2
    series = evaluate(e, (0.05, 0.05))
    est = remainder_bound_nd(ast, LAM, (0.0, 0.0), (0.05, 0.05), 8, grid=33)
    assert abs(series - true) <= 1.02 * est.bound_tight <= 1.02 * est.bound_loose
    assert abs(series + est.integral_value - true) <= 1e-15


def roundoff_scales(lift, n, degrees, lam):
    """Per stage and point, ``sum_m |W[g, m]| |lam|^-|m| |c_m|``: the terms each stage rounds, for every ``g`` of
    each degree in ``degrees``, in layout order.

    Row ``g`` of ``W`` has the sign ``(-1)^(|g| - |m|)``, so staging ``|c|``
    at ``-|lam|`` gives every term the sign ``(-1)^|g|``, and no term cancels.
    """
    rows, values = lift
    return np.concatenate([(-1.0) ** N * stage_rows(rows, np.abs(values), n, N, -abs(lam)) for N in degrees])


def one_dim_tolerances(ast, lam, x0, x, N, grid):
    """How far the segment loop may round from the 1-D remainder: integral, tight and loose bound.

    Both paths form stage N from the terms S[N, m] lam^-m c_m, each within
    (7N + 5)u of sigma, their absolute sum (as in
    test_cascade_agrees_with_stirling_within_roundoff); the powers E^(N-1) by
    repeated products against binary powering, within 2(N - 1)u relative each;
    the products by d, lam, the weights and the factorials and the 64-term sum
    add under 16u.  That is under 32 (N + 1) u of sigma |d| |E|^(N-1) / (N-1)!
    per point, summed with the weights or maximized over the grid.
    """
    theta, weights = _quad_rule(64)
    s, dx = np.linspace(0.0, 1.0, grid), x - x0
    scale = abs(lam) * abs(dx) / math.factorial(N - 1) * 32 * (N + 1) * 2.0**-53
    sigma_nodes, sigma_grid = (
        roundoff_scales(_lift_nd_arrays(ast, (x0 + t * dx)[:, None], N), 1, [N], lam)[0] for t in (theta, s)
    )
    on_nodes = sigma_nodes * np.abs(np.expm1(lam * (1 - theta) * dx)) ** (N - 1)
    on_grid = sigma_grid * np.abs(np.expm1(lam * (1 - s) * dx)) ** (N - 1)
    eps = epsilon_sup(lam, abs(dx)) ** (N - 1)
    return scale * np.sum(weights * on_nodes), scale * np.max(on_grid), scale * eps * np.max(sigma_grid)


ONE_DIM_CASES = [
    ("cos(2*pi*x)", LAM, 0.1, 0.25, 6, 513),
    ("exp(x)/(2+x)", 1.0, 0.1, 0.4, 8, 33),
    ("sin(3*x)*log(2+x)", -1.0, 0.2, -0.1, 10, 65),
    ("1/(3+x)", 0.3 + 1j, 0.0, 0.5, 5, 33),
]


def test_bound_one_dim_matches_loose_bound():
    # at n = 1 the segment loop is the 1-D remainder: the same points, lifted to
    # the same bits (checked), staged by stage_rows where the 1-D path nests stirling_rows
    for src, lam, x0, x, N, grid in ONE_DIM_CASES:
        ast = parse(src)
        got = remainder_bound_nd(ast, lam, (x0,), (x,), N, grid=grid)
        want = remainder_bound(ast, lam, x0, x, N, grid=grid, quad_nodes=64)
        points = np.concatenate((np.linspace(0.0, 1.0, grid), _quad_rule(64)[0])) * (x - x0) + x0
        jets = _lift_1d_array(ast, points, N)
        rows, values = _lift_nd_arrays(ast, points[:, None], N)
        assert all(np.array_equal(v, jets[:, m]) for m, v in zip(rows.tolist(), values))
        tol_integral, tol_tight, tol_loose = one_dim_tolerances(ast, lam, x0, x, N, grid)
        assert abs(got.integral_value - want.integral_value) <= tol_integral, src
        assert abs(got.bound_tight - want.bound_tight) <= tol_tight, src
        assert abs(got.bound_loose - want.bound_loose) <= tol_loose, src
        assert got.grid_points == want.grid_points == grid


@pytest.mark.parametrize("lam", [LAM, 1.0], ids=["imaginary", "real"])
def test_axis_parallel_segment_is_the_one_dim_remainder(lam):
    # along x1 at x2 = c2, E_2 = 0 and only g = (N-1, 0) is left of the integrand,
    # so the remainder of cos(2 pi x1) exp(x2) is exp(c2) times that of cos(2 pi x);
    # the lift's products by exp(c2) add a rounding of u, inside the 1-D tolerances
    c2, N, grid = 0.3, 7, 65
    got = remainder_bound_nd(parse("cos(2*pi*x1) * exp(x2)", 2), lam, (0.1, c2), (0.25, c2), N, grid=grid)
    ast = parse("cos(2*pi*x)")
    want = remainder_bound(ast, lam, 0.1, 0.25, N, grid=grid, quad_nodes=64)
    tol_integral, tol_tight, _ = one_dim_tolerances(ast, lam, 0.1, 0.25, N, grid)
    k = math.exp(c2)
    assert abs(got.integral_value - k * want.integral_value) <= k * tol_integral
    assert abs(got.bound_tight - k * want.bound_tight) <= k * tol_tight


def test_measured_remainder_decays_geometrically():
    ast = product_cosine()
    true = math.cos(0.1 * math.pi) ** 2
    errs = []
    for order in range(2, 13):
        e = expand(ast, LAM, (0.0, 0.0), order)
        errs.append(abs(evaluate(e, (0.05, 0.05)) - true))
    for a, b in zip(errs, errs[1:]):
        assert b <= 0.95 * a


def test_bound_four_dims_random_sampling():
    # both bounds dominate the measured error at 20 seeded random points of [-0.05, 0.05]^4
    src = "cos(2*pi*x1) * cos(2*pi*x2) * cos(2*pi*x3) * cos(2*pi*x4)"
    ast = parse(src, 4)
    e = expand(ast, LAM, (0.0,) * 4, 3)
    for x in np.random.default_rng(1).uniform(-0.05, 0.05, size=(20, 4)):
        x = tuple(map(float, x))
        measured = abs(evaluate(e, x) - math.prod(math.cos(2 * math.pi * xi) for xi in x))
        est = remainder_bound_nd(ast, LAM, (0.0,) * 4, x, 3, grid=9)
        assert measured <= 1.02 * est.bound_tight <= 1.02 * est.bound_loose


def stage_by_chunk(rows, values, n, N, lam):
    """``stage_rows`` over POINT_CHUNK columns at a time: a longer BLAS product may split its columns otherwise."""
    parts = [values[:, lo : lo + POINT_CHUNK] for lo in range(0, values.shape[1], POINT_CHUNK)]
    return np.concatenate([stage_rows(rows, part, n, N, lam) for part in parts], axis=1)


def whole_batch(monkeypatch, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with one lift of every segment point and one pass of the chunk loop."""
    with monkeypatch.context() as m:
        batches = spy_lifts(m)
        m.setattr(seriesnd, "POINT_CHUNK", 2**62)
        m.setattr(seriesnd, "stage_rows", stage_by_chunk)
        out = fn(*args, **kwargs)
    assert len(batches) == 1 and len(batches[0]) > POINT_CHUNK  # the reference ran, over more than one chunk
    return out


@pytest.mark.parametrize(
    "src, n, grid, lam",
    [
        ("exp(x1)/(3+x1-x2) + sin(x1*x2)", 2, 1100, LAM),  # 1,164 points: 1,024 + 140
        ("exp(x1*x2) + x3^2 + 1/(4+x1+x2+x3)", 3, 2049, 1.0),  # 2,113 points: 2 * 1,024 + 65
        ("exp(x1*x2) + x3^2*x4 + 1/(4+x1+x2+x3+x4)", 4, 1985, 0.5 - 2j),  # 2,049 points: a 1-point chunk last
    ],
    ids=["2d_grid1100", "3d_grid2049", "4d_grid1985_one_point_tail"],
)
def test_streamed_bound_equals_whole_batch_bound(monkeypatch, src, n, grid, lam):
    ast = parse(src, n)
    args = (ast, lam, (0.0,) * n, tuple(0.05 * (i + 1) for i in range(n)), 8)
    streamed = remainder_bound_nd(*args, grid=grid)
    assert streamed.bound_tight > 0 and streamed.integral_value != 0
    assert bits(streamed) == bits(whole_batch(monkeypatch, remainder_bound_nd, *args, grid=grid))


def test_sampled_bound_memory_is_bounded_by_the_chunk(monkeypatch):
    # 4,097 samples and 64 nodes at order 8 in 3 variables.  Per chunk the
    # lifted jet, the working jets of the walk, the scaled copy that
    # stage_rows multiplies and its product each hold at most `keys` complex
    # rows of POINT_CHUNK values: four rows of that size.  Across the chunks
    # only the points, E and the integrand are held, O(n) values per point.
    batches = spy_lifts(monkeypatch)
    ast, order, grid = parse("1/(4+x1+x2+x3)", 3), 8, 4097
    keys = math.comb(order + 3, 3)
    limit = 4 * keys * POINT_CHUNK * 16
    tracemalloc.start()
    try:
        est = remainder_bound_nd(ast, 1.0, (0.0,) * 3, (0.1,) * 3, order, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.grid_points == grid
    assert [len(b) for b in batches] == [POINT_CHUNK] * 4 + [grid + 64 - 4 * POINT_CHUNK]
    assert peak < limit, (peak, limit)


# Functions of n variables with their 40-digit values and their distance to
# the nearest complex singularity from a real point: the reciprocal's
# hyperplane sum z = -a, the quotient's z1 = -a, none for the entire one.
ND_FUNCTIONS = {
    "reciprocal": (
        lambda n, a: "1/(" + " + ".join([repr(a)] + [f"x{i}" for i in range(1, n + 1)]) + ")",
        lambda mp, p, a: 1 / (a + mp.fsum(p)),
        lambda p, a: abs(a + sum(p)) / math.sqrt(len(p)),
    ),
    "entire": (
        lambda n, a: f"exp(x1*x2)*cos(x{n})",
        lambda mp, p, a: mp.exp(p[0] * p[1]) * mp.cos(p[-1]),
        lambda p, a: math.inf,
    ),
    "quotient": (
        lambda n, a: f"exp(x1)*sin(x2) + x{n}^2/({a!r} + x1)",
        lambda mp, p, a: mp.exp(p[0]) * mp.sin(p[1]) + p[-1] ** 2 / (a + p[0]),
        lambda p, a: abs(a + p[0]),
    ),
}


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(sorted(ND_FUNCTIONS)),
    a=st.floats(1.5, 3.0),
    lam=st.sampled_from([1.0, LAM, 0.3 + 1j, -1.0]),
    order=st.integers(3, 10),
    c=st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=4),
    d=st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4),
)
def test_remainder_matches_mpmath_and_both_bounds_dominate(n, kind, a, lam, order, c, d):
    mpmath = pytest.importorskip("mpmath")
    source, value, distance = ND_FUNCTIONS[kind]
    c, d = c[:n], d[:n]
    x = [ci + di for ci, di in zip(c, d)]
    length = math.hypot(*d)
    # the singular sets are hyperplanes, so the distance along the segment is least at an end
    assume(min(distance(c, a), distance(x, a)) >= 2 * length)
    ast, N = parse(source(n, a), n), order
    est = remainder_bound_nd(ast, lam, c, x, N)
    e = expand(ast, lam, c, N)
    with mpmath.workdps(40):
        mlam = mpmath.mpc(lam)
        w = [mpmath.expm1(mlam * (mpmath.mpf(xi) - mpmath.mpf(ci))) for xi, ci in zip(x, c)]
        series = mpmath.fsum(
            mpmath.mpc(complex(e.coeffs[g])) * mpmath.fprod(wi**gi for wi, gi in zip(w, g)) for g in multi_indices(n, N)
        )
        error = complex(value(mpmath, [mpmath.mpf(xi) for xi in x], mpmath.mpf(a)) - series)
    # Quadrature: the integrand is analytic within 1 of [0, 1] in t (half the
    # distance allowed), whose Bernstein ellipse has rho = 2 + sqrt(5), so the
    # 64-node rule errs by about rho^-128 < 1e-80 of the integrand's size
    # there: nothing next to the rounding.  Rounding, with u = 2^-53:
    # - each stage rounds within (7N + 5)u per axis of its terms' absolute
    #   sum sigma (as test_cascade_agrees_with_stirling_within_roundoff argues
    #   in 1-D), the powers of E within 2(N - 1)u, and the products by d, 1/g!
    #   and the weights and the two sums (over g and the nodes) within
    #   (n + 16)u: under 16 n (N + 1) u of |lam| sum_i w_i A(theta_i),
    #   A = sum over |g| = N-1 of |E|^g / g! sum_k |d_k| sigma_{g+e_k};
    # - the printed coefficients carry the same stage rounding, divided by g!,
    #   into the reference f(x) - series: B = sum over |g| < N of sigma_g(c) |w|^g / g!.
    # The factor 64 n (N + 1) u leaves room for second-order terms.
    theta, weights = _quad_rule(64)
    gammas, lower = of_degree(n, N), of_degree(n, N - 1)
    points = np.array(c) + theta[:, None] * np.array(d)
    sigma = dict(zip(gammas, roundoff_scales(_lift_nd_arrays(ast, points, N), n, [N], lam)))
    E = np.abs(np.expm1(lam * (1 - theta)[:, None] * np.array(d)))
    A = sum(
        np.prod(E**g, axis=1) / factorial(g) * abs(d[k]) * sigma[g[:k] + (g[k] + 1,) + g[k + 1 :]]
        for g in lower
        for k in range(n)
    )
    keys = multi_indices(n, N)
    sigma_c = roundoff_scales(_lift_nd_arrays(ast, np.array([c]), N - 1), n, range(N), lam)[:, 0]
    wabs = np.abs([complex(wi) for wi in w])
    B = sum(s * np.prod(wabs**g) / factorial(g) for g, s in zip(keys, sigma_c))
    tol = 64 * n * (N + 1) * 2.0**-53 * (abs(lam) * np.sum(weights * A) + B)
    assert abs(est.integral_value - error) <= tol, (abs(est.integral_value - error), tol, abs(error))
    assert abs(error) <= est.bound_tight + tol
    assert abs(error) <= est.bound_loose + tol


# ---- the public surface -------------------------------------------------------------


def test_public_names_resolve_sorted_and_the_removed_ones_are_gone():
    # a stale entry in __all__ breaks only ``from exptaylor import *``
    assert exptaylor.__all__ == sorted(exptaylor.__all__)
    for name in exptaylor.__all__:
        assert hasattr(exptaylor, name), name
    namespace = {}
    exec("from exptaylor import *", namespace)
    assert {"Expansion", "expand", "evaluate"} <= namespace.keys()
    # one expansion, one expand and one evaluate for 1 to 4 variables replaced the first six, and one jet
    # and one lift the last three
    removed = ("Expansion1D", "ExpansionND", "expand_1d", "expand_nd", "eval_series", "eval_nd")
    removed += ("Jet1D", "JetND", "lift_nd")
    # the exact Stirling table and the ratio-row list had no caller but the tests; a degree block is a slice of
    # multi_indices, and g! is math.prod(map(math.factorial, g))
    removed += ("StirlingTable", "build_table", "build_ratio_rows", "multi_indices_of_degree", "multi_index_factorial")
    for name in removed:
        assert name not in exptaylor.__all__ and name not in namespace
        assert not any(hasattr(module, name) for module in (exptaylor, jet, series1d, seriesnd, stirling)), name
    assert not hasattr(stirling, "MAX_TABLE_DEPTH")


# ---- validation -------------------------------------------------------------------


def test_expand_validation():
    ast = product_cosine()
    with pytest.raises(ValidationError):
        expand(ast, LAM, (0.0, 0.0), 0)
    with pytest.raises(ValidationError):
        expand(ast, LAM, (0.0, 0.0), 17)
    with pytest.raises(ValidationError):
        expand(ast, LAM, (0.0, 0.0, 0.0), 4)  # a center of the wrong length
    with pytest.raises(ValidationError):
        expand(ast, 0.0, (0.0, 0.0), 4)
    with pytest.raises(ValidationError):
        expand(ast, LAM, (0.0,), 4)
    with pytest.raises(ValidationError):
        expand(ast, LAM, (), 4)


def test_eval_validation():
    e = expand(product_cosine(), LAM, (0.0, 0.0), 4)
    with pytest.raises(ValidationError):
        evaluate(e, (0.1,))


def test_bound_validation():
    ast = product_cosine()
    with pytest.raises(ValidationError):
        remainder_bound_nd(ast, LAM, (0.0, 0.0), (0.1,), 4)
    with pytest.raises(ValidationError):
        remainder_bound_nd(ast, LAM, (0.0, 0.0), (0.1, 0.1), 4, grid=2)


@pytest.mark.parametrize(
    "center, x, message",
    [
        ((math.nan, 0.0), (0.1, 0.1), "center must not hold nan, got [nan, 0.0]"),
        ((0.0, 0.0), (0.1, math.nan), "x must not hold nan, got [0.1, nan]"),
    ],
    ids=["center", "x"],
)
def test_bound_refuses_a_nan_coordinate(center, x, message):
    # a nan is refused by the argument's name, not as epsilon_sup's half-width; an infinite offset is a DomainError
    ast = parse("x1*x2", 2)
    with pytest.raises(ValidationError) as err:
        remainder_bound_nd(ast, 1.0, center, x, 3)
    assert str(err.value) == message
    with pytest.raises(DomainError) as err:
        remainder_bound_nd(ast, 1.0, (0.0, 0.0), (0.1, math.inf), 3)
    assert str(err.value) == "non-finite value in bound"
