"""1-D expansion, exact remainder, bounds, and convergence diagnostics."""

import dataclasses
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exptaylor import series1d
from exptaylor.errors import DiagnosticError, DomainError, ValidationError
from exptaylor.expr import eval_complex, parse
from exptaylor.jet import _lift_1d_array, lift
from exptaylor.operators import cascade_values, stage_tensor, stirling_rows
from exptaylor.series1d import (
    LIFT_BLOCK,
    GrowthReport,
    RemainderEstimate,
    _cascade_roundoff_scales,
    _mapped_rule,
    _quad_rule,
    epsilon_sup,
    expm1,
    growth_diagnostic,
    radius_estimate,
    remainder_bound,
    remainder_bounds,
)
from exptaylor.seriesnd import evaluate, expand

TWO_PI_I = 2j * math.pi


def test_cosine_coefficients():
    exp = expand(parse("cos(2*pi*x)"), TWO_PI_I, (0.0,), 5)
    np.testing.assert_allclose(exp.coeffs, [1, 0, 0.5, -0.5, 0.5], atol=1e-12)


def test_linear_coefficients():
    exp = expand(parse("x"), TWO_PI_I, (0.0,), 8)
    assert exp.coeffs[0] == 0
    for j in range(1, 8):
        want = (-1) ** (j - 1) / (j * TWO_PI_I)
        assert exp.coeffs[j] == pytest.approx(want, rel=1e-12)


def test_exp_termination_coefficients():
    exp = expand(parse("exp(x)"), 1.0, (0.0,), 5)
    np.testing.assert_allclose(exp.coeffs, [1, 1, 0, 0, 0], atol=1e-15)


def test_constant_term_is_function_value():
    for src, x0 in [("cos(2*pi*x)", 0.2), ("sin(x)+x^3", -0.4), ("exp(2*x)", 1.1)]:
        exp = expand(parse(src), TWO_PI_I, (x0,), 4)
        assert exp.coeffs[0] == pytest.approx(eval_complex(parse(src), x0), rel=1e-14)


def test_expand_validation():
    ast = parse("x")
    with pytest.raises(ValidationError):
        expand(ast, 0.0, (0.0,), 4)
    with pytest.raises(ValidationError):
        expand(ast, 1.0, (0.0,), 0)
    with pytest.raises(ValidationError):
        expand(ast, 1.0, (0.0,), 65)


def test_eval_series_at_center():
    exp = expand(parse("sin(x)+x^3"), TWO_PI_I, (0.3,), 7)
    assert evaluate(exp, (0.3,)) == exp.coeffs[0]


def test_eval_series_cosine_partial_sum():
    exp = expand(parse("cos(2*pi*x)"), TWO_PI_I, (0.0,), 40)
    got = evaluate(exp, (0.1,))
    assert abs(got - math.cos(0.2 * math.pi)) < 1e-7


def test_eval_series_exp_termination_exact():
    exp = expand(parse("exp(x)"), 1.0, (0.0,), 2)
    for x in np.linspace(-1.0, 1.0, 9):
        assert abs(evaluate(exp, (float(x),)) - math.exp(x)) < 1e-12


AXES = st.sampled_from([1.0, -1.0, 1j, -1j])


@settings(max_examples=200, deadline=None)
@given(
    log_mag=st.floats(-14.0, 1.0),
    # real, imaginary, or on any ray
    unit=st.one_of(AXES, st.floats(-math.pi, math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))),
)
def test_expm1_against_mpmath(log_mag, unit):
    mpmath = pytest.importorskip("mpmath")
    u = 10.0**log_mag * unit
    got = expm1(u)
    with mpmath.workdps(40):
        want = complex(mpmath.expm1(mpmath.mpc(u.real, u.imag)))
    # expm1(a) cos b - 2 sin(b/2)^2 + i e^a sin b: each function value within
    # 1 ulp (2u), each term one or two roundings more, so every part is off by
    # at most 7u times the size of its terms, plus u for the subtraction
    a, b = u.real, u.imag
    terms = abs(math.expm1(a) * math.cos(b)) + 2.0 * math.sin(b / 2.0) ** 2 + abs(math.exp(a) * math.sin(b))
    assert abs(got - want) <= 8 * UNIT_ROUNDOFF * terms
    # real in, real out: the real 1-D bounds form w without complex arithmetic
    assert isinstance(got, np.complex128 if isinstance(u, complex) else np.float64)


def test_expm1_overflow_is_inf_not_nan():
    assert expm1(800.0) == complex(math.inf, 0.0)
    got = expm1(np.array([800.0, -800.0, 1e-300]))
    assert not np.any(np.isnan(got))
    assert list(got) == [complex(math.inf, 0.0), -1.0, 1e-300]


def test_eval_series_periodic_in_x():
    exp = expand(parse("cos(2*pi*x)"), TWO_PI_I, (0.0,), 12)
    for x in (0.05, 0.11, -0.07):
        assert evaluate(exp, (x + 1.0,)) == pytest.approx(evaluate(exp, (x,)), abs=1e-12)


def test_remainder_integral_at_center():
    assert remainder_bound(parse("cos(2*pi*x)"), TWO_PI_I, 0.0, 0.0, 6, grid=3).integral_value == 0


def test_remainder_integral_exp():
    ast = parse("exp(x)")
    exp = expand(ast, 1.0, (0.0,), 5)
    r = remainder_bound(ast, 1.0, 0.0, 0.3, 5, grid=3, quad_nodes=64).integral_value
    want = math.exp(0.3) - evaluate(exp, (0.3,))
    assert abs(r - want) < 1e-10


def test_remainder_integral_cosine():
    ast = parse("cos(2*pi*x)")
    exp = expand(ast, TWO_PI_I, (0.0,), 6)
    r = remainder_bound(ast, TWO_PI_I, 0.0, 0.1, 6, grid=3).integral_value
    want = math.cos(0.2 * math.pi) - evaluate(exp, (0.1,))
    assert abs(r - want) < 1e-9


@pytest.mark.parametrize("src, lam", [("cos(2*pi*x)", TWO_PI_I), ("sin(x)+x^3", TWO_PI_I), ("exp(2*x)", 1.0)])
@pytest.mark.parametrize("x", [-0.1, -0.05, 0.05, 0.1, 0.3])
@pytest.mark.parametrize("order", [1, 2, 5, 10])
def test_reconstruction_identity(src, lam, x, order):
    ast = parse(src)
    exp = expand(ast, lam, (0.0,), order)
    r = remainder_bound(ast, lam, 0.0, x, order, grid=3).integral_value
    true = eval_complex(ast, x)
    assert abs(evaluate(exp, (x,)) + r - true) < 1e-9


def test_remainder_bound_at_center():
    est = remainder_bound(parse("x"), TWO_PI_I, 0.0, 0.0, 4)
    assert est.integral_value == 0
    assert est.bound_tight == 0
    assert est.bound_loose == 0


@pytest.mark.parametrize(
    "src, lam, x, order",
    [
        ("cos(2*pi*x)", TWO_PI_I, 0.1, 6),
        ("exp(x)", 1.0, 0.3, 5),
        ("sin(x)+x^3", TWO_PI_I, 0.1, 4),
        ("x^2", TWO_PI_I, -0.05, 7),
    ],
)
def test_bound_chain(src, lam, x, order):
    ast = parse(src)
    est = remainder_bound(ast, lam, 0.0, x, order, grid=513)
    r = abs(est.integral_value)
    # 1% headroom covers grid sampling of the sup; 1e-12 covers rounding
    assert r <= 1.01 * est.bound_tight + 1e-15
    assert est.bound_tight <= 1.01 * est.bound_loose + 1e-15
    assert est.grid_points == 513


def single_segment_integral(ast, lam, x0, x, order, quad_nodes=64):
    """The quadrature of the exact remainder on its own nodes alone, frozen here
    from the ``remainder_integral`` that ``remainder_bounds`` made redundant.
    It pins the shared lift, not the ``w`` or stage formulas: ``w`` comes from
    ``expm1`` and stage ``order`` from ``stirling_rows``."""
    lam = complex(lam)
    theta, weights = _quad_rule(quad_nodes)
    x0 = float(x0)
    dx = float(x) - x0
    v_n = stirling_rows(_lift_1d_array(ast, x0 + theta * dx, order), [order], lam)[0]
    total = np.sum(weights * v_n * expm1(lam * (1.0 - theta) * dx) ** (order - 1))
    return complex(lam / math.factorial(order - 1) * dx * total)


# One lift at max(orders) over grid points and nodes together must give the
# same bits as one remainder_bound call per (x, order): compared with ==.
@pytest.mark.parametrize("src", ["cos(2*pi*x)", "x", "1/cos(x)+log(2+x)", "exp(2*x)*sin(x)^3", "sqrt(3+x)"])
@pytest.mark.parametrize("lam", [TWO_PI_I, 1.0, 0.3 + 1j], ids=["2pi_i", "1", "0.3+1i"])
def test_remainder_bounds_equal_single_calls_exactly(src, lam):
    ast = parse(src)
    x0, xs, orders = 0.02, [-0.13, 0.02, 0.09, 0.2], [1, 4, 8, 16, 33]
    batch = remainder_bounds(ast, lam, x0, xs, orders)
    assert len(batch) == len(xs) * len(orders)
    for i, x in enumerate(xs):
        for k, order in enumerate(orders):
            single = remainder_bound(ast, lam, x0, x, order)
            assert batch[i * len(orders) + k] == single
            assert single.integral_value == single_segment_integral(ast, lam, x0, x, order)


def test_remainder_bounds_validation():
    ast = parse("x")
    with pytest.raises(ValidationError):
        remainder_bounds(ast, 1.0, 0.0, [0.1], [])
    with pytest.raises(ValidationError):
        remainder_bounds(ast, 1.0, 0.0, [0.1], [4, 65])
    with pytest.raises(ValidationError):
        remainder_bounds(ast, 1.0, 0.0, [0.1], [4], grid=4)
    assert remainder_bounds(ast, 1.0, 0.0, [], [4]) == []


@pytest.mark.parametrize(
    "x0, xs, message", [(math.nan, [0.1], "x0 must not be nan"), (0.0, [0.1, math.nan], "x must not be nan")], ids=["x0", "x"]
)
def test_remainder_bounds_refuse_a_nan_coordinate(x0, xs, message):
    # a nan is refused by the argument's name, not as epsilon_sup's half-width; an infinite offset is a DomainError
    ast = parse("exp(x)")
    with pytest.raises(ValidationError) as err:
        remainder_bounds(ast, 1.0, x0, xs, [4])
    assert str(err.value) == message
    with pytest.raises(DomainError, match=r"^non-finite remainder bound or integral at x=inf, order 4 "):
        remainder_bounds(ast, 1.0, 0.0, [math.inf], [4])


def _per_segment_bounds(ast, lam, x0, xs, orders, grid, quad_nodes):
    """The one-segment-at-a-time loop ``remainder_bounds`` ran before it lifted
    segments in blocks, frozen here as the oracle for the blocked one.  It pins
    the blocking, not the ``w`` or stage formulas: ``w`` comes from ``expm1`` and
    each order's stage from ``stirling_rows``.  ``lam`` is made complex, so ``w``
    and its powers take the complex path even where ``remainder_bounds`` is real."""
    lam = complex(lam)
    theta, weights = _quad_rule(quad_nodes)
    top = max(orders)
    s = np.linspace(0.0, 1.0, grid)
    x0 = float(x0)
    out = []
    with np.errstate(all="ignore"):
        for x in xs:
            dx = float(x) - x0
            points = np.concatenate((x0 + s * dx, x0 + theta * dx))
            jet = _lift_1d_array(ast, points, top)
            w_grid = expm1(lam * (1.0 - s) * dx)
            w_nodes = expm1(lam * (1.0 - theta) * dx)
            eps = epsilon_sup(lam, abs(dx))
            for order in orders:
                stages = stirling_rows(jet, [order], lam)[0]
                v_grid = stages[:grid]
                prefix = abs(lam) / math.factorial(order - 1) * abs(dx)
                bound_tight = prefix * float(np.max(np.abs(v_grid * w_grid ** (order - 1))))
                try:
                    eps_power = eps ** (order - 1)
                except OverflowError:
                    eps_power = math.inf
                bound_loose = prefix * float(np.max(np.abs(v_grid))) * eps_power
                total = np.sum(weights * stages[grid:] * w_nodes ** (order - 1))
                integral = complex(lam / math.factorial(order - 1) * dx * total)
                if not all(map(math.isfinite, (bound_tight, bound_loose, integral.real, integral.imag))):
                    raise DomainError(
                        f"non-finite remainder bound or integral at x={float(x)!r}, order {order} "
                        "(overflow in the stage values or in powers of exp(lam z) - 1)"
                    )
                out.append(RemainderEstimate(order, integral, bound_tight, bound_loose, grid))
    return out


# every (grid, quad_nodes) pair meets one real and one complex lambda, and
# every grid meets all four: the whole product would take twice as long
BLOCK_CASES = [
    (grid, quad_nodes, lam)
    for g, grid in enumerate([3, 65, 513, 4097])
    for q, quad_nodes in enumerate([2, 64])
    for lam in [(1.0, TWO_PI_I), (-0.5, 0.3 - 1.7j)][(g + q) % 2]
]


@pytest.mark.parametrize("grid, quad_nodes, lam", BLOCK_CASES)
def test_blocked_bounds_equal_the_per_segment_loop_bit_for_bit(grid, quad_nodes, lam):
    ast, x0, orders = parse("exp(x)/(1.5-x)"), 0.05, [1, 4, 16, 33]
    per = max(1, LIFT_BLOCK // (grid + quad_nodes))
    xs = list(np.linspace(-0.4, 0.45, 3 * per + 2))
    # the loop's estimates for a prefix of xs are a prefix of its estimates
    oracle = _per_segment_bounds(ast, lam, x0, xs, orders, grid, quad_nodes)
    for n in sorted({1, per - 1, per, per + 1, 3 * per + 2}):
        got = remainder_bounds(ast, lam, x0, xs[:n], orders, grid=grid, quad_nodes=quad_nodes)
        want = oracle[: n * len(orders)]
        assert len(got) == len(want) == n * len(orders)
        for a, b in zip(got, want):
            assert a == b
            assert repr(a) == repr(b)  # and the signs of zeros


def test_blocked_bounds_raise_at_the_first_non_finite_x_of_the_per_segment_loop():
    ast, xs = parse("exp(40*x)"), list(np.linspace(0.0, 30.0, 9))
    with pytest.raises(DomainError) as want:
        _per_segment_bounds(ast, 1.0, 0.0, xs, [4, 33], 513, 64)
    with pytest.raises(DomainError) as got:
        remainder_bounds(ast, 1.0, 0.0, xs, [4, 33])
    assert str(got.value) == str(want.value)


REAL_LAMBDAS = st.tuples(st.floats(-300.0, math.log10(50.0)), st.sampled_from([-1.0, 1.0])).map(
    lambda t: t[1] * 10.0 ** t[0]
)


def _bounds_or_message(bounds, *args):
    try:
        return bounds(*args)
    except DomainError as err:
        return str(err)


# A real lambda forms the bounds in float64: w by the real expm1, its powers by
# square-and-multiply.  The loop above forms them in complex arithmetic, so it
# pins every bit of the real path, zeros' signs and overflow refusals included.
@settings(max_examples=60, deadline=None)
@given(
    src=st.sampled_from(["exp(x)/(1.5-x)", "cos(2*pi*x)", "1/cos(x)+log(2+x)", "x"]),
    lam=REAL_LAMBDAS,
    x0=st.floats(-0.3, 0.3),
    offsets=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=2),
    orders=st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True),
)
@example(src="x", lam=-1e-300, x0=0.1, offsets=[0.5], orders=list(range(1, 65)))
@example(src="exp(x)/(1.5-x)", lam=-50.0, x0=-0.3, offsets=[0.5, 0.0], orders=[2, 33, 64])
@example(src="exp(x)/(1.5-x)", lam=50.0, x0=0.0, offsets=[0.0, 0.5], orders=[1, 64])
def test_real_lambda_bounds_keep_the_complex_bits(src, lam, x0, offsets, orders):
    ast = parse(src)
    # x below x0, x0 itself and, with a second offset, x above it
    xs = [x0 - offsets[0], x0] + [x0 + d for d in offsets[1:]]
    got = _bounds_or_message(remainder_bounds, ast, lam, x0, xs, orders, 65, 64)
    want = _bounds_or_message(_per_segment_bounds, ast, lam, x0, xs, orders, 65, 64)
    assert got == want  # the same estimates, or the same refusal at the same x and order
    if isinstance(got, list):
        assert list(map(repr, got)) == list(map(repr, want))  # and the signs of zeros


def test_remainder_bounds_memory_is_bounded_by_the_block():
    # one block at a time: the lifted jet and the walk's working jets each hold
    # at most one (order+1) x LIFT_BLOCK array, and each stirling_rows call a
    # few LIFT_BLOCK-long arrays, however many orders it serves; the limit does
    # not grow with len(xs) or with the orders below the top one, and a real
    # lambda's float64 bounds stay inside it too
    ast, order = parse("exp(x)"), 16
    limit = 6 * (order + 1) * LIFT_BLOCK * 16
    for lam in (0.3 - 1.7j, 1.0):
        remainder_bounds(ast, lam, 0.05, [0.1], [order])  # imports and caches the Gauss rule
        # every order down from the top on one segment, whose rows share calls,
        # and on 29 segments, four full blocks and one more
        every = list(range(order, 0, -1))
        for orders, n in ([order], 11), ([order], 1001), (every, 1), (every, 29):
            xs = list(np.linspace(-0.3, 0.4, n))
            tracemalloc.start()
            try:
                remainder_bounds(ast, lam, 0.05, xs, orders)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < limit, (lam, len(orders), n, peak, limit)


def test_quad_rule_is_cached_and_read_only():
    theta, weights = _quad_rule(64)
    again = _quad_rule(64)
    assert again[0] is theta and again[1] is weights
    assert weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all((theta > 0) & (theta < 1))
    with pytest.raises(ValueError):
        theta[0] = 0.5
    with pytest.raises(ValueError):
        weights[0] = 0.5


@pytest.mark.parametrize("bad", [1, 1025, 64.0, "64", None, [64]])
def test_quad_rule_rejects_without_caching(bad):
    before = _mapped_rule.cache_info().currsize
    with pytest.raises(ValidationError):
        _quad_rule(bad)
    assert _mapped_rule.cache_info().currsize == before


def test_remainder_overflow_is_domain_error_without_warning():
    # (exp(300) - 1)^63 overflows a double in both bounds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite remainder"):
            remainder_bound(parse("exp(x)"), 1.0, 0.0, 300.0, 64)
        with pytest.raises(DomainError, match="non-finite remainder"):
            remainder_bounds(parse("exp(x)"), 1.0, 0.0, [400.0], range(60, 65))
        # finite quadrature terms whose sum overflows: -inf + 0i times lam forms inf * 0
        with pytest.raises(DomainError, match="non-finite remainder"):
            remainder_bound(parse("8e306*x"), 1.0, 0.0, 5.0, 2)


def test_epsilon_closed_forms():
    assert epsilon_sup(1.0, 0.0) == 0.0
    assert epsilon_sup(TWO_PI_I, 1.0 / 6.0) == pytest.approx(1.0, rel=1e-12)
    assert epsilon_sup(1.0, 0.8) == pytest.approx(math.expm1(0.8), rel=1e-14)
    assert epsilon_sup(-2.0, 0.5) == pytest.approx(math.expm1(1.0), rel=1e-14)
    # imaginary lam saturates at 2 once |lam| r reaches pi
    assert epsilon_sup(2j * math.pi, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert epsilon_sup(2j * math.pi, 7.3) == pytest.approx(2.0, rel=1e-14)
    # an infinite half-width: unbounded for a nonzero real part, without scanning a grid over it
    assert epsilon_sup(0.3 + 1j, math.inf) == math.inf


@pytest.mark.parametrize("lam", [1.0, TWO_PI_I, 0.3 + 1j], ids=["real", "imaginary", "general"])
@pytest.mark.parametrize("r", [-0.5, math.nan], ids=["negative", "nan"])
def test_epsilon_refuses_a_negative_or_nan_half_width(lam, r):
    # every branch returned nan for a nan r, since r < 0 is false for it
    with pytest.raises(ValidationError, match=r"^r must be >= 0, got "):
        epsilon_sup(lam, r)


@pytest.mark.parametrize("lam", [1 + 2j, 0.5 - 3j, -2 + 0.7j])
@pytest.mark.parametrize("r", [0.3, 0.8, 1.6])
def test_epsilon_general_complex_against_grid(lam, r):
    zs = np.linspace(-r, r, 100001)
    brute = float(np.abs(np.exp(lam * zs) - 1).max())
    assert epsilon_sup(lam, r) == pytest.approx(brute, rel=1e-8)


@pytest.mark.parametrize("lam", [0.3 + 1j, -2 + 0.7j])
@pytest.mark.parametrize("r", [1e-10, 1e-8, 1e-6])
def test_epsilon_general_complex_near_zero_against_an_expm1_grid(lam, r):
    # |exp(lam z) - 1|^2 summed as e^{2az} - 2 e^{az} cos bz + 1 cancels to
    # about u here, which would hold the sup at sqrt(u) = 1.49e-8 or more
    zs = np.linspace(-r, r, 100001)
    brute = float(np.max(np.abs(series1d.expm1(lam * zs))))
    assert abs(epsilon_sup(lam, r) - brute) <= 1e-8 * brute


@pytest.mark.parametrize("lam", [1.0, -0.3, 0.3 + 1j, -2 + 0.7j])
@pytest.mark.parametrize("ar", [354.0, 360.0, 709.0, 709.9, 3000.0])
def test_epsilon_past_the_squares_overflow_against_mpmath(lam, ar):
    # |a| r = ar: from 354.9 on the scanned square overflows a double, from
    # 709.8 on the sup itself does; the sup is exp(|a| r) within 1 of it
    r = ar / abs(complex(lam).real)
    got = epsilon_sup(lam, r)
    with mpmath.workdps(30):
        zs = [sign * r * mpmath.mpf(k) / 64 for sign in (-1, 1) for k in range(60, 65)]
        want = max(abs(mpmath.expm1(mpmath.mpc(lam) * z)) for z in zs)
        if want > sys.float_info.max:
            assert got == math.inf
        else:
            # the scan and golden-section search below the overflow refine to about 1e-8
            assert abs(got - want) <= 1e-8 * want


def test_epsilon_monotone_in_r():
    for lam in (1.0, TWO_PI_I, 1 + 2j):
        values = [epsilon_sup(lam, r) for r in np.linspace(0, 2, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_epsilon_validates_r():
    with pytest.raises(ValidationError):
        epsilon_sup(1.0, -0.1)


def test_radius_cosine():
    rep = radius_estimate(parse("cos(2*pi*x)"), TWO_PI_I, 0.0, j_max=48, window=8)
    # |v_j| = j!/2 for j >= 2, so rho_j = j/(j+1); max over the window is 47/48
    assert rep.r_estimate == pytest.approx(47.0 / 48.0, rel=1e-9)
    assert rep.stable
    want_half = math.asin(47.0 / 96.0) / math.pi
    assert rep.x_region_halfwidth == pytest.approx(want_half, rel=1e-9)
    assert abs(rep.x_region_halfwidth - 1.0 / 6.0) < 0.01
    for j, rho in zip(rep.ratio_indices, rep.ratios):
        if j >= 2:
            assert rho == pytest.approx(j / (j + 1.0), rel=1e-8)


def test_radius_linear():
    rep = radius_estimate(parse("x"), TWO_PI_I, 0.0, j_max=48, window=8)
    # |v_j| = (j-1)!/(2 pi) makes every ratio exactly 1
    assert rep.r_estimate == pytest.approx(1.0, rel=1e-10)
    assert rep.x_region_halfwidth == pytest.approx(1.0 / 6.0, rel=1e-10)
    assert rep.stable


def test_radius_real_lambda_has_no_x_region():
    rep = radius_estimate(parse("1/(2+x)"), 1.0, 0.3, j_max=24, window=4)
    assert rep.x_region_halfwidth is None


# Stage values of exp(m*x) at lam=1 terminate after j=m, but the float
# cascade leaves factorially amplified roundoff in the zero tail.  The
# estimator must not mistake that noise for a convergent ratio sequence.
@pytest.mark.parametrize("src", ["exp(x)", "exp(2*x)"])
def test_radius_terminating_series_diagnostic_error(src):
    with pytest.raises(DiagnosticError):
        radius_estimate(parse(src), 1.0, 0.0, j_max=24, window=8)


def test_radius_overflow_is_domain_error_without_warning():
    # the jet of 1/x at 1e-200 overflows from its second coefficient on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite stage value"):
            radius_estimate(parse("1/x"), 1.0, 1e-200)


def test_radius_validation():
    ast = parse("cos(2*pi*x)")
    with pytest.raises(ValidationError):
        radius_estimate(ast, TWO_PI_I, 0.0, j_max=65, window=8)
    with pytest.raises(ValidationError):
        radius_estimate(ast, TWO_PI_I, 0.0, j_max=24, window=3)
    with pytest.raises(ValidationError):
        radius_estimate(ast, TWO_PI_I, 0.0, j_max=8, window=12)


def test_growth_cosine():
    rep = growth_diagnostic(parse("cos(2*pi*x)"), TWO_PI_I, 1.0, n_max=12)
    assert rep.k_fit == 0
    assert rep.envelope_bounded
    assert rep.periodic_input
    assert rep.c0 == pytest.approx(0.5, rel=1e-9)
    for n in range(2, 13):
        assert rep.sup_values[n - 1] == pytest.approx(math.factorial(n) / 2, rel=1e-9)


def test_growth_constant():
    rep = growth_diagnostic(parse("3"), TWO_PI_I, 1.0, n_max=8)
    assert rep.envelope_bounded
    assert rep.periodic_input
    np.testing.assert_allclose(rep.sup_values, 0.0, atol=1e-15)


def test_growth_linear_not_periodic():
    rep = growth_diagnostic(parse("x"), TWO_PI_I, 1.0, n_max=10)
    assert not rep.periodic_input
    assert rep.envelope_bounded  # (N-1)!/(2 pi) sits under N! easily
    for n in range(1, 11):
        want = math.factorial(n - 1) / (2 * math.pi)
        assert rep.sup_values[n - 1] == pytest.approx(want, rel=1e-9)


def test_growth_overflow_raises_domain_error():
    # exp(800) overflows on the grid; stage sups must not come back as nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            growth_diagnostic(parse("exp(x)"), 1.0, 800.0)


def whole_grid_growth(ast, lam, period, n_max, grid):
    """``growth_diagnostic`` as one lift of the whole grid, frozen here as the
    oracle for the blocked one.  Each stage comes from its own ``stirling_rows``
    call, so the oracle does not share the program's nest of every order."""
    lam = complex(lam)
    xs = np.linspace(0.0, period, grid)
    with np.errstate(all="ignore"):
        jet = _lift_1d_array(ast, xs, n_max)
        stages = np.column_stack([jet[:, 0]] + [stirling_rows(jet, [N], lam)[0] for N in range(1, n_max + 1)])
        sup_values = np.max(np.abs(stages), axis=0)[1:]
    if not np.all(np.isfinite(stages)):
        raise DomainError("non-finite stage value (overflow in the jet or in powers of 1/lam)")
    a_vals = stages[:, 0]
    scale = 1.0 + float(np.max(np.abs(a_vals)))
    periodic = bool(abs(a_vals[0] - a_vals[-1]) <= 1e-9 * scale)
    half = max(n_max // 2, 1)
    k_fit, c0, bounded = 0, 0.0, False
    worst = math.inf
    for k in range(7):
        shift = np.array([math.factorial(N + k) for N in range(1, n_max + 1)], dtype=np.float64)
        ratio = sup_values / shift
        lead = float(np.max(ratio[:half]))
        trail = float(np.max(ratio[half:])) if n_max > half else float(ratio[-1])
        growth = trail / lead if lead > 0 else 0.0
        if growth <= 1.01:
            k_fit, c0, bounded = k, trail, True
            break
        if growth < worst:
            worst, k_fit, c0 = growth, k, trail
    return GrowthReport(lam, float(period), n_max, grid, sup_values, k_fit, c0, bounded, periodic)


@pytest.mark.parametrize("src", ["1/(3+cos(2*pi*x))", "cos(2*pi*x)", "x", "exp(sin(3*x))/(2+x^2)"])
@pytest.mark.parametrize("lam", [TWO_PI_I, 1.0, 0.3 - 1.7j], ids=["2pi_i", "1", "0.3-1.7i"])
@pytest.mark.parametrize("grid", [257, 2048, 2049, 2 * 2048 + 5])
def test_blocked_growth_equals_the_whole_grid(monkeypatch, src, lam, grid):
    # the grids cut a 2,048-point block at one block, one point past it and two
    # blocks and 5 points; the default block is run too, which the last grid crosses
    ast = parse(src)
    want = whole_grid_growth(ast, lam, 1.0, 16, grid)
    for block in (LIFT_BLOCK, 2048):
        monkeypatch.setattr(series1d, "LIFT_BLOCK", block)
        got = growth_diagnostic(ast, lam, 1.0, n_max=16, grid=grid)
        for f in dataclasses.fields(GrowthReport):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "sup_values":
                assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist(), block
            else:
                assert repr(a) == repr(b), (f.name, block)


def test_growth_overflow_is_raised_at_any_block():
    # the jet of exp(40 x) overflows near x = 17, in the second of three blocks
    with pytest.raises(DomainError, match="non-finite stage value") as want:
        whole_grid_growth(parse("exp(40*x)"), 1.0, 20.0, 8, 2 * LIFT_BLOCK + 5)
    with pytest.raises(DomainError) as got:
        growth_diagnostic(parse("exp(40*x)"), 1.0, 20.0, n_max=8, grid=2 * LIFT_BLOCK + 5)
    assert str(got.value) == str(want.value)


def test_growth_memory_is_bounded_by_the_block():
    # one block at a time: the walk's working jets and the Stirling rows'
    # temporaries hold at most eight complex (n_max+1) x LIFT_BLOCK arrays,
    # next to the grid's own float64 x values; the whole grid lifted at once
    # peaks near 70 MB here, and a real lambda's float64 rows stay inside it too
    ast, n_max, grid = parse("1/(3+cos(2*pi*x))"), 16, 50_001
    limit = 8 * grid + 8 * (n_max + 1) * LIFT_BLOCK * 16
    for lam in (TWO_PI_I, 1.0):
        growth_diagnostic(ast, lam, 1.0, n_max=n_max, grid=3)  # imports and caches
        tracemalloc.start()
        try:
            growth_diagnostic(ast, lam, 1.0, n_max=n_max, grid=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, (lam, peak, limit)


def test_growth_validation():
    ast = parse("x")
    with pytest.raises(ValidationError):
        growth_diagnostic(ast, TWO_PI_I, 0.0)
    with pytest.raises(ValidationError):
        growth_diagnostic(ast, TWO_PI_I, 1.0, n_max=33)


@pytest.mark.parametrize("period", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
def test_growth_refuses_a_period_that_is_not_positive_and_finite(period):
    # refused before the grid: an infinite or nan period makes a grid of nan, with numpy's RuntimeWarning
    with pytest.raises(ValidationError) as err:
        growth_diagnostic(parse("cos(2*pi*x)"), TWO_PI_I, period)
    assert str(err.value) == f"period must be {'positive' if period <= 0 else 'finite'}, got {period!r}"


# ---- properties over random expressions smooth on the real line


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]})/(2+({t[1]})^2)"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sinh", "cosh"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["log", "sqrt"]), inner).map(lambda t: f"{t[0]}(2+({t[1]})^2)"),
        st.tuples(inner, st.sampled_from(["5", "-3", "2.5", "(1/3)"])).map(lambda t: f"(2+({t[0]})^2)^{t[1]}"),
    )


SMOOTH_EXPRS = st.recursive(st.sampled_from(["x", "2*x", "pi*x", "0.5"]), _grow, max_leaves=5)
LAMBDAS = st.complex_numbers(min_magnitude=0.5, max_magnitude=8, allow_nan=False, allow_infinity=False)
UNIT_ROUNDOFF = 2.0**-53


@settings(max_examples=25, deadline=None)
@given(src=SMOOTH_EXPRS, lam=LAMBDAS, data=st.data())
def test_remainder_bounds_do_not_depend_on_the_other_orders_or_xs(src, lam, data):
    ast = parse(src)
    x0 = data.draw(st.floats(-0.3, 0.3))
    xs = data.draw(st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=4))
    orders = data.draw(st.lists(st.integers(1, 24), min_size=2, max_size=5, unique=True))
    try:
        full = remainder_bounds(ast, lam, x0, xs, orders, grid=65)
    except DomainError:
        assume(False)
    sub = data.draw(st.lists(st.sampled_from(orders), min_size=1, unique=True))
    want = [full[i * len(orders) + orders.index(order)] for i in range(len(xs)) for order in sub]
    assert remainder_bounds(ast, lam, x0, xs, sub, grid=65) == want
    cut = data.draw(st.integers(1, len(xs) - 1))
    split = remainder_bounds(ast, lam, x0, xs[:cut], orders, grid=65)
    assert split + remainder_bounds(ast, lam, x0, xs[cut:], orders, grid=65) == full


@settings(max_examples=40, deadline=None)
@given(src=SMOOTH_EXPRS, lam=LAMBDAS, x0=st.floats(-0.5, 0.5), count=st.integers(1, 24))
# Stage 5 of this draw underflows: the two paths differ by 5e-323, which
# only the absolute underflow term below covers (1.04e-320; 1.5e-323 without it).
@example(src="cos((x-(2*x)/(2+(x)^2)))", lam=5 + 0j, x0=2.2250738585072014e-308, count=5)
def test_cascade_agrees_with_stirling_within_roundoff(src, lam, x0, count):
    with np.errstate(all="ignore"):  # a nested exp may overflow; such draws are rejected below
        jet = lift(parse(src), (x0,), count)
    # Both paths form stage N from the terms s(N, m) m! lam^-m c_m of one jet.
    # The cascade's N steps each round within 11u of the absolute-value
    # recursion, whose stage N is exactly this scale (inverse 6u, product 2u,
    # j-term, step multiple and subtraction u each); the Stirling form rounds
    # each term within (7N + 5)u of it (m divisions for lam^-m, the matrix
    # entry, two products, an (N+1)-term sum).  Together that is under
    # 18 (N + 1) u; the factor 32 leaves room for second-order terms.
    # A rounding that underflows errs by up to half of 2^-1074 absolutely, not
    # relatively; each reaches stage N scaled by at most |S[N, m]| |lam|^-m,
    # so they add the same count times the scales of a jet of ones times 2^-1074.
    scales = _cascade_roundoff_scales(jet.coeffs, lam, count)
    assume(np.all(np.isfinite(scales)))
    steps = 32 * (np.arange(count + 1) + 1)
    tol = steps * (UNIT_ROUNDOFF * scales + _cascade_roundoff_scales(np.ones(count + 1), lam, count) * 2.0**-1074)
    diff = np.abs(cascade_values(jet.coeffs, lam, count) - stage_tensor(jet.coeffs, lam))
    assert np.all(diff <= tol), (diff / np.where(scales > 0, scales, 1)).max()


@settings(max_examples=80, deadline=None)
@given(
    src=SMOOTH_EXPRS,
    lam=st.tuples(st.floats(0.1, 8.0), AXES).map(lambda t: t[0] * t[1]),
    x0=st.floats(-0.3, 0.3),
    dx=st.tuples(st.floats(-12.0, math.log10(0.3)), st.sampled_from([-1.0, 1.0])).map(lambda t: t[1] * 10.0 ** t[0]),
    orders=st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True),
)
@example(src="x", lam=1.0, x0=0.0, dx=1e-10, orders=[16])
@example(src="x", lam=-0.5, x0=0.0, dx=-1e-7, orders=[16])
def test_bound_tight_is_at_most_bound_loose(src, lam, x0, dx, orders):
    x = x0 + dx
    try:
        ests = remainder_bounds(parse(src), lam, x0, [x], orders)
    except DomainError:
        assume(False)
    # Both bounds share prefix and stage values; they differ in |w|^(N-1)
    # against eps^(N-1).  Every grid argument lam (1 - s) dx rounds to at most
    # |lam dx| in size, so the computed |w| exceeds the computed eps by at most
    # 8u (expm1 as in test_expm1_against_mpmath, and eps's product and libm
    # call).  Raising to N - 1 multiplies that by N - 1, numpy's binary powering
    # adds sqrt(5)u per complex product (N - 2 in all), and the product with the
    # stage value, its modulus and the prefix products add 5u: under 11 N u.
    for est in ests:
        assert est.bound_tight <= est.bound_loose * (1.0 + 16 * est.order * UNIT_ROUNDOFF)
