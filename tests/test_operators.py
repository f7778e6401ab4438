"""Cascade stage values: closed forms and cross-path agreement."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exptaylor.errors import ValidationError
from exptaylor.expr import parse
from exptaylor import seriesnd
from exptaylor.jet import lift, lift_nd
from exptaylor.operators import cascade_values, stage_rows, stage_tensor, stirling_rows
from exptaylor.series1d import _cascade_roundoff_scales, _quad_rule
from exptaylor.seriesnd import POINT_CHUNK
from exptaylor.stirling import build_table

TWO_PI_I = 2j * math.pi


def stages(src, lam, x0, count, path="recursive"):
    jet = lift(parse(src), x0, count)
    if path == "recursive":
        return cascade_values(jet.coeffs, lam, count)
    return stage_tensor(jet.coeffs, lam)


def test_cosine_stage_values():
    got = stages("cos(2*pi*x)", TWO_PI_I, 0.0, 3)
    np.testing.assert_allclose(got, [1, 0, 1, -3], atol=1e-12)
    # closed form for j >= 2: (-1)^j j!/2 at x0 = 0
    got = stages("cos(2*pi*x)", TWO_PI_I, 0.0, 8)
    for j in range(2, 9):
        want = (-1) ** j * math.factorial(j) / 2
        assert got[j] == pytest.approx(want, rel=1e-11)


def test_linear_stage_values():
    got = stages("x", TWO_PI_I, 0.0, 6)
    assert got[0] == 0
    for j in range(1, 7):
        want = (-1) ** (j - 1) * math.factorial(j - 1) / TWO_PI_I
        assert got[j] == pytest.approx(want, rel=1e-12)


def test_constant_annihilated():
    got = stages("7", 1.5, 0.3, 5)
    np.testing.assert_allclose(got, [7, 0, 0, 0, 0, 0], atol=0)


def test_exp_terminates_stirling_path():
    got = stages("exp(x)", 1.0, 0.0, 3, path="stirling")
    np.testing.assert_allclose(got, [1, 1, 0, 0], atol=1e-14)


def test_square_with_log2_lambda():
    lam = math.log(2.0)
    table = build_table(8)
    jet = lift(parse("x^2"), 0.0, 8)
    got = stage_tensor(jet.coeffs, lam)
    assert got[0] == 0
    assert got[1] == 0  # first derivative of x^2 vanishes at 0
    for j in range(2, 9):
        want = table.value(j, 2) * 2 / lam**2
        assert got[j] == pytest.approx(want, rel=1e-12)


def cancellation_scale(src, lam, x0, count):
    # sum of term magnitudes in the Stirling form of each stage; stages that
    # are zero by cancellation (terminating series) can only be zero in
    # floats up to roundoff of this scale
    jet = lift(parse(src), x0, count)
    table = build_table(count)
    scales = [abs(jet.coeffs[0])]
    for n in range(1, count + 1):
        scales.append(
            sum(
                abs(table.value(n, m)) * abs(lam) ** -m * math.factorial(m) * abs(jet.coeffs[m])
                for m in range(1, n + 1)
            )
        )
    return scales


@pytest.mark.parametrize(
    "src, lam",
    [
        ("cos(2*pi*x)", TWO_PI_I),
        ("x", TWO_PI_I),
        ("x^2", TWO_PI_I),
        ("exp(x)", 1.0),
        ("exp(2*x)", 1.0),
        ("sin(x)+x^3", TWO_PI_I),
        ("x^2", math.log(2.0)),
        ("sqrt(1+x)", 0.5 - 1.2j),
    ],
)
def test_path_equivalence(src, lam):
    a = stages(src, lam, 0.0, 12, path="recursive")
    b = stages(src, lam, 0.0, 12, path="stirling")
    scales = cancellation_scale(src, lam, 0.0, 12)
    for j in range(13):
        tol = max(1e-9 * max(abs(a[j]), abs(b[j])), 1e-12 * scales[j])
        assert abs(a[j] - b[j]) <= tol


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exponential_eigenstructure(m):
    # a = e^(m lam x): stage j multiplies by the falling factorial of m
    lam = 0.7
    got = stages(f"exp({m * lam}*x)", lam, 0.2, 6)
    base = cmath.exp(m * lam * 0.2)
    for j in range(7):
        ff = 1.0
        for i in range(j):
            ff *= m - i
        assert got[j] == pytest.approx(ff * base, rel=1e-10, abs=1e-10)
    assert all(abs(got[j]) < 1e-9 for j in range(m + 1, 7))


def test_linearity():
    lam = TWO_PI_I
    combo = stages("2*cos(2*pi*x) - 3*x", lam, 0.1, 8)
    a = stages("cos(2*pi*x)", lam, 0.1, 8)
    b = stages("x", lam, 0.1, 8)
    np.testing.assert_allclose(combo, 2 * a - 3 * b, rtol=1e-12, atol=1e-12)


def test_validation():
    jet = lift(parse("x"), 0.0, 4)
    with pytest.raises(ValidationError):
        cascade_values(jet.coeffs, 0.0, 2)
    with pytest.raises(ValidationError):
        cascade_values(jet.coeffs, 1.0, 5)  # count beyond jet order
    with pytest.raises(ValidationError):
        stage_tensor(jet.coeffs, 0.0)
    for orders in ([0], [5], [2, 5], []):
        with pytest.raises(ValidationError):
            stirling_rows(jet.coeffs, orders, 1.0)
    with pytest.raises(ValidationError):
        stirling_rows(jet.coeffs, [2], 0.0)


# ---- stage N alone: the Stirling row nested in 1/lam

UNIT_ROUNDOFF = 2.0**-53


@st.composite
def batched_jets(draw):
    """Float jets of one order at 1 to 4 points, stored coefficient-major as a lift stores them."""
    order = draw(st.integers(1, 64))
    points = draw(st.integers(1, 4))
    # exact zeros, and magnitudes kept clear of underflow and overflow at order 64
    coeff = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(1e-6, 1e3)).map(lambda t: t[0] * t[1])
    flat = draw(st.lists(coeff, min_size=(order + 1) * points, max_size=(order + 1) * points))
    return np.array(flat).reshape(order + 1, points).T


DIRECTIONS = {"real": 1.0, "-real": -1.0, "imaginary": 1j, "-imaginary": -1j}
ROW_LAMBDAS = st.tuples(
    st.floats(0.125, 8.0),
    st.one_of(st.sampled_from(sorted(DIRECTIONS)).map(DIRECTIONS.get), st.floats(0.0, 2 * math.pi).map(lambda a: cmath.exp(1j * a))),
).map(lambda t: t[0] * t[1])


@settings(max_examples=60, deadline=None)
@given(jets=batched_jets(), lam=ROW_LAMBDAS)
@example(jets=lift(parse("x"), 0.5, 6).coeffs[None, :], lam=1e-300)  # lam^-2 is inf, c_2 is 0
def test_stirling_row_against_a_40_digit_sum_of_the_same_jet(jets, lam):
    # Horner's rule on sum_m a_m q^m, a_m = S[N, m] c_m, q = 1/lam (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1): term m
    # meets the rounding of S[N, m] and of a_m (u each), m products with q
    # (a complex product errs by at most sqrt(2) gamma_2 < gamma_3), at most m
    # additions of a real a_m (u each), and q's own error raised to the m-th
    # power (CPython's complex 1/lam rounds each part within gamma_5).  So the
    # row errs by at most gamma_(9N+2) sum_m |S[N, m]| |q|^m |c_m|, the
    # yardstick of _cascade_roundoff_scales, taken here in mpmath because its
    # float powers of |q| overflow for a tiny lam.
    order = jets.shape[-1] - 1
    got = stirling_rows(jets, [order], lam)[0]
    assert got.shape == jets.shape[:-1]
    assert np.iscomplexobj(got) == ((1 / complex(lam)).imag != 0)
    k = 9 * order + 2
    gamma = k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)
    row = [s * math.factorial(m) for m, s in enumerate(build_table(order).rows[order])]
    with mpmath.workdps(40):
        q = 1 / mpmath.mpc(lam)
        for value, c in zip(got, jets):
            terms = [row[m] * mpmath.mpf(c[m]) * q**m for m in range(1, order + 1)]
            want, yardstick = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
            assert abs(mpmath.mpc(complex(value)) - want) <= gamma * yardstick, (order, lam)


# a complex lam whose 1/lam has an imaginary part that underflows to zero
REAL_INVERSE_LAMBDAS = st.floats(0.125, 8.0).map(lambda a: complex(a, 5e-324))


@settings(max_examples=60, deadline=None)
@given(jets=batched_jets(), lam=st.one_of(ROW_LAMBDAS, REAL_INVERSE_LAMBDAS), data=st.data())
def test_stirling_rows_nest_every_order_by_itself_and_agree_with_the_cascade(jets, lam, data):
    order = jets.shape[-1] - 1
    # subsets, repeats and any order of 1..order
    orders = data.draw(st.lists(st.integers(1, order), min_size=1, max_size=8))
    got = stirling_rows(jets, orders, lam)
    assert got.shape == (len(orders),) + jets.shape[:-1]
    for r, n in enumerate(orders):
        alone = stirling_rows(jets, [n], lam)[0]
        assert got[r].dtype == alone.dtype
        assert np.array_equal(got[r].view(np.uint64), alone.view(np.uint64)), (orders, r)
    # row N reads c_1 .. c_N alone: a nan in the top order's coefficient reaches no lower row
    poisoned = jets.copy()
    poisoned[..., max(orders)] = np.nan
    lower = [r for r, n in enumerate(orders) if n < max(orders)]
    assert np.array_equal(stirling_rows(poisoned, orders, lam)[lower].view(np.uint64), got[lower].view(np.uint64))
    # The row errs by at most gamma_(9N+2) times the yardstick of
    # _cascade_roundoff_scales (the test above), the cascade by at most 11 N u
    # of it (test_series1d's cascade-against-Stirling test): under 20 (N + 1) u
    # together, and the factor 32 leaves room for second-order terms.
    cascade = cascade_values(jets, lam, order)
    for p, jet in enumerate(jets):
        scales = _cascade_roundoff_scales(jet, lam, order)
        for r, n in enumerate(orders):
            assert abs(got[r][p] - cascade[p, n]) <= 32 * (n + 1) * UNIT_ROUNDOFF * scales[n], (orders, r, p)


def dense(jet):
    """The complex ``(jet.order + 1,) * jet.dims`` tensor of an n-D jet's coefficients, 0 where it stores none."""
    out = np.zeros((jet.order + 1,) * jet.dims, dtype=np.complex128)
    for g, c in jet.coeffs.items():
        out[g] = c
    return out


def nd_field(jet, lam):
    # every stage of |g| <= jet.order from the dense tensor of the jet, as expand stages it
    return stage_tensor(dense(jet), lam)


def test_nd_product_of_coordinates():
    jet = lift_nd(parse("x1*x2", 2), (0.0, 0.0), 3)
    field = nd_field(jet, TWO_PI_I)
    want = 1 / TWO_PI_I**2
    assert field[1, 1] == pytest.approx(want)
    assert field[1, 1].real == pytest.approx(-1 / (4 * math.pi**2))
    assert field[0, 0] == 0
    # past the truncation a stage reads the stored coefficients alone, which
    # here are all of them: S[2, 1] S[3, 1] lam^-2 = -1 * 2 * lam^-2
    assert field[2, 3] == pytest.approx(-2 * want)
    with pytest.raises(IndexError):
        field[9, 9]  # outside the stored range


def test_nd_constant_only_gamma_zero():
    jet = lift_nd(parse("3 + 0*x1", 2), (0.5, 0.5), 2)
    field = nd_field(jet, 1.0)
    assert field[0, 0] == pytest.approx(3.0)
    for g, v in np.ndenumerate(field):
        if g != (0, 0):
            assert abs(v) < 1e-14


def test_nd_separability_against_1d():
    lam = TWO_PI_I
    jet2 = lift_nd(parse("cos(2*pi*x1)*cos(2*pi*x2)", 2), (0.0, 0.0), 5)
    field = nd_field(jet2, lam)
    one_d = stages("cos(2*pi*x)", lam, 0.0, 5)
    for (g1, g2), v in np.ndenumerate(field):
        if g1 + g2 < 6:
            assert v == pytest.approx(one_d[g1] * one_d[g2], rel=1e-10, abs=1e-10)


def test_nd_field_center_value():
    jet = lift_nd(parse("exp(x1+x2)", 2), (0.1, 0.2), 2)
    field = nd_field(jet, 1.0)
    assert field[0, 0] == pytest.approx(math.exp(0.3), rel=1e-13)


STAGE_ROW_CASES = {
    1: ("sin(x)*exp(x)", (0.3,), [(0,), (2,), (1,), (4,)]),
    2: ("sin(x1)*exp(x2)", (0.3, -0.2), [(0, 0), (2, 1), (1, 3), (4, 0)]),
    3: ("sin(x1)*exp(x2)/(3 + x3)", (0.3, -0.2, 0.1), [(0, 0, 0), (2, 1, 1), (1, 0, 3), (0, 4, 0)]),
    4: (
        "sin(x1 - x4)*exp(x2)*cos(x3)",
        (0.3, -0.2, 0.1, 0.2),
        [(0, 0, 0, 0), (1, 1, 1, 1), (0, 3, 0, 1), (4, 0, 0, 0)],
    ),
}


@pytest.mark.parametrize("n", sorted(STAGE_ROW_CASES))
def test_stage_rows_match_stage_tensor(n):
    # the batched row weights and the dense per-axis apply are two shapes
    # of the same map
    src, center, gammas = STAGE_ROW_CASES[n]
    jet = lift_nd(parse(src, n), center, 4)
    field = nd_field(jet, 1 + 1j)
    keys, values = np.array(list(jet.coeffs)), np.array(list(jet.coeffs.values()))[:, None]
    block = stage_rows(keys, values, gammas, 1 + 1j)
    for g, direct in zip(gammas, block[:, 0]):
        assert direct == pytest.approx(field[g], rel=1e-13)


@pytest.mark.parametrize(
    "gammas, values, shapes",
    [
        ([], [[1.0], [2.0]], "keys (2, 2), values (2, 1) and gammas (0,)"),
        ([(1, 0, 0)], [[1.0], [2.0]], "keys (2, 2), values (2, 1) and gammas (1, 3)"),
        ([(1, 0)], [[1.0]], "keys (2, 2), values (1, 1) and gammas (1, 2)"),
    ],
    ids=["no_gammas", "columns_differ", "rows_differ"],
)
def test_stage_rows_refuses_arrays_that_do_not_match(gammas, values, shapes):
    with pytest.raises(ValidationError) as err:
        stage_rows(np.array([(0, 0), (1, 0)]), np.array(values), gammas, 1.0)
    assert str(err.value) == f"need keys (k, n), values (k, P) and gammas (at least 1, n), got {shapes}"


def test_stage_rows_chunks_cover_every_point(monkeypatch):
    # the remainder along the segment lifts and stages one chunk of points at a time:
    # 963 samples and 64 nodes make one chunk and three points more
    blocks = []

    def recording_stage_rows(keys, values, gammas, lam):
        blocks.append(stage_rows(keys, values, gammas, lam))
        return blocks[-1]

    monkeypatch.setattr(seriesnd, "stage_rows", recording_stage_rows)
    ast, grid = parse("1/(3+x1-x2)", 2), POINT_CHUNK + 3 - 64
    c, d = np.array([-0.5, 0.4]), np.array([1.0, -0.8])
    seriesnd.remainder_bound_nd(ast, 2, TWO_PI_I, tuple(c), tuple(c + d), 3, grid=grid)
    assert [b.shape for b in blocks] == [(4, POINT_CHUNK), (4, 3)]
    rows = np.concatenate(blocks, axis=1)
    t = np.concatenate((np.linspace(0.0, 1.0, grid), _quad_rule(64)[0]))
    gammas = [(3, 0), (2, 1), (1, 2), (0, 3)]
    for p in (0, grid - 1, POINT_CHUNK - 1, POINT_CHUNK, POINT_CHUNK + 2):
        field = nd_field(lift_nd(ast, c + t[p] * d, 3), TWO_PI_I)
        for g, got in zip(gammas, rows[:, p]):
            assert got == pytest.approx(field[g], rel=1e-13)


def test_stage_tensor_takes_a_cube_of_coefficients():
    # one stage matrix serves every axis, so every axis has its length
    for shape in [(), (0,), (3, 4), (3, 3, 2)]:
        with pytest.raises(ValidationError):
            stage_tensor(np.ones(shape), 1.0)
    for shape in [(5,), (1, 1), (3, 3, 3), (2, 2, 2, 2)]:
        assert stage_tensor(np.ones(shape), 1.0).shape == shape


def cascade_tensor(jet, lam):
    # the recursion path run along each axis of the dense jet tensor; the
    # result is exact for |g| <= jet.order, since stage g reads only m <= g
    K = jet.order
    t = dense(jet)
    for axis in range(jet.dims):
        t = np.moveaxis(cascade_values(np.moveaxis(t, axis, -1), lam, K), -1, axis)
    return t


@pytest.mark.parametrize("src", ["exp(x1*x2)+x3^2", "1/(4+x1+x2+x3)"])
@pytest.mark.parametrize("lam", [TWO_PI_I, 1.0, 0.3 + 1j])
def test_nd_stirling_matches_cascade_per_axis(src, lam):
    K = 8
    jet = lift_nd(parse(src, 3), (0.2, -0.1, 0.3), K)
    a = cascade_tensor(jet, lam)
    b = nd_field(jet, lam)
    inside = np.indices(a.shape).sum(axis=0) <= K
    assert np.max(np.abs(a - b)[inside]) <= 1e-12 * np.max(np.abs(a[inside]))
