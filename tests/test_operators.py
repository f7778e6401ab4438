"""Cascade stage values: closed forms and cross-path agreement."""

import cmath
import math

import numpy as np
import pytest

from exptaylor.errors import ValidationError
from exptaylor.expr import parse
from exptaylor import seriesnd
from exptaylor.jet import lift, lift_nd
from exptaylor.operators import cascade_values, d_lambda_stirling, stage_rows, stage_tensor
from exptaylor.seriesnd import POINT_CHUNK
from exptaylor.stirling import build_table

TWO_PI_I = 2j * math.pi


def stages(src, lam, x0, count, path="recursive"):
    jet = lift(parse(src), x0, count)
    if path == "recursive":
        return cascade_values(jet.coeffs, lam, count)
    return d_lambda_stirling(jet, lam, count)


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
    got = d_lambda_stirling(jet, lam, 8)
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
        d_lambda_stirling(jet, 1.0, 5)


def test_nd_product_of_coordinates():
    jet = lift_nd(parse("x1*x2", 2), (0.0, 0.0), 4)
    field = stage_tensor(jet, TWO_PI_I, 4)
    want = 1 / TWO_PI_I**2
    assert field[1, 1] == pytest.approx(want)
    assert field[1, 1].real == pytest.approx(-1 / (4 * math.pi**2))
    assert field[0, 0] == 0
    assert field[2, 3] == 0  # |g| >= order is not a stage of this field
    with pytest.raises(IndexError):
        field[9, 9]  # outside the stored range


def test_nd_constant_only_gamma_zero():
    jet = lift_nd(parse("3 + 0*x1", 2), (0.5, 0.5), 3)
    field = stage_tensor(jet, 1.0, 3)
    assert field[0, 0] == pytest.approx(3.0)
    for g, v in np.ndenumerate(field):
        if g != (0, 0):
            assert abs(v) < 1e-14


def test_nd_separability_against_1d():
    lam = TWO_PI_I
    jet2 = lift_nd(parse("cos(2*pi*x1)*cos(2*pi*x2)", 2), (0.0, 0.0), 6)
    field = stage_tensor(jet2, lam, 6)
    one_d = stages("cos(2*pi*x)", lam, 0.0, 5)
    for (g1, g2), v in np.ndenumerate(field):
        want = one_d[g1] * one_d[g2] if g1 + g2 < 6 else 0
        assert v == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_nd_field_center_value():
    jet = lift_nd(parse("exp(x1+x2)", 2), (0.1, 0.2), 3)
    field = stage_tensor(jet, 1.0, 3)
    assert field[0, 0] == pytest.approx(math.exp(0.3), rel=1e-13)


def test_stage_rows_match_stage_tensor():
    # the batched row weights and the dense per-axis apply are two shapes
    # of the same map
    jet = lift_nd(parse("sin(x1)*exp(x2)", 2), (0.3, -0.2), 5)
    field = stage_tensor(jet, 1 + 1j, 5)
    gammas = [(0, 0), (2, 1), (1, 3), (4, 0)]
    arrays = {m: np.array([c]) for m, c in jet.coeffs.items()}
    block = stage_rows(arrays, gammas, 1 + 1j)
    for g, direct in zip(gammas, block[:, 0]):
        assert direct == pytest.approx(field[g], rel=1e-13)


def test_stage_rows_chunks_cover_every_point(monkeypatch):
    # the sampled sups lift and stage one chunk of points at a time
    blocks = []

    def recording_stage_rows(arrays, gammas, lam):
        blocks.append(stage_rows(arrays, gammas, lam))
        return blocks[-1]

    monkeypatch.setattr(seriesnd, "stage_rows", recording_stage_rows)
    ast = parse("1/(3+x1-x2)", 2)
    centers = np.stack([np.linspace(-0.5, 0.5, POINT_CHUNK + 3), np.linspace(0.4, -0.4, POINT_CHUNK + 3)], axis=1)
    gammas = [(3, 0), (2, 1), (1, 2), (0, 3)]
    chunks = (centers[lo : lo + POINT_CHUNK] for lo in range(0, len(centers), POINT_CHUNK))
    (sups,) = seriesnd._stage_sups(ast, chunks, 3, [gammas], TWO_PI_I)
    assert [b.shape for b in blocks] == [(4, POINT_CHUNK), (4, 3)]
    rows = np.concatenate(blocks, axis=1)
    for p in (0, POINT_CHUNK - 1, POINT_CHUNK, POINT_CHUNK + 2):
        field = stage_tensor(lift_nd(ast, centers[p], 3), TWO_PI_I, 4)
        for g, got in zip(gammas, rows[:, p]):
            assert got == pytest.approx(field[g], rel=1e-13)
    assert np.array_equal(sups, np.max(np.abs(rows), axis=1))


def test_nd_requires_enough_jet_order():
    jet = lift_nd(parse("x1+x2", 2), (0.0, 0.0), 2)
    with pytest.raises(ValidationError):
        stage_tensor(jet, 1.0, 4)


def cascade_tensor(jet, lam):
    # the recursion path run along each axis of the dense jet tensor; the
    # result is exact for |g| <= jet.order, since stage g reads only m <= g
    K = jet.order
    t = np.zeros((K + 1,) * jet.dims, dtype=np.complex128)
    for m, c in jet.coeffs.items():
        t[m] = c
    for axis in range(jet.dims):
        t = np.moveaxis(cascade_values(np.moveaxis(t, axis, -1), lam, K), -1, axis)
    return t


@pytest.mark.parametrize("src", ["exp(x1*x2)+x3^2", "1/(4+x1+x2+x3)"])
@pytest.mark.parametrize("lam", [TWO_PI_I, 1.0, 0.3 + 1j])
def test_nd_stirling_matches_cascade_per_axis(src, lam):
    K = 8
    jet = lift_nd(parse(src, 3), (0.2, -0.1, 0.3), K)
    a = cascade_tensor(jet, lam)
    b = stage_tensor(jet, lam, K + 1)
    inside = np.indices(a.shape).sum(axis=0) <= K
    assert np.max(np.abs(a - b)[inside]) <= 1e-12 * np.max(np.abs(a[inside]))
