"""Exact Stirling table vs an independent polynomial-expansion oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from exptaylor.errors import ValidationError
from exptaylor.stirling import (
    build_ratio_rows,
    build_table,
    ratio_rows,
    stage_matrix,
)


def falling_factorial_coeffs(n):
    # expand x(x-1)...(x-n+1) by repeated multiplication; coeffs[k] is the
    # coefficient of x^k, which is s(n, k) by definition
    coeffs = [1]
    for m in range(n):
        shifted = [0] + coeffs
        scaled = [-m * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


@pytest.mark.parametrize("n", range(13))
def test_matches_falling_factorial_expansion(n):
    table = build_table(16)
    oracle = falling_factorial_coeffs(n)
    for k in range(n + 1):
        assert table.value(n, k) == oracle[k]


def test_recurrence_holds_through_n64():
    table = build_table(64)
    for n in range(64):
        for k in range(n + 2):
            assert table.value(n + 1, k) == table.value(n, k - 1) - n * table.value(n, k)


def test_row_sums():
    table = build_table(64)
    for n in range(65):
        assert sum(abs(v) for v in table.row(n)) == math.factorial(n)
    assert sum(table.row(0)) == 1
    assert sum(table.row(1)) == 1
    for n in range(2, 65):
        assert sum(table.row(n)) == 0


def test_sign_pattern():
    # nonzero entries alternate as (-1)^(n-k)
    table = build_table(20)
    for n in range(21):
        for k in range(1, n + 1):
            v = table.value(n, k)
            assert v != 0
            assert (v > 0) == ((n - k) % 2 == 0)


def test_known_small_values():
    table = build_table(6)
    assert table.value(0, 0) == 1
    assert table.value(1, 1) == 1
    assert table.value(3, 1) == 2
    assert table.value(4, 2) == 11
    assert table.value(5, 1) == 24
    assert table.value(5, 2) == -50
    assert table.value(5, 3) == 35
    assert abs(table.value(5, 2)) == 50


def test_outside_triangle_is_zero():
    table = build_table(8)
    assert table.value(5, 0) == 0
    assert table.value(5, 6) == 0
    assert table.value(5, -1) == 0


def test_row_index_validated():
    table = build_table(8)
    with pytest.raises(ValidationError):
        table.value(9, 1)
    with pytest.raises(ValidationError):
        table.row(-1)
    with pytest.raises(ValidationError):
        build_table(257)
    with pytest.raises(ValidationError):
        build_table(-1)


def test_ratio_rows_match_exact_table():
    table = build_table(64)
    rows = build_ratio_rows(4, 64)
    assert len(rows) == 5
    for k in range(1, 5):
        for j in range(k, 65):
            exact = Fraction(abs(table.value(j, k)), math.factorial(j))
            got = rows[k][j]
            assert got == pytest.approx(float(exact), rel=1e-12)


def test_ratio_row_closed_forms():
    rows = build_ratio_rows(2, 40)
    # u[k, k] = 1/k!, u[j, 1] = 1/j, u[j, 2] = H_{j-1}/j
    assert rows[2][2] == pytest.approx(0.5, rel=1e-15)
    assert rows[1][5] == pytest.approx(0.2, rel=1e-15)
    for j in (2, 7, 25, 40):
        assert rows[1][j] == pytest.approx(1.0 / j, rel=1e-14)
        harmonic = sum(1.0 / i for i in range(1, j))
        assert rows[2][j] == pytest.approx(harmonic / j, rel=1e-13)


def test_ratio_rows_within_summation_bound_of_mpmath():
    # reference: j * u_k[j] = sum_{i<j} u_{k-1}[i] run at 40 digits.  Row k
    # adds j - 1 positive terms (relative error <= gamma_{j-1}) of inputs
    # carrying row k-1's error, then divides once; compounded over k levels
    # that is below (k * (j + 1) + 1) * eps relative.
    mpmath = pytest.importorskip("mpmath")
    k_max, j_max = 4, 20001
    rows = build_ratio_rows(k_max, j_max)
    eps = np.finfo(float).eps
    j = np.arange(j_max + 1)
    with mpmath.workdps(40):
        prev = [mpmath.mpf(1)] + [mpmath.mpf(0)] * j_max
        for k in range(1, k_max + 1):
            cur = [mpmath.mpf(0)] * (j_max + 1)
            acc = mpmath.mpf(0)
            for i in range(1, j_max + 1):
                acc += prev[i - 1]
                cur[i] = acc / i
            got = rows[k]
            assert not got[:k].any()
            rel = np.array(
                [float(abs(mpmath.mpf(got[i]) - cur[i]) / cur[i]) for i in range(k, j_max + 1)]
            )
            assert (rel <= (k * (j[k:] + 1) + 1) * eps).all()
            prev = cur


def test_ratio_rows_stream_in_order_and_match_list():
    # row k at position k, each a float array over 0 <= j <= j_max
    streamed = list(ratio_rows(3, 500))
    assert [(row.dtype, row.shape) for row in streamed] == [(np.float64, (501,))] * 4
    assert [np.flatnonzero(row)[0] for row in streamed] == [0, 1, 2, 3]
    for a, b in zip(streamed, build_ratio_rows(3, 500)):
        assert np.array_equal(a, b)
    # a row's prefix does not depend on how far the rows reach
    for a, b in zip(ratio_rows(3, 80), streamed):
        assert np.array_equal(a, b[:81])
    with pytest.raises(ValidationError):
        next(ratio_rows(9, 10))


def test_ratio_row_k0_trivial():
    rows = build_ratio_rows(1, 10)
    assert len(rows) == 2  # rows k = 0 and 1, row k at position k
    assert rows[0][0] == 1.0
    assert not rows[0][1:].any()
    assert len(rows[0]) - 1 == 10


def test_ratio_rows_validated():
    with pytest.raises(ValidationError):
        build_ratio_rows(0, 10)
    with pytest.raises(ValidationError):
        build_ratio_rows(9, 10)
    with pytest.raises(ValidationError):
        build_ratio_rows(2, 1)
    with pytest.raises(ValidationError):
        build_ratio_rows(2, 10**6 + 1)


def test_stage_matrix_diagonal_is_factorial():
    # s(n, n) = 1, so the diagonal of S[n, m] = s(n, m) m! is n!
    assert stage_matrix(10)[10, 10] == float(math.factorial(10))


@pytest.mark.parametrize("K", [0, 1, 16, 39, 64])
def test_stage_matrix_matches_exact_table(K):
    # the matrix runs its own recurrence on s(n, m) m!; the table runs s(n, m)
    table = build_table(K)
    S = stage_matrix(K)
    assert S.shape == (K + 1, K + 1)
    for n in range(K + 1):
        for m in range(K + 1):
            assert S[n, m] == float(table.value(n, m) * math.factorial(m))
    assert np.all(np.isfinite(S))


def test_stage_matrix_cached_and_read_only():
    S = stage_matrix(6)
    assert stage_matrix(6) is S
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[1, 1] = 2.0
    with pytest.raises(ValidationError):
        stage_matrix(65)
    with pytest.raises(ValidationError):
        stage_matrix(-1)
