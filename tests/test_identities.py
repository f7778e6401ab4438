"""Tests for the self-checking identity suite."""

import math
import tracemalloc

import numpy as np
import pytest

from exptaylor.errors import ValidationError
from exptaylor.expr import parse
from exptaylor.identities import (
    _SUITE,
    cosine_series,
    linear_series,
    log_series,
    run_suite,
    stirling_log2_series,
    suite_names,
)
from exptaylor.seriesnd import evaluate, expand
from exptaylor.stirling import build_ratio_rows


# ---- individual identities ---------------------------------------------------


def test_cosine_value():
    r = cosine_series(0.1, 60)
    assert r.target == math.cos(0.2 * math.pi)
    assert r.abs_error < 1e-10
    assert r.passed


def test_cosine_negative_x():
    r = cosine_series(-0.15, 80)
    # |w| is close to 1 here so convergence is slow but still guaranteed
    assert r.abs_error < 1e-3
    assert r.abs_error <= r.tolerance
    assert r.passed


def test_cosine_region_rejected():
    with pytest.raises(ValidationError):
        cosine_series(1.0 / 6.0, 60)
    with pytest.raises(ValidationError):
        cosine_series(0.3, 60)


def test_linear_value():
    r = linear_series(0.1, 80)
    assert r.target == 0.1
    assert r.abs_error < 1e-8
    assert r.passed


def test_linear_closed_boundary():
    # |w| = 1 exactly; the Abel bound still applies
    r = linear_series(1.0 / 6.0, 400)
    assert r.abs_error <= r.tolerance
    assert r.passed


def test_linear_region_rejected():
    with pytest.raises(ValidationError):
        linear_series(0.17, 60)


@pytest.mark.parametrize("k,J,ceiling", [(2, 60, 1e-12), (5, 200, 1e-10), (3, 100, 1e-12)])
def test_log_values(k, J, ceiling):
    r = log_series(k, J)
    assert r.target == math.log(k)
    assert r.abs_error < ceiling
    assert r.passed


def test_log_validation():
    with pytest.raises(ValidationError):
        log_series(1, 60)
    with pytest.raises(ValidationError):
        log_series(2, 0)


def test_terms_validation():
    with pytest.raises(ValidationError):
        cosine_series(0.1, 1)
    with pytest.raises(ValidationError):
        linear_series(0.1, 10**6 + 1)


# ---- stirling identities --------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stirling_weighted(k):
    r = stirling_log2_series(k, True, 60)
    assert r.target == pytest.approx((-1) ** k * math.log(2.0) ** k / math.factorial(k))
    assert r.abs_error < 1e-12
    assert r.variant == "signed"
    assert r.passed


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stirling_unweighted(k):
    r = stirling_log2_series(k, False, 20000)
    assert r.target == pytest.approx(math.log(2.0) ** k / math.factorial(k))
    assert r.abs_error < 1e-6
    assert r.variant == "signed"
    assert r.passed


def test_stirling_unweighted_large_J():
    r = stirling_log2_series(2, False, 100000)
    assert r.abs_error < 1e-4
    assert r.passed


def test_stirling_unsigned_variant_fails_weighted():
    # forcing the unsigned convention gives an alternating sum with a
    # different limit; the error is macroscopic
    r = stirling_log2_series(1, True, 60, variant="unsigned")
    assert r.variant == "unsigned"
    assert r.abs_error > 0.1
    assert not r.passed


def test_stirling_unsigned_variant_coincides_for_even_k():
    a = stirling_log2_series(2, False, 2000, variant="signed")
    b = stirling_log2_series(2, False, 2000, variant="unsigned")
    assert a.computed == b.computed


@pytest.mark.parametrize("k,J", [(1, 20000), (2, 100000), (3, 20000), (4, 20000), (4, 777)])
def test_stirling_boundary_sum_error_within_pairwise_bound(k, J):
    # The boundary series is summed as n differences d_i of adjacent terms.
    # Pairwise summation of depth m errs by at most gamma_m * sum |d_i|
    # (Higham, 2nd ed., 4.2).  numpy sums 8 interleaved accumulators over
    # blocks of at most 128 terms and halves above that, so m <= log2(n) + 32
    # covers the blocks, the subtractions and the last additions.  The
    # reference is the exactly rounded sum of the same float terms, so only
    # the summation is measured.
    eps = np.finfo(float).eps
    u = build_ratio_rows(k, J + 1)[k]
    r = stirling_log2_series(k, False, J, variant="signed")
    signed = [u[j] if (j - k) % 2 == 0 else -u[j] for j in range(k, J + 2)]
    exact = math.fsum(signed[:-1] + [0.5 * signed[-1]])
    pairs = (J - k + 1) // 2
    abs_d = math.fsum(abs(signed[2 * i] + signed[2 * i + 1]) for i in range(pairs))
    abs_d += abs(signed[J - k]) if (J - k) % 2 == 0 else 0.0
    depth = math.ceil(math.log2(pairs)) + 32
    assert abs(r.computed.real - exact) <= eps * (depth * abs_d + 2 * abs(exact))


def test_stirling_results_agree_across_entry_points():
    # the whole suite, a one-name suite and a standalone call sum the same
    # row prefix, so every field is bitwise equal
    whole = dict(zip(suite_names(), run_suite()))
    for name, function, args in _SUITE:
        if function is not stirling_log2_series:
            continue
        k, weighted, J = args
        alone = run_suite(names=[name])[0]
        standalone = stirling_log2_series(k, weighted, J)
        assert whole[name] == alone == standalone


def test_stirling_suite_holds_two_rows_at_a_time():
    # rows of 100002 doubles for k = 0, 1, 2: a stream keeps two rows
    # (2 x 8 x 100002 bytes); all three at once, or two rows and a
    # row-length index vector, would be three such arrays
    run_suite(names=["log_k2_J60"])
    tracemalloc.start()
    try:
        run_suite(names=["stirling_k2_unweighted_J100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * 100003


def test_stirling_validation():
    with pytest.raises(ValidationError):
        stirling_log2_series(0, True, 60)
    with pytest.raises(ValidationError):
        stirling_log2_series(5, True, 60)
    with pytest.raises(ValidationError):
        stirling_log2_series(2, True, 60, variant="other")


# ---- tolerances are tail bounds ---------------------------------------------------


def test_tolerance_decreases_with_J():
    tols = [cosine_series(0.12, J).tolerance for J in (20, 40, 80)]
    assert tols[0] > tols[1] > tols[2]
    tols = [stirling_log2_series(2, False, J).tolerance for J in (1000, 4000, 16000)]
    assert tols[0] > tols[1] > tols[2]


def test_passed_consistent_with_fields():
    for r in run_suite():
        assert r.abs_error == abs(r.computed - r.target)
        assert r.passed == (r.abs_error <= r.tolerance)


# ---- agreement with the expansion machinery ----------------------------------------


def test_linear_matches_expansion_machinery():
    # same coefficients as expand of the identity map at lam = 2 pi i
    J = 30
    direct = linear_series(0.1, J)
    e = expand(parse("x"), 2j * math.pi, (0.0,), J + 1)
    assert evaluate(e, (0.1,)) == pytest.approx(direct.computed, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_log_matches_expansion_machinery(k):
    # identity map at lam = -log k, evaluated at x = 1, scales to log k
    J = 50
    direct = log_series(k, J)
    e = expand(parse("x"), -math.log(k), (0.0,), J + 1)
    assert evaluate(e, (1.0,)) * math.log(k) == pytest.approx(direct.computed, rel=1e-12)


# ---- suite runner --------------------------------------------------------------------


def test_suite_all_pass():
    results = run_suite()
    assert len(results) == len(suite_names())
    assert all(r.passed for r in results)


def test_suite_subset_keeps_order():
    picked = ["stirling_k1_weighted_J60", "log_k2_J60"]
    results = run_suite(names=picked)
    assert [r.name for r in results] == ["log(k=2, J=60)", "stirling_log2(k=1, weighted, J=60)"]


def test_suite_unknown_name():
    with pytest.raises(ValidationError):
        run_suite(names=["log_k2_J60", "nope"])


def test_suite_unknown_override():
    with pytest.raises(ValidationError):
        run_suite(tol_overrides={"nope": 1e-3})


def test_suite_override_forces_failure():
    results = run_suite(tol_overrides={"log_k2_J60": 1e-30})
    by_name = {r.name: r for r in results}
    assert not by_name["log(k=2, J=60)"].passed
    assert all(r.passed for r in results if r.name != "log(k=2, J=60)")
