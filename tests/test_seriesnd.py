"""Tests for multivariate expansions, bounds, and the envelope check."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exptaylor import seriesnd
from exptaylor.errors import ValidationError
from exptaylor.expr import parse
from exptaylor.jet import _lift_nd_arrays, lift_nd
from exptaylor.operators import stage_rows, stage_tensor
from exptaylor.series1d import eval_series, expand_1d, remainder_bound
from exptaylor.seriesnd import (
    POINT_CHUNK,
    convergence_check_nd,
    eval_nd,
    expand_nd,
    multi_index_factorial,
    multi_indices,
    multi_indices_of_degree,
    remainder_bound_nd,
)

LAM = 2j * math.pi


def product_cosine():
    return parse("cos(2*pi*x1) * cos(2*pi*x2)", 2)


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
    got = multi_indices_of_degree(n, degree)
    assert len(got) == math.comb(degree + n - 1, n - 1)
    assert all(sum(g) == degree for g in got)


def test_degree_slice_matches_full_list_order():
    full = multi_indices(3, 5)
    sliced = [g for g in full if sum(g) == 3]
    assert sliced == multi_indices_of_degree(3, 3)


def test_multi_index_factorial():
    assert multi_index_factorial((2, 3, 1)) == 12
    assert multi_index_factorial((0, 0)) == 1
    assert multi_index_factorial((5,)) == 120


# ---- sample box ---------------------------------------------------------------


def frozen_grid_points(lo, hi, per_axis):
    """The whole tensor grid as ``BoxDomain.grid_points`` built it, frozen here
    as the oracle for the streamed one."""
    axes = [np.linspace(l, h, per_axis) for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def frozen_random_points(lo, hi, count, seed):
    """The whole uniform draw as ``BoxDomain.random_points`` made it."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(count, len(lo)))
    lo, hi = np.array(lo), np.array(hi)
    out = lo + pts * (hi - lo)
    out[0] = lo
    out[1] = hi
    return out


def box_points(lo, hi, per_axis, seed=0):
    return np.concatenate(list(seriesnd._box_points(np.array(lo), np.array(hi), per_axis, seed)))


def spy_box(monkeypatch):
    """Record the corners that the public functions hand to ``_box_points``."""
    corners, points = [], seriesnd._box_points

    def recording(lo, hi, per_axis, seed):
        corners.append((tuple(lo), tuple(hi)))
        return points(lo, hi, per_axis, seed)

    monkeypatch.setattr(seriesnd, "_box_points", recording)
    return corners


CORNERS = [0.3, -0.2, 0.0, 1.5], [-0.1, 0.4, -0.0, 1.5]


@settings(max_examples=60, deadline=None)
@given(
    dims=st.integers(1, 4),
    per_axis=st.integers(3, 40),
    a=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    b=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# one chunk, one chunk + 1 and several chunks, on the grid and on the draw
@example(1, 1024, *CORNERS, 0)
@example(1, 1025, *CORNERS, 0)
@example(2, 32, *CORNERS, 0)
@example(3, 40, *CORNERS, 0)
@example(4, 103, *CORNERS, 5)
@example(4, 205, *CORNERS, 5)
def test_streamed_box_points_equal_the_whole_box(dims, per_axis, a, b, seed):
    # the corners come in either order, as the sorted pair of a center and a point
    lo, hi = np.minimum(a[:dims], b[:dims]), np.maximum(a[:dims], b[:dims])
    chunks = list(seriesnd._box_points(lo, hi, per_axis, seed))
    assert all(0 < len(c) <= POINT_CHUNK for c in chunks)
    got = np.concatenate(chunks)
    if dims <= 3:
        want = frozen_grid_points(lo, hi, per_axis)
    else:
        want = frozen_random_points(lo, hi, 10 * per_axis, seed)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_box_from_points_sorts_coordinates(monkeypatch):
    corners = spy_box(monkeypatch)
    remainder_bound_nd(product_cosine(), 2, LAM, (0.2, -0.1), (-0.3, 0.4), 3, grid=3)
    assert corners == [((-0.3, -0.1), (0.2, 0.4))]


def test_box_centered(monkeypatch):
    corners = spy_box(monkeypatch)
    convergence_check_nd(product_cosine(), 2, LAM, (1.0, -2.0), 1.0, 0.25, 3, grid=3)
    assert corners == [((0.75, -2.25), (1.25, -1.75))]


def test_box_grid_points_one_dim():
    g = box_points((-0.5,), (0.5,), 5)
    assert np.allclose(g.ravel(), [-0.5, -0.25, 0.0, 0.25, 0.5])


def test_box_grid_points_shape():
    g = box_points((-0.1,) * 3, (0.1,) * 3, 4)
    assert g.shape == (64, 3)


def test_box_random_points_pins_corners():
    lo, hi = (-0.3, -0.1, 0.0, -1.0), (0.2, 0.4, 0.5, 1.0)
    pts = box_points(lo, hi, 4, seed=7)  # beyond three axes: 10 * 4 uniform points
    assert pts.shape == (40, 4)
    assert np.array_equal(pts[0], lo)
    assert np.array_equal(pts[1], hi)
    assert np.all(pts >= np.array(lo) - 1e-15)
    assert np.all(pts <= np.array(hi) + 1e-15)


def test_box_random_points_seed_deterministic():
    lo, hi = (-1.0,) * 4, (1.0,) * 4
    assert np.array_equal(box_points(lo, hi, 4, seed=3), box_points(lo, hi, 4, seed=3))


def test_box_validation():
    ast = product_cosine()
    with pytest.raises(ValidationError, match="center and x must have length 2"):
        remainder_bound_nd(ast, 2, LAM, (0.0,), (1.0, 2.0), 3)
    with pytest.raises(ValidationError, match="halfwidth must be >= 0"):
        convergence_check_nd(ast, 2, LAM, (0.0, 0.0), 1.0, -0.1, 3)
    with pytest.raises(ValidationError, match="per_axis must be an integer >= 3"):
        box_points((-1.0,), (1.0,), 2)
    with pytest.raises(ValidationError, match="per_axis must be an integer >= 3"):
        remainder_bound_nd(ast, 2, LAM, (0.0, 0.0), (0.1, 0.1), 3, grid=2)
    with pytest.raises(ValidationError, match="count must be >= 2"):
        box_points((-1.0,) * 4, (1.0,) * 4, 0)


def test_first_box_chunk_is_bounded_by_the_chunk():
    # a 3-D grid of 129 is 2,146,689 points: the whole grid and its meshgrid
    # peak near 98 MB, one chunk of them holds 24 KB
    points = seriesnd._box_points(np.zeros(3), np.full(3, 0.1), 129, 0)
    tracemalloc.start()
    try:
        first = next(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.shape == (POINT_CHUNK, 3)
    assert peak < 1_000_000, peak


# ---- expansion coefficients ---------------------------------------------------


def test_expand_constant():
    e = expand_nd(parse("3", 2), 2, LAM, (0.0, 0.0), 4)
    assert e.coeffs[(0, 0)] == 3
    assert all(c == 0 for g, c in e.coeffs.items() if g != (0, 0))


def test_expand_keys_cover_all_indices():
    e = expand_nd(product_cosine(), 2, LAM, (0.0, 0.0), 6)
    assert sorted(e.coeffs) == sorted(multi_indices(2, 6))


def test_product_coefficient_xy():
    e = expand_nd(parse("x1*x2", 2), 2, LAM, (0.0, 0.0), 3)
    assert e.coeffs[(1, 1)] == pytest.approx(-1.0 / (4 * math.pi**2), rel=1e-14)


def test_separability_product_cosine():
    e2 = expand_nd(product_cosine(), 2, LAM, (0.0, 0.0), 10)
    e1 = expand_1d(parse("cos(2*pi*x)"), LAM, 0.0, 10)
    for (g1, g2), c in e2.coeffs.items():
        ref = e1.coeffs[g1] * e1.coeffs[g2]
        assert c == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_constant_factor_scales_coefficients():
    a = expand_nd(parse("5 * x1 * x2", 2), 2, LAM, (0.0, 0.0), 4)
    b = expand_nd(parse("x1*x2", 2), 2, LAM, (0.0, 0.0), 4)
    for g in a.coeffs:
        assert a.coeffs[g] == pytest.approx(5 * b.coeffs[g], rel=1e-13, abs=1e-15)


def test_center_coefficient_is_function_value():
    e = expand_nd(product_cosine(), 2, LAM, (0.05, -0.03), 4)
    true = math.cos(2 * math.pi * 0.05) * math.cos(2 * math.pi * -0.03)
    assert e.coeffs[(0, 0)] == pytest.approx(true, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coefficients_are_the_per_key_quotients(n):
    # the one array division keeps the bits and the key order of dividing
    # each stage by the integer g! on its own, signed zeros included
    xs = ["x"] if n == 1 else [f"x{i}" for i in range(1, n + 1)]
    srcs = ["*".join(f"cos(2*pi*{x})" for x in xs), f"{xs[0]} * sin({xs[-1]}) / (4 + {xs[0]} + {xs[-1]})"]
    for src in srcs:
        ast = parse(src, n)
        for order in range(1, 17):
            for lam in (1.0, LAM):
                stages = stage_tensor(lift_nd(ast, (0.0,) * n, order - 1), lam, order)
                want = {g: stages[g] / multi_index_factorial(g) for g in multi_indices(n, order)}
                got = expand_nd(ast, n, lam, (0.0,) * n, order).coeffs
                assert list(got) == list(want)
                values = np.array(list(got.values()))
                assert np.array_equal(values.view(np.uint64), np.array(list(want.values())).view(np.uint64))
    # stages over 60 binades, a third of their parts +0 or -0
    rng = np.random.default_rng(n)
    parts = rng.standard_normal((16,) * n + (2,)) * 2.0 ** rng.integers(-30, 30, size=(16,) * n + (2,))
    pick = rng.random(parts.shape)
    parts[pick < 0.15], parts[pick > 0.85] = 0.0, -0.0
    stages = parts.view(np.complex128)[..., 0]
    keys, index, factorials = seriesnd._expansion_table(n, 16)
    got = np.array(stages[index] / factorials)
    want = np.array([stages[g] / multi_index_factorial(g) for g in multi_indices(n, 16)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_expansion_table_cannot_be_changed_by_a_caller():
    keys, index, factorials = seriesnd._expansion_table(3, 5)
    assert isinstance(keys, tuple) and isinstance(index, tuple)
    assert keys == tuple(multi_indices(3, 5))
    for a in (*index, factorials):
        with pytest.raises(ValueError):
            a[0] = 7
    assert seriesnd._expansion_table(3, 5)[0] is keys


# ---- evaluation ----------------------------------------------------------------


def test_eval_at_center_returns_c0():
    e = expand_nd(product_cosine(), 2, LAM, (0.1, 0.2), 5)
    assert eval_nd(e, (0.1, 0.2)) == pytest.approx(e.coeffs[(0, 0)], abs=1e-15)


def test_eval_product_cosine_high_order():
    e = expand_nd(product_cosine(), 2, LAM, (0.0, 0.0), 16)
    true = math.cos(0.1 * math.pi) ** 2
    assert abs(eval_nd(e, (0.05, 0.05)) - true) < 1e-5


def test_eval_one_dim_matches_series1d():
    ast = parse("cos(2*pi*x)")
    en = expand_nd(ast, 1, LAM, (0.1,), 8)
    e1 = expand_1d(ast, LAM, 0.1, 8)
    for j in range(8):
        assert en.coeffs[(j,)] == pytest.approx(e1.coeffs[j], abs=1e-12)
    for x in (0.05, 0.18, -0.12):
        assert eval_nd(en, (x,)) == pytest.approx(eval_series(e1, x), abs=1e-12)


def test_eval_complex_point():
    e = expand_nd(parse("exp(x1 + x2)", 2), 2, 1.0, (0.0, 0.0), 3)
    # exp(x1+x2) with lam = 1 terminates on each axis at degree 1
    val = eval_nd(e, (0.3 + 0.1j, -0.2))
    assert val == pytest.approx(np.exp(0.1 + 0.1j), rel=1e-12)


# ---- remainder bound ------------------------------------------------------------


def test_bound_zero_at_center():
    assert remainder_bound_nd(product_cosine(), 2, LAM, (0.1, 0.1), (0.1, 0.1), 4) == 0.0


def test_bound_zero_for_constant():
    assert remainder_bound_nd(parse("3", 2), 2, LAM, (0.0, 0.0), (0.3, 0.2), 4) == 0.0


def test_bound_dominates_measured_error():
    ast = product_cosine()
    e = expand_nd(ast, 2, LAM, (0.0, 0.0), 8)
    measured = abs(eval_nd(e, (0.05, 0.05)) - math.cos(0.1 * math.pi) ** 2)
    bound = remainder_bound_nd(ast, 2, LAM, (0.0, 0.0), (0.05, 0.05), 8, grid=33)
    assert measured <= 1.02 * bound


def test_bound_one_dim_matches_loose_bound():
    ast = parse("cos(2*pi*x)")
    bound_nd = remainder_bound_nd(ast, 1, LAM, (0.1,), (0.25,), 6, grid=513)
    bound_1d = remainder_bound(ast, LAM, 0.1, 0.25, 6, grid=513).bound_loose
    assert bound_nd == pytest.approx(bound_1d, rel=1e-12)


def test_measured_remainder_decays_geometrically():
    ast = product_cosine()
    true = math.cos(0.1 * math.pi) ** 2
    errs = []
    for order in range(2, 13):
        e = expand_nd(ast, 2, LAM, (0.0, 0.0), order)
        errs.append(abs(eval_nd(e, (0.05, 0.05)) - true))
    for a, b in zip(errs, errs[1:]):
        assert b <= 0.95 * a


def test_bound_four_dims_random_sampling():
    src = "cos(2*pi*x1) * cos(2*pi*x2) * cos(2*pi*x3) * cos(2*pi*x4)"
    ast = parse(src, 4)
    x = (0.03, 0.02, -0.02, 0.01)
    e = expand_nd(ast, 4, LAM, (0.0,) * 4, 3)
    true = math.prod(math.cos(2 * math.pi * xi) for xi in x)
    measured = abs(eval_nd(e, x) - true)
    bound = remainder_bound_nd(ast, 4, LAM, (0.0,) * 4, x, 3, grid=9, seed=1)
    assert measured <= 1.02 * bound


def whole_batch_stage_sups(ast, chunks, order, groups, lam):
    """The sampled sups as one lift of every point, staged 1024 points at a time."""
    points = np.concatenate(list(chunks))
    arrays = _lift_nd_arrays(ast, points, order)
    sups = [np.zeros(len(gammas)) for gammas in groups]
    for lo in range(0, len(points), 1024):
        chunk = {m: v[lo : lo + 1024] for m, v in arrays.items()}
        for i, gammas in enumerate(groups):
            sups[i] = np.maximum(sups[i], np.max(np.abs(stage_rows(chunk, gammas, lam)), axis=1))
    return sups


def whole_batch(monkeypatch, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the sampled sups taken from one whole-batch lift."""
    calls = []

    def reference(ast, chunks, *a):
        chunks = list(chunks)
        calls.append(sum(map(len, chunks)))
        return whole_batch_stage_sups(ast, chunks, *a)

    with monkeypatch.context() as m:
        m.setattr(seriesnd, "_stage_sups", reference)
        out = fn(*args, **kwargs)
    assert calls and calls[0] > POINT_CHUNK  # the reference ran, over more than one chunk
    return out


@pytest.mark.parametrize(
    "src, n, grid, lam",
    [
        ("exp(x1)/(3+x1-x2) + sin(x1*x2)", 2, 33, LAM),  # 1,089 grid points
        ("exp(x1*x2) + x3^2 + 1/(4+x1+x2+x3)", 3, 13, 1.0),  # 2,197 grid points
        ("exp(x1*x2) + x3^2*x4 + 1/(4+x1+x2+x3+x4)", 4, 103, 0.5 - 2j),  # 1,030 random points
    ],
    ids=["2d_grid33", "3d_grid13", "4d_random1030"],
)
def test_streamed_bound_equals_whole_batch_bound(monkeypatch, src, n, grid, lam):
    ast = parse(src, n)
    args = (ast, n, lam, (0.0,) * n, tuple(0.05 * (i + 1) for i in range(n)), 8)
    streamed = remainder_bound_nd(*args, grid=grid, seed=3)
    assert streamed > 0
    assert streamed == whole_batch(monkeypatch, remainder_bound_nd, *args, grid=grid, seed=3)


def test_streamed_convergence_check_equals_whole_batch(monkeypatch):
    args = (parse("exp(x1)/(3+x1-x2)", 2), 2, LAM, (0.1, -0.1), 1.0, 0.2, 8)
    streamed = convergence_check_nd(*args, grid=40)  # 1,600 grid points
    reference = whole_batch(monkeypatch, convergence_check_nd, *args, grid=40)
    assert streamed.worst_ratio == reference.worst_ratio
    assert streamed.envelope_holds == reference.envelope_holds


def test_sampled_bound_memory_is_bounded_by_the_chunk():
    # 35,937 grid points at order 8 in 3 variables.  Per chunk the lifted
    # jet, the working jets of the walk, the scaled copy that stage_rows
    # multiplies and its product each hold at most `keys` complex rows of
    # POINT_CHUNK values: four rows of that size.  The sample points come one
    # chunk at a time too.
    ast, order = parse("1/(4+x1+x2+x3)", 3), 8
    keys = math.comb(order + 3, 3)
    limit = 4 * keys * POINT_CHUNK * 16
    tracemalloc.start()
    try:
        remainder_bound_nd(ast, 3, 1.0, (0.0,) * 3, (0.1,) * 3, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit, (peak, limit)


# ---- convergence check -----------------------------------------------------------


def test_convergence_product_cosine_envelope():
    rep = convergence_check_nd(product_cosine(), 2, LAM, (0.0, 0.0), 1.0, 0.1, 10)
    assert rep.envelope_holds
    # gamma = 0 attains sup |a| = 1 = A * 0!, so the worst ratio is exactly 1
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.delta == pytest.approx(math.asin(0.45) / math.pi, rel=1e-12)


def test_convergence_predicted_envelope_formula():
    rep = convergence_check_nd(product_cosine(), 2, LAM, (0.0, 0.0), 1.0, 0.1, 10)
    ns = np.arange(1, 11, dtype=float)
    expected = rep.a_bound * rep.delta * abs(LAM) * ns**2 * 0.9 ** (ns - 1)
    assert np.allclose(rep.predicted_envelope, expected, rtol=1e-12)


def test_convergence_constant_function():
    rep = convergence_check_nd(parse("3", 2), 2, LAM, (0.0, 0.0), 3.0, 0.5, 6)
    assert rep.envelope_holds
    # only gamma = 0 is nonzero: sup = 3 = A * 0!
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_convergence_tight_A_fails():
    rep = convergence_check_nd(product_cosine(), 2, LAM, (0.0, 0.0), 0.4, 0.1, 8)
    assert not rep.envelope_holds
    assert rep.worst_ratio > 1.0


def test_delta_shrinks_with_alpha():
    a = convergence_check_nd(product_cosine(), 2, LAM, (0.0, 0.0), 1.0, 0.1, 4, alpha=0.5)
    b = convergence_check_nd(product_cosine(), 2, LAM, (0.0, 0.0), 1.0, 0.1, 4, alpha=0.9)
    assert a.delta < b.delta


def test_delta_real_lambda_closed_form():
    rep = convergence_check_nd(parse("cos(2*pi*x)"), 1, 0.5, (0.0,), 200.0, 0.1, 4, alpha=0.9)
    assert rep.delta == pytest.approx(math.log1p(0.9) / 0.5, rel=1e-12)


def test_delta_general_lambda_bisection():
    from exptaylor.series1d import epsilon_sup

    rep = convergence_check_nd(parse("cos(2*pi*x)"), 1, 0.3 + 1.0j, (0.0,), 200.0, 0.1, 4, alpha=0.7)
    assert epsilon_sup(0.3 + 1.0j, rep.delta) == pytest.approx(0.7, abs=1e-9)


# ---- validation -------------------------------------------------------------------


def test_expand_validation():
    ast = product_cosine()
    with pytest.raises(ValidationError):
        expand_nd(ast, 2, LAM, (0.0, 0.0), 0)
    with pytest.raises(ValidationError):
        expand_nd(ast, 2, LAM, (0.0, 0.0), 17)
    with pytest.raises(ValidationError):
        expand_nd(ast, 3, LAM, (0.0, 0.0, 0.0), 4)  # dims mismatch
    with pytest.raises(ValidationError):
        expand_nd(ast, 2, 0.0, (0.0, 0.0), 4)
    with pytest.raises(ValidationError):
        expand_nd(ast, 2, LAM, (0.0,), 4)
    with pytest.raises(ValidationError):
        expand_nd(ast, 0, LAM, (), 4)


def test_eval_validation():
    e = expand_nd(product_cosine(), 2, LAM, (0.0, 0.0), 4)
    with pytest.raises(ValidationError):
        eval_nd(e, (0.1,))


def test_bound_validation():
    ast = product_cosine()
    with pytest.raises(ValidationError):
        remainder_bound_nd(ast, 2, LAM, (0.0, 0.0), (0.1,), 4)
    with pytest.raises(ValidationError):
        remainder_bound_nd(ast, 2, LAM, (0.0, 0.0), (0.1, 0.1), 4, grid=2)


def test_convergence_validation():
    ast = product_cosine()
    with pytest.raises(ValidationError):
        convergence_check_nd(ast, 2, LAM, (0.0, 0.0), 0.0, 0.1, 4)
    with pytest.raises(ValidationError):
        convergence_check_nd(ast, 2, LAM, (0.0, 0.0), 1.0, 0.1, 0)
    with pytest.raises(ValidationError):
        convergence_check_nd(ast, 2, LAM, (0.0, 0.0), 1.0, 0.1, 4, alpha=1.2)
