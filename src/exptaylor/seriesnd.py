"""Exponential Taylor expansions in several variables.

Multi-indices are ordered graded-lexicographically: by total degree, and
within a degree with earlier axes dominant, so for two variables the order
starts (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).  The expansion about a
center ``c`` sums ``coeff[g] * prod_i w_i^g_i`` with per-axis factors
``w_i = exp(lam (x_i - c_i)) - 1``.

There is no exact integral remainder in several variables here; what is
provided is the upper bound

    |R_N| <= |lam| * [ sum over |g| = N of N/g! * sup over Q |stage_g| ]
             * eps(lam, h)^(N-1) * h,        h = max_i |x_i - c_i|

with the supremum sampled over the axis-aligned box spanned by the center
and the evaluation point, plus a sampled envelope check that feeds the
geometric convergence heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .expr import ExprAst
from .jet import _lift_nd_arrays, lift_nd
from .operators import _check_lam, stage_rows, stage_tensor
from .series1d import epsilon_sup

MAX_ND_ORDER = 16
MAX_ND_DIMS = 4
# sample points per lift and stage product: memory is O(keys * chunk), not
# O(keys * points); 1024 keeps the BLAS column split that printed bounds pin
POINT_CHUNK = 1024


# ---- multi-indices ---------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def multi_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices with ``|g| < order`` in graded-lex order.

    The list has ``comb(order - 1 + n, n)`` entries.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if not isinstance(order, int) or order < 1:
        raise ValidationError(f"order must be a positive integer, got {order!r}")
    return [g for d in range(order) for g in _compositions(d, n)]


def multi_indices_of_degree(n: int, degree: int) -> list[tuple[int, ...]]:
    """Multi-indices with ``|g| == degree``, graded-lex order within the degree."""
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if not isinstance(degree, int) or degree < 0:
        raise ValidationError(f"degree must be >= 0, got {degree!r}")
    return list(_compositions(degree, n))


def multi_index_factorial(gamma: Sequence[int]) -> int:
    """``g! = prod_i g_i!``."""
    out = 1
    for g in gamma:
        out *= math.factorial(g)
    return out


@lru_cache(maxsize=None)
def _expansion_table(n: int, order: int) -> tuple:
    """``(keys, index, factorials)`` for ``multi_indices(n, order)``; read-only.

    ``keys`` is a tuple of the multi-indices, ``index`` a tuple of one
    index array per axis, so ``stages[index]`` lists the stages in key
    order, and ``factorials`` holds ``g!`` as float64, exact below 2^53
    (``|g| <= 15`` gives at most 15!).
    """
    keys = tuple(multi_indices(n, order))
    index = tuple(np.array(keys, dtype=np.intp).T)
    factorials = np.array([multi_index_factorial(g) for g in keys], dtype=np.float64)
    for a in (*index, factorials):
        a.flags.writeable = False
    return keys, index, factorials


# ---- sample box ------------------------------------------------------------


def _box_points(lo: np.ndarray, hi: np.ndarray, per_axis: int, seed: int) -> Iterator[np.ndarray]:
    """Sample points of the closed box ``[lo_i, hi_i]``, at most ``POINT_CHUNK`` rows at a time.

    Up to three axes this is the full ``per_axis``-per-axis tensor grid in C
    order; beyond that, where the grid blows up combinatorially, it is
    ``10 * per_axis`` seeded uniform points with the corners ``lo`` and
    ``hi`` pinned as the first two.  Only the chunk in hand is held.
    """
    dims = len(lo)
    if dims <= 3:
        if not isinstance(per_axis, int) or per_axis < 3:
            raise ValidationError(f"per_axis must be an integer >= 3, got {per_axis!r}")
        axes = [np.linspace(l, h, per_axis) for l, h in zip(lo, hi)]
        total = per_axis**dims
        for start in range(0, total, POINT_CHUNK):
            # flat indices in C order: the rows of meshgrid(*axes, indexing="ij") raveled
            index = np.unravel_index(np.arange(start, min(start + POINT_CHUNK, total)), (per_axis,) * dims)
            yield np.stack([a[i] for a, i in zip(axes, index)], axis=-1)
        return
    count = 10 * per_axis
    if count < 2:
        raise ValidationError(f"count must be >= 2, got {count!r}")
    # one generator drawn chunk by chunk gives the doubles of one whole draw
    rng = np.random.default_rng(seed)
    for start in range(0, count, POINT_CHUNK):
        out = lo + rng.uniform(size=(min(POINT_CHUNK, count - start), dims)) * (hi - lo)
        if start == 0:
            out[0], out[1] = lo, hi
        yield out


# ---- expansion -------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionND:
    """Coefficients ``coeffs[g]`` of ``prod w_i^g_i`` for ``|g| < order``."""

    lam: complex
    center: tuple[float, ...]
    order: int
    coeffs: dict[tuple[int, ...], complex]

    @property
    def dims(self) -> int:
        return len(self.center)


def _check_nd_args(ast: ExprAst, n: int, lam: complex) -> complex:
    if not isinstance(n, int) or n < 1 or n > MAX_ND_DIMS:
        raise ValidationError(f"n must be an integer in [1, {MAX_ND_DIMS}], got {n!r}")
    if n != ast.dims:
        raise ValidationError(f"expression has dims={ast.dims}, caller said n={n}")
    return _check_lam(lam)


def _check_nd_order(order: int) -> None:
    if not isinstance(order, int) or order < 1 or order > MAX_ND_ORDER:
        raise ValidationError(f"order must be an integer in [1, {MAX_ND_ORDER}], got {order!r}")


def expand_nd(ast: ExprAst, n: int, lam: complex, center: Sequence[float], order: int) -> ExpansionND:
    """Expansion coefficients for all ``|g| < order`` about ``center``.

    Parameters
    ----------
    ast : ExprAst
        Expression in ``n`` variables.
    n : int
        Number of variables, ``1 <= n <= 4`` (checked against the AST).
    lam : complex
        Nonzero scale shared by every axis.
    center : sequence of float
        Real expansion center of length ``n``.
    order : int
        Total-degree truncation, ``1 <= order <= 16``.
    """
    lam = _check_nd_args(ast, n, lam)
    _check_nd_order(order)
    pts = tuple(float(c) for c in center)
    if len(pts) != n:
        raise ValidationError(f"center has {len(pts)} coordinates, need {n}")
    with np.errstate(all="ignore"):
        stages = stage_tensor(lift_nd(ast, pts, order - 1), lam, order)
    if not np.all(np.isfinite(stages)):
        raise DomainError("non-finite expansion coefficient (overflow in the jet or in powers of 1/lam)")
    keys, index, factorials = _expansion_table(n, order)
    # one complex division by g! + 0j per key, as the per-key quotient rounds
    coeffs = dict(zip(keys, stages[index] / factorials))
    return ExpansionND(lam=lam, center=pts, order=order, coeffs=coeffs)


def eval_nd(expansion: ExpansionND, x: Sequence[float] | Sequence[complex]) -> complex:
    """Evaluate the truncated expansion at ``x``; per-axis powers are reused."""
    pts = tuple(complex(v) for v in x)
    if len(pts) != expansion.dims:
        raise ValidationError(f"point has {len(pts)} coordinates, need {expansion.dims}")
    K = expansion.order - 1
    pows = []
    for xi, ci in zip(pts, expansion.center):
        w = np.exp(expansion.lam * (xi - ci)) - 1.0
        pows.append(w ** np.arange(K + 1))
    acc = 0j
    for g, c in expansion.coeffs.items():
        term = c
        for i, gi in enumerate(g):
            term = term * pows[i][gi]
        acc += term
    return complex(acc)


# ---- remainder bound and convergence ---------------------------------------


def _stage_sups(ast: ExprAst, chunks: Iterable, order: int, groups: list[list], lam: complex) -> list[np.ndarray]:
    """Sampled ``sup |stage_g|`` over the points in ``chunks`` for every ``g`` of each list in ``groups``.

    Each chunk of points, ``(P, dims)`` with ``P <= POINT_CHUNK`` as
    :func:`_box_points` yields them, is lifted to ``order`` and staged as it
    comes, with a running maximum per multi-index, so no more than one chunk
    is held.  Overflow is silent: a non-finite supremum is the caller's to
    refuse.
    """
    sups = [np.zeros(len(gammas)) for gammas in groups]
    with np.errstate(all="ignore"):
        for points in chunks:
            arrays = _lift_nd_arrays(ast, points, order)
            for i, gammas in enumerate(groups):
                sups[i] = np.maximum(sups[i], np.max(np.abs(stage_rows(arrays, gammas, lam)), axis=1))
    return sups


def remainder_bound_nd(
    ast: ExprAst,
    n: int,
    lam: complex,
    center: Sequence[float],
    x: Sequence[float],
    order: int,
    grid: int = 33,
    seed: int = 0,
) -> float:
    """Upper bound on the truncation error after total degree ``order``.

    The stage suprema are sampled over the closed box spanned by ``center``
    and ``x``: a full ``grid``-per-axis tensor grid for up to three axes,
    ``10 * grid`` seeded uniform points (corners pinned) beyond that.  The
    sample points are made, lifted and staged ``POINT_CHUNK`` at a time, so
    the memory held, the points included, is bounded by the chunk, not by
    ``grid``.  Returns zero when ``x == center`` or the expression is flat
    there.
    """
    lam = _check_nd_args(ast, n, lam)
    _check_nd_order(order)
    c = tuple(float(v) for v in center)
    xv = tuple(float(v) for v in x)
    if len(c) != n or len(xv) != n:
        raise ValidationError(f"center and x must have length {n}")
    h = max(abs(a - b) for a, b in zip(xv, c))
    # numpy returns its second argument on a tie, as min(c, x) returns c: -0.0 stays put
    lo, hi = np.minimum(xv, c), np.maximum(xv, c)
    gammas = multi_indices_of_degree(n, order)
    (sups,) = _stage_sups(ast, _box_points(lo, hi, grid, seed), order, [gammas], lam)
    total = 0.0
    for g, sup in zip(gammas, sups):
        total += order / multi_index_factorial(g) * float(sup)
    eps = epsilon_sup(lam, h)
    return abs(lam) * total * eps ** (order - 1) * h


@dataclass(frozen=True)
class NdConvergenceReport:
    """Sampled envelope check plus the geometric decay it predicts.

    ``envelope_holds`` reports whether every sampled stage magnitude with
    ``|g| <= n_max`` stays below ``a_bound * g!`` on the box of half-width
    ``v_halfwidth`` around the center (``worst_ratio`` is the max of
    ``sup / (a_bound g!)``).  ``delta`` is the largest half-width with
    ``eps(lam, delta) <= alpha``; inside it the bound above decays like
    ``predicted_envelope[N-1] = a_bound * delta * |lam| * N^n/(n-1)! *
    alpha^(N-1)``.
    """

    lam: complex
    center: tuple[float, ...]
    a_bound: float
    v_halfwidth: float
    alpha: float
    n_max: int
    envelope_holds: bool
    worst_ratio: float
    delta: float
    predicted_envelope: np.ndarray  # float64, shape (n_max,)


def _delta_for_alpha(lam: complex, alpha: float) -> float:
    """Largest half-width ``d >= 0`` with ``epsilon_sup(lam, d) <= alpha``."""
    a, b = lam.real, lam.imag
    if b == 0:
        return math.log1p(alpha) / abs(a)
    if a == 0:
        # sup saturates at 2; alpha < 1 < 2 always intersects the rising part
        return 2.0 * math.asin(alpha / 2.0) / abs(b)
    hi = 1.0
    for _ in range(80):
        if epsilon_sup(lam, hi) > alpha:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if epsilon_sup(lam, mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return lo


def convergence_check_nd(
    ast: ExprAst,
    n: int,
    lam: complex,
    center: Sequence[float],
    a_bound: float,
    v_halfwidth: float,
    n_max: int,
    alpha: float = 0.9,
    grid: int = 9,
    seed: int = 0,
) -> NdConvergenceReport:
    """Check the factorial envelope on a sample and predict geometric decay.

    ``a_bound`` is the constant A of the hypothesized bound
    ``sup |stage_g| <= A g!``; ``alpha`` must lie in (0, 1).
    """
    lam = _check_nd_args(ast, n, lam)
    if not isinstance(n_max, int) or n_max < 1 or n_max > MAX_ND_ORDER:
        raise ValidationError(f"n_max must be an integer in [1, {MAX_ND_ORDER}], got {n_max!r}")
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    if a_bound <= 0:
        raise ValidationError(f"a_bound must be positive, got {a_bound!r}")
    c = tuple(float(v) for v in center)
    halfwidth = float(v_halfwidth)
    if halfwidth < 0:
        raise ValidationError(f"halfwidth must be >= 0, got {halfwidth!r}")
    points = _box_points(np.array(c) - halfwidth, np.array(c) + halfwidth, grid, seed)
    groups = [multi_indices_of_degree(n, degree) for degree in range(n_max + 1)]
    worst = 0.0
    for gammas, sups in zip(groups, _stage_sups(ast, points, n_max, groups, lam)):
        for g, sup in zip(gammas, sups):
            worst = max(worst, float(sup) / (a_bound * multi_index_factorial(g)))
    delta = _delta_for_alpha(lam, alpha)
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    pred = a_bound * delta * abs(lam) * ns**n / math.factorial(n - 1) * alpha ** (ns - 1)
    return NdConvergenceReport(
        lam=lam,
        center=c,
        a_bound=float(a_bound),
        v_halfwidth=halfwidth,
        alpha=float(alpha),
        n_max=n_max,
        envelope_holds=worst <= 1.0 + 1e-9,
        worst_ratio=worst,
        delta=delta,
        predicted_envelope=pred,
    )
