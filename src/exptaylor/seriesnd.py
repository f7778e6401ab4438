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
and the evaluation point.
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
from .series1d import _times_power, epsilon_sup, expm1, horner

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
    if not isinstance(per_axis, int) or per_axis < 3:
        raise ValidationError(f"grid must be an integer >= 3, got {per_axis!r}")
    dims = len(lo)
    if dims <= 3:
        axes = [np.linspace(l, h, per_axis) for l, h in zip(lo, hi)]
        total = per_axis**dims
        for start in range(0, total, POINT_CHUNK):
            # flat indices in C order: the rows of meshgrid(*axes, indexing="ij") raveled
            index = np.unravel_index(np.arange(start, min(start + POINT_CHUNK, total)), (per_axis,) * dims)
            yield np.stack([a[i] for a, i in zip(axes, index)], axis=-1)
        return
    count = 10 * per_axis
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
    keys, index, factorials = _expansion_table(n, order)
    with np.errstate(all="ignore"):
        # the jet's degree is order - 1, so every stage of |g| < order reads stored coefficients alone;
        # one complex division by g! + 0j per key, as the per-key quotient rounds
        values = stage_tensor(_dense(lift_nd(ast, pts, order - 1).coeffs, order, n), lam)[index] / factorials
    if not np.all(np.isfinite(values)):
        raise DomainError("non-finite expansion coefficient (overflow in the jet or in powers of 1/lam)")
    return ExpansionND(lam=lam, center=pts, order=order, coeffs=dict(zip(keys, values)))


def _dense(coeffs: dict, order: int, dims: int) -> np.ndarray:
    """The complex ``(order,) * dims`` tensor holding ``coeffs[g]`` at each key ``g`` and 0 elsewhere."""
    out = np.zeros((order,) * dims, dtype=np.complex128)
    out[tuple(np.array(list(coeffs), dtype=np.intp).reshape(-1, dims).T)] = list(coeffs.values())
    return out


def eval_nd(expansion: ExpansionND, x: Sequence[float] | Sequence[complex]) -> complex:
    """Evaluate the truncated expansion at ``x``: the coefficients as a dense
    ``(order,) * n`` tensor, summed by Horner's rule in ``w_i`` along each axis in turn."""
    pts = np.array([complex(v) for v in x])
    if len(pts) != expansion.dims:
        raise ValidationError(f"point has {len(pts)} coordinates, need {expansion.dims}")
    dense = _dense(expansion.coeffs, expansion.order, expansion.dims)
    for w in expm1(expansion.lam * (pts - np.array(expansion.center))):
        dense = horner(dense, w)
    return complex(dense)


# ---- remainder bound -------------------------------------------------------


def _stage_sups(ast: ExprAst, chunks: Iterable, order: int, gammas: list, lam: complex) -> np.ndarray:
    """Sampled ``sup |stage_g|`` over the points in ``chunks`` for every ``g`` in ``gammas``.

    Each chunk of points, ``(P, dims)`` with ``P <= POINT_CHUNK`` as
    :func:`_box_points` yields them, is lifted to ``order`` and staged as it
    comes, with a running maximum per multi-index, so no more than one chunk
    is held.  Overflow is silent: a non-finite supremum is the caller's to
    refuse.
    """
    sups = np.zeros(len(gammas))
    with np.errstate(all="ignore"):
        for points in chunks:
            arrays = _lift_nd_arrays(ast, points, order)
            sups = np.maximum(sups, np.max(np.abs(stage_rows(arrays, gammas, lam)), axis=1))
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
    there; a bound that is not finite raises ``DomainError``.
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
    sups = _stage_sups(ast, _box_points(lo, hi, grid, seed), order, gammas, lam)
    total = 0.0
    for g, sup in zip(gammas, sups):
        total += order / multi_index_factorial(g) * float(sup)
    bound = _times_power(abs(lam) * total, epsilon_sup(lam, h), order - 1) * h
    if not math.isfinite(bound):
        # refused here, as in 1-D, so the bound is named even where the series overflows first
        raise DomainError("non-finite value in bound")
    return bound
