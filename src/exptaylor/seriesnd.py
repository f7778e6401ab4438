"""Exponential Taylor expansions in several variables.

Multi-indices are ordered graded-lexicographically (``jet._layout``): by total
degree, and within a degree with earlier axes dominant, so for two variables
(0,0), (1,0), (0,1), (2,0), (1,1), (0,2).  The expansion about ``c`` sums
``coeff[g] * prod_i w_i^g_i`` with ``w_i = exp(lam (x_i - c_i)) - 1``.

The remainder after total degree ``N`` is an exact integral along the
segment ``xi(t) = c + t (x - c)``, as in one variable:

    R_N = lam * integral_0^1 of sum over |g| = N-1 of
          prod_i E_i(t)^g_i / g! * sum_k (x_k - c_k) stage_{g+e_k}(xi(t)) dt,

    E_i(t) = exp(lam (1-t)(x_i - c_i)) - 1,

evaluated by Gauss-Legendre quadrature, with a tight bound (the sampled sup
of the integrand) and a loose one,

    |R_N| <= |lam| * [ sum over |g| = N of N/g! * sup over the segment |stage_g| ]
             * eps(lam, h)^(N-1) * h,        h = max_i |x_i - c_i|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError, check_int
from .expr import MAX_DIMS, ExprAst
from .jet import _digits, _keys, _layout, _lift_nd_arrays, _plus_unit
from .operators import _check_lam, stage_rows, stage_tensor
from .series1d import RemainderEstimate, _quad_rule, _times_power, _zero_times, epsilon_sup, expm1, horner

MAX_ND_ORDER = 16
# segment points per lift and stage product: memory is O(keys * chunk), not
# O(keys * points); 1024 keeps the BLAS column split that printed bounds pin
POINT_CHUNK = 1024


# ---- multi-indices ---------------------------------------------------------


def multi_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """All ``comb(order - 1 + n, n)`` multi-indices with ``|g| < order`` in graded-lex order."""
    check_int("n", n, 1)
    check_int("order", order, 1)
    return _keys(n, order, np.arange(_layout(n, order)[1][order]))


def multi_indices_of_degree(n: int, degree: int) -> list[tuple[int, ...]]:
    """Multi-indices with ``|g| == degree``, graded-lex order within the degree."""
    check_int("n", n, 1)
    check_int("degree", degree, 0)
    return _keys(n, degree + 1, np.arange(*_layout(n, degree + 1)[1][degree : degree + 2]))


def multi_index_factorial(gamma: Sequence[int]) -> int:
    """``g! = prod_i g_i!``."""
    return math.prod(map(math.factorial, gamma))


def _factorials(digits: np.ndarray) -> np.ndarray:
    """``g!`` for each row ``g`` of ``digits``, exact in float64: every partial product divides ``|g|! <= 16!``."""
    return np.cumprod([1.0, *range(1, MAX_ND_ORDER + 1)])[digits].prod(axis=1)


@lru_cache(maxsize=None)
def _expansion_table(n: int, order: int) -> tuple:
    """``(keys, index, factorials)`` for ``multi_indices(n, order)``, read-only: ``stages[index]`` lists the
    stages in key order, and ``factorials`` their ``g!``."""
    digits = _digits(n, order, np.arange(_layout(n, order)[1][order]))
    keys, index, factorials = tuple(map(tuple, digits.tolist())), tuple(digits.T), _factorials(digits)
    for a in (*index, factorials):
        a.flags.writeable = False
    return keys, index, factorials


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
    check_int("n", n, 1, MAX_DIMS)
    if n != ast.dims:
        raise ValidationError(f"expression has dims={ast.dims}, caller said n={n}")
    return _check_lam(lam)


def expand_nd(ast: ExprAst, n: int, lam: complex, center: Sequence[float], order: int) -> ExpansionND:
    """Expansion coefficients for all ``|g| < order`` (``1 <= order <= 16``) about the real ``center`` of an
    expression in ``1 <= n <= 4`` variables (checked against the AST), with the nonzero ``lam`` of every axis."""
    lam = _check_nd_args(ast, n, lam)
    check_int("order", order, 1, MAX_ND_ORDER)
    pts = tuple(float(c) for c in center)
    if len(pts) != n:
        raise ValidationError(f"center has {len(pts)} coordinates, need {n}")
    keys, index, factorials = _expansion_table(n, order)
    dense = np.zeros((order,) * n, dtype=np.complex128)
    with np.errstate(all="ignore"):
        # the jet's degree is order - 1, so every stage of |g| < order reads stored coefficients alone
        rows, jet = _lift_nd_arrays(ast, np.array([pts]), order - 1)  # its rows are those of the keys
        dense[tuple(axis[rows] for axis in index)] = jet[:, 0]
        # one complex division by g! + 0j per key, as the per-key quotient rounds
        values = stage_tensor(dense, lam)[index] / factorials
    if not np.all(np.isfinite(values)):
        raise DomainError("non-finite expansion coefficient (overflow in the jet or in powers of 1/lam)")
    return ExpansionND(lam=lam, center=pts, order=order, coeffs=dict(zip(keys, values.tolist())))


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
    with np.errstate(all="ignore"):  # as in 1-D, an offset that overflows gives a non-finite value, not a warning
        for w in expm1(expansion.lam * (pts - np.array(expansion.center))):
            dense = horner(dense, w)
    return complex(dense)


# ---- remainder along the segment -------------------------------------------


def remainder_bound_nd(
    ast: ExprAst,
    n: int,
    lam: complex,
    center: Sequence[float],
    x: Sequence[float],
    order: int,
    grid: int = 33,
) -> RemainderEstimate:
    """Remainder quadrature plus tight and loose upper bounds after total degree ``N = order``, as in the module
    docstring with ``I(t)`` the integrand: the segment is lifted at ``grid`` equally spaced ``t`` and at the 64
    Gauss-Legendre nodes, ``POINT_CHUNK`` points per lift, and staged by ``stage_rows``.  The lift's layout
    (``jet._layout``) gives, as arrays, the ``g`` of degree ``N`` (the stages) and ``N - 1`` (the sum in ``I``), the
    row of each ``g + e_k`` and each ``g!``.  ``integral_value`` is ``lam`` times the Gauss sum of ``I``,
    ``bound_tight`` the sampled ``|lam| max |I|``, and ``bound_loose`` the loose bound with the sup sampled on the
    segment; at ``n = 1`` these are the 1-D formulas.  A zero stage times an overflowed power of ``E`` is 0; a bound
    or integral that is not finite raises ``DomainError``."""
    lam = _check_nd_args(ast, n, lam)
    check_int("order", order, 1, MAX_ND_ORDER)
    c, xv = (np.array([float(v) for v in p]) for p in (center, x))
    if len(c) != n or len(xv) != n:
        raise ValidationError(f"center and x must have length {n}")
    check_int("grid", grid, 3)
    theta, weights = _quad_rule(64)
    t = np.concatenate((np.linspace(0.0, 1.0, grid), theta))
    starts = _layout(n, order + 1)[1]
    gammas, G = (_digits(n, order + 1, np.arange(starts[k], starts[k + 1])) for k in (order, order - 1))
    shifts = _plus_unit(n, order + 1, np.arange(len(G)))
    facts = _factorials(G)
    sups, integrand = np.zeros(len(gammas)), []
    with np.errstate(all="ignore"):
        d = xv - c  # an offset past the largest double is inf: the bounds are then refused below
        h = float(np.max(np.abs(d)))
        points = c + t[:, None] * d
        E = expm1((lam.real if lam.imag == 0 else lam) * (1.0 - t) * d[:, None])  # (n, points)
        for lo in range(0, len(t), POINT_CHUNK):
            rows, values = _lift_nd_arrays(ast, points[lo : lo + POINT_CHUNK], order)
            stages = stage_rows(_digits(n, order + 1, rows), values, gammas, lam)
            sups = np.maximum(sups, np.max(np.abs(stages[:, : max(grid - lo, 0)]), axis=1, initial=0.0))
            powers = [np.ones_like(E[:, lo : lo + POINT_CHUNK])]
            for _ in range(1, order):
                powers.append(powers[-1] * E[:, lo : lo + POINT_CHUNK])
            powers = np.stack(powers, axis=1)  # (n, order, P): E_j^p
            m = reduce(np.multiply, (powers[j][G[:, j]] for j in range(n)))
            J = reduce(np.add, (d[k] * stages[shifts[k]] for k in range(n)))
            terms = _zero_times(J, m / facts[:, None])
            # row by row, so each point's sum over g adds in one order whatever the chunk's length
            integrand.append(reduce(np.add, terms))
        integrand = np.concatenate(integrand)
        integral = complex(lam * np.sum(weights * integrand[grid:]))
        bound_tight = abs(lam) * float(np.max(np.abs(integrand[:grid])))
    total = 0.0
    for f, sup in zip(_factorials(gammas).tolist(), sups.tolist()):
        total += order / f * sup
    bound_loose = _times_power(abs(lam) * total, epsilon_sup(lam, h), order - 1) * h
    if not all(map(math.isfinite, (bound_tight, bound_loose, integral.real, integral.imag))):
        # refused here, as in 1-D, so the bound is named even where the series overflows first
        raise DomainError("non-finite value in bound")
    return RemainderEstimate(
        order=order, integral_value=integral, bound_tight=bound_tight, bound_loose=bound_loose, grid_points=grid
    )
