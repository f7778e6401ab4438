"""Exponential Taylor expansions in 1 to 4 variables.

Multi-indices are ordered graded-lexicographically (``jet._layout``): by total
degree, and within a degree with earlier axes dominant, so for two variables
(0,0), (1,0), (0,1), (2,0), (1,1), (0,2).  The expansion about ``c`` sums
``coeff[g] * prod_i w_i^g_i`` with ``w_i = exp(lam (x_i - c_i)) - 1`` and
``coeff[g] = stage_g(c) / g!``, one ``Expansion`` whatever the number of
variables: one variable is the case n = 1.

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
from .jet import MAX_ORDER, _digits, _keys, _layout, _lift_1d_array, _lift_nd_arrays, _plus_unit
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


_FACTORIALS = np.array([float(math.factorial(k)) for k in range(MAX_ORDER + 1)])


def _factorials(digits: np.ndarray) -> np.ndarray:
    """``g!`` for each row ``g`` of ``digits``: in one variable ``g! <= 63!`` rounded once, and in more, where
    ``|g| <= 16``, exact in float64, as every partial product divides ``|g|!``."""
    return _FACTORIALS[digits].prod(axis=1)


@lru_cache(maxsize=None)
def _expansion_table(n: int, order: int) -> tuple:
    """``(index, factorials)`` for ``multi_indices(n, order)``, read-only: ``coeffs[index]`` lists the
    coefficients in graded-lex order, and ``factorials`` their ``g!``."""
    digits = _digits(n, order, np.arange(_layout(n, order)[1][order]))
    index, factorials = tuple(digits.T), _factorials(digits)
    for a in (*index, factorials):
        a.flags.writeable = False
    return index, factorials


# ---- expansion -------------------------------------------------------------


@dataclass(frozen=True)
class Expansion:
    """Coefficients ``coeffs[g]`` of ``prod_i w_i^g_i`` about ``center``: a dense ``(order,) * n`` array, zero past
    total degree ``order - 1``, float64 when ``1/lam`` is real and complex128 otherwise."""

    lam: complex
    center: tuple[float, ...]
    order: int
    coeffs: np.ndarray

    @property
    def dims(self) -> int:
        return len(self.center)


def expand(ast: ExprAst, lam: complex, center: Sequence[float], order: int) -> Expansion:
    """Expansion coefficients for all ``|g| < order`` about the real ``center`` of an expression in 1 to 4
    variables, with the nonzero ``lam`` of every axis: ``1 <= order <= 64`` in one variable, lifted as a 1-D jet,
    and ``1 <= order <= 16`` in more, lifted as an n-D jet.  Each coefficient is its stage (``stage_tensor``)
    times ``1/g!``, as numpy's complex division by the real ``g!`` rounds; a non-finite one raises
    ``DomainError``."""
    lam, n = _check_lam(lam), ast.dims
    check_int("order", order, 1, MAX_ORDER if n == 1 else MAX_ND_ORDER)
    pts = tuple(float(c) for c in center)
    if len(pts) != n:
        raise ValidationError(f"center has {len(pts)} coordinates, need {n}")
    index, factorials = _expansion_table(n, order)
    with np.errstate(all="ignore"):
        # the jet's degree is order - 1, so every stage of |g| < order reads stored coefficients alone
        if n == 1:
            jet = _lift_1d_array(ast, np.array(pts), order - 1)[0]
        else:
            rows, values = _lift_nd_arrays(ast, np.array([pts]), order - 1)  # its rows are those of the index
            jet = np.zeros((order,) * n)
            jet[tuple(axis[rows] for axis in index)] = values[:, 0]
        stages = stage_tensor(jet, lam)
        coeffs = np.zeros_like(stages)
        coeffs[index] = stages[index] * (1.0 / factorials)
    if not np.all(np.isfinite(coeffs)):
        raise DomainError("non-finite expansion coefficient (overflow in the jet or in powers of 1/lam)")
    return Expansion(lam=lam, center=pts, order=order, coeffs=coeffs)


def evaluate(expansion: Expansion, x: Sequence[float] | Sequence[complex]) -> complex:
    """Evaluate the truncated expansion at the real or complex point ``x``: Horner's rule in ``w_i`` along
    each axis in turn.  Overflow gives a non-finite value without a warning; the remainder bound at the same
    ``x`` overflows with it and raises ``DomainError``."""
    pts = np.array([complex(v) for v in x])
    if len(pts) != expansion.dims:
        raise ValidationError(f"point has {len(pts)} coordinates, need {expansion.dims}")
    coeffs = expansion.coeffs
    with np.errstate(all="ignore"):
        for w in expm1(expansion.lam * (pts - np.array(expansion.center))):
            coeffs = horner(coeffs, w)
    return complex(coeffs)


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
    check_int("n", n, 1, MAX_DIMS)
    if n != ast.dims:
        raise ValidationError(f"expression has dims={ast.dims}, caller said n={n}")
    lam = _check_lam(lam)
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
