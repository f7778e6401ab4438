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
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .expr import ExprAst
from .jet import _lift_nd_arrays, lift_nd
from .operators import _check_lam, stage_rows, stage_tensor
from .series1d import epsilon_sup

MAX_ND_ORDER = 16
MAX_ND_DIMS = 4


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


# ---- domain box ------------------------------------------------------------


@dataclass(frozen=True)
class BoxDomain:
    """Closed axis-aligned box ``[lo_i, hi_i]`` in each coordinate."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValidationError("lo and hi must have the same length")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValidationError(f"box has lo > hi: {self.lo} vs {self.hi}")

    @property
    def dims(self) -> int:
        return len(self.lo)

    @classmethod
    def from_points(cls, a: Sequence[float], b: Sequence[float]) -> "BoxDomain":
        """Smallest box containing both points."""
        lo = tuple(min(float(x), float(y)) for x, y in zip(a, b))
        hi = tuple(max(float(x), float(y)) for x, y in zip(a, b))
        if len(tuple(a)) != len(tuple(b)):
            raise ValidationError("points must have the same length")
        return cls(lo=lo, hi=hi)

    @classmethod
    def centered(cls, center: Sequence[float], halfwidth: float) -> "BoxDomain":
        if halfwidth < 0:
            raise ValidationError(f"halfwidth must be >= 0, got {halfwidth!r}")
        c = tuple(float(x) for x in center)
        return cls(lo=tuple(x - halfwidth for x in c), hi=tuple(x + halfwidth for x in c))

    def grid_points(self, per_axis: int) -> np.ndarray:
        """Full tensor grid, shape ``(per_axis**dims, dims)``."""
        if not isinstance(per_axis, int) or per_axis < 3:
            raise ValidationError(f"per_axis must be an integer >= 3, got {per_axis!r}")
        axes = [np.linspace(l, h, per_axis) for l, h in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def random_points(self, count: int, seed: int) -> np.ndarray:
        """Uniform samples including the two extreme corners, shape ``(count, dims)``."""
        if count < 2:
            raise ValidationError(f"count must be >= 2, got {count!r}")
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(count, self.dims))
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        out = lo + pts * (hi - lo)
        out[0] = lo
        out[1] = hi
        return out


def _sample_points(box: BoxDomain, per_axis: int, seed: int) -> np.ndarray:
    # full tensor grids blow up combinatorially; beyond 3 axes fall back to
    # seeded uniform sampling with the corner points pinned
    if box.dims <= 3:
        return box.grid_points(per_axis)
    return box.random_points(10 * per_axis, seed)


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
    coeffs = {g: stages[g] / multi_index_factorial(g) for g in multi_indices(n, order)}
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


def _stage_sups(arrays: dict, gammas: list[tuple[int, ...]], lam: complex) -> np.ndarray:
    """Sampled ``sup |stage_g|`` over the batch of points in ``arrays``, per ``g`` in ``gammas``."""
    sups = np.zeros(len(gammas))
    for block in stage_rows(arrays, gammas, lam):
        sups = np.maximum(sups, np.max(np.abs(block), axis=1))
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
    ``10 * grid`` seeded uniform points (corners pinned) beyond that.
    Returns zero when ``x == center`` or the expression is flat there.
    """
    lam = _check_nd_args(ast, n, lam)
    _check_nd_order(order)
    c = tuple(float(v) for v in center)
    xv = tuple(float(v) for v in x)
    if len(c) != n or len(xv) != n:
        raise ValidationError(f"center and x must have length {n}")
    h = max(abs(a - b) for a, b in zip(xv, c))
    box = BoxDomain.from_points(c, xv)
    points = _sample_points(box, grid, seed)
    arrays = _lift_nd_arrays(ast, points, order)
    gammas = multi_indices_of_degree(n, order)
    total = 0.0
    for g, sup in zip(gammas, _stage_sups(arrays, gammas, lam)):
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
    box = BoxDomain.centered(c, float(v_halfwidth))
    points = _sample_points(box, grid, seed)
    arrays = _lift_nd_arrays(ast, points, n_max)
    worst = 0.0
    for degree in range(n_max + 1):
        gammas = multi_indices_of_degree(n, degree)
        for g, sup in zip(gammas, _stage_sups(arrays, gammas, lam)):
            worst = max(worst, float(sup) / (a_bound * multi_index_factorial(g)))
    delta = _delta_for_alpha(lam, alpha)
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    pred = a_bound * delta * abs(lam) * ns**n / math.factorial(n - 1) * alpha ** (ns - 1)
    return NdConvergenceReport(
        lam=lam,
        center=c,
        a_bound=float(a_bound),
        v_halfwidth=float(v_halfwidth),
        alpha=float(alpha),
        n_max=n_max,
        envelope_holds=worst <= 1.0 + 1e-9,
        worst_ratio=worst,
        delta=delta,
        predicted_envelope=pred,
    )
