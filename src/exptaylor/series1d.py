"""Exponential Taylor expansions in one variable.

A smooth function is expanded about ``x0`` in powers of

    w = exp(lam * (x - x0)) - 1

with coefficients ``c[j] = (stage-j cascade value at x0) / j!``.  The
truncation error after ``N`` terms has an exact integral form

    R_N = lam / (N-1)! * integral_0^1 of
          stage_N(a)((1-t) x0 + t x) * (exp(lam (1-t)(x - x0)) - 1)^(N-1)
          * (x - x0) dt,

evaluated here by fixed-order Gauss-Legendre quadrature, together with two
upper bounds: a tight one taking the supremum of the full integrand over
the segment, and a loose one that factors the supremum of the stage-N
values from the supremum of ``|exp(lam z) - 1|``.

Also here: the sup function ``epsilon_sup``, a ratio-test radius estimate
for the coefficient sequence, and a heuristic factorial-growth diagnostic
for cascade values over one period.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DiagnosticError, DomainError, ValidationError
from .expr import ExprAst
from .jet import MAX_ORDER, _lift_1d_array, lift
from .operators import _check_lam, _inverse_powers, cascade_values
from .stirling import stage_matrix

MAX_EXPANSION_ORDER = MAX_ORDER
# points per lift and cascade in growth_diagnostic, and in remainder_bounds in
# whole segments (3 at the default 513 + 64): on a 2-core Xeon, benchmark sweeps
# ran 20% faster than one segment per lift; 4,096 ran slower and raised the peak
# memory by 15%
LIFT_BLOCK = 2048


@dataclass(frozen=True)
class Expansion1D:
    """Coefficients ``coeffs[j]`` of ``w^j`` for ``j < order`` about ``x0``."""

    lam: complex
    x0: float
    order: int
    coeffs: np.ndarray  # shape (order,): float64 when 1/lam is real, else complex128


@dataclass(frozen=True)
class RemainderEstimate:
    """Quadrature value of the exact remainder plus two upper bounds.

    ``bound_tight`` uses the sampled supremum of the whole integrand;
    ``bound_loose`` factors it into sampled sup of the stage values times
    the closed-form sup of ``|exp(lam z) - 1|``; tight <= loose up to grid
    sampling error.
    """

    order: int
    integral_value: complex
    bound_tight: float
    bound_loose: float
    grid_points: int


@dataclass(frozen=True)
class ConvergenceReport:
    """Ratio-test diagnostics for the coefficient sequence.

    ``ratios[i]`` is ``j * |v_j| / |v_{j+1}|`` for ``j = ratio_indices[i]``;
    entries whose denominator is negligibly small are skipped.  The radius
    estimate is the max over the trailing ``window`` defined ratios, a
    finite surrogate for the limsup.  For purely imaginary ``lam`` equal to
    ``2 pi i / T``, the radius converts to a half-width of the x-region via
    ``T * asin(r/2) / pi`` when ``r <= 2``.
    """

    lam: complex
    x0: float
    ratios: tuple[float, ...]
    ratio_indices: tuple[int, ...]
    window: int
    r_estimate: float
    x_region_halfwidth: float | None
    stable: bool


@dataclass(frozen=True)
class GrowthReport:
    """Heuristic factorial-envelope fit for cascade magnitudes over a period.

    ``sup_values[N-1]`` is the sampled sup of the stage-``N`` magnitude on
    ``[0, period]``.  ``k_fit`` is the smallest shift with the sequence
    ``sup_values[N] / (N+k)!`` not growing across the sampled range, and
    ``c0`` is the level of that ratio sequence over the trailing half (the
    asymptotic constant, which is what the envelope hypothesis is about).
    This is a sampled heuristic, not a proof.
    """

    lam: complex
    period: float
    n_max: int
    grid: int
    sup_values: np.ndarray  # float64, shape (n_max,)
    k_fit: int
    c0: float
    envelope_bounded: bool
    periodic_input: bool


# ---- expansion and evaluation ----------------------------------------------


def _check_1d(ast: ExprAst) -> None:
    if ast.dims != 1:
        raise ValidationError(f"expected a 1-variable expression, got dims={ast.dims}")


def _check_order(order: int) -> None:
    if not isinstance(order, int) or order < 1 or order > MAX_EXPANSION_ORDER:
        raise ValidationError(f"order must be an integer in [1, {MAX_EXPANSION_ORDER}], got {order!r}")


def expand_1d(ast: ExprAst, lam: complex, x0: float, order: int) -> Expansion1D:
    """Expansion coefficients ``c[0..order-1]`` about ``x0``.

    Parameters
    ----------
    ast : ExprAst
        One-variable expression to expand.
    lam : complex
        Nonzero scale in ``w = exp(lam (x - x0)) - 1``.
    x0 : float
        Real expansion center.
    order : int
        Number of coefficients, ``1 <= order <= 64``.
    """
    lam = _check_lam(lam)
    _check_1d(ast)
    _check_order(order)
    facts = np.array([math.factorial(j) for j in range(order)], dtype=np.float64)
    with np.errstate(all="ignore"):
        # a reciprocal and a product: the complex division by facts + 0j rounded so
        coeffs = cascade_values(lift(ast, float(x0), order - 1).coeffs, lam, order - 1) * (1.0 / facts)
    if not np.all(np.isfinite(coeffs)):
        raise DomainError("non-finite expansion coefficient (overflow in the jet or in powers of 1/lam)")
    return Expansion1D(lam=lam, x0=float(x0), order=order, coeffs=coeffs)


def eval_series(expansion: Expansion1D, x: float | complex) -> complex:
    """Evaluate the truncated expansion at ``x`` (Horner in ``w``).

    Overflow gives a non-finite value without a warning; the remainder bound
    at the same ``x`` overflows with it and raises ``DomainError``.
    """
    w = cmath.exp(expansion.lam * (complex(x) - expansion.x0)) - 1
    acc = 0j
    with np.errstate(all="ignore"):
        for c in expansion.coeffs[::-1]:
            acc = acc * w + c
    return complex(acc)


# ---- exact remainder and bounds --------------------------------------------


@functools.lru_cache(maxsize=16)
def _mapped_rule(quad_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(quad_nodes)
    # map [-1, 1] -> [0, 1]
    theta, weights = (t + 1.0) / 2.0, w / 2.0
    theta.flags.writeable = False
    weights.flags.writeable = False
    return theta, weights


def _quad_rule(quad_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[0, 1]``, cached per node count and read-only."""
    if not isinstance(quad_nodes, int) or quad_nodes < 2 or quad_nodes > 1024:
        raise ValidationError(f"quad_nodes must be an integer in [2, 1024], got {quad_nodes!r}")
    return _mapped_rule(quad_nodes)


def remainder_bounds(
    ast: ExprAst,
    lam: complex,
    x0: float,
    xs: Sequence[float],
    orders: Sequence[int],
    grid: int = 513,
    quad_nodes: int = 64,
) -> list[RemainderEstimate]:
    """Remainder quadrature and bounds for every ``x`` in ``xs`` and every order.

    Returns ``len(xs) * len(orders)`` estimates, x-major: entry
    ``i * len(orders) + k`` is for ``xs[i]`` after ``orders[k]`` terms.  Each
    segment from ``x0`` to ``x`` is lifted once, at ``max(orders)``, on its
    ``grid`` sampling points and its quadrature nodes together; every order
    reads its stage column from that one cascade.  Stage ``N`` of a higher
    order lift is bit for bit the stage ``N`` of an order-``N`` lift, so the
    result does not depend on which other orders are requested.  Consecutive
    segments are lifted and staged together, ``LIFT_BLOCK`` points' worth at
    a time; the kernels and the cascade act point by point, so the blocks
    move no bit.  Raises ``DomainError`` when a bound or the integral is not
    finite, checked in x-major order after each block's lift.
    """
    lam = _check_lam(lam)
    _check_1d(ast)
    if not isinstance(grid, int) or grid < 3 or grid % 2 == 0:
        raise ValidationError(f"grid must be an odd integer >= 3, got {grid!r}")
    orders = list(orders)
    if not orders:
        raise ValidationError("remainder_bounds needs at least one order")
    for order in orders:
        _check_order(order)
    theta, weights = _quad_rule(quad_nodes)
    s = np.linspace(0.0, 1.0, grid)
    x0 = float(x0)
    xs = [float(x) for x in xs]
    per = max(1, LIFT_BLOCK // (grid + quad_nodes))
    out: list[RemainderEstimate] = []
    for lo in range(0, len(xs), per):
        out += _block_bounds(ast, lam, x0, xs[lo : lo + per], orders, s, theta, weights)
    return out


def _block_bounds(ast: ExprAst, lam: complex, x0: float, xs: list[float], orders: list[int], s, theta, weights):
    """``remainder_bounds`` for one block of segments: one lift and cascade, then each
    order's sups and quadrature sums as row-wise array operations, one row per segment."""
    grid, top = len(s), max(orders)
    dx = (np.array(xs) - x0)[:, None]
    with np.errstate(all="ignore"):
        points = np.concatenate((x0 + s * dx, x0 + theta * dx), axis=1)
        staged = cascade_values(_lift_1d_array(ast, points.ravel(), top), lam, top)
        # x - xi = (1 - s) dx runs over the segment; its sup feeds the tight bound
        w_grid = np.exp(lam * (1.0 - s) * dx) - 1.0
        w_nodes = np.exp(lam * (1.0 - theta) * dx) - 1.0
        columns = []
        for order in orders:
            # a view: reshaping all of ``staged`` would copy it
            v = staged[:, order].reshape(points.shape)
            tight = np.max(np.abs(v[:, :grid] * w_grid ** (order - 1)), axis=1)
            totals = np.sum(weights * v[:, grid:] * w_nodes ** (order - 1), axis=1)
            columns.append((tight, np.max(np.abs(v[:, :grid]), axis=1), totals))
    out: list[RemainderEstimate] = []
    for i, x in enumerate(xs):
        dx_i = x - x0
        eps = epsilon_sup(lam, abs(dx_i))
        for order, (tight, sup, totals) in zip(orders, columns):
            prefix = abs(lam) / math.factorial(order - 1) * abs(dx_i)
            bound_tight = prefix * float(tight[i])
            try:
                eps_power = eps ** (order - 1)
            except OverflowError:
                eps_power = math.inf
            bound_loose = prefix * float(sup[i]) * eps_power
            integral = complex(lam / math.factorial(order - 1) * dx_i * totals[i])
            if not all(map(math.isfinite, (bound_tight, bound_loose, integral.real, integral.imag))):
                raise DomainError(
                    f"non-finite remainder bound or integral at x={x!r}, order {order} "
                    "(overflow in the stage values or in powers of exp(lam z) - 1)"
                )
            out.append(
                RemainderEstimate(
                    order=order,
                    integral_value=integral,
                    bound_tight=bound_tight,
                    bound_loose=bound_loose,
                    grid_points=grid,
                )
            )
    return out


def remainder_bound(
    ast: ExprAst,
    lam: complex,
    x0: float,
    x: float,
    order: int,
    grid: int = 513,
    quad_nodes: int = 64,
) -> RemainderEstimate:
    """Remainder quadrature plus tight and loose upper bounds at one ``x``.

    Suprema over the segment are sampled on ``grid`` equally spaced points
    (odd, at least 3, so the midpoint and both endpoints are hit).  This is
    ``remainder_bounds`` for one ``x`` and one order: the grid points and the
    ``quad_nodes`` Gauss-Legendre nodes share one lift, the rule comes from
    a cache, and a non-finite bound or integral raises ``DomainError``.
    """
    return remainder_bounds(ast, lam, x0, [x], [order], grid=grid, quad_nodes=quad_nodes)[0]


def epsilon_sup(lam: complex, r: float) -> float:
    """``sup of |exp(lam z) - 1|`` over real ``z`` in ``[-r, r]``.

    Closed forms for purely real and purely imaginary ``lam`` (the
    imaginary case saturates at 2 once ``|lam| r >= pi``); otherwise a
    1025-point grid scan refined by golden-section search.
    """
    lam = complex(lam)
    r = float(r)
    if r < 0:
        raise ValidationError(f"r must be >= 0, got {r!r}")
    if r == 0 or lam == 0:
        return 0.0
    a, b = lam.real, lam.imag
    if b == 0:
        return math.expm1(abs(a) * r)
    if a == 0:
        return 2.0 * math.sin(min(abs(b) * r / 2.0, math.pi / 2.0))

    def h(z: float) -> float:
        # |exp(lam z) - 1|^2, cheap and smooth
        return math.exp(2 * a * z) - 2 * math.exp(a * z) * math.cos(b * z) + 1.0

    zs = np.linspace(-r, r, 1025)
    hv = np.exp(2 * a * zs) - 2 * np.exp(a * zs) * np.cos(b * zs) + 1.0
    i = int(np.argmax(hv))
    best = float(hv[i])
    lo = float(zs[max(i - 1, 0)])
    hi = float(zs[min(i + 1, len(zs) - 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - phi * (hi - lo)
    d = lo + phi * (hi - lo)
    fc, fd = h(c), h(d)
    for _ in range(80):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + phi * (hi - lo)
            fd = h(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - phi * (hi - lo)
            fc = h(c)
    best = max(best, fc, fd)
    return math.sqrt(best)


# ---- convergence diagnostics -----------------------------------------------

RATIO_FLOOR = 1e-14  # relative threshold below which a stage value counts as zero


def _cascade_roundoff_scales(coeffs: np.ndarray, lam: complex, count: int) -> np.ndarray:
    """Per-stage magnitude of the terms that cancel to produce stage values.

    Stage ``n`` expands as ``sum_m s(n, m) lam^-m m! c_m``; when the true
    value is zero (terminating series) the float result is roundoff of this
    sum, so its absolute-value version, ``|S| @ (|lam|^-m |c|)``, is the
    yardstick for whether a computed stage value is distinguishable from zero.
    """
    weights = np.abs(stage_matrix(count))
    # only the nonzero s(n, m) enter, so an overflowed high-order term leaves
    # the scales of the stages below it finite
    with np.errstate(invalid="ignore"):
        terms = weights * (_inverse_powers(abs(lam), count) * np.abs(np.asarray(coeffs)[: count + 1]))
    return np.where(weights > 0, terms, 0.0).sum(axis=1)


def radius_estimate(
    ast: ExprAst,
    lam: complex,
    x0: float,
    j_max: int = 48,
    window: int = 8,
) -> ConvergenceReport:
    """Ratio-test estimate of the radius in ``w`` from cascade values at ``x0``.

    Computes ``rho_j = j |v_j| / |v_{j+1}|`` for ``1 <= j < j_max`` wherever
    the denominator is non-negligible, takes the max over the trailing
    ``window`` entries as the radius estimate, and flags the estimate stable
    when the window's relative spread is at most 0.2.
    """
    lam = _check_lam(lam)
    _check_1d(ast)
    if not isinstance(window, int) or not isinstance(j_max, int) or not 4 <= window <= j_max <= MAX_ORDER:
        raise ValidationError(f"need 4 <= window <= j_max <= {MAX_ORDER}, got window={window!r}, j_max={j_max!r}")
    with np.errstate(all="ignore"):
        jet = lift(ast, float(x0), j_max)
        absv = np.abs(cascade_values(jet.coeffs, lam, j_max))
    if not np.all(np.isfinite(absv)):
        raise DomainError("non-finite stage value (overflow in the jet or in powers of 1/lam)")
    # A stage value counts as zero when it sits below the roundoff floor of
    # its own Stirling-sum computation.  Terminating series produce exact
    # zeros in that sum, but the float cascade leaves factorially amplified
    # noise there; a single global threshold would mistake that noise for
    # signal.
    thresh = RATIO_FLOOR * _cascade_roundoff_scales(jet.coeffs, lam, j_max)
    ratios: list[float] = []
    indices: list[int] = []
    for j in range(1, j_max):
        if absv[j + 1] > thresh[j + 1]:
            ratios.append(j * float(absv[j]) / float(absv[j + 1]))
            indices.append(j)
    if len(ratios) < window:
        raise DiagnosticError(
            f"only {len(ratios)} defined ratios (need {window}); "
            "the coefficient sequence appears to terminate"
        )
    tail = ratios[-window:]
    r = max(tail)
    spread = (r - min(tail)) / r if r > 0 else 0.0
    halfwidth: float | None = None
    if lam.real == 0 and lam.imag != 0:
        period = 2.0 * math.pi / abs(lam.imag)
        halfwidth = period * math.asin(r / 2.0) / math.pi if r <= 2.0 else math.inf
    return ConvergenceReport(
        lam=lam,
        x0=float(x0),
        ratios=tuple(ratios),
        ratio_indices=tuple(indices),
        window=window,
        r_estimate=r,
        x_region_halfwidth=halfwidth,
        stable=spread <= 0.2,
    )


def growth_diagnostic(
    ast: ExprAst,
    lam: complex,
    period: float,
    n_max: int = 16,
    grid: int = 257,
) -> GrowthReport:
    """Sampled factorial-envelope fit for cascade magnitudes on ``[0, period]``.

    For shifts ``k = 0..6`` the ratio sequence ``sup_N / (N+k)!`` is formed;
    the smallest ``k`` whose trailing half does not exceed its leading half
    (by more than 1 percent) is reported, with ``c0`` the trailing-half
    level.  Inputs that fail ``a(0) == a(period)`` on the sample are flagged
    non-periodic; the diagnostic is still computed.  The grid is lifted and
    staged ``LIFT_BLOCK`` points at a time, keeping a running max of each
    stage's magnitude, so memory does not grow with ``grid``.  A stage value
    that overflows on the grid raises ``DomainError``.
    """
    lam = _check_lam(lam)
    _check_1d(ast)
    if not isinstance(n_max, int) or n_max < 1 or n_max > 32:
        raise ValidationError(f"n_max must be an integer in [1, 32], got {n_max!r}")
    if not isinstance(grid, int) or grid < 2:
        raise ValidationError(f"grid must be an integer >= 2, got {grid!r}")
    period = float(period)
    if period <= 0:
        raise ValidationError(f"period must be positive, got {period!r}")
    xs = np.linspace(0.0, period, grid)
    sups = np.zeros(n_max + 1)
    for lo in range(0, grid, LIFT_BLOCK):
        with np.errstate(all="ignore"):
            stages = cascade_values(_lift_1d_array(ast, xs[lo : lo + LIFT_BLOCK], n_max), lam, n_max)
        if not np.all(np.isfinite(stages)):
            raise DomainError("non-finite stage value (overflow in the jet or in powers of 1/lam)")
        if lo == 0:
            first = stages[0, 0]
        sups = np.maximum(sups, np.max(np.abs(stages), axis=0))
    sup_values = sups[1:]  # index N-1 <-> stage N
    periodic = bool(abs(first - stages[-1, 0]) <= 1e-9 * (1.0 + float(sups[0])))

    half = max(n_max // 2, 1)
    k_fit, c0, bounded = 0, 0.0, False
    worst = math.inf
    for k in range(7):
        shift = np.array([math.factorial(N + k) for N in range(1, n_max + 1)], dtype=np.float64)
        ratio = sup_values / shift
        lead = float(np.max(ratio[:half]))
        trail = float(np.max(ratio[half:])) if n_max > half else float(ratio[-1])
        growth = trail / lead if lead > 0 else 0.0
        if growth <= 1.01:
            k_fit, c0, bounded = k, trail, True
            break
        if growth < worst:
            worst, k_fit, c0 = growth, k, trail
    return GrowthReport(
        lam=lam,
        period=period,
        n_max=n_max,
        grid=grid,
        sup_values=sup_values,
        k_fit=k_fit,
        c0=c0,
        envelope_bounded=bounded,
        periodic_input=periodic,
    )
