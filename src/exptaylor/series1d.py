"""Exponential Taylor expansions in one variable.

A smooth function is expanded about ``x0`` in powers of

    w = exp(lam * (x - x0)) - 1

with coefficients ``c[j] = stage_j(x0) / j!`` (``seriesnd.expand``, the case
of one variable), summed by Horner's rule in ``w`` (``horner``, with ``w``
from ``expm1``).  The truncation error after ``N`` terms has an exact
integral form

    R_N = lam / (N-1)! * integral_0^1 of
          stage_N(a)((1-t) x0 + t x) * (exp(lam (1-t)(x - x0)) - 1)^(N-1)
          * (x - x0) dt,

evaluated here by fixed-order Gauss-Legendre quadrature, together with two
upper bounds: a tight one taking the supremum of the full integrand over
the segment, and a loose one that factors the supremum of the stage-N
values from the supremum of ``|exp(lam z) - 1|``; the sampled stages come
from their Stirling rows (``operators.stirling_rows``).

Also here: the sup function ``epsilon_sup``, a ratio-test radius estimate
for the coefficient sequence, and a heuristic factorial-growth diagnostic
for stage values over one period.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DiagnosticError, DomainError, ValidationError, check_int
from .expr import ExprAst
from .jet import MAX_ORDER, _lift_1d_array, _square_multiply, lift
from .operators import _check_lam, _inverse_powers, stage_tensor, stirling_rows
from .stirling import stage_matrix

# points per lift: whole segments in remainder_bounds (7 at the default 513 + 64),
# grid points in growth_diagnostic.  On a 2-core Xeon curves1d ran 129.8 ops/s at
# 4,096 against 116.2 at 2,048 (135.9 at 8,192, with 1.8 MB more peak memory), and
# growth at grid 20,001, lam = 2 pi i took 28-39 ms against 30-45 ms and 33-44 ms
LIFT_BLOCK = 4096


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


# ---- w and Horner's rule --------------------------------------------------


def _check_1d(ast: ExprAst) -> None:
    if ast.dims != 1:
        raise ValidationError(f"expected a 1-variable expression, got dims={ast.dims}")


def expm1(u):
    """``exp(u) - 1`` without cancellation near 0, real for a real ``u`` and complex for a complex one.

    A real ``u`` gives numpy's real ``expm1``.  A complex ``u = a + ib`` gives
    ``expm1(a) cos b - 2 sin(b/2)^2 + i e^a sin b``, whose real part at ``b == 0`` has the bits
    of the real result; the imaginary part is 0 there, so a real overflow is ``inf``, not ``nan``.
    """
    u = np.asarray(u)
    if not np.iscomplexobj(u):
        with np.errstate(all="ignore"):
            return np.expm1(u, dtype=np.float64)[()]
    u = u.astype(np.complex128, copy=False)
    out = np.empty_like(u)
    with np.errstate(all="ignore"):
        out.real = np.expm1(u.real) * np.cos(u.imag) - 2.0 * np.sin(u.imag / 2.0) ** 2
        out.imag = np.where(u.imag == 0, 0.0, np.exp(u.real) * np.sin(u.imag))
    return out[()]  # a scalar for a scalar u, so a Horner sum in one w runs in numpy scalar arithmetic


def horner(coeffs, w):
    """``sum_j coeffs[j] w^j`` by Horner's rule over the leading axis; ``w`` broadcasts against ``coeffs[0]``."""
    acc = 0j
    with np.errstate(all="ignore"):
        for c in coeffs[::-1]:
            acc = acc * w + c
    return acc


def _real_power(w: np.ndarray, n: int) -> np.ndarray:
    """``w ** n`` for a float64 ``w`` and ``0 <= n < 100``, by ``jet._square_multiply``.

    Not ``w ** n``: glibc's ``pow`` takes a slow path for a negative base, and half of a
    segment's ``w`` is negative.  Over 1,539 doubles ``(-w) ** 3`` took 229 us against 6.0 us
    for ``w ** 3``, and these products take 2.4 us at n = 3 and 8.8 us at n = 23.  This is the
    order numpy's complex power uses for ``|n| < 100``, and each real product rounds once, so
    the result has the bits of the complex power's real part (up to the sign of an exact zero).
    """
    return np.ones_like(w) if n == 0 else _square_multiply(w, n, operator.mul)


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
    check_int("quad_nodes", quad_nodes, 2, 1024)
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
    ``N`` takes stage ``N`` from that one lift by its Stirling row, in O(N) per
    point, one ``stirling_rows`` call serving as many orders as fit in a block
    of values.  A row has the bits of its order's alone and reads coefficients
    ``1..N`` only, which a higher order lift shares bit for bit with an
    order-``N`` lift, so the result does not depend on which other orders are
    requested.  Consecutive segments are lifted and staged together,
    ``LIFT_BLOCK`` points' worth at a time; the kernels and the row act point
    by point, so the blocks move no bit.  For a real ``lam`` the bounds are
    formed in float64 (see ``_block_bounds``), with the bits of the complex
    arithmetic.  A nan ``x0`` or ``x`` raises ``ValidationError``; a bound or
    integral that is not finite raises ``DomainError``, checked in x-major
    order after each block's lift.
    """
    lam = _check_lam(lam)
    _check_1d(ast)
    if not isinstance(grid, int) or grid < 3 or grid % 2 == 0:
        raise ValidationError(f"grid must be an odd integer >= 3, got {grid!r}")
    orders = list(orders)
    if not orders:
        raise ValidationError("remainder_bounds needs at least one order")
    for order in orders:
        check_int("order", order, 1, MAX_ORDER)
    theta, weights = _quad_rule(quad_nodes)
    s = np.linspace(0.0, 1.0, grid)
    x0 = float(x0)
    xs = [float(x) for x in xs]
    # an inf offset is left to the bound's DomainError; a nan one would surface as epsilon_sup's half-width
    if math.isnan(x0):
        raise ValidationError("x0 must not be nan")
    if any(map(math.isnan, xs)):
        raise ValidationError("x must not be nan")
    per = max(1, LIFT_BLOCK // (grid + quad_nodes))
    out: list[RemainderEstimate] = []
    for lo in range(0, len(xs), per):
        out += _block_bounds(ast, lam, x0, xs[lo : lo + per], orders, s, theta, weights)
    return out


def _block_bounds(ast: ExprAst, lam: complex, x0: float, xs: list[float], orders: list[int], s, theta, weights):
    """``remainder_bounds`` for one block of segments: one lift, then each order's Stirling
    row, sups and quadrature sums as row-wise array operations, one row per segment.

    For a real ``lam`` every factor is real: ``w`` is the real ``expm1`` of ``lam.real``
    times the offsets, the stage row is already real, and the sups and the quadrature
    products are float64.  Each product rounds once, as the real part of its complex
    counterpart does, so the bounds keep the complex path's bits.  The products are
    cast to complex128 for the sum over each row only: numpy's pairwise sum groups
    a complex row differently from a real one.
    """
    grid, top = len(s), max(orders)
    real = lam.imag == 0
    with np.errstate(all="ignore"):
        dx = (np.array(xs) - x0)[:, None]  # inf past the largest double: the bounds are then refused below
        points = np.concatenate((x0 + s * dx, x0 + theta * dx), axis=1)
        jet = _lift_1d_array(ast, points.ravel(), top)
        # x - xi = (1 - s) dx runs over the segment; its sup feeds the tight bound
        scale, power = (lam.real, _real_power) if real else (lam, operator.pow)
        w_grid = expm1(scale * (1.0 - s) * dx)
        w_nodes = expm1(scale * (1.0 - theta) * dx)
        columns = []
        per = max(1, LIFT_BLOCK // points.size)  # orders per stirling_rows call, a block of values at most
        for k in range(0, len(orders), per):
            part = orders[k : k + per]
            for order, v in zip(part, stirling_rows(jet, part, lam).reshape((len(part),) + points.shape)):
                tight = np.max(np.abs(_zero_times(v[:, :grid], power(w_grid, order - 1))), axis=1)
                terms = _zero_times(weights * v[:, grid:], power(w_nodes, order - 1)).astype(np.complex128, copy=False)
                columns.append((tight, np.max(np.abs(v[:, :grid]), axis=1), np.sum(terms, axis=1)))
    out: list[RemainderEstimate] = []
    # an overflowed row sum is inf + 0i, and its product with lam forms inf * 0
    with np.errstate(all="ignore"):
        for i, x in enumerate(xs):
            dx_i = x - x0
            eps = epsilon_sup(lam, abs(dx_i))
            for order, (tight, sup, totals) in zip(orders, columns):
                prefix = abs(lam) / math.factorial(order - 1) * abs(dx_i)
                bound_tight = prefix * float(tight[i])
                bound_loose = _times_power(prefix * float(sup[i]), eps, order - 1)
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


def _zero_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b``, 0 wherever ``a`` is an exact zero: a zero stage value times an overflowed power of ``w`` is 0."""
    return np.where(a == 0, 0.0, a * b)


def _times_power(scale: float, base: float, n: int) -> float:
    """``scale * base ** n``: 0 for a zero ``scale`` whatever the power, ``inf`` where the power overflows."""
    if scale == 0:
        return 0.0
    try:
        return scale * base**n
    except OverflowError:
        return scale * math.inf


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
    1025-point grid scan refined by golden-section search, both on
    ``|exp(lam z) - 1|^2 = expm1(a z)^2 + 4 e^(a z) sin(b z / 2)^2``, the
    squared modulus of :func:`expm1`'s parts: two terms that are never
    negative, so nothing cancels near ``z = 0``.  A sup past the largest
    double is ``inf``; a nan ``r`` is refused with a negative one.
    """
    lam = complex(lam)
    r = float(r)
    if not r >= 0:  # false for nan, which no closed form or scan would catch
        raise ValidationError(f"r must be >= 0, got {r!r}")
    if r == 0 or lam == 0:
        return 0.0
    a, b = lam.real, lam.imag
    if a == 0:
        return 2.0 * math.sin(min(abs(b) * r / 2.0, math.pi / 2.0))
    if r == math.inf:
        return math.inf  # exp(|a| r) - 1 is unbounded; a grid over an infinite span is nan
    if b != 0:
        zs = np.linspace(-r, r, 1025)
        with np.errstate(all="ignore"):
            em = np.expm1(a * zs)
            hv = em * em + 4.0 * (em + 1.0) * np.sin(b * zs / 2.0) ** 2
    if b == 0 or not np.all(np.isfinite(hv)):
        # the real closed form; where the square overflows, |exp(lam z) - 1| lies
        # within 1 of exp(|a| r) - 1 >= 1e154 at its sup, so the closed form holds too
        try:
            return math.expm1(abs(a) * r)
        except OverflowError:
            return math.inf

    def h(z: float) -> float:
        em = math.expm1(a * z)
        return em * em + 4.0 * (em + 1.0) * math.sin(b * z / 2.0) ** 2

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
    """Ratio-test estimate of the radius in ``w`` from the stage values at ``x0``.

    Computes ``rho_j = j |v_j| / |v_{j+1}|`` for ``1 <= j < j_max`` wherever
    the denominator is non-negligible, takes the max over the trailing
    ``window`` entries as the radius estimate, and flags the estimate stable
    when the window's relative spread is at most 0.2.
    """
    lam = _check_lam(lam)
    _check_1d(ast)
    if not isinstance(window, int) or not isinstance(j_max, int) or not 4 <= window < j_max <= MAX_ORDER:
        raise ValidationError(f"need 4 <= window < j_max <= {MAX_ORDER}, got window={window!r}, j_max={j_max!r}")
    with np.errstate(all="ignore"):
        jet = lift(ast, (x0,), j_max)
        absv = np.abs(stage_tensor(jet.coeffs, lam))
    if not np.all(np.isfinite(absv)):
        raise DomainError("non-finite stage value (overflow in the jet or in powers of 1/lam)")
    # A stage value counts as zero when it sits below the roundoff floor of
    # its own Stirling sum: a terminating series is exactly zero there, but
    # the float sum leaves roundoff of its terms, which grow factorially, so
    # a single global threshold would mistake that noise for signal.
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
    """Sampled factorial-envelope fit for cascade magnitudes on ``[0, period]``, a finite ``period > 0``.

    For shifts ``k = 0..6`` the ratio sequence ``sup_N / (N+k)!`` is formed;
    the smallest ``k`` whose trailing half does not exceed its leading half
    (by more than 1 percent) is reported, with ``c0`` the trailing-half
    level.  Inputs that fail ``a(0) == a(period)`` on the sample are flagged
    non-periodic; the diagnostic is still computed.  The grid is lifted and
    staged by ``stirling_rows`` ``LIFT_BLOCK`` points at a time, keeping a
    running max of each stage's magnitude, so memory does not grow with
    ``grid``.  A stage value that overflows on the grid raises ``DomainError``.
    """
    lam = _check_lam(lam)
    _check_1d(ast)
    check_int("n_max", n_max, 1, 32)
    check_int("grid", grid, 2)
    period = float(period)
    if period <= 0:
        raise ValidationError(f"period must be positive, got {period!r}")
    if not math.isfinite(period):  # inf and nan: no grid spans them
        raise ValidationError(f"period must be finite, got {period!r}")
    xs = np.linspace(0.0, period, grid)
    sups = np.zeros(n_max + 1)
    for lo in range(0, grid, LIFT_BLOCK):
        with np.errstate(all="ignore"):
            jet = _lift_1d_array(ast, xs[lo : lo + LIFT_BLOCK], n_max)
            stages = (jet[None, ..., 0], stirling_rows(jet, range(1, n_max + 1), lam))  # stage 0 is c_0
        if not all(np.all(np.isfinite(v)) for v in stages):
            raise DomainError("non-finite stage value (overflow in the jet or in powers of 1/lam)")
        if lo == 0:
            first = jet[0, 0]
        sups = np.maximum(sups, np.concatenate([np.max(np.abs(v), axis=1) for v in stages]))
    sup_values = sups[1:]  # index N-1 <-> stage N
    periodic = bool(abs(first - jet[-1, 0]) <= 1e-9 * (1.0 + float(sups[0])))

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
