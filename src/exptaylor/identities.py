"""Numeric identity suite: closed-form targets hit by the expansions.

Each identity sums a concrete series and compares against its closed-form
target with a tolerance derived from a rigorous tail bound (never from the
observed error), floored at 1e-12 for rounding headroom:

* ``cosine_series``: cos(2 pi x) as 1 + sum_{j>=2} (-1)^j/2 * w^j with
  ``w = exp(2 pi i x) - 1``; geometric tail, needs ``|x| < 1/6``.
* ``linear_series``: x as sum_{j>=1} (-1)^(j-1)/(2 pi i j) * w^j; valid on
  the closed region ``|x| <= 1/6``; on the boundary ``|w| = 1`` and the
  geometric tail is replaced by an Abel summation-by-parts bound.
* ``log_series``: log k as sum_{j>=1} (1/j) ((k-1)/k)^j; geometric tail.
* ``stirling_log2_series``: powers of log 2 from first-kind Stirling
  numbers, in a fast geometrically weighted form and a slow alternating
  boundary form accelerated by averaging consecutive partial sums.

Sign conventions for the Stirling sums need care.  With the signed
convention ``s(j, k)`` (sign ``(-1)^(j-k)``) the two identities read

    sum_{j>=k} s(j, k) / j!                 = log(2)^k / k!
    sum_{j>=k} (-1)^j s(j, k) / (2^j j!)    = (-1)^k log(2)^k / k!

Formulations that write an explicit ``(-1)^j`` against an unsigned
``|s(j, k)|`` in the unweighted sum give ``(-1)^k`` times the first target
(and for odd ``k`` a sign mismatch); inserting ``(-1)^j`` against the
*signed* numbers makes the unweighted series diverge outright.  Both
conventions are therefore computed and the matching one is reported rather
than silently picking a side; the signed convention above matches the
targets for every ``k``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, check_int
from .stirling import MAX_RATIO_J, ratio_rows

TOL_FLOOR = 1e-12
TWO_PI_I = 2j * math.pi
MAX_TERMS = 10**6


@dataclass(frozen=True)
class IdentityResult:
    """One identity evaluation; ``passed`` is ``abs_error <= tolerance``."""

    name: str
    computed: complex
    target: complex
    terms_used: int
    tolerance: float
    abs_error: float
    passed: bool
    variant: str | None = None


def _result(name, computed, target, terms, tol, variant=None) -> IdentityResult:
    err = abs(computed - target)
    return IdentityResult(
        name=name,
        computed=complex(computed),
        target=complex(target),
        terms_used=terms,
        tolerance=float(tol),
        abs_error=float(err),
        passed=bool(err <= tol),
        variant=variant,
    )


# ---- the four identities ---------------------------------------------------


def cosine_series(x: float, J: int) -> IdentityResult:
    """Partial sum of the cosine expansion at real ``x``, ``|x| < 1/6``."""
    x = float(x)
    check_int("J", J, 2, MAX_TERMS)
    if abs(x) >= 1.0 / 6.0:
        raise ValidationError(f"|x| must be < 1/6 for guaranteed convergence, got {x!r}")
    w = cmath.exp(TWO_PI_I * x) - 1.0
    aw = abs(w)
    acc = 1.0 + 0j
    wj = w  # w^j
    for j in range(2, J + 1):
        wj *= w
        acc += (0.5 if j % 2 == 0 else -0.5) * wj
    tol = max(2.0 * aw ** (J + 1) / (1.0 - aw), TOL_FLOOR)
    return _result(f"cosine(x={x:g}, J={J})", acc, math.cos(2.0 * math.pi * x), J, tol)


def linear_series(x: float, J: int) -> IdentityResult:
    """Partial sum of the identity-map expansion, valid on closed ``|x| <= 1/6``."""
    x = float(x)
    check_int("J", J, 1, MAX_TERMS)
    if abs(x) > 1.0 / 6.0:
        raise ValidationError(f"|x| must be <= 1/6 for guaranteed convergence, got {x!r}")
    w = cmath.exp(TWO_PI_I * x) - 1.0
    aw = abs(w)
    acc = 0j
    wj = 1.0 + 0j
    for j in range(1, J + 1):
        wj *= w
        sign = 1.0 if j % 2 == 1 else -1.0
        acc += sign / (TWO_PI_I * j) * wj
    # Abel bound holds on the whole closed region (partial sums of (-w)^j
    # stay bounded by 2/|1+w| = 2); the geometric bound wins inside it
    tol = 1.0 / (math.pi * (J + 1))
    if aw < 1.0:
        tol = min(tol, aw ** (J + 1) / (2.0 * math.pi * (J + 1) * (1.0 - aw)))
    return _result(f"linear(x={x:g}, J={J})", acc, x, J, max(tol, TOL_FLOOR))


def log_series(k: int, J: int) -> IdentityResult:
    """Partial sum of ``sum (1/j) ((k-1)/k)^j`` against ``log k``."""
    check_int("k", k, 2)
    check_int("J", J, 1, MAX_TERMS)
    q = (k - 1.0) / k
    acc = 0.0
    qj = 1.0
    for j in range(1, J + 1):
        qj *= q
        acc += qj / j
    tol = q ** (J + 1) / (J + 1) / (1.0 - q) + TOL_FLOOR
    return _result(f"log(k={k}, J={J})", acc, math.log(k), J, tol)


MAX_STIRLING_K = 4


def stirling_log2_series(
    k: int,
    weighted: bool,
    J: int,
    variant: str | None = None,
) -> IdentityResult:
    """Stirling sum for ``log(2)^k / k!``, ``1 <= k <= 4``.

    ``weighted=True`` sums ``(-1)^j s(j,k) / (2^j j!)`` (geometric decay)
    against the target ``(-1)^k log(2)^k / k!``.  ``weighted=False`` sums
    the boundary series ``s(j,k) / j!`` against ``log(2)^k / k!``; its
    terms alternate and shrink only like ``(log j)^(k-1) / j``, so the
    returned value is the mean of the partial sums through ``J`` and
    ``J+1`` and the tolerance is half the ``J+1`` term magnitude.

    ``variant`` selects the sign convention for ``s(j, k)``: ``"signed"``
    as written above, or ``"unsigned"`` which replaces ``s(j, k)`` by
    ``|s(j, k)|`` in the same formulas.  When ``variant`` is None both are
    computed and the one closer to the target is reported (ties go to
    signed); only the signed convention matches the targets for every
    ``k``, which is exactly the bookkeeping this suite documents.
    """
    check_int("k", k, 1, MAX_STIRLING_K)
    check_int("J", J, k, MAX_RATIO_J - 1)  # the ratio rows run to J + 1
    if variant not in (None, "signed", "unsigned"):
        raise ValidationError(f"variant must be 'signed', 'unsigned', or None, got {variant!r}")
    for u in ratio_rows(k, J + 1):
        pass  # the last row is row k: u[j] = |s(j, k)| / j!

    kind = "weighted" if weighted else "unweighted"
    if weighted:
        # signed: all terms share the sign (-1)^k; unsigned: alternating
        mag = 0.0
        alt = 0.0
        half = 0.5**k
        for j in range(k, J + 1):
            term = u[j] * half
            mag += term
            alt += term if j % 2 == 0 else -term
            half *= 0.5
        signed_value = (-1) ** k * mag
        unsigned_value = alt
        target = (-1) ** k * math.log(2.0) ** k / math.factorial(k)
        # terms decay faster than (3/4)^j here, so 4x the next term bounds the tail
        tol = 4.0 * u[J + 1] * 0.5 ** (J + 1) + TOL_FLOOR
        terms = J - k + 1
    else:
        # boundary series: a_j = s(j,k)/j! = (-1)^(j-k) u[j], averaged partial sums.
        # Adjacent terms are paired, so the sum runs over small differences
        # rather than cancelling two sums of size sum_j u[j].
        pairs = (J - k + 1) // 2
        s_j = float(np.sum(u[k : k + 2 * pairs : 2] - u[k + 1 : k + 2 * pairs : 2]))
        if (J - k) % 2 == 0:
            s_j += u[J]
        a_next = u[J + 1] if (J + 1 - k) % 2 == 0 else -u[J + 1]
        signed_value = s_j + 0.5 * a_next
        unsigned_value = (-1) ** k * signed_value
        target = math.log(2.0) ** k / math.factorial(k)
        tol = 0.5 * u[J + 1] + TOL_FLOOR
        terms = J - k + 2

    if variant is None:
        if abs(signed_value - target) <= abs(unsigned_value - target):
            variant = "signed"
        else:
            variant = "unsigned"
    value = signed_value if variant == "signed" else unsigned_value
    name = f"stirling_log2(k={k}, {kind}, J={J})"
    return _result(name, value, target, terms, tol, variant=variant)


# ---- suite -----------------------------------------------------------------

# (name, function, arguments) triples; J values keep the whole suite
# under a second while leaving each tolerance comfortably above rounding
_SUITE: tuple[tuple[str, Callable[..., IdentityResult], tuple], ...] = (
    ("cosine_x0.1_J60", cosine_series, (0.1, 60)),
    ("cosine_x-0.15_J80", cosine_series, (-0.15, 80)),
    ("linear_x0.1_J80", linear_series, (0.1, 80)),
    ("linear_boundary_J400", linear_series, (1.0 / 6.0, 400)),
    ("log_k2_J60", log_series, (2, 60)),
    ("log_k5_J200", log_series, (5, 200)),
    ("stirling_k1_weighted_J60", stirling_log2_series, (1, True, 60)),
    ("stirling_k2_weighted_J60", stirling_log2_series, (2, True, 60)),
    ("stirling_k3_weighted_J60", stirling_log2_series, (3, True, 60)),
    ("stirling_k4_weighted_J60", stirling_log2_series, (4, True, 60)),
    ("stirling_k1_unweighted_J20000", stirling_log2_series, (1, False, 20000)),
    ("stirling_k2_unweighted_J100000", stirling_log2_series, (2, False, 100000)),
    ("stirling_k3_unweighted_J20000", stirling_log2_series, (3, False, 20000)),
    ("stirling_k4_unweighted_J20000", stirling_log2_series, (4, False, 20000)),
)


def suite_names() -> tuple[str, ...]:
    return tuple(name for name, _, _ in _SUITE)


def run_suite(
    tol_overrides: dict[str, float] | None = None,
    names: Sequence[str] | None = None,
) -> list[IdentityResult]:
    """Run registered identities in a fixed order.

    ``names`` selects a subset (registration order is kept); the default is
    the whole suite.  ``tol_overrides`` maps registered names to replacement
    tolerances (the pass flag is recomputed against the override).  Unknown
    names in either argument are rejected so typos cannot silently pass.
    Each identity is computed on its own, as a standalone call would be.
    """
    registered = set(suite_names())
    overrides = dict(tol_overrides or {})
    unknown = set(overrides) - registered
    if unknown:
        raise ValidationError(f"unknown identity names in tol_overrides: {sorted(unknown)}")
    wanted = registered if names is None else set(names)
    unknown = wanted - registered
    if unknown:
        raise ValidationError(f"unknown identity names: {sorted(unknown)}")

    results = []
    for name, function, args in _SUITE:
        if name in wanted:
            res = function(*args)
            if name in overrides:
                tol = float(overrides[name])
                res = replace(res, tolerance=tol, passed=res.abs_error <= tol)
            results.append(res)
    return results
