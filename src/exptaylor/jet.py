"""Truncated Taylor jets of expression trees.

A 1-D jet of order ``K`` about a real center ``x0`` stores the normalized
coefficients ``c[j] = f^(j)(x0) / j!`` for ``j <= K``; an n-D jet stores
``c[g] = D^g f(center) / g!`` for ``|g| <= K``.  Products are convolutions,
quotients solve the convolution, and the elementary functions use their
first-order ODE recurrences, which hold in n-D with "coefficient k" read as
the homogeneous part of degree k, since the Euler operator ``sum_i x_i
d/dx_i`` multiplies that part by k (Neidinger, Math. Comp. 74, 2005).  So
the kernels and the expression walk are written once over a part algebra,
lifting a whole batch of centers in one pass.  In 1-D part k is row k of a
coefficient-major array, stored up to the degree the expression fixes, and
the convolution adds in the pairwise order of ``np.sum`` over one point's
complex terms, to which the printed digits are pinned.  In n-D part k is the
stored rows of the graded-lex array of every multi-index of degree k, and a
product finds the row of each pair's sum through a rank table.  This layout
(``_layout``) carries n-D multi-indices from the lift to the stages, as rows and
their digits in integer arrays.  The public ``lift`` returns one ``Jet`` in any
number of variables, Neidinger's dense ``(K+1,) * n`` Taylor tensor, into which
the n-D lift's rows are scattered; tuples of multi-indices are made only for
the CLI's table (``seriesnd.multi_indices``).

Jets are real (float64): the grammar has no imaginary literal, and ``log``
and ``sqrt`` reject the negative real axis.  They keep the bits of the
complex jets they replaced: constant terms of the elementary functions are
the real parts of numpy's complex functions (its real ones round
differently in the last bit), and a division by constant terms or by k is a
reciprocal and a product, as numpy divides by a complex number with zero
imaginary part (Smith's method).  Only the sign of an exact zero can differ
(a real ``2 * -0`` is -0, the complex product was +0), and no output prints
that sign.  Orders are capped at 64: coefficients are factorially scaled and
double precision runs out of headroom not far beyond that.  A dense jet in more
than one variable is capped at order 16 (``MAX_ND_ORDER``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError, check_int
from .expr import BinOp, Call, Const, ExprAst, NamedConst, Neg, Node, Var, int_exponent

MAX_ORDER = 64
MAX_ND_ORDER = 16  # a dense 4-D jet of order 64 would take 143 MB


@dataclass(frozen=True)
class Jet:
    """``coeffs[g] = D^g f(center) / g!`` about ``center``: the dense float64 ``(order+1,) * n`` Taylor tensor, zero
    past total degree ``order``; treat as immutable."""

    coeffs: np.ndarray
    center: tuple[float, ...]

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dims(self) -> int:
        return len(self.center)


# ---- domain checks ---------------------------------------------------------


def _check_nonzero(u0: np.ndarray, what: str) -> None:
    if np.any(u0 == 0):
        raise DomainError(f"{what}: argument is zero at a lift point")


def _check_off_cut(u0: np.ndarray, what: str) -> None:
    _check_nonzero(u0, what)
    if np.any(u0 < 0):
        raise DomainError(f"{what}: argument on the negative real axis at a lift point")


def _square_multiply(u, n: int, mul):
    """``u ** n`` for ``n >= 1`` with the product ``mul``, by square-and-multiply over the bits of ``n`` from the
    low bit up."""
    acc = None
    while True:
        if n & 1:
            acc = u if acc is None else mul(acc, u)
        n >>= 1
        if not n:
            return acc
        u = mul(u, u)


# ---- jets over parts -------------------------------------------------------


class _Algebra:
    """The jet kernels and the expression walk, written once over parts.

    A subclass implements the part algebra over float64 values: part k of a jet ``u`` is ``u[k]`` up to its
    degree ``len(u) - 1`` and zero past it, ``const(c0, degree)`` makes a jet of that degree with constant term
    ``c0`` for a kernel to fill and ``c0`` reads it back, ``euler`` scales part k by k, ``add``/``neg``/``mul``
    are the truncated jet ring, and ``conv(k, a, b, lo, hi) = sum_{j=lo..hi} a_j * b_{k-j}``.  Parts support
    ``+``, ``-`` and a product with a number or with constant terms on the left, which is how every division is
    written.  Each kernel keeps the operation order of its scalar recurrence, and ``conv`` that of its sum.
    """

    def __init__(self, centers: np.ndarray, order: int):
        self.centers = centers
        self.order = order

    def elementary(self, func, u0):
        """The real part of numpy's complex ``func`` of the constant terms ``u0``."""
        return func(u0.astype(np.complex128)).real

    def degree(self, u) -> int:
        """The highest part of ``u`` that can be nonzero; every later part is +-0."""
        return len(u) - 1

    def part(self, u, k: int):
        """Part ``k`` of ``u``, a zero past its degree."""
        return u[k] if k < len(u) else 0.0

    def padded(self, u):
        """``u`` stored up to the order, zeros past its degree."""
        return u if self.degree(u) == self.order else self.add(self.const(0.0, self.order), u)

    def argument(self, u, *values):
        """``u`` as an elementary function's recurrence reads it, and the function's degree: 0 for a constant, else
        the order.  A constant whose function ``values`` are not finite is read padded to the order: the recurrence
        then forms its ``0 * inf`` terms, which make every later part nan, so no later ``1/inf = 0`` turns the
        overflow into a printed number."""
        if self.degree(u) > 0:
            return u, self.order
        if all(np.isfinite(v).all() for v in values):
            return u, 0
        return self.padded(u), self.order

    def exp(self, u):
        e0 = self.elementary(np.exp, self.c0(u))
        u, degree = self.argument(u, e0)
        e = self.const(e0, degree)
        ju = self.euler(u)
        for k in range(1, degree + 1):
            e[k] = (1.0 / k) * self.conv(k, ju, e, 1, k)
        return e

    def log(self, u, what: str = "log"):
        u0 = self.c0(u)
        _check_off_cut(u0, what)
        l0 = self.elementary(np.log, u0)
        u, degree = self.argument(u, l0)
        out = self.const(l0, degree)
        jl = self.const(0.0, degree)  # euler(out), filled in as out grows
        rec = 1.0 / u0
        for k in range(1, degree + 1):
            out[k] = rec * (self.part(u, k) - (1.0 / k) * self.conv(k, jl, u, 1, k - 1))
            jl[k] = k * out[k]
        return out

    def sqrt(self, u):
        u0 = self.c0(u)
        _check_off_cut(u0, "sqrt")
        r0 = self.elementary(np.sqrt, u0)
        u, degree = self.argument(u, r0)
        out = self.const(r0, degree)
        rec = 1.0 / (2 * r0)
        for k in range(1, degree + 1):
            out[k] = rec * (self.part(u, k) - self.conv(k, out, out, 1, k - 1))
        return out

    def trig(self, u, func: str):
        """``sin``, ``cos``, ``sinh`` or ``cosh`` of ``u``: one recurrence up to a sign."""
        hyperbolic = func.endswith("h")
        u0 = self.c0(u)
        s0 = self.elementary(np.sinh if hyperbolic else np.sin, u0)
        c0 = self.elementary(np.cosh if hyperbolic else np.cos, u0)
        u, degree = self.argument(u, s0, c0)
        s, c = self.const(s0, degree), self.const(c0, degree)
        ju = self.euler(u)
        for k in range(1, degree + 1):
            s[k] = (1.0 / k) * self.conv(k, ju, c, 1, k)
            t = self.conv(k, ju, s, 1, k)
            c[k] = (1.0 / k) * (t if hyperbolic else -t)
        return c if func.startswith("cos") else s

    def tan(self, u, cot: bool = False):
        """``t = tan(u)`` by its own recurrence ``t' = u' (1 + t^2)`` (Griewank and Walther,
        *Evaluating Derivatives*, 2nd ed., ch. 13), with ``p = 1 + t^2`` grown a part behind ``t``;
        with ``cot``, ``t = cot(u)`` by ``t' = -u' (1 + t^2)`` from the reciprocal of ``tan(u0)``."""
        t0 = self.elementary(np.tan, self.c0(u))
        if cot:
            _check_nonzero(t0, "division")  # cot lifts a quotient by tan, and keeps its message
            t0 = 1.0 / t0
        u, degree = self.argument(u, t0)
        t, p = self.const(t0, degree), self.const(1.0 + t0 * t0, degree)
        ju = self.euler(u)
        for k in range(1, degree + 1):
            t[k] = ((-1.0 if cot else 1.0) / k) * self.conv(k, ju, p, 1, k)
            if k < degree:
                p[k] = self.conv(k, t, t, 0, k)
        return t

    def div(self, a, b, what: str = "division"):
        b0 = self.c0(b)
        _check_nonzero(b0, what)
        rec = 1.0 / b0
        if not np.isfinite(rec * self.c0(a)).all():
            # padded, the recurrence forms the 0 * inf terms that make the later parts nan
            a, b = self.padded(a), self.padded(b)
        # a quotient by a constant keeps the numerator's degree
        out = self.const(0.0, self.degree(a) if self.degree(b) == 0 else self.order)
        out[0] = rec * a[0]  # a part's product, as for k >= 1
        for k in range(1, self.degree(out) + 1):
            out[k] = rec * (self.part(a, k) - self.conv(k, out, b, 0, k - 1))
        return out

    def ipow(self, u, n: int, what: str = "power"):
        if n == 0:
            # 0^0 is rejected, matching scalar evaluation
            _check_nonzero(self.c0(u), what)
            return self.const(1.0)
        if n < 0:
            return self.div(self.const(1.0), self.ipow(u, -n), what=what)
        return _square_multiply(u, n, self.mul)

    def walk(self, node: Node):
        """Jet of the subexpression ``node``."""
        if isinstance(node, (Const, NamedConst)):
            if node.value.imag != 0:  # only a hand-built AST holds an imaginary constant
                raise ValidationError(f"jets are real, got the constant {node.value!r}")
            return self.const(node.value.real)
        if isinstance(node, Var):
            return self.var(node.index)
        if isinstance(node, Neg):
            return self.neg(self.walk(node.operand))
        if isinstance(node, Call):
            u = self.walk(node.arg)
            if node.func in ("exp", "log", "sqrt", "tan"):
                return getattr(self, node.func)(u)
            if node.func in ("sin", "cos", "sinh", "cosh"):
                return self.trig(u, node.func)
            raise ValidationError(f"unsupported function {node.func!r}")
        if isinstance(node, BinOp):
            if node.op == "^":
                n = int_exponent(node.right)
                base = self.walk(node.left)
                if n is not None:
                    return self.ipow(base, n)
                return self.exp(self.mul(self.walk(node.right), self.log(base, what="power base")))
            a = self.walk(node.left)
            if node.op == "/" and isinstance(node.right, Call) and node.right.func == "tan":
                # a / tan(u) as a * cot(u): tan's parts grow near its pole and the quotient's do not,
                # so the division recurrence would cancel
                return self.mul(a, self.tan(self.walk(node.right.arg), cot=True))
            b = self.walk(node.right)
            if node.op == "+":
                return self.add(a, b)
            if node.op == "-":
                return self.add(a, self.neg(b))
            if node.op == "*":
                return self.mul(a, b)
            return self.div(a, b)
        raise TypeError(f"not an AST node: {node!r}")


class _Dense(_Algebra):
    """1-D jets: part k is row k of a ``(d+1,) + centers.shape`` array.

    A jet stores its parts only up to its degree ``d``, which the expression fixes: 0 for a constant, 1 for
    ``x``, the larger of two for a sum, their total (capped at the order) for a product, the numerator's for a
    quotient by a constant, 0 for a function of a constant and the order for any other kernel output;
    ``_lift_1d_array`` pads the result once.  So ``mul`` and ``conv`` skip every term with a part past its jet's
    degree, and a kernel of an affine argument takes one term per part.  A product, quotient or function of a
    constant whose constant term is not finite is formed on operands padded to the order, so its ``0 * inf``
    terms make the later parts nan and an overflow is refused wherever a jet stored in full would refuse it.

    Every kernel step is one operation on contiguous rows over all points.  ``conv`` adds in the order of
    ``np.sum`` over one point's complex terms, the order the printed digits are pinned to: numpy's pairwise one
    for at most 64 terms, four interleaved lanes combined as ``(l0 + l1) + (l2 + l3)``, then the ``n % 4``
    trailing terms in turn; fewer than four terms are one sequential sum.  (A float64 ``np.sum`` would use eight
    lanes.)  Where three or more terms are within the degrees, the lanes run over the whole window, the skipped
    terms as +0, so no term changes lane; one or two terms need no lanes, since zeros move no bit of a value or
    of the rounded sum of two.  Only the sign of an exact zero can differ.
    """

    neg = staticmethod(np.negative)

    def const(self, c0, degree: int = 0) -> np.ndarray:
        out = np.zeros((degree + 1,) + self.centers.shape)
        out[0] = c0
        return out

    def var(self, index: int) -> np.ndarray:
        out = self.const(self.centers, min(self.order, 1))
        out[1:] = 1.0  # no slope part at order 0
        return out

    def c0(self, u: np.ndarray) -> np.ndarray:
        return u[0]

    def euler(self, u: np.ndarray) -> np.ndarray:
        return u * np.arange(len(u)).reshape((-1,) + (1,) * self.centers.ndim)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if len(a) == len(b):
            return a + b
        out, short = (a.copy(), b) if len(a) > len(b) else (b.copy(), a)
        out[: len(short)] += short  # real addition commutes, signed zeros included
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if not (np.isfinite(a[0]).all() and np.isfinite(b[0]).all()):
            # padded, the sum forms the 0 * inf terms that make the later parts nan
            a, b = self.padded(a), self.padded(b)
        n = min(len(a) + len(b) - 2, self.order) + 1
        if len(b) <= 2 < len(a):
            a, b = b, a  # each part then adds at most two terms, whose sum has no order
        out = np.zeros((n,) + a.shape[1:], np.result_type(a, b))
        for i in range(min(len(a), n)):
            out[i : i + len(b)] += a[i : i + 1] * b[: n - i]
        return out

    def conv(self, k: int, a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
        first, last = max(lo, k + 1 - len(b)), min(hi, len(a) - 1)  # the terms within both degrees
        skipped = first > lo or last < hi
        if skipped and last - first < 2:
            if last < first:
                return np.zeros(a.shape[1:], np.result_type(a, b))
            out = a[first] * b[k - first]
            return out + a[last] * b[k - last] if last > first else out
        terms = a[first : last + 1] * b[k - first : k - last - 1 if last < k else None : -1]
        if skipped:
            window = np.zeros((hi - lo + 1,) + terms.shape[1:], terms.dtype)
            window[first - lo : last - lo + 1] = terms
            terms = window
        n = len(terms)
        if n < 4:
            return np.add.reduce(terms, axis=0)
        m = n - n % 4
        # the lanes start from +0 where np.sum adds its +0 last: no bit of the total moves
        lanes = np.add.reduce(terms[:m].reshape((m // 4, 4) + terms.shape[1:]), axis=0)
        pairs = lanes[0::2] + lanes[1::2]
        out = pairs[0] + pairs[1]
        for j in range(m, n):
            out = out + terms[j]  # numpy's in-place add costs more per call on one-point rows
        return out


class _Flat:
    """Part k of an n-D jet: the ``rows`` it stores, sorted, of the ``(C(k+n-1, n-1), P)`` array of degree k in
    graded-lex order, and their ``values``, ``(len(rows), P)``; an empty part has neither (``None``).  Every row
    it does not store is +0.  The operations give what a map from the stored multi-indices to values would, signed
    zeros included: a row that one operand of ``+`` or ``-`` stores alone keeps that operand's value (negated on
    the right of ``-``), and a negation or a product touches the stored rows alone."""

    __slots__ = ("values", "rows")
    __array_ufunc__ = None  # so ``array * part`` reaches ``__rmul__``

    def __init__(self, values: np.ndarray | None = None, rows: np.ndarray | None = None):
        self.values, self.rows = values, rows

    def __neg__(self) -> _Flat:
        return self if self.rows is None else _Flat(-self.values, self.rows)

    def __rmul__(self, s) -> _Flat:
        return self if self.rows is None else _Flat(s * self.values, self.rows)

    def __add__(self, other: _Flat) -> _Flat:
        if other.rows is None or self.rows is None:
            return self if other.rows is None else other
        mine, theirs = self.rows, other.rows
        if mine is theirs or (len(mine) == len(theirs) and (mine == theirs).all()):
            return _Flat(self.values + other.values, mine)
        rows, values = _accumulate(max(mine[-1], theirs[-1]) + 1, [(mine, self.values), (theirs, other.values)])
        return _Flat(values, rows)

    def __sub__(self, other: _Flat) -> _Flat:
        return self + -other  # x - y is x + (-y) bit for bit, signed zeros included


def _accumulate(size: int, slices) -> tuple[np.ndarray, np.ndarray]:
    """The rows below ``size`` that ``slices`` of ``(rows, values)`` reach, increasing, and their sums, each from -0
    and slice by slice.  A slice reaches no row twice, in increasing order, so one slice is its own sum: ``-0 + v``
    is ``v``, which keeps a first term as a map's would."""
    slices = iter(slices)
    first, second = next(slices), next(slices, None)
    if second is None:
        return first
    acc, stored = np.full((size,) + first[1].shape[1:], -0.0), np.zeros(size, dtype=bool)
    for rows, values in chain((first, second), slices):
        acc[rows] += values
        stored[rows] = True
    rows = np.flatnonzero(stored)
    return rows, acc[rows]


@lru_cache(maxsize=None)
def _layout(n: int, base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(sums, starts, codes, ranks)`` for ``n`` variables and degrees below ``base``, built once and read-only.  Row
    ``r`` of degree ``k`` is the ``r``-th multi-index of ``|g| = k`` in graded-lex order (``g_0`` from ``k`` down, then
    the rest in that order), and row ``starts[k] + r`` of all degrees below ``base``.  ``sums[r]`` holds its suffix
    sums ``s_i = g_i + ... + g_(n-1)``, ``1 <= i < n``, which do not read ``g_0``: those of degree ``k`` are the first
    ``C(k+n-1, n-1)`` rows of one array.  Codes ``sum_i s_i base^(i-1)`` add when multi-indices add, as no suffix sum
    reaches ``base``, and ``ranks[codes[r]] = r``: ``_plus_unit`` finds the row of ``g + e_k`` from them."""
    sums = np.zeros((1, 0), dtype=np.intp)
    for m in range(1, n):  # the suffix sums of the last m variables, from those of the last m - 1
        counts = [math.comb(d + m - 1, m - 1) for d in range(base)]  # s_1 = d, then the first counts[d] rows
        firsts = np.repeat([math.comb(d + m - 1, m) for d in range(base)], counts)  # the row where s_1 = d starts
        tails = sums[np.arange(len(firsts)) - firsts]
        sums = np.empty((len(firsts), m), dtype=np.intp)
        sums[:, 0], sums[:, 1:] = np.repeat(np.arange(base), counts), tails
    starts = np.array([math.comb(k + n - 1, n) for k in range(base + 1)])
    codes = sums @ base ** np.arange(n - 1)
    ranks = np.zeros(base ** (n - 1), dtype=np.intp)
    ranks[codes] = np.arange(len(sums))
    for a in (sums, starts, codes, ranks):
        a.flags.writeable = False
    return sums, starts, codes, ranks


def _plus_unit(n: int, base: int, rows: np.ndarray) -> np.ndarray:
    """Row ``ranks[codes[r] + sum_(i<k) base^i]`` of ``g + e_k`` for each axis ``k`` and row ``r`` of ``g``,
    numbered within one degree below ``base - 1`` (``_layout``): shape ``(n, len(rows))``."""
    _, _, codes, ranks = _layout(n, base)
    return ranks[codes[rows] + np.cumsum([0, *base ** np.arange(n - 1)])[:, None]]


def _digits(n: int, base: int, rows: np.ndarray) -> np.ndarray:
    """The multi-indices of the rows ``rows`` of all degrees below ``base`` (``_layout``), shape ``(len(rows), n)``."""
    sums, starts = _layout(n, base)[:2]
    degrees = np.searchsorted(starts, rows, side="right") - 1
    full = np.zeros((len(rows), n + 1), dtype=np.intp)  # s_0 = |g|, then s_1 .. s_(n-1), then s_n = 0
    full[:, 0], full[:, 1:n] = degrees, sums[rows - starts[degrees]]
    return full[:, :-1] - full[:, 1:]


def _keys(n: int, base: int, rows: np.ndarray) -> list[tuple[int, ...]]:
    """``_digits`` as tuples, for the public surface: zipped from the columns, which is faster than a tuple per row."""
    return list(zip(*_digits(n, base, rows).T.tolist()))


class _Sparse(_Algebra):
    """n-D jets: a list of K+1 flat parts (``_Flat``) over centers of shape ``(P, n)``.

    Every jet has degree K; an empty part costs the products nothing.  A product finds the row of each pair of
    stored rows' sum of multi-indices as the rank of the sum of their codes (``_layout``), and adds it there, in
    ``conv``'s order: ``j``, then ``a``'s row, then ``b``'s row.  It runs in slices, one row of the side with fewer
    rows against the rows of the other it meets, so a slice reaches no row twice; the pairs of one sum run over
    ``a``'s rows in one order and ``b``'s in the other, so ``b``'s slices go from the last.  Sums start from -0
    (``_accumulate``).  Real products commute, so a slice may put either side's row first, and ``rec * v`` has the
    bits of the complex ``v * rec``.
    """

    def __init__(self, centers: np.ndarray, order: int):
        super().__init__(centers, order)
        _, self.starts, self.codes, self.ranks = _layout(centers.shape[1], order + 1)
        self.first = np.zeros(1, dtype=np.intp)  # the one row of part 0, shared so that sums of it match at once

    def const(self, c0, degree: int = 0) -> list[_Flat]:
        first = _Flat(np.full((1, len(self.centers)), c0, dtype=np.float64), self.first)
        return [first] + [_Flat() for _ in range(self.order)]

    def var(self, index: int) -> list[_Flat]:
        out = self.const(self.centers[:, index])
        if self.order >= 1:
            out[1] = _Flat(np.ones((1, len(self.centers))), np.array([index]))  # row i of degree 1 is e_i
        return out

    def c0(self, u: list[_Flat]) -> np.ndarray:
        return u[0].values[0]

    def add(self, a: list[_Flat], b: list[_Flat]) -> list[_Flat]:
        return [x + y for x, y in zip(a, b)]

    def neg(self, a: list[_Flat]) -> list[_Flat]:
        return [-x for x in a]

    def euler(self, u: list[_Flat]) -> list[_Flat]:
        return [k * p for k, p in enumerate(u)]

    def conv(self, k: int, a: list[_Flat], b: list[_Flat], lo: int, hi: int) -> _Flat:
        terms = [
            (x.values, self.codes[x.rows], y.values, self.codes[y.rows])
            for j in range(lo, hi + 1)
            if (x := a[j]).rows is not None and (y := b[k - j]).rows is not None
        ]
        slices = (
            (self.ranks[cx[i] + cy], x[i] * y) if len(cx) <= len(cy) else (self.ranks[cx + cy[i]], x * y[i])
            for x, cx, y, cy in terms
            for i in (range(len(cx)) if len(cx) <= len(cy) else range(len(cy) - 1, -1, -1))
        )
        return _Flat(*_accumulate(self.starts[k + 1] - self.starts[k], slices)[::-1]) if terms else _Flat()

    def _stack(self, u: list[_Flat]) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The codes, values and degrees of the stored rows of ``u``, in increasing degree."""
        parts = [(k, p) for k, p in enumerate(u) if p.rows is not None]
        codes = np.concatenate([self.codes[p.rows] for _, p in parts])
        return codes, np.concatenate([p.values for _, p in parts]), [k for k, p in parts for _ in p.rows]

    def mul(self, a: list[_Flat], b: list[_Flat]) -> list[_Flat]:
        sa, sb = self._stack(a), self._stack(b)
        swap = len(sa[1]) > len(sb[1])
        (cs, S, ds), (cl, L, dl) = (sb, sa) if swap else (sa, sb)
        top = min(self.order, ds[-1] + dl[-1])
        # the rows of the side with fewer, from the first if it is a and from the last if it is b, each against the
        # other side's rows in increasing degree: a row of degree i meets the leading rows up to degree top - i
        degrees = np.array(dl)
        slices = (
            (self.starts[ds[r] + degrees[:n]] + self.ranks[cs[r] + cl[:n]], S[r] * L[:n])
            for r in (reversed(range(len(ds))) if swap else range(len(ds)))
            for n in [bisect_right(dl, top - ds[r])]
        )
        rows, values = _accumulate(int(self.starts[top + 1]), slices)
        ends = np.searchsorted(rows, self.starts[1 : top + 2]).tolist()
        out = [_Flat(values[lo:hi], rows[lo:hi] - start) for lo, hi, start in zip([0, *ends], ends, self.starts)]
        return [p if len(p.rows) else _Flat() for p in out] + [_Flat() for _ in range(self.order - top)]


def _lift_1d_array(ast: ExprAst, centers: np.ndarray, order: int) -> np.ndarray:
    """Lift at every real center in ``centers``: shape ``centers.shape + (order+1,)``, a view of the
    coefficient-major jet padded with zeros past its degree."""
    jet = _Dense(centers, order).walk(ast.root)
    if len(jet) <= order:
        jet = np.concatenate((jet, np.zeros((order + 1 - len(jet),) + centers.shape)))
    return np.moveaxis(jet, 0, -1)


def _lift_nd_arrays(ast: ExprAst, centers: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Lift at a batch of centers, shape (P, n): the rows of ``_layout(n, order + 1)`` that some term of the
    expression reaches, increasing, and their float64 values, shape (rows, P); every other coefficient is +0."""
    sparse = _Sparse(centers, order)
    parts = [(start, p) for start, p in zip(sparse.starts, sparse.walk(ast.root)) if p.rows is not None]
    return np.concatenate([start + p.rows for start, p in parts]), np.concatenate([p.values for _, p in parts])


# ---- public surface --------------------------------------------------------


def lift(ast: ExprAst, center: Sequence[float], order: int) -> Jet:
    """Jet of the expression about a real ``center`` of ``ast.dims`` coordinates, of order ``0 <= order <= 64`` in
    one variable and ``0 <= order <= 16`` in more: the 1-D lift's row, or the n-D lift's rows scattered into
    zeros.  Raises DomainError if an intermediate constant term leaves an elementary function's domain (division
    by zero, log/sqrt at zero or on the negative real axis)."""
    n = ast.dims
    check_int("jet order", order, 0, MAX_ORDER if n == 1 else MAX_ND_ORDER)
    pts = tuple(float(c) for c in center)
    if len(pts) != n:
        raise ValidationError(f"center has {len(pts)} coordinates, need {n}")
    if n == 1:
        return Jet(_lift_1d_array(ast, np.array(pts), order)[0], pts)
    rows, values = _lift_nd_arrays(ast, np.array([pts]), order)
    coeffs = np.zeros((order + 1,) * n)
    coeffs[tuple(_digits(n, order + 1, rows).T)] = values[:, 0]
    return Jet(coeffs, pts)
