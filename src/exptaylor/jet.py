"""Truncated Taylor jets of expression trees.

A 1-D jet of order ``K`` about a real center ``x0`` stores the normalized
coefficients ``c[j] = f^(j)(x0) / j!`` for ``j <= K``.  Arithmetic is the
usual truncated power-series algebra: products are convolutions, quotients
solve the convolution, and the elementary functions use their first-order
ODE recurrences.  All 1-D kernels operate on the last axis of an ndarray,
so a whole batch of centers (quadrature nodes, grid points) is lifted in
one pass.

An n-D jet stores ``c[g] = D^g f(center) / g!`` for multi-indices with
total degree ``|g| <= K`` in a dict.  Elementary functions of an n-D jet
``u`` are composed through the 1-D Taylor coefficients of the function at
the constant term ``u0``, applied by Horner to ``u - u0`` (which has no
constant term, so degrees only climb).

Orders are capped at 64: coefficients are factorially scaled and double
precision runs out of headroom not far beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .expr import BinOp, Call, Const, ExprAst, NamedConst, Neg, Node, Var, int_exponent

MAX_ORDER = 64


@dataclass(frozen=True)
class Jet1D:
    """Order-``len(coeffs)-1`` jet about ``center``; treat as immutable."""

    coeffs: np.ndarray  # complex128, shape (K+1,)
    center: float = 0.0

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class JetND:
    """Multivariate jet: ``coeffs[g] = D^g f(center) / g!`` for ``|g| <= order``."""

    dims: int
    order: int
    coeffs: dict[tuple[int, ...], complex]
    center: tuple[float, ...]

    def coeff(self, gamma: tuple[int, ...]) -> complex:
        return self.coeffs.get(tuple(gamma), 0j)


# ---- 1-D kernels (batched over leading axes) -------------------------------


def _check_nonzero(u0: np.ndarray, what: str) -> None:
    if np.any(u0 == 0):
        raise DomainError(f"{what}: argument is zero at a lift point")


def _check_off_cut(u0: np.ndarray, what: str) -> None:
    _check_nonzero(u0, what)
    if np.any((u0.imag == 0) & (u0.real < 0)):
        raise DomainError(f"{what}: argument on the negative real axis at a lift point")


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    L = a.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (L,)
    out = np.zeros(shape, dtype=np.complex128)
    for i in range(L):
        out[..., i:] += a[..., i : i + 1] * b[..., : L - i]
    return out


def _div(a: np.ndarray, b: np.ndarray, what: str = "division") -> np.ndarray:
    L = a.shape[-1]
    b0 = b[..., 0]
    _check_nonzero(b0, what)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (L,)
    out = np.zeros(shape, dtype=np.complex128)
    out[..., 0] = a[..., 0] / b0
    for k in range(1, L):
        acc = a[..., k] - np.sum(out[..., :k] * b[..., k:0:-1], axis=-1)
        out[..., k] = acc / b0
    return out


def _exp(u: np.ndarray) -> np.ndarray:
    L = u.shape[-1]
    e = np.empty_like(u, dtype=np.complex128)
    e[..., 0] = np.exp(u[..., 0])
    ju = u * np.arange(L)
    for k in range(1, L):
        e[..., k] = np.sum(ju[..., 1 : k + 1] * e[..., k - 1 :: -1], axis=-1) / k
    return e


def _log(u: np.ndarray, what: str = "log") -> np.ndarray:
    L = u.shape[-1]
    u0 = u[..., 0]
    _check_off_cut(u0, what)
    out = np.empty_like(u, dtype=np.complex128)
    out[..., 0] = np.log(u0)
    for k in range(1, L):
        s = np.sum((np.arange(1, k) * out[..., 1:k]) * u[..., k - 1 : 0 : -1], axis=-1)
        out[..., k] = (u[..., k] - s / k) / u0
    return out


def _sin_cos(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    L = u.shape[-1]
    s = np.empty_like(u, dtype=np.complex128)
    c = np.empty_like(u, dtype=np.complex128)
    s[..., 0] = np.sin(u[..., 0])
    c[..., 0] = np.cos(u[..., 0])
    ju = u * np.arange(L)
    for k in range(1, L):
        s[..., k] = np.sum(ju[..., 1 : k + 1] * c[..., k - 1 :: -1], axis=-1) / k
        c[..., k] = -np.sum(ju[..., 1 : k + 1] * s[..., k - 1 :: -1], axis=-1) / k
    return s, c


def _sinh_cosh(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    L = u.shape[-1]
    s = np.empty_like(u, dtype=np.complex128)
    c = np.empty_like(u, dtype=np.complex128)
    s[..., 0] = np.sinh(u[..., 0])
    c[..., 0] = np.cosh(u[..., 0])
    ju = u * np.arange(L)
    for k in range(1, L):
        s[..., k] = np.sum(ju[..., 1 : k + 1] * c[..., k - 1 :: -1], axis=-1) / k
        c[..., k] = np.sum(ju[..., 1 : k + 1] * s[..., k - 1 :: -1], axis=-1) / k
    return s, c


def _sqrt(u: np.ndarray) -> np.ndarray:
    L = u.shape[-1]
    u0 = u[..., 0]
    _check_off_cut(u0, "sqrt")
    out = np.empty_like(u, dtype=np.complex128)
    r0 = np.sqrt(u0)
    out[..., 0] = r0
    for k in range(1, L):
        s = np.sum(out[..., 1:k] * out[..., k - 1 : 0 : -1], axis=-1)
        out[..., k] = (u[..., k] - s) / (2 * r0)
    return out


def _apply_call_1d(func: str, u: np.ndarray) -> np.ndarray:
    if func == "exp":
        return _exp(u)
    if func == "log":
        return _log(u)
    if func == "sqrt":
        return _sqrt(u)
    if func == "sin":
        return _sin_cos(u)[0]
    if func == "cos":
        return _sin_cos(u)[1]
    if func == "tan":
        s, c = _sin_cos(u)
        return _div(s, c, what="tan")
    if func == "sinh":
        return _sinh_cosh(u)[0]
    if func == "cosh":
        return _sinh_cosh(u)[1]
    raise ValidationError(f"unsupported function {func!r}")


def _ipow(u: np.ndarray, n: int, what: str = "power") -> np.ndarray:
    if n == 0:
        # 0^0 is rejected, matching scalar evaluation
        _check_nonzero(u[..., 0], what)
        out = np.zeros_like(u, dtype=np.complex128)
        out[..., 0] = 1.0
        return out
    if n < 0:
        one = np.zeros_like(u, dtype=np.complex128)
        one[..., 0] = 1.0
        return _div(one, _ipow(u, -n), what=what)
    acc = None
    base = u
    m = n
    while m:
        if m & 1:
            acc = base if acc is None else _mul(acc, base)
        m >>= 1
        if m:
            base = _mul(base, base)
    return acc


def _lift_1d_array(ast: ExprAst, centers: np.ndarray, order: int) -> np.ndarray:
    """Lift at every real center in ``centers``; returns shape ``centers.shape + (order+1,)``."""
    L = order + 1
    shape = centers.shape + (L,)

    def rec(node: Node) -> np.ndarray:
        if isinstance(node, (Const, NamedConst)):
            out = np.zeros(shape, dtype=np.complex128)
            out[..., 0] = node.value
            return out
        if isinstance(node, Var):
            out = np.zeros(shape, dtype=np.complex128)
            out[..., 0] = centers
            if order >= 1:
                out[..., 1] = 1.0
            return out
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Call):
            return _apply_call_1d(node.func, rec(node.arg))
        if isinstance(node, BinOp):
            if node.op == "^":
                n = int_exponent(node.right)
                base = rec(node.left)
                if n is not None:
                    return _ipow(base, n)
                return _exp(_mul(rec(node.right), _log(base, what="power base")))
            a = rec(node.left)
            b = rec(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return _mul(a, b)
            return _div(a, b)
        raise TypeError(f"not an AST node: {node!r}")

    return rec(ast.root)


# ---- n-D jets --------------------------------------------------------------
# internal form: dict mapping multi-index tuple -> ndarray over the batch of
# centers; the constant-term key is (0,)*n and absent keys are zero.


def _nd_mul(a: dict, b: dict, order: int) -> dict:
    bi = [(k, sum(k), v) for k, v in b.items()]
    out: dict = {}
    for ka, va in a.items():
        da = sum(ka)
        for kb, db, vb in bi:
            if da + db > order:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            cur = out.get(key)
            prod = va * vb
            out[key] = prod if cur is None else cur + prod
    return out


def _nd_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        out[k] = v if cur is None else cur + v
    return out


def _nd_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _nd_compose(gc: np.ndarray, w: dict, order: int, zero: tuple[int, ...]) -> dict:
    """Horner evaluation of ``sum_j gc[..., j] * w^j`` with ``w`` lacking a constant term."""
    K = gc.shape[-1] - 1
    acc: dict = {zero: gc[..., K]}
    for j in range(K - 1, -1, -1):
        acc = _nd_mul(acc, w, order)
        cur = acc.get(zero)
        acc[zero] = gc[..., j] if cur is None else cur + gc[..., j]
    return acc


def _var_jet_1d(u0: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros(u0.shape + (order + 1,), dtype=np.complex128)
    out[..., 0] = u0
    if order >= 1:
        out[..., 1] = 1.0
    return out


def _nd_apply_call(func: str, u: dict, order: int, zero: tuple[int, ...]) -> dict:
    u0 = np.asarray(u.get(zero, 0j))
    gc = _apply_call_1d(func, _var_jet_1d(u0, order))
    w = {k: v for k, v in u.items() if k != zero}
    return _nd_compose(gc, w, order, zero)


def _nd_recip(u: dict, order: int, zero: tuple[int, ...], what: str) -> dict:
    u0 = np.asarray(u.get(zero, 0j))
    one = np.zeros(u0.shape + (order + 1,), dtype=np.complex128)
    one[..., 0] = 1.0
    gc = _div(one, _var_jet_1d(u0, order), what=what)
    w = {k: v for k, v in u.items() if k != zero}
    return _nd_compose(gc, w, order, zero)


def _nd_ipow(u: dict, n: int, order: int, zero: tuple[int, ...]) -> dict:
    if n == 0:
        ref = np.asarray(u[zero])
        _check_nonzero(ref, "power")
        return {zero: np.ones(ref.shape, dtype=np.complex128)}
    if n < 0:
        return _nd_recip(_nd_ipow(u, -n, order, zero), order, zero, what="power")
    acc = None
    base = u
    m = n
    while m:
        if m & 1:
            acc = base if acc is None else _nd_mul(acc, base, order)
        m >>= 1
        if m:
            base = _nd_mul(base, base, order)
    return acc


def _lift_nd_arrays(ast: ExprAst, centers: np.ndarray, order: int) -> dict:
    """Lift at a batch of centers, shape (P, n); values in the dict have shape (P,)."""
    n = ast.dims
    zero = (0,) * n
    P = centers.shape[0]

    def unit(axis: int) -> tuple[int, ...]:
        return tuple(1 if i == axis else 0 for i in range(n))

    def rec(node: Node) -> dict:
        if isinstance(node, (Const, NamedConst)):
            return {zero: np.full(P, node.value, dtype=np.complex128)}
        if isinstance(node, Var):
            out = {zero: centers[:, node.index].astype(np.complex128)}
            if order >= 1:
                out[unit(node.index)] = np.ones(P, dtype=np.complex128)
            return out
        if isinstance(node, Neg):
            return _nd_neg(rec(node.operand))
        if isinstance(node, Call):
            return _nd_apply_call(node.func, rec(node.arg), order, zero)
        if isinstance(node, BinOp):
            if node.op == "^":
                k = int_exponent(node.right)
                base = rec(node.left)
                if k is not None:
                    return _nd_ipow(base, k, order, zero)
                logu = _nd_apply_call("log", base, order, zero)
                return _nd_apply_call("exp", _nd_mul(rec(node.right), logu, order), order, zero)
            a = rec(node.left)
            b = rec(node.right)
            if node.op == "+":
                return _nd_add(a, b)
            if node.op == "-":
                return _nd_add(a, _nd_neg(b))
            if node.op == "*":
                return _nd_mul(a, b, order)
            return _nd_mul(a, _nd_recip(b, order, zero, what="division"), order)
        raise TypeError(f"not an AST node: {node!r}")

    return rec(ast.root)


# ---- public surface --------------------------------------------------------


def _validate_order(order: int) -> None:
    if not isinstance(order, int) or order < 0 or order > MAX_ORDER:
        raise ValidationError(f"jet order must be an integer in [0, {MAX_ORDER}], got {order!r}")


def lift(ast: ExprAst, center: Sequence[float] | float, order: int) -> Jet1D | JetND:
    """Jet of the expression about a real center.

    Parameters
    ----------
    ast : ExprAst
        Parsed expression.
    center : float or sequence of float
        Expansion point; length must equal ``ast.dims``.
    order : int
        Truncation order ``K``, ``0 <= K <= 64``.

    Returns
    -------
    Jet1D when ``ast.dims == 1``, otherwise JetND.

    Raises
    ------
    DomainError
        If any intermediate constant term leaves an elementary function's
        domain (division by zero, log/sqrt at zero or on the negative real
        axis).
    """
    _validate_order(order)
    if ast.dims == 1:
        x0 = _scalar_center(center)
        coeffs = _lift_1d_array(ast, np.array([x0]), order)[0]
        return Jet1D(coeffs=coeffs, center=x0)
    return lift_nd(ast, center, order)


def lift_nd(ast: ExprAst, center: Sequence[float] | float, order: int) -> JetND:
    """Multivariate jet about a real center; works for any ``ast.dims >= 1``."""
    _validate_order(order)
    if isinstance(center, (int, float)):
        center = (float(center),)
    pts = tuple(float(c) for c in center)
    if len(pts) != ast.dims:
        raise ValidationError(f"center has {len(pts)} coordinates, expression has {ast.dims}")
    arrays = _lift_nd_arrays(ast, np.array([pts]), order)
    coeffs = {k: complex(v[0]) for k, v in sorted(arrays.items())}
    return JetND(dims=ast.dims, order=order, coeffs=coeffs, center=pts)


def _scalar_center(center) -> float:
    if isinstance(center, (int, float)):
        return float(center)
    seq = tuple(center)
    if len(seq) != 1:
        raise ValidationError(f"expected a single real center, got {center!r}")
    return float(seq[0])
