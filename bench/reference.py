"""Independent reference values for the benchmark's output oracle.

Coefficients in ``w = exp(lam (x - c)) - 1`` are computed by composing power
series in ``w`` directly.  The two primitives are known in closed form,

    x        = c + log(1 + w) / lam
    exp(a x) = exp(a c) * (1 + w)^(a / lam)     (a binomial series),

and sums, products, reciprocals and logarithms of truncated series follow.
This shares no code and no algorithm with the program, which lifts Taylor
jets in ``x`` and maps them through the stage cascade.  The same algebra over
``h = x - c`` gives plain Taylor coefficients, from which the roundoff scale
of the program's stage values is formed.

Every series is an array of shape ``(P, K+1)``: one row per expansion center.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


class Basis:
    """Truncated power series about a batch of real centers.

    ``lam=None`` selects the Taylor variable ``h = x - c``; otherwise the
    variable is ``w = exp(lam (x - c)) - 1``.
    """

    def __init__(self, centers, order: int, lam: complex | None = None):
        self.c = np.asarray(centers, dtype=np.float64).reshape(-1)
        self.L = order + 1
        self.lam = None if lam is None else complex(lam)

    def const(self, v) -> np.ndarray:
        out = np.zeros((len(self.c), self.L), dtype=np.complex128)
        out[:, 0] = v
        return out

    def x(self) -> np.ndarray:
        out = self.const(self.c)
        if self.L > 1:
            if self.lam is None:
                out[:, 1] = 1.0
            else:
                j = np.arange(1, self.L)
                out[:, 1:] = (-1.0) ** (j - 1) / (j * self.lam)
        return out

    def exp(self, a: complex) -> np.ndarray:
        """Series of ``exp(a x)``."""
        row = np.empty(self.L, dtype=np.complex128)
        row[0] = 1.0
        alpha = a if self.lam is None else a / self.lam
        for j in range(1, self.L):
            step = alpha / j if self.lam is None else (alpha - (j - 1)) / j
            row[j] = row[j - 1] * step
        return np.exp(a * self.c)[:, None] * row[None, :]


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    L = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    for i in range(L):
        out[:, i:] += a[:, i : i + 1] * b[:, : L - i]
    return out


def recip(b: np.ndarray) -> np.ndarray:
    L = b.shape[-1]
    out = np.zeros_like(b)
    out[:, 0] = 1.0 / b[:, 0]
    for k in range(1, L):
        out[:, k] = -np.sum(b[:, 1 : k + 1] * out[:, k - 1 :: -1], axis=-1) / b[:, 0]
    return out


def log(g: np.ndarray) -> np.ndarray:
    """Principal ``log`` of a series whose constant term is off the cut."""
    L = g.shape[-1]
    out = np.zeros_like(g)
    out[:, 0] = np.log(g[:, 0])
    for k in range(1, L):
        i = np.arange(1, k)
        acc = np.sum(i * out[:, 1:k] * g[:, k - 1 : 0 : -1], axis=-1) if k > 1 else 0.0
        out[:, k] = (g[:, k] - acc / k) / g[:, 0]
    return out


@dataclass(frozen=True)
class Fn1:
    """A one-variable test function: its CLI source, its value, and its series."""

    source: str
    value: Callable[[float], complex]
    series: Callable[[Basis], np.ndarray]


def _num(v: float) -> str:
    v = float(v)
    return str(int(v)) if v.is_integer() else repr(v)


def cos_periodic(T: float = 1.0) -> Fn1:
    arg = "2*pi*x" if T == 1.0 else f"2*pi*x/{_num(T)}"
    a = 1j * TWO_PI / T
    return Fn1(
        source=f"cos({arg})",
        value=lambda x: cmath.cos(TWO_PI * x / T),
        series=lambda B: (B.exp(a) + B.exp(-a)) / 2,
    )


def recip_cos(T: float = 1.0) -> Fn1:
    arg = "2*pi*x" if T == 1.0 else f"2*pi*x/{_num(T)}"
    a = 1j * TWO_PI / T
    return Fn1(
        source=f"1/(3+cos({arg}))",
        value=lambda x: 1.0 / (3.0 + cmath.cos(TWO_PI * x / T)),
        series=lambda B: recip(B.const(3.0) + (B.exp(a) + B.exp(-a)) / 2),
    )


def identity() -> Fn1:
    return Fn1("x", lambda x: complex(x), lambda B: B.x())


def square() -> Fn1:
    return Fn1("x^2", lambda x: complex(x) ** 2, lambda B: mul(B.x(), B.x()))


def sin_cubic() -> Fn1:
    def series(B: Basis) -> np.ndarray:
        X = B.x()
        return (B.exp(1j) - B.exp(-1j)) / 2j + mul(mul(X, X), X)

    return Fn1("sin(x) + x^3", lambda x: cmath.sin(x) + complex(x) ** 3, series)


def exp_scaled(a: float) -> Fn1:
    source = "exp(x)" if a == 1.0 else f"exp({_num(a)}*x)"
    return Fn1(source, lambda x: cmath.exp(a * x), lambda B: B.exp(a))


def log_shift() -> Fn1:
    return Fn1(
        "log(2+x)",
        lambda x: cmath.log(2.0 + x),
        lambda B: log(B.const(2.0) + B.x()),
    )


# ---- derived reference quantities -------------------------------------------


@functools.lru_cache(maxsize=None)
def _stirling_weights(n_max: int) -> np.ndarray:
    """``|s(n, m)| * m!`` for ``0 <= m, n <= n_max``, built from exact integers."""
    rows = [[1]]
    for n in range(n_max):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[m - 1] + n * prev[m] for m in range(1, n + 2)])
    out = np.zeros((n_max + 1, n_max + 1))
    for n, row in enumerate(rows):
        out[n, : n + 1] = [float(v * math.factorial(m)) for m, v in enumerate(row)]
    return out


def coefficients(fn: Fn1, lam: complex, centers: Sequence[float], order: int) -> np.ndarray:
    """``w``-coefficients ``c[0..order]`` about every center, shape ``(P, order+1)``."""
    return fn.series(Basis(centers, order, lam))


def stage_values(fn: Fn1, lam: complex, centers: Sequence[float], order: int) -> np.ndarray:
    """Stage values ``v_n = n! c_n`` for ``n = 0..order`` about every center."""
    facts = np.array([math.factorial(n) for n in range(order + 1)], dtype=np.float64)
    return coefficients(fn, lam, centers, order) * facts


def roundoff_scales(fn: Fn1, lam: complex, centers: Sequence[float], order: int) -> np.ndarray:
    """Magnitude of the terms that sum to each stage value, shape ``(P, order+1)``.

    Stage ``n`` expands as ``sum_m s(n, m) lam^-m m! a_m`` over the Taylor
    coefficients ``a_m``; the same sum over absolute values bounds every
    intermediate of the cascade as well, so rounding error in a computed
    stage value is a small multiple of this scale.
    """
    a = np.abs(fn.series(Basis(centers, order, None)))
    weights = _stirling_weights(order) * abs(lam) ** -np.arange(order + 1.0)
    return a @ weights.T


def epsilon_sup(lam: complex, r: float) -> float:
    """Closed-form ``sup |exp(lam z) - 1|`` over ``|z| <= r`` for real or imaginary ``lam``."""
    if lam.imag == 0:
        return math.expm1(abs(lam.real) * r)
    if lam.real == 0:
        return 2.0 * math.sin(min(abs(lam.imag) * r / 2.0, math.pi / 2.0))
    raise ValueError("reference sup needs a purely real or purely imaginary lambda")
