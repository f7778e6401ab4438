"""The lambda-scaled derivative cascade applied to jets.

For nonzero complex ``lam`` the cascade starts at the identity and steps by

    next = (1/lam) * d/dx (current) - j * (current)        (j = 0, 1, ...)

so stage ``j`` multiplies ``exp(m*lam*x)`` by ``m (m-1) ... (m-j+1)``.  Over
plain derivatives, with signed first-kind Stirling numbers:

    stage N  =  sum_{m=1..N} s(N, m) * lam^(-m) * d^m/dx^m     (N >= 1)

one lower-triangular matrix, ``stirling.stage_matrix``, applied to the jet
scaled by ``lam^(-m)``, and along each axis in n dimensions.  Every command
stages through it: ``stage_tensor`` gives every stage at one point in 1 to 4
variables, ``stirling_rows`` (1-D) and ``stage_rows`` (n-D) chosen stages
over a batch.  The recursion, ``cascade_values``, runs in no command; the
tests hold the matrix to it as the cross-check of the two forms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_int
from .expr import MAX_DIMS
from .jet import MAX_ND_ORDER, MAX_ORDER, _digits, _layout
from .stirling import stage_matrix


def _check_lam(lam: complex) -> complex:
    lam = complex(lam)
    if lam == 0:
        raise ValidationError("lam must be nonzero")
    return lam


def _inverse_powers(lam: complex, k: int) -> np.ndarray:
    """``lam^(-j)`` for ``j = 0 .. k`` by repeated Python division, which rounds
    ``(a i) / (b i)`` once where numpy's may round twice; printed digits depend on it."""
    out = [1.0]
    for _ in range(k):
        out.append(out[-1] / lam)
    return np.array(out)


def cascade_values(coeffs: np.ndarray, lam: complex, count: int) -> np.ndarray:
    """Stage values 0..count from normalized jet coefficients ``coeffs[..., j] = f^(j)(x)/j!``, batched; the last
    axis must have length at least ``count + 1``, and entry ``[..., j]`` of the result is the stage-``j`` value.
    This is the recursion path: each step differentiates the running jet (dropping one order) and subtracts ``j``
    times it, coefficient-major, and the result is a view of that array.  The stages are real when the
    coefficients are and ``1/lam`` has a zero imaginary part, with the bits of the complex ones' real parts up to
    the sign of an exact zero."""
    inv = 1.0 / _check_lam(lam)
    inv = inv.real if inv.imag == 0 else inv
    L = coeffs.shape[-1]
    if count < 0 or count > L - 1:
        raise ValidationError(f"need jet order >= {count}, have {L - 1}")
    # a lifted jet is already stored coefficient-major: moving its axis copies nothing
    cur = np.moveaxis(np.asarray(coeffs), -1, 0)
    steps = np.arange(1, L).reshape((-1,) + (1,) * (cur.ndim - 1))
    out = np.empty((count + 1,) + cur.shape[1:], dtype=np.result_type(cur, inv))
    out[0] = cur[0]
    for j in range(count):
        m = len(cur) - 1
        # named, not inlined: numpy may reuse a large temporary as the output
        # of ``inv * temp`` with the operands swapped, and its fused complex
        # product does not commute bit for bit
        deriv = cur[1:] * steps[:m]
        cur = inv * deriv - j * cur[:m]
        out[j + 1] = cur[0]
    return np.moveaxis(out, 0, -1)


def stirling_rows(coeffs: np.ndarray, orders: Sequence[int], lam: complex) -> np.ndarray:
    """Stages ``orders`` (each >= 1), shape ``(len(orders),) + coeffs.shape[:-1]``, of jets whose last axis holds
    ``c_0 .. c_K``; the one-axis twin of :func:`stage_rows`.  Row ``N``, ``sum_m S[N, m] lam^(-m) c_m``, is
    nested in ``q = 1/lam`` by Horner's rule, one numpy operation per term: no power of ``q`` is formed, so an
    exact-zero ``c_m`` never meets an overflowed ``lam^(-m)``, and no BLAS call splits the sum.  The rows are nested
    together from the top order down, each joining at its own order, so row ``N`` reads ``c_1 .. c_N`` alone and has
    the bits of ``stirling_rows(coeffs, [N], lam)``: each product goes to a second buffer, as numpy's in-place
    complex product of one element rounds apart.  They are real when the coefficients and ``1/lam`` are."""
    q = 1.0 / _check_lam(lam)
    q = q.real if q.imag == 0 else q
    c = np.moveaxis(np.asarray(coeffs), -1, 0)  # a lifted jet is coefficient-major: each c[m] is contiguous
    rows = sorted(set(orders))
    if not rows or rows[0] < 1 or rows[-1] > len(c) - 1:
        raise ValidationError(f"need orders in [1, {len(c) - 1}], got {list(orders)}")
    S = stage_matrix(rows[-1])[rows].T.reshape((rows[-1] + 1, len(rows)) + (1,) * (c.ndim - 1))  # S[m]: column m
    acc, spare = np.empty((2, len(rows)) + c.shape[1:], dtype=np.result_type(c, q))
    lo = len(rows)  # acc[lo:] holds the rows begun so far, whose orders exceed m
    for m in range(rows[-1], 0, -1):
        np.add(np.multiply(acc[lo:], q, out=spare[lo:]), S[m, lo:] * c[m], out=spare[lo:])
        acc, spare = spare, acc
        if lo and rows[lo - 1] == m:
            lo -= 1
            acc[lo] = S[m, lo] * c[m]
    return np.multiply(acc, q, out=spare)[[rows.index(n) for n in orders]]


def stage_tensor(coeffs: np.ndarray, lam: complex) -> np.ndarray:
    """Every stage ``out[g]`` of a dense ``(K+1,) * n`` array of normalized jet coefficients, ``n`` from 1 to 4.

    ``coeffs`` is a 1-D jet's coefficients, or the ``(order,) * n`` tensor of an n-D jet.  Each nonzero entry
    ``m`` is scaled by ``lam^(-|m|)`` (only those, so an exact zero never meets an overflowed power) and
    ``stage_matrix(K)`` is applied along every axis.  Stage ``g`` reads the entries ``m <= g`` alone, so it is
    exact where the array holds all of them: ``|g| < order`` for a jet truncated at total degree ``order - 1``.
    The stages are real when the coefficients are and ``1/lam`` has a zero imaginary part.
    """
    lam = _check_lam(lam)
    c = np.asarray(coeffs)
    if c.ndim < 1 or len(set(c.shape)) != 1:
        raise ValidationError(f"need a (K+1,) * n coefficient array, got shape {c.shape}")
    K = len(c) - 1
    inv = _inverse_powers(lam, K * c.ndim)
    inv = inv.real if (1.0 / lam).imag == 0 else inv.astype(np.complex128)  # K = 0 gives a real [1.0]
    nz = np.nonzero(c)
    stack = np.zeros((1,) + c.shape, dtype=np.result_type(c, inv))  # the unit axis keeps 1-D arrays a stack too
    stack[(0,) + nz] = c[nz] * inv[sum(nz)]
    # a stack of (K+1)-square products per axis: no single BLAS call is
    # large enough to be split across threads
    S = stage_matrix(K)
    for axis in range(1, stack.ndim):
        stack = np.moveaxis(S @ np.moveaxis(stack, axis, -2), -2, axis)
    return stack[0]


@lru_cache(maxsize=None)
def _stage_weights(n: int, N: int) -> np.ndarray:
    """The row weights ``W[g, m] = prod_i S[g_i, m_i]`` of every ``|g| = N`` (rows) over every ``|m| <= N`` (columns),
    both in the lift's layout order (``jet._layout``), built once per ``(n, N)`` and read-only.  The product runs
    axis by axis from the first, so an entry past ``2^53`` rounds as it always has.  The largest, ``n = 4`` and
    ``N = 16``, is 969 by 4,845 (37.6 MB); every ``(n, N)`` a caller can ask for holds 110 MB in all."""
    starts = _layout(n, N + 1)[1]
    G, M = (_digits(n, N + 1, np.arange(lo, starts[N + 1])) for lo in (starts[N], 0))
    S = stage_matrix(N)
    # one row gather and one column gather per axis: a 2-D fancy index costs more than both;
    # past the first axis in blocks of about 2^20 weights (8 MB), so no second full-size array is formed
    W = S[G[:, 0]][:, M[:, 0]]
    step = max(1, 2**20 // len(M))
    for lo in range(0, len(G), step):
        for axis in range(1, n):
            W[lo : lo + step] *= S[G[lo : lo + step, axis]][:, M[:, axis]]
    W.flags.writeable = False
    return W


def stage_rows(rows: np.ndarray, values: np.ndarray, n: int, N: int, lam: complex) -> np.ndarray:
    """Every stage of degree ``N`` in ``n`` variables over a batch of points, shape ``(C(N+n-1, n-1), P)``, its
    rows in layout order (``jet._layout``).

    ``rows``, increasing, and ``values``, ``(len(rows), P)``, are the n-D lift's rows and their normalized jet
    coefficients (``jet._lift_nd_arrays``).  They hold every nonzero ``m`` with ``|m| <= N``, and rows past that
    degree are dropped.  The rest are scaled by ``lam^(-|m|)`` and multiplied by the cached weights
    ``_stage_weights(n, N)``, whose columns are gathered only where the lift reached part of the layout.  For a real
    ``1/lam`` and real values the product is float64, the complex product's real parts at half the flops: bit for
    bit over a full chunk, though BLAS may round a product's last few columns apart.  Otherwise it is a real matrix
    times interleaved complex columns.  The caller bounds ``P`` (``seriesnd.POINT_CHUNK``).
    """
    lam = _check_lam(lam)
    check_int("n", n, 1, MAX_DIMS)
    check_int("N", N, 0, MAX_ORDER if n == 1 else MAX_ND_ORDER)
    rows, values = np.asarray(rows, dtype=np.intp), np.asarray(values)
    if rows.ndim != 1 or values.ndim != 2 or len(rows) != len(values):
        raise ValidationError(f"need rows (k,) and values (k, P), got rows {rows.shape} and values {values.shape}")
    starts = _layout(n, N + 1)[1]
    k = int(np.searchsorted(rows, starts[N + 1]))
    rows, values, W = rows[:k], values[:k], _stage_weights(n, N)
    if k < W.shape[1]:
        W = W[:, rows]
    inv = _inverse_powers(lam, N)
    inv = inv.real if (1.0 / lam).imag == 0 else inv.astype(np.complex128)  # N = 0 gives a real [1.0]
    values = values * inv[np.searchsorted(starts, rows, side="right") - 1][:, None]
    if values.dtype == np.float64:
        return W @ values
    # a real matrix times complex columns: one real product on the interleaved parts
    return (W @ values.view(np.float64)).view(np.complex128)
