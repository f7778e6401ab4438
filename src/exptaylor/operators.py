"""The lambda-scaled derivative cascade applied to jets.

For nonzero complex ``lam`` the cascade starts at the identity and steps by

    next = (1/lam) * d/dx (current) - j * (current)        (j = 0, 1, ...)

so stage ``j`` applied to ``exp(m*lam*x)`` multiplies it by the falling
factorial ``m (m-1) ... (m-j+1)``; stages beyond ``m`` annihilate it.  The
same operator expands over plain derivatives with signed first-kind
Stirling numbers:

    stage N  =  sum_{m=1..N} s(N, m) * lam^(-m) * d^m/dx^m     (N >= 1)

which is one lower-triangular matrix, ``stirling.stage_matrix``, applied
to the jet scaled by ``lam^(-m)``.  Both forms are implemented; they must
agree to rounding, which the test suite uses as a cross-check.  In n
dimensions the cascade factorizes per axis, so the Stirling form is the
same matrix applied along each axis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .jet import Jet1D, JetND
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
    """Stage values 0..count from normalized jet coefficients, batched.

    ``coeffs[..., j]`` is ``f^(j)(x)/j!``; the last axis must have length
    at least ``count + 1``.  Returns an array of shape ``(..., count+1)``
    whose entry ``[..., j]`` is the stage-``j`` cascade value at the jet's
    center.  This is the recursion path: each step differentiates the
    running jet (dropping one order) and subtracts ``j`` times it.  The steps
    run coefficient-major and the result is a view of that array.

    The stages are real when the coefficients are and ``1/lam`` has a zero
    imaginary part, and complex otherwise; a real stage has the bits of the
    complex one's real part, up to the sign of an exact zero.
    """
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


def d_lambda_stirling(jet: Jet1D, lam: complex, count: int) -> np.ndarray:
    """Cascade stages 0..count at the jet's center, via the signed-Stirling expansion.

    Stage ``N`` is ``sum_m s(N, m) m! lam^(-m) c_m`` with ``c_m`` the
    normalized jet coefficients: ``stage_matrix(count) @ (lam^(-m) c)``.
    The recursion path is :func:`cascade_values` on ``jet.coeffs``.
    """
    lam = _check_lam(lam)
    if count < 0 or count > jet.order:
        raise ValidationError(f"need jet order >= {count}, have {jet.order}")
    return stage_matrix(count) @ (_inverse_powers(lam, count) * jet.coeffs[: count + 1])


def stage_tensor(jet: JetND, lam: complex, order: int) -> np.ndarray:
    """Cascade values ``out[g]`` for every multi-index ``g`` with ``|g| < order``.

    The jet coefficients go into a dense tensor of shape ``(order,) * dims``,
    each scaled by ``lam^(-|m|)``; ``stage_matrix(order - 1)`` is then applied
    along every axis.  Entries with ``|g| >= order`` are zero.  Requires
    ``jet.order >= order - 1``.
    """
    lam = _check_lam(lam)
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if jet.order < order - 1:
        raise ValidationError(f"need jet order >= {order - 1}, have {jet.order}")
    inv = _inverse_powers(lam, order - 1)
    out = np.zeros((order,) * jet.dims, dtype=np.complex128)
    # only stored entries are scaled, so an absent (zero) one never meets an
    # overflowed power of 1/lam
    for m, c in jet.coeffs.items():
        if sum(m) < order:
            out[m] = c * inv[sum(m)]
    # a stack of order-by-order products per axis: no single BLAS call is
    # large enough to be split across threads
    S = stage_matrix(order - 1)
    stack = out[None]  # the leading unit axis keeps 1-D jets a stack too
    for axis in range(1, jet.dims + 1):
        stack = np.moveaxis(S @ np.moveaxis(stack, axis, -2), -2, axis)
    out = stack[0]
    out[np.indices(out.shape).sum(axis=0) >= order] = 0
    return out


def stage_rows(arrays: dict, gammas: Sequence[tuple[int, ...]], lam: complex) -> np.ndarray:
    """Cascade values for the multi-indices ``gammas`` over a batch of points.

    ``arrays`` maps multi-indices to normalized jet coefficients, each of
    shape ``(P,)``, as the batched n-D lift returns them; it must hold every
    ``m`` with ``|m| <= max |g|`` that is nonzero.  The stored coefficients
    are scaled by ``lam^(-|m|)`` and multiplied by the row weights
    ``W[g, m] = prod_i S[g_i, m_i]``: the result has shape
    ``(len(gammas), P)`` and its row ``r`` holds stage ``gammas[r]``.  The
    caller bounds ``P`` (``seriesnd.POINT_CHUNK``), since the scaled copy
    holds every stored coefficient of every point.
    """
    lam = _check_lam(lam)
    top = max(sum(g) for g in gammas)
    keys = [m for m in arrays if sum(m) <= top]
    S = stage_matrix(top)
    G = np.array(gammas, dtype=np.intp).reshape(len(gammas), -1)
    M = np.array(keys, dtype=np.intp).reshape(len(keys), G.shape[1])
    W = np.ones((len(gammas), len(keys)))
    for axis in range(G.shape[1]):
        W *= S[G[:, axis, None], M[None, :, axis]]
    scale = _inverse_powers(lam, top)[M.sum(axis=1)]
    values = np.array([arrays[m] for m in keys], dtype=np.complex128)
    values *= scale[:, None]
    # a real matrix times complex columns: one real product on the interleaved parts
    return (W @ values.view(np.float64)).view(np.complex128)
