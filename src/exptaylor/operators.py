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

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .jet import Jet1D, JetND
from .stirling import stage_matrix

POINT_CHUNK = 1024  # sample points per matrix product in stage_rows


@dataclass(frozen=True)
class OperatorSequence:
    """Cascade values ``values[j]`` for stages ``j = 0 .. N`` at one point."""

    lam: complex
    center: float
    values: np.ndarray  # complex128, shape (N+1,)


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
    running jet (dropping one order) and subtracts ``j`` times it.
    """
    lam = _check_lam(lam)
    L = coeffs.shape[-1]
    if count < 0 or count > L - 1:
        raise ValidationError(f"need jet order >= {count}, have {L - 1}")
    out = np.empty(coeffs.shape[:-1] + (count + 1,), dtype=np.complex128)
    cur = np.asarray(coeffs, dtype=np.complex128)
    out[..., 0] = cur[..., 0]
    inv = 1.0 / lam
    for j in range(count):
        m = cur.shape[-1] - 1
        deriv = cur[..., 1:] * np.arange(1, m + 1)
        cur = inv * deriv - j * cur[..., :m]
        out[..., j + 1] = cur[..., 0]
    return out


def d_lambda_recursive(jet: Jet1D, lam: complex, count: int) -> OperatorSequence:
    """Cascade stages 0..count at the jet's center, by the defining recursion.

    Requires ``jet.order >= count``: every stage costs one derivative.
    """
    values = cascade_values(jet.coeffs, lam, count)
    return OperatorSequence(lam=complex(lam), center=jet.center, values=values)


def d_lambda_stirling(jet: Jet1D, lam: complex, count: int) -> OperatorSequence:
    """Cascade stages 0..count via the signed-Stirling expansion.

    Stage ``N`` is ``sum_m s(N, m) m! lam^(-m) c_m`` with ``c_m`` the
    normalized jet coefficients: ``stage_matrix(count) @ (lam^(-m) c)``.
    """
    lam = _check_lam(lam)
    if count < 0 or count > jet.order:
        raise ValidationError(f"need jet order >= {count}, have {jet.order}")
    values = stage_matrix(count) @ (_inverse_powers(lam, count) * jet.coeffs[: count + 1])
    return OperatorSequence(lam=lam, center=jet.center, values=values)


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


def stage_rows(arrays: dict, gammas: Sequence[tuple[int, ...]], lam: complex) -> Iterator[np.ndarray]:
    """Cascade values for the multi-indices ``gammas`` over a batch of points.

    ``arrays`` maps multi-indices to normalized jet coefficients, each of
    shape ``(P,)``, as the batched n-D lift returns them; it must hold every
    ``m`` with ``|m| <= max |g|`` that is nonzero.  The row weights
    ``W[g, m] = prod_i S[g_i, m_i]`` are built once; then, for each chunk of
    at most ``POINT_CHUNK`` points, the stored coefficients are scaled by
    ``lam^(-|m|)`` and ``W @ values`` is yielded, an array of shape
    ``(len(gammas), chunk)`` whose row ``r`` holds stage ``gammas[r]``.
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
    points = len(arrays[keys[0]]) if keys else 0
    for lo in range(0, points, POINT_CHUNK):
        hi = min(lo + POINT_CHUNK, points)
        values = np.empty((len(keys), hi - lo), dtype=np.complex128)
        for r, m in enumerate(keys):
            values[r] = arrays[m][lo:hi] * scale[r]
        # a real matrix times complex columns: one real product on the interleaved parts
        yield (W @ values.view(np.float64)).view(np.complex128)
