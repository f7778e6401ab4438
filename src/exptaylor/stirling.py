"""Stirling numbers of the first kind, factorial-scaled.

The signed integers ``s(n, k)`` are defined by
``x(x-1)...(x-n+1) = sum_k s(n, k) x^k``.  Two float forms are kept
deliberately separate:

* :func:`stage_matrix` is the float matrix ``S[n, m] = s(n, m) * m!`` that
  the numerics use, built exactly by ``S(n+1, m) = m S(n, m-1) - n S(n, m)``
  and rounded once per entry.  Stage ``n`` of the lambda cascade is
  ``sum_m S[n, m] lam^(-m) c_m`` over normalized jet coefficients ``c``.

* :func:`ratio_rows` yields the float ratios ``u_k[j] = |s(j, k)| / j!``,
  one array per ``k``, row ``k`` at position ``k``.  Dividing the
  recurrence of the unsigned numbers by ``(j + 1)!`` gives
  ``(j + 1) u_k[j+1] = u_{k-1}[j] + j u_k[j]``, which telescopes to

      ``j * u_k[j] = sum_{i < j} u_{k-1}[i]``.

  So each row is one cumulative sum of the previous row, followed by one
  division by ``j``.  Every term is positive, so the sum is stable and
  usable out to ``j`` in the hundreds of thousands, far past where either
  ``|s(j, k)|`` or ``j!`` overflows a double.  The rows are streamed one
  ``k`` at a time; they feed the slowly convergent log-2 sums.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import check_int

# |s(n, m)| m! <= (n!)^2 is finite in doubles up to here (and overflows by n = 100)
MAX_MATRIX_DEPTH = 64
MAX_RATIO_K = 8
MAX_RATIO_J = 10**6
# j is made a chunk at a time, so no third row-length array is alive
RATIO_DIVIDE_CHUNK = 8192


@lru_cache(maxsize=None)
def stage_matrix(k_max: int) -> np.ndarray:
    """Read-only lower-triangular ``S[n, m] = s(n, m) * m!`` for ``0 <= m <= n <= k_max``.

    Every entry is the exact integer rounded once to a double.  The result
    is cached per ``k_max`` and shared by every caller.

    Parameters
    ----------
    k_max : int
        Largest row index, ``0 <= k_max <= 64``.
    """
    check_int("k_max", k_max, 0, MAX_MATRIX_DEPTH)
    out = np.zeros((k_max + 1, k_max + 1))
    row = [1]  # S(n, m) for 0 <= m <= n in Python integers
    for n in range(k_max + 1):
        out[n, : n + 1] = [float(v) for v in row]
        # S(n+1, m) = m S(n, m-1) - n S(n, m), with S(n, -1) = S(n, n+1) = 0
        row = [m * a - n * b for m, (a, b) in enumerate(zip([0, *row], [*row, 0]))]
    out.setflags(write=False)
    return out


def ratio_rows(k_max: int, j_max: int) -> Iterator[np.ndarray]:
    """Yield float ratio rows ``|s(j, k)| / j!`` for ``k = 0 .. k_max`` in order.

    Row ``k`` is ``cumsum`` of row ``k - 1``, shifted by one and divided by
    ``j = 1 .. j_max``.  The ``k = 0`` row is the trivial ``(1, 0, 0, ...)``.
    Each row is a fresh array indexed by ``j``, and the generator keeps
    only the row it last yielded, so a caller that drops each row holds at
    most two rows at once.  A row's first ``n`` entries do not depend on ``j_max``.  The
    arguments are checked on the first ``next``.

    Parameters
    ----------
    k_max : int
        Largest ``k``, ``1 <= k_max <= 8``.
    j_max : int
        Largest ``j``, ``k_max <= j_max <= 10**6``.
    """
    check_int("k_max", k_max, 1, MAX_RATIO_K)
    check_int("j_max", j_max, k_max, MAX_RATIO_J)

    prev = np.zeros(j_max + 1)
    prev[0] = 1.0
    yield prev
    for k in range(1, k_max + 1):
        cur = np.empty(j_max + 1)
        cur[0] = 0.0
        # j * u_k[j] = sum_{i<j} u_{k-1}[i]: positive terms, summed in order of i
        np.cumsum(prev[:-1], out=cur[1:])
        for lo in range(1, j_max + 1, RATIO_DIVIDE_CHUNK):
            hi = min(lo + RATIO_DIVIDE_CHUNK, j_max + 1)
            cur[lo:hi] /= np.arange(lo, hi, dtype=float)
        prev = cur
        yield cur

