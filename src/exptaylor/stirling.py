"""Stirling numbers of the first kind, exact and factorial-scaled.

Three representations are kept deliberately separate:

* :class:`StirlingTable` holds the signed integers ``s(n, k)`` defined by
  ``x(x-1)...(x-n+1) = sum_k s(n, k) x^k``, built exactly with Python
  integers via ``s(n+1, k) = s(n, k-1) - n * s(n, k)``.  Exact tables are
  capped at ``n <= 256``; the entries grow factorially and the table is
  meant for operator coefficients, not for long sums.

* :func:`stage_matrix` is the float image of the exact table that the
  numerics use: ``S[n, m] = s(n, m) * m!``, each entry rounded once from the
  exact integer.  Stage ``n`` of the lambda cascade is
  ``sum_m S[n, m] lam^(-m) c_m`` over normalized jet coefficients ``c``.

* :class:`StirlingRatioRow` holds the float ratios ``u[j] = |s(j, k)| / j!``
  for a fixed ``k``.  The recurrence

      ``u[j+1] = (u_km1[j] + j * u[j]) / (j + 1)``

  (where ``u_km1`` is the row for ``k - 1``) has all-positive terms, so it
  is stable and usable out to ``j`` in the hundreds of thousands, far past
  where either ``|s(j, k)|`` or ``j!`` overflows a double.  These rows feed
  the slowly convergent log-2 sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TextIO

import numpy as np

from .errors import ValidationError

MAX_TABLE_DEPTH = 256
# |s(n, m)| m! <= (n!)^2 is finite in doubles up to here (and overflows by n = 100)
MAX_MATRIX_DEPTH = 64
MAX_RATIO_K = 8
MAX_RATIO_J = 10**6


@dataclass(frozen=True)
class StirlingTable:
    """Triangular table of signed first-kind Stirling numbers.

    ``rows[n][k]`` is ``s(n, k)`` for ``0 <= k <= n <= n_max``, exact.
    """

    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def value(self, n: int, k: int) -> int:
        """Signed ``s(n, k)``; zero outside the triangle ``0 <= k <= n``."""
        if n < 0 or n > self.n_max:
            raise ValidationError(f"row {n} not in table (n_max={self.n_max})")
        if k < 0 or k > n:
            return 0
        return self.rows[n][k]

    def row(self, n: int) -> tuple[int, ...]:
        if n < 0 or n > self.n_max:
            raise ValidationError(f"row {n} not in table (n_max={self.n_max})")
        return self.rows[n]


@dataclass(frozen=True)
class StirlingRatioRow:
    """Float row ``values[j] = |s(j, k)| / j!`` for ``0 <= j <= j_max``."""

    k: int
    values: np.ndarray

    @property
    def j_max(self) -> int:
        return len(self.values) - 1


def build_table(n_max: int) -> StirlingTable:
    """Build the exact signed table up to row ``n_max``.

    Parameters
    ----------
    n_max : int
        Largest row index, ``0 <= n_max <= 256``.
    """
    if not isinstance(n_max, int) or n_max < 0 or n_max > MAX_TABLE_DEPTH:
        raise ValidationError(f"n_max must be an integer in [0, {MAX_TABLE_DEPTH}], got {n_max!r}")
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(n_max):
        prev = rows[n]
        nxt = [0] * (n + 2)
        for k in range(1, n + 2):
            # s(n+1, k) = s(n, k-1) - n * s(n, k); out-of-range entries are 0
            left = prev[k - 1] if k - 1 <= n else 0
            right = prev[k] if k <= n else 0
            nxt[k] = left - n * right
        rows.append(tuple(nxt))
    return StirlingTable(n_max=n_max, rows=tuple(rows))


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
    if not isinstance(k_max, int) or k_max < 0 or k_max > MAX_MATRIX_DEPTH:
        raise ValidationError(f"k_max must be an integer in [0, {MAX_MATRIX_DEPTH}], got {k_max!r}")
    table = build_table(k_max)
    out = np.zeros((k_max + 1, k_max + 1))
    for n, row in enumerate(table.rows):
        out[n, : n + 1] = [float(v * math.factorial(m)) for m, v in enumerate(row)]
    out.setflags(write=False)
    return out


def build_ratio_rows(k_max: int, j_max: int) -> list[StirlingRatioRow]:
    """Build float ratio rows ``|s(j, k)| / j!`` for ``k = 0 .. k_max``.

    Returns ``k_max + 1`` rows so callers can index the result by ``k``
    directly; the ``k = 0`` row is the trivial ``(1, 0, 0, ...)``.

    Parameters
    ----------
    k_max : int
        Largest ``k``, ``1 <= k_max <= 8``.
    j_max : int
        Largest ``j``, ``k_max <= j_max <= 10**6``.
    """
    if not isinstance(k_max, int) or k_max < 1 or k_max > MAX_RATIO_K:
        raise ValidationError(f"k_max must be an integer in [1, {MAX_RATIO_K}], got {k_max!r}")
    if not isinstance(j_max, int) or j_max < k_max or j_max > MAX_RATIO_J:
        raise ValidationError(f"j_max must be an integer in [{k_max}, {MAX_RATIO_J}], got {j_max!r}")

    out = np.zeros((k_max + 1, j_max + 1))
    out[0, 0] = 1.0
    # March j upward keeping the previous column vector as plain floats;
    # each u[j+1, k] touches only u[j, k-1] and u[j, k].
    cur = [0.0] * (k_max + 1)
    cur[0] = 1.0
    for j in range(j_max):
        nxt = [0.0] * (k_max + 1)
        inv = 1.0 / (j + 1)
        for k in range(1, k_max + 1):
            nxt[k] = (cur[k - 1] + j * cur[k]) * inv
        out[1:, j + 1] = nxt[1:]
        cur = nxt
    return [StirlingRatioRow(k=k, values=out[k]) for k in range(k_max + 1)]


def dump_row_csv(table: StirlingTable, n: int, stream: TextIO) -> None:
    """Write row ``n`` of the exact table as ``n,k,s_nk`` CSV lines.

    Values are exact decimal integers; a header line is included.
    """
    row = table.row(n)
    stream.write("n,k,s_nk\n")
    for k, v in enumerate(row):
        stream.write(f"{n},{k},{v}\n")
