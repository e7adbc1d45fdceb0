"""Result-matrix bookkeeping and the two scalar continual-learning metrics
read from it."""

from __future__ import annotations

import numpy as np


class ResultMatrix:
    """Lower-triangular accuracy record: R[t][j] is accuracy on task j after
    finishing task t (1-based, defined for j <= t)."""

    def __init__(self, T: int):
        if T < 1:
            raise ValueError("T must be >= 1")
        self.T = T
        self._R = np.full((T, T), np.nan)

    @classmethod
    def from_rows(cls, rows) -> "ResultMatrix":
        """Build from an iterable of rows; row t may carry >= t entries, only
        the defined region is kept."""
        rows = [list(r) for r in rows]
        rm = cls(len(rows))
        for t, row in enumerate(rows, start=1):
            if len(row) < t:
                raise ValueError(f"row {t} has fewer than {t} entries")
            for j in range(t):
                rm.set(t, j + 1, row[j])
        return rm

    def set(self, t: int, j: int, value: float) -> None:
        if not 1 <= j <= t <= self.T:
            raise ValueError(f"entry ({t},{j}) outside the defined region")
        self._R[t - 1, j - 1] = float(value)

    def get(self, t: int, j: int) -> float:
        if not 1 <= j <= t <= self.T:
            raise ValueError(f"entry ({t},{j}) outside the defined region")
        return float(self._R[t - 1, j - 1])

    def defined_entries(self):
        for t in range(1, self.T + 1):
            for j in range(1, t + 1):
                yield t, j, self.get(t, j)


def acc_t(R: ResultMatrix, t: int) -> float:
    """Average accuracy over the first t tasks after finishing task t.

    Divisor is t (not the full task count): this is the convention that
    matches published per-matrix averages and keeps the value in [0, 1]."""
    if not 1 <= t <= R.T:
        raise ValueError(f"t={t} out of range 1..{R.T}")
    return float(np.mean([R.get(t, j) for j in range(1, t + 1)]))


def bwt_t(R: ResultMatrix, t: int) -> float:
    """Mean accuracy change on old tasks: (1/(t-1)) sum_j R[t][j] - R[j][j]."""
    if t < 2:
        raise ValueError("BWT is undefined below t=2")
    if t > R.T:
        raise ValueError(f"t={t} out of range 2..{R.T}")
    return float(np.mean([R.get(t, j) - R.get(j, j) for j in range(1, t)]))
