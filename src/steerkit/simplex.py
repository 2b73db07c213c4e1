"""Phase-1 simplex for linear feasibility: find x >= 0 with A x = b.

Dense tableau with Bland's anti-cycling rule. Pivot elements and reduced
costs at or below 1e-9 count as zero: a pivot on a rounding-sized element
multiplies the tableau's error by its inverse. With a 1e-11 threshold, a
16 x 256 LHS problem pivoted on a 1.2e-11 element and drove a basic
variable to -7.5e-3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PhaseOneResult", "phase_one"]

_PIVOT_EPS = 1e-9


@dataclass(frozen=True)
class PhaseOneResult:
    feasible: bool
    x: np.ndarray
    residual: float  # max(phase-1 objective, max |A x - b|)
    iterations: int


def phase_one(A, b, tol: float = 1e-8, max_iter: int = 100_000) -> PhaseOneResult:
    """Minimize the sum of artificial variables for A x = b, x >= 0.

    residual is the larger of the final phase-1 objective and the largest
    equation error max |A x - b| of the returned x, and feasible means
    residual <= tol, so a feasible verdict always comes with an x that
    solves the system to within tol.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if b.size != m:
        raise ValueError(f"b has length {b.size}, expected {m}")

    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1
    b[neg] *= -1

    # Tableau: columns [x | artificials | rhs]; bottom row holds reduced
    # costs and minus the current objective.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    iters = 0
    while iters < max_iter:
        # Bland: entering = lowest-index column with negative reduced cost.
        enter = -1
        for j in range(n + m):
            if T[m, j] < -_PIVOT_EPS:
                enter = j
                break
        if enter < 0:
            break
        # Ratio test, ties broken by lowest basis index (Bland).
        leave = -1
        best = np.inf
        for i in range(m):
            if T[i, enter] > _PIVOT_EPS:
                ratio = T[i, -1] / T[i, enter]
                if ratio < best - _PIVOT_EPS or (
                    abs(ratio - best) <= _PIVOT_EPS
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            # Unbounded phase-1 cannot happen (objective bounded below by 0);
            # numerically treat as a stall.
            break
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(m + 1):
            if i != leave and abs(T[i, enter]) > 0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
        iters += 1

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = max(0.0, T[i, -1])
    residual = float(max(0.0, -T[m, -1], np.max(np.abs(A @ x - b), initial=0.0)))
    return PhaseOneResult(residual <= tol, x, residual, iters)
