"""Phase-1 simplex for linear feasibility: find x >= 0 with A x = b.

Revised simplex with Bland's anti-cycling rule. Rows with b < 0 are
negated, an artificial variable per row starts as the basis, and the
method keeps an explicit m x m basis inverse B^-1 with the basic values
x_B. Each pivot recomputes the dual y = c_B B^-1 and from it every
reduced cost in one matvec, -y A for the x columns and 1 - y for the
artificials; enters the lowest-index column below -1e-9; ratio-tests the
entering column B^-1 A_j with ties going to the lowest basis index; and
updates B^-1 and x_B by one O(m^2) eta step. The pivots are those of a
dense tableau under the same rule, but a pivot reads A once instead of
rewriting every tableau row.

Pivot elements and reduced costs at or below 1e-9 count as zero: a pivot
on a rounding-sized element multiplies the basis inverse's error by its
inverse. With a 1e-11 threshold, a 16 x 256 LHS problem pivoted on a
1.2e-11 element and drove a basic variable to -7.5e-3.
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

    sign = np.where(b < 0, -1.0, 1.0)
    A = A * sign[:, None]
    b = b * sign
    # Columns are [x | artificials], each artificial costing 1; basis[i] is
    # the column basic in row i.
    cols = np.hstack([A, np.eye(m)])
    cost = np.repeat([0.0, 1.0], [n, m])
    basis = np.arange(n, n + m)
    B_inv = np.eye(m)
    x_B = b.copy()

    iters = 0
    while iters < max_iter:
        # Bland: entering = lowest-index column with negative reduced cost.
        reduced = cost - cost[basis] @ B_inv @ cols
        entering = (reduced < -_PIVOT_EPS).nonzero()[0]
        if not entering.size:
            break
        enter = entering[0]
        col = B_inv @ cols[:, enter]
        # Ratio test, ties broken by lowest basis index (Bland).
        leave, best = -1, np.inf
        for i in (col > _PIVOT_EPS).nonzero()[0].tolist():
            ratio = x_B[i] / col[i]
            if ratio < best - _PIVOT_EPS or (
                abs(ratio - best) <= _PIVOT_EPS and (leave < 0 or basis[i] < basis[leave])
            ):
                best, leave = ratio, i
        if leave < 0:
            # Unbounded phase-1 cannot happen (objective bounded below by 0);
            # numerically treat as a stall.
            break
        B_inv[leave] /= col[leave]
        x_B[leave] /= col[leave]
        col[leave] = 0.0
        B_inv -= col[:, None] * B_inv[leave]
        x_B -= col * x_B[leave]
        basis[leave] = enter
        iters += 1

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = np.maximum(0.0, x_B[structural])
    residual = float(max(0.0, cost[basis] @ x_B, np.max(np.abs(A @ x - b), initial=0.0)))
    return PhaseOneResult(residual <= tol, x, residual, iters)
