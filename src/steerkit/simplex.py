"""Phase-1 simplex for linear feasibility: find x >= 0 with A x = b.

Revised simplex with Dantzig pricing and a Bland fallback. Rows with
b < 0 are negated and an artificial variable per row (cost 1) starts as
the basis. The method keeps T = [B^-1 | x_B], the basis inverse with the
basic values as one more column, and the basic costs c_B. Each pivot
forms y = c_B B^-1 and prices every column of [A | I], the amount by
which a unit of the column lowers the objective, into one buffer of
n + m prices allocated per solve: y A, one product with the row-major A,
for the x columns, and y_i - 1 for the artificials in its tail. The
column that enters is the lowest index whose price is within 1e-9 of the
largest, so rounding does not choose between equal prices, such as those
of symmetric candidate states; the loop stops when no price exceeds 1e-9.
The ratio test on B^-1 A_j runs on Python floats, as does the basis, and
ties to the lowest basis index. The pivot row of T is scaled once and
moves B^-1 and x_B by one rank-1 update.

A pivot whose step (the minimum ratio) is at most 1e-9 is degenerate.
After _BLAND_AFTER degenerate pivots in a row, the lowest-index column
with a price above 1e-9 enters instead (Bland's rule), until the next
nondegenerate pivot. The loop terminates:
- a nondegenerate pivot lowers the phase-1 objective by price x step > 0,
  so no basis recurs across nondegenerate pivots, and there are finitely
  many bases;
- a run of degenerate pivots is finite: after _BLAND_AFTER of them Bland's
  rule enters, which with the lowest-index ratio tie cannot cycle, so it
  reaches a nondegenerate pivot or the optimum.

Pivot elements and prices at or below 1e-9 count as zero: a pivot on a
rounding-sized element multiplies the basis inverse's error by its
inverse. With a 1e-11 threshold, a 16 x 256 LHS problem pivoted on a
1.2e-11 element and drove a basic variable to -7.5e-3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PhaseOneResult", "phase_one"]

_PIVOT_EPS = 1e-9
_BLAND_AFTER = 50  # consecutive degenerate pivots before Bland's rule enters


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
    # basis[i] is the column basic in row i: x columns 0..n-1 cost 0, the
    # artificial of row i is column n + i and costs 1. T = [B^-1 | x_B].
    basis = list(range(n, n + m))
    c_B = np.ones(m)
    T = np.hstack([np.eye(m), b[:, None]])
    B_inv = T[:, :m]
    price = np.empty(n + m)

    iters = degenerate = 0
    while iters < max_iter:
        y = c_B @ B_inv
        np.matmul(y, A, out=price[:n])
        np.subtract(y, 1.0, out=price[n:])
        top = price.max(initial=0.0)
        if top <= _PIVOT_EPS:
            break
        floor = _PIVOT_EPS if degenerate >= _BLAND_AFTER else top - _PIVOT_EPS
        enter = int((price > floor).argmax())
        col = B_inv @ A[:, enter] if enter < n else B_inv[:, enter - n].copy()
        # Ratio test, ties broken by lowest basis index (Bland).
        leave, best = -1, np.inf
        for i, (c, x_i) in enumerate(zip(col.tolist(), T[:, m].tolist())):
            if c > _PIVOT_EPS:
                ratio = x_i / c
                if ratio < best - _PIVOT_EPS or (
                    abs(ratio - best) <= _PIVOT_EPS and (leave < 0 or basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave < 0:
            # Unbounded phase-1 cannot happen (objective bounded below by 0);
            # numerically treat as a stall.
            break
        degenerate = degenerate + 1 if best <= _PIVOT_EPS else 0
        row = T[leave] / col[leave]
        col[leave] = 0.0
        T -= col[:, None] * row
        T[leave] = row
        basis[leave] = enter
        c_B[leave] = float(enter >= n)
        iters += 1

    x = np.zeros(n)
    basis = np.array(basis, dtype=int)
    structural = basis < n
    x[basis[structural]] = np.maximum(0.0, T[structural, m])
    residual = float(max(0.0, c_B @ T[:, m], np.max(np.abs(A @ x - b), initial=0.0)))
    return PhaseOneResult(residual <= tol, x, residual, iters)
