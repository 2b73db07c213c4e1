"""Phase-1 simplex for linear feasibility: find x >= 0 with A x = b.

Revised simplex with Dantzig pricing and a Bland fallback. Row i's
artificial variable (cost 1) has column sign(b_i) e_i, so the starting
basis D = diag(sign(b)) is its own inverse and gives x_B = |b| >= 0
without a copy of A with negated rows. P = [[A | D], [0 | -1]], the
columns over minus their costs, is built once per solve, and T =
[[B^-1, 0, x_B], [y, 1, z]] holds the basis inverse, the basic values,
the duals y = c_B B^-1 and the objective z. One product [y, 1] P prices
every column by how much a unit of it lowers the objective. The lowest
index whose price is within 1e-9 of the largest enters, so rounding does
not choose between equal prices, such as those of symmetric candidate
states; the loop stops when no price exceeds 1e-9. The ratio test on its
column B^-1 P[:m, q] runs on Python floats and ties to the lowest basis
index. One rank-1 update, by that column with its price appended, moves
all of T. The residual sums the basic artificials, free of z's rounding.

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
    solves the system to within tol. A non-finite A or b raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if b.size != m:
        raise ValueError(f"b has length {b.size}, expected {m}")
    if bad := [name for name, value in (("A", A), ("b", b)) if not np.isfinite(value).all()]:
        raise ValueError(f"{' and '.join(bad)} must be finite")

    sign = np.where(b < 0, -1.0, 1.0)
    P = np.zeros((m + 1, n + m))
    P[:m, :n], P[:m, n:], P[m, n:] = A, np.diag(sign), -1.0
    basis = list(range(n, n + m))  # basis[i] is the column basic in row i
    T = np.eye(m + 1, m + 2)
    T[:m, :m], T[m, :m] = P[:m, n:], sign  # B^-1 = D and y = c_B D = sign
    x_B = T[:m, m + 1]  # a view: the updates below write T in place
    x_B[:], T[m, m + 1] = b * sign, np.abs(b).sum()  # |b| and the objective z
    price, col = np.empty(n + m), np.empty(m + 1)
    col_v, y_1, B_inv = col[:, None], T[m, : m + 1], T[:m, :m]  # views, [y, 1] as y_1

    iters = degenerate = 0
    while m and iters < max_iter:  # with no rows there is nothing to pivot on
        np.dot(y_1, P, out=price)
        top = price[price.argmax()]
        if top <= _PIVOT_EPS:
            break
        floor = _PIVOT_EPS if degenerate >= _BLAND_AFTER else top - _PIVOT_EPS
        enter = int((price > floor).argmax())
        np.dot(B_inv, P[:m, enter], out=col[:m])
        col[m] = price[enter]
        # Ratio test, ties broken by lowest basis index (Bland).
        leave, best = -1, np.inf
        for i, (c, x_i) in enumerate(zip(pivots := col.tolist(), x_B.tolist())):
            if c > _PIVOT_EPS:
                ratio = x_i / c
                if ratio < best - _PIVOT_EPS or (
                    abs(ratio - best) <= _PIVOT_EPS and (leave < 0 or basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave < 0:
            # A stall: phase 1 is bounded below by 0, so it is never unbounded.
            break
        degenerate = degenerate + 1 if best <= _PIVOT_EPS else 0
        row = T[leave] / pivots[leave]
        col[leave] = 0.0
        T -= col_v * row
        T[leave] = row
        basis[leave] = enter
        iters += 1

    x = np.zeros(n)
    basis = np.array(basis, dtype=int)
    structural = basis < n
    x[basis[structural]] = np.maximum(0.0, x_B[structural])
    residual = float(max(0.0, (~structural).astype(float) @ x_B, np.max(np.abs(A @ x - b), initial=0.0)))
    return PhaseOneResult(residual <= tol, x, residual, iters)
