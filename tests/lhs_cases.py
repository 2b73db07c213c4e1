"""Werner-state LHS feasibility problems whose visibility thresholds are
known in closed form, shared by the simplex and steering tests.

Over the Pauli settings {z, x}, a candidate grid that holds the four
diagonal x-z states carries the optimal LHS model, so the grid's LP is
feasible exactly for p <= 1/sqrt(2); over {x, y, z} the eight cube-vertex
states do the same with threshold 1/sqrt(3) (Cavalcanti, Jones, Wiseman &
Reid, arXiv:0907.1109).
"""

import itertools
from unittest import mock

import numpy as np

from steerkit import steering
from steerkit.assemblage import conditional_states, row_keys
from steerkit.measurements import bloch_projectors
from steerkit.states import density

PAULI = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def werner_assemblage(p: float, axes: str):
    """Assemblage and settings of p |Phi+><Phi+| + (1 - p) 1/4 under the
    Pauli settings named by axes, e.g. "zx"."""
    rho = p * density(BELL) + (1 - p) * np.eye(4) / 4
    settings = [bloch_projectors(PAULI[a]) for a in axes]
    return conditional_states(rho, settings, (2, 2)), settings


def pure_state(n) -> np.ndarray:
    return bloch_projectors(n).projectors[0]


def circle_states(points: int) -> list:
    """Pure states evenly spaced on the x-z great circle, starting at +z;
    a multiple of 8 points includes the four diagonal states."""
    return [pure_state((np.sin(t), 0.0, np.cos(t))) for t in 2 * np.pi * np.arange(points) / points]


def cube_fibonacci_states(n_fib: int) -> list:
    """The eight cube-vertex states plus an n_fib-point Fibonacci sphere."""
    cube = [pure_state(np.array(s) / np.sqrt(3)) for s in itertools.product((-1, 1), repeat=3)]
    i = np.arange(n_fib) + 0.5
    z = 1 - 2 * i / max(n_fib, 1)
    r = np.sqrt(1 - z * z)
    phi = np.pi * (1 + np.sqrt(5)) * i
    return cube + [pure_state((r[j] * np.cos(phi[j]), r[j] * np.sin(phi[j]), z[j])) for j in range(n_fib)]


# (axes, candidate grid, threshold): {z, x} over the 64-point circle gives
# a 16 x 256 system of rank 9, which lhs_feasibility_lp solves as 9 x 256;
# {x, y, z} over cube + 248 Fibonacci points a 24 x 2048 system of rank 16,
# solved as 16 x 2048.
GRIDS = {
    "circle8": ("zx", lambda: circle_states(8), 1 / np.sqrt(2)),
    "circle64": ("zx", lambda: circle_states(64), 1 / np.sqrt(2)),
    "cube": ("xyz", lambda: cube_fibonacci_states(0), 1 / np.sqrt(3)),
    "cube_fib248": ("xyz", lambda: cube_fibonacci_states(248), 1 / np.sqrt(3)),
}


def lp_system(asm, candidates):
    """The (A, b) that lhs_feasibility_lp hands to phase_one, its
    independent rows only, and its outcome."""
    with mock.patch.object(steering, "phase_one", wraps=steering.phase_one) as solve:
        outcome = steering.lhs_feasibility_lp(asm, candidates)
    A, b = solve.call_args.args
    return A, b, outcome


def full_lp_system(asm, candidates):
    """Every equation of the LHS LP, built entry by entry as a reference.

    Row (n, a, i) is component i of the real vector of rho~^n_a (diagonal,
    then real and imaginary parts of the strict upper triangle), column
    (c, D) holds that component of candidate c where strategy D answers a
    on setting n, and 0 elsewhere."""

    def components(m):
        upper = m[np.triu_indices(len(m), k=1)]
        return np.concatenate([np.diag(m).real, upper.real, upper.imag])

    strategies = list(itertools.product(*(range(k) for k in asm.outcome_counts)))
    cands = [components(np.asarray(c)) for c in candidates]
    rows = [
        [vec[i] if strat[n] == a else 0.0 for vec in cands for strat in strategies]
        for n, a in row_keys(asm.outcome_counts).tolist()
        for i in range(len(cands[0]))
    ]
    b = np.concatenate([components(m) for m in asm.stack])
    return np.array(rows), b
