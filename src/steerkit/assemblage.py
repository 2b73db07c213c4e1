"""Bob's conditional-state assemblages and their purity structure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    is_rank_one,
    partial_trace,
    projector_distances,
    trace_distance,
)
from .measurements import MeasurementSetting, validate_setting
from .states import BipartitePureState

__all__ = [
    "Assemblage",
    "PurityProfile",
    "conditional_states",
    "no_signalling_check",
    "purity_profile",
    "row_keys",
    "setting_sums",
]


def row_keys(outcome_counts) -> np.ndarray:
    """(setting, outcome) of each row of per-outcome data, as a (rows, 2)
    int array: rows run over the settings in order and, within a setting,
    over its outcomes. Every per-outcome array in steerkit uses this order."""
    keys = [(n, a) for n, count in enumerate(outcome_counts) for a in range(count)]
    return np.array(keys, dtype=int).reshape(-1, 2)


def setting_sums(values, outcome_counts) -> np.ndarray:
    """Sum over each setting's rows of per-outcome data in row order (axis
    0), one entry per setting. Every count must be positive."""
    return np.add.reduceat(values, np.cumsum((0,) + tuple(outcome_counts[:-1])), axis=0)


@dataclass(frozen=True)
class Assemblage:
    """Bob's unnormalized conditional states, one per (setting, outcome).

    stack[row] is the state for index[row], in the row order of row_keys.
    For every setting the outcome states sum to Bob's reduced state and
    their traces sum to 1.
    """

    setting_labels: tuple
    outcome_counts: tuple
    stack: np.ndarray  # (sum(outcome_counts), dB, dB)
    bob_reduced: np.ndarray
    dims: tuple  # (dA, dB)

    def __post_init__(self):
        stack = np.asarray(self.stack, dtype=complex)
        if not self.outcome_counts or min(self.outcome_counts) < 1:
            raise ValueError(f"outcome_counts {self.outcome_counts}: need a setting, each with an outcome")
        if stack.shape != (sum(self.outcome_counts), self.dims[1], self.dims[1]):
            raise ValueError(f"stack shape {stack.shape} does not fit {self.outcome_counts}, {self.dims}")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)

    @property
    def index(self) -> tuple:
        """(setting, outcome) of each stack row."""
        return tuple(map(tuple, row_keys(self.outcome_counts).tolist()))

    def state(self, n: int, a: int) -> np.ndarray:
        return self.stack[self.index.index((n, a))]

    def probability(self, n: int, a: int) -> float:
        return float(np.trace(self.state(n, a)).real)


@dataclass(frozen=True)
class PurityProfile:
    """Purity and distinctness of an assemblage's conditional states.

    probabilities covers every row, in assemblage row order. A row with
    probability at most tol.rank1 is vacuous; the other fields cover the
    nonvacuous rows only, in the same order, and describe the normalized
    states.

    Between two rank-1 states the distance is that of their principal
    projectors, sqrt(1 - |<v|w>|^2), taken as the norm of w's component
    orthogonal to v. A normalized PSD state with residual mass r lies at
    trace distance exactly r from its principal projector, so each such
    entry is within r_i + r_j <= 2 * tol.rank1 of the states' own trace
    distance, whatever the dimension. Every pair involving a state that is
    not rank 1 is an eigendecomposition of the difference.
    """

    probabilities: np.ndarray  # (rows,) tr(rho~^n_a)
    index: np.ndarray  # (m, 2) (setting, outcome) of each nonvacuous row
    rank_one: np.ndarray  # (m,) bool
    residual_mass: np.ndarray  # (m,) subdominant eigenvalue mass
    principals: np.ndarray  # (m, dB) principal eigenvectors
    distance_matrix: np.ndarray  # (m, m) pairwise trace distances

    @property
    def all_rank_one(self) -> bool:
        return bool(np.all(self.rank_one))

    @property
    def max_residual_mass(self) -> float:
        """Largest subdominant eigenvalue mass over nonvacuous outcomes."""
        return float(np.max(self.residual_mass, initial=0.0))

    def min_pairwise_distance(self) -> float:
        off_diagonal = self.distance_matrix + np.diag(np.full(len(self.distance_matrix), np.inf))
        return float(np.min(off_diagonal, initial=np.inf))


def conditional_states(
    state,
    settings,
    dims,
    tol: Tolerances = DEFAULT_TOL,
) -> Assemblage:
    """Assemblage rho~^n_a = tr_A[(P^n_a (x) 1) rho_AB] for each setting.

    state is a BipartitePureState or a density matrix on dA*dB. For a pure
    state with dA x dB coefficient matrix Psi, P_a = u_a u_a^dag gives
    rho~_a = w_a w_a^dag with w_a = Psi^T conj(u_a): one product forms
    every w_a, and neither projectors nor the bipartite density are built.
    """
    dA, dB = dims
    settings = list(settings)
    if not settings:
        raise ValueError("need at least one measurement setting")
    for i, s in enumerate(settings):
        if not isinstance(s, MeasurementSetting):
            raise TypeError(f"setting {i} is not a MeasurementSetting")
        if s.dim != dA:
            raise ValueError(f"setting {s.label!r} acts on dim {s.dim}, expected dA = {dA}")
        report = validate_setting(s, tol)
        if not report.passed:
            raise ValueError(f"invalid setting {s.label!r}: {report}")
    if isinstance(state, BipartitePureState):
        if (state.dA, state.dB) != (dA, dB):
            raise ValueError(f"state dims {(state.dA, state.dB)} do not match dims {dims}")
        w = (state.coefficients.T @ np.concatenate([s.vectors for s in settings], axis=1).conj()).T
        stack = w[:, :, None] * w.conj()[:, None, :]
        bob = state.reduced_bob()
    else:
        rho_ab = as_matrix(state)
        if rho_ab.shape != (dA * dB, dA * dB):
            raise ValueError(f"rho_AB shape {rho_ab.shape} does not match dims {dims}")
        projs = np.concatenate([s.projectors for s in settings])
        # sigma[n, m, k] = sum_ij P[n, j, i] rho[i, m, j, k]
        stack = np.tensordot(projs, rho_ab.reshape(dA, dB, dA, dB), axes=([1, 2], [2, 0]))
        bob = partial_trace(rho_ab, dA, dB, keep="B")
    return Assemblage(
        setting_labels=tuple(s.label for s in settings),
        outcome_counts=tuple(s.outcomes for s in settings),
        stack=stack,
        bob_reduced=bob,
        dims=(dA, dB),
    )


def no_signalling_check(a: Assemblage) -> float:
    """Max entrywise deviation of sum_a rho~^n_a from rho_B over settings."""
    return float(np.max(np.abs(setting_sums(a.stack, a.outcome_counts) - a.bob_reduced)))


def purity_profile(a: Assemblage, tol: Tolerances = DEFAULT_TOL) -> PurityProfile:
    """Classify every conditional state as rank-1 / mixed / vacuous and
    compute pairwise trace distances of the normalized nonvacuous states.
    One batched eigendecomposition checks every state; pairs of rank-1
    states take their distance from the principal vectors (see
    PurityProfile), and each other state's row is one batched
    trace_distance."""
    probs = np.trace(a.stack, axis1=1, axis2=2).real
    live = probs > tol.rank1
    flags, principals, residuals = is_rank_one(a.stack[live], tol)
    normalized = a.stack[live] / probs[live, None, None]
    m = len(normalized)
    pure = np.flatnonzero(flags)
    dist = np.zeros((m, m))
    dist[np.ix_(pure, pure)] = projector_distances(principals[pure])
    for i in np.flatnonzero(~flags):
        # Later states and earlier rank-1 ones; earlier mixed rows did the rest.
        cols = np.flatnonzero((np.arange(m) > i) | flags)
        if cols.size:
            dist[i, cols] = dist[cols, i] = trace_distance(normalized[i], normalized[cols], tol)
    return PurityProfile(probs, row_keys(a.outcome_counts)[live], flags, residuals, principals, dist)
