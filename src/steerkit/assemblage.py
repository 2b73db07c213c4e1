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
    "OutcomeReport",
    "PurityProfile",
    "conditional_states",
    "no_signalling_check",
    "purity_profile",
]


@dataclass(frozen=True)
class Assemblage:
    """Bob's unnormalized conditional states, one per (setting, outcome).

    stack[row] is the state for index[row]: rows run over the settings in
    order and, within a setting, over its outcomes. For every setting the
    outcome states sum to Bob's reduced state and their traces sum to 1.
    """

    setting_labels: tuple
    outcome_counts: tuple
    stack: np.ndarray  # (sum(outcome_counts), dB, dB)
    bob_reduced: np.ndarray
    dims: tuple  # (dA, dB)

    def __post_init__(self):
        stack = np.asarray(self.stack, dtype=complex)
        if stack.shape != (sum(self.outcome_counts), self.dims[1], self.dims[1]):
            raise ValueError(f"stack shape {stack.shape} does not fit {self.outcome_counts}, {self.dims}")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)

    @property
    def index(self) -> tuple:
        """(setting, outcome) of each stack row."""
        return tuple((n, a) for n, count in enumerate(self.outcome_counts) for a in range(count))

    def state(self, n: int, a: int) -> np.ndarray:
        return self.stack[self.index.index((n, a))]

    def probability(self, n: int, a: int) -> float:
        return float(np.trace(self.state(n, a)).real)


@dataclass(frozen=True)
class OutcomeReport:
    """Purity data for one (setting, outcome) conditional state."""

    setting: int
    outcome: int
    probability: float
    vacuous: bool
    rank_one: bool
    principal: np.ndarray | None
    residual_mass: float


@dataclass(frozen=True)
class PurityProfile:
    """Rank-1 flags plus the pairwise trace-distance matrix over all
    nonvacuous normalized conditional states.

    Between two rank-1 states the distance is that of their principal
    projectors, sqrt(1 - |<v|w>|^2), taken as the norm of w's component
    orthogonal to v. A normalized PSD state with residual mass r lies at
    trace distance exactly r from its principal projector, so each such
    entry is within r_i + r_j <= 2 * tol.rank1 of the states' own trace
    distance, whatever the dimension. Every pair involving a state that is
    not rank 1 is an eigendecomposition of the difference.
    """

    reports: tuple
    distance_matrix: np.ndarray
    distance_index: tuple  # (n, a) keys matching distance_matrix rows

    @property
    def all_rank_one(self) -> bool:
        return all(r.rank_one for r in self.reports if not r.vacuous)

    @property
    def max_residual_mass(self) -> float:
        """Largest subdominant eigenvalue mass over nonvacuous outcomes."""
        return max((r.residual_mass for r in self.reports if not r.vacuous), default=0.0)

    def min_pairwise_distance(self) -> float:
        m = self.distance_matrix.shape[0]
        if m < 2:
            return float("inf")
        iu = np.triu_indices(m, k=1)
        return float(np.min(self.distance_matrix[iu]))


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
    starts = np.cumsum((0,) + a.outcome_counts[:-1])
    totals = np.add.reduceat(a.stack, starts, axis=0)
    return float(np.max(np.abs(totals - a.bob_reduced)))


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
    checked = zip(flags.tolist(), principals, residuals.tolist())
    reports = []
    for (n, out), p, nonvacuous in zip(a.index, probs.tolist(), live):
        if nonvacuous:
            rank_one, principal, residual = next(checked)
            reports.append(OutcomeReport(n, out, p, False, rank_one, principal, residual))
        else:
            reports.append(OutcomeReport(n, out, p, True, False, None, 0.0))
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
    index = tuple(key for key, nonvacuous in zip(a.index, live) if nonvacuous)
    return PurityProfile(tuple(reports), dist, index)
