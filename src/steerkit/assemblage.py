"""Bob's conditional-state assemblages and their purity structure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    is_rank_one,
    kron,
    partial_trace,
    trace_distance,
)
from .measurements import MeasurementSetting, validate_setting

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
    """Map (setting index, outcome) -> unnormalized conditional state of Bob.

    For every setting the outcome states sum to Bob's reduced state and
    their traces sum to 1.
    """

    setting_labels: tuple
    outcome_counts: tuple
    states: dict  # (n, a) -> dB x dB ndarray
    bob_reduced: np.ndarray
    dims: tuple  # (dA, dB)

    def state(self, n: int, a: int) -> np.ndarray:
        return self.states[(n, a)]

    def probability(self, n: int, a: int) -> float:
        return float(np.trace(self.states[(n, a)]).real)

    @property
    def n_settings(self) -> int:
        return len(self.setting_labels)


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
    nonvacuous normalized conditional states."""

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
    rho_ab,
    settings,
    dims,
    tol: Tolerances = DEFAULT_TOL,
) -> Assemblage:
    """Assemblage rho~^n_a = tr_A[(P^n_a (x) 1) rho_AB] for each setting."""
    dA, dB = dims
    rho_ab = as_matrix(rho_ab)
    n = dA * dB
    if rho_ab.shape != (n, n):
        raise ValueError(f"rho_AB shape {rho_ab.shape} does not match dims {dims}")
    settings = list(settings)
    if not settings:
        raise ValueError("need at least one measurement setting")
    eye_b = np.eye(dB, dtype=complex)
    states = {}
    for i, s in enumerate(settings):
        if not isinstance(s, MeasurementSetting):
            raise TypeError(f"setting {i} is not a MeasurementSetting")
        if s.dim != dA:
            raise ValueError(f"setting {s.label!r} acts on dim {s.dim}, expected dA = {dA}")
        report = validate_setting(s, tol)
        if not report.passed:
            raise ValueError(f"invalid setting {s.label!r}: {report}")
        for a, proj in enumerate(s.projectors):
            states[(i, a)] = partial_trace(kron(proj, eye_b) @ rho_ab, dA, dB, keep="B")
    bob = partial_trace(rho_ab, dA, dB, keep="B")
    return Assemblage(
        setting_labels=tuple(s.label for s in settings),
        outcome_counts=tuple(s.outcomes for s in settings),
        states=states,
        bob_reduced=bob,
        dims=(dA, dB),
    )


def no_signalling_check(a: Assemblage) -> float:
    """Max entrywise deviation of sum_a rho~^n_a from rho_B over settings."""
    dev = 0.0
    for n in range(a.n_settings):
        total = sum(a.states[(n, out)] for out in range(a.outcome_counts[n]))
        dev = max(dev, float(np.max(np.abs(total - a.bob_reduced))))
    return dev


def purity_profile(a: Assemblage, tol: Tolerances = DEFAULT_TOL) -> PurityProfile:
    """Classify every conditional state as rank-1 / mixed / vacuous and
    compute pairwise trace distances of the normalized nonvacuous states."""
    reports = []
    normalized = []
    index = []
    for (n, out) in sorted(a.states):
        rho = a.states[(n, out)]
        p = float(np.trace(rho).real)
        if p <= tol.rank1:
            reports.append(OutcomeReport(n, out, p, True, False, None, 0.0))
            continue
        rank_one, principal, residual = is_rank_one(rho, tol)
        reports.append(OutcomeReport(n, out, p, False, rank_one, principal, residual))
        normalized.append(rho / p)
        index.append((n, out))
    m = len(normalized)
    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            dist[i, j] = dist[j, i] = trace_distance(normalized[i], normalized[j], tol)
    return PurityProfile(tuple(reports), dist, tuple(index))
