"""Bob's conditional-state assemblages and their purity structure."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _SHAPE_CACHE,
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    is_rank_one,
    partial_trace,
    projector_distances,
    trace_distance,
)
from .measurements import MeasurementSetting, validate_setting
from .states import BipartitePureState, PureStates

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
    """(setting, outcome) of each row of per-outcome data, as a read-only
    (rows, 2) int array: rows run over the settings in order and, within a
    setting, over its outcomes. Every per-outcome array in steerkit uses
    this order. Built once per outcome_counts."""
    return _row_keys(tuple(outcome_counts))


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _row_keys(outcome_counts: tuple) -> np.ndarray:
    keys = np.array([(n, a) for n, count in enumerate(outcome_counts) for a in range(count)], dtype=int)
    keys = keys.reshape(-1, 2)
    keys.setflags(write=False)
    return keys


def setting_sums(values, outcome_counts, axis: int = 0) -> np.ndarray:
    """Sum over each setting's rows of per-outcome data in row order (along
    axis), one entry per setting. Every count must be positive."""
    return np.add.reduceat(values, np.cumsum((0,) + tuple(outcome_counts[:-1])), axis=axis)


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

    residual_mass is an upper bound r on a state's subdominant eigenvalue
    mass, and the state lies within trace distance r of its principal
    projector (within delta = r/3 where is_rank_one's witness accepts it).
    Between two rank-1 states the distance is that of these projectors, so
    it is within r_i + r_j <= 2 * tol.rank1 (delta_i + delta_j for witness
    states) of the states' own trace distance, whatever the dimension. Every
    pair involving a state that is not rank 1 is an eigendecomposition of
    the difference. all_rank_one, max_residual_mass and min_distance sum up.
    """

    probabilities: np.ndarray  # (rows,) tr(rho~^n_a)
    index: np.ndarray  # (m, 2) (setting, outcome) of each nonvacuous row
    rank_one: np.ndarray  # (m,) bool
    residual_mass: np.ndarray  # (m,) bound on the subdominant eigenvalue mass
    principals: np.ndarray  # (m, dB) witness vectors or top eigenvectors
    distance_matrix: np.ndarray  # (m, m) pairwise trace distances
    all_rank_one: bool
    max_residual_mass: float  # largest residual_mass, 0 with no nonvacuous row
    min_distance: float  # smallest off-diagonal distance, inf with fewer than two rows

    def min_pairwise_distance(self) -> float:
        return self.min_distance


def conditional_states(
    state,
    settings,
    dims,
    tol: Tolerances = DEFAULT_TOL,
):
    """Assemblage rho~^n_a = tr_A[(P^n_a (x) 1) rho_AB] for each setting.

    state is a BipartitePureState, a density matrix on dA*dB, or a
    PureStates batch, whose assemblages come as a list, in order. The
    settings are validated once per call. For pure states with dA x dB
    coefficient matrix Psi, P_a = u_a u_a^dag gives rho~_a = w_a w_a^dag
    with w_a = Psi^T conj(u_a): one product forms every w_a of every state
    (a single state is the batch of one), and neither projectors nor
    bipartite densities are built.
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
    labels, counts = tuple(s.label for s in settings), tuple(s.outcomes for s in settings)
    if isinstance(state, (BipartitePureState, PureStates)):
        batch = state if isinstance(state, PureStates) else PureStates.of(state)
        if (batch.dA, batch.dB) != (dA, dB):
            raise ValueError(f"state dims {(batch.dA, batch.dB)} do not match dims {dims}")
        psi_t = batch.coefficients.swapaxes(1, 2)
        w = (psi_t @ np.concatenate([s.vectors for s in settings], axis=1).conj()).swapaxes(1, 2)
        stacks = w[..., :, None] * w.conj()[..., None, :]
        bobs = psi_t @ batch.coefficients.conj()
        asms = [Assemblage(labels, counts, stack, bob, (dA, dB)) for stack, bob in zip(stacks, bobs)]
        return asms if batch is state else asms[0]
    rho_ab = as_matrix(state)
    if rho_ab.shape != (dA * dB, dA * dB):
        raise ValueError(f"rho_AB shape {rho_ab.shape} does not match dims {dims}")
    projs = np.concatenate([s.projectors for s in settings])
    # sigma[n, m, k] = sum_ij P[n, j, i] rho[i, m, j, k]
    stack = np.tensordot(projs, rho_ab.reshape(dA, dB, dA, dB), axes=([1, 2], [2, 0]))
    return Assemblage(labels, counts, stack, partial_trace(rho_ab, dA, dB, keep="B"), (dA, dB))


def no_signalling_check(a):
    """Max entrywise deviation of sum_a rho~^n_a from rho_B over settings.

    a is an Assemblage, or a list of assemblages of one row layout whose
    deviations then come as a list, in order, from one computation.
    """
    batch = _batch(a)
    stacks, bobs = _stack([x.stack for x in batch]), _stack([x.bob_reduced for x in batch])
    dev = np.max(np.abs(setting_sums(stacks, batch[0].outcome_counts, axis=1) - bobs[:, None]), axis=(1, 2, 3))
    return float(dev[0]) if isinstance(a, Assemblage) else dev.tolist()


def _batch(a) -> list:
    """An assemblage as a batch of one, or a nonempty list of assemblages
    that share their outcome counts and dims."""
    batch = [a] if isinstance(a, Assemblage) else list(a)
    if not batch:
        raise ValueError("need at least one assemblage")
    if any((x.outcome_counts, x.dims) != (batch[0].outcome_counts, batch[0].dims) for x in batch):
        raise ValueError("the assemblages of a batch must share their outcome counts and dims")
    return batch


def _stack(arrays: list) -> np.ndarray:
    """arrays along a new leading axis: a view for a batch of one, else a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def purity_profile(a, tol: Tolerances = DEFAULT_TOL):
    """Classify every conditional state as rank-1 / mixed / vacuous and
    compute pairwise trace distances of the normalized nonvacuous states.

    a is an Assemblage, or a list of assemblages of one row layout whose
    profiles then come as a list, in order. The assemblages that share
    their nonvacuous rows go together: one is_rank_one call checks all
    their states (no eigendecomposition for pure inputs), pairs of rank-1
    states take their distance from the principal vectors (see
    PurityProfile), and each other state's row is one batched trace_distance.
    """
    batch = _batch(a)
    counts = batch[0].outcome_counts
    stacks = _stack([x.stack for x in batch])
    probs = np.trace(stacks, axis1=2, axis2=3).real
    live = probs > tol.rank1
    keys = row_keys(counts)
    groups = {}
    for p, row in enumerate(live):
        groups.setdefault(row.tobytes(), []).append(p)
    profiles = [None] * len(batch)
    for members in groups.values():
        mask = live[members[0]]
        rows = np.zeros(live.shape, dtype=bool)
        rows[members] = mask
        states = stacks.reshape(-1, *stacks.shape[2:]) if rows.all() else stacks[rows]  # member by member
        g, m, d = len(members), states.shape[0] // len(members), states.shape[-1]
        flags, principals, residuals = is_rank_one(states, tol)
        flags, principals, residuals = flags.reshape(g, m), principals.reshape(g, m, d), residuals.reshape(g, m)
        normalized = None if flags.all() else (states / probs[rows, None, None]).reshape(g, m, d, d)
        dist = projector_distances(principals)
        for j, i in zip(*np.nonzero(~flags)):
            # Later states and earlier rank-1 ones; earlier mixed rows did the rest.
            cols = np.flatnonzero((np.arange(m) > i) | flags[j])
            if cols.size:
                dist[j, i, cols] = dist[j, cols, i] = trace_distance(normalized[j, i], normalized[j, cols], tol)
        summaries = zip(
            flags.all(axis=1).tolist(),
            residuals.max(axis=1, initial=0.0).tolist(),
            (dist + np.diag(np.full(m, np.inf))).min(axis=(1, 2), initial=np.inf).tolist(),
        )
        index = keys[mask]
        for j, (p, summary) in enumerate(zip(members, summaries)):
            profiles[p] = PurityProfile(probs[p], index, flags[j], residuals[j], principals[j], dist[j], *summary)
    return profiles[0] if isinstance(a, Assemblage) else profiles
