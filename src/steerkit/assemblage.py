"""Bob's conditional-state assemblages and their purity structure."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _SHAPE_CACHE,
    DEFAULT_TOL,
    Tolerances,
    _read_only,
    _strict_upper,
    partial_trace,
    projector_distances,
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
    keys = [(n, a) for n, count in enumerate(outcome_counts) for a in range(count)]
    return _read_only(np.array(keys, dtype=int).reshape(-1, 2))


def setting_sums(values, outcome_counts, axis: int = 0) -> np.ndarray:
    """Sum over each setting's rows of per-outcome data in row order (along
    axis), one entry per setting. Every count must be positive."""
    return np.add.reduceat(values, np.cumsum((0,) + tuple(outcome_counts[:-1])), axis=axis)


def _owned(a) -> np.ndarray:
    """a as a read-only complex array: a itself when it is one, else a copy."""
    a = np.asarray(a, dtype=complex)
    return _read_only(a.copy()) if a.flags.writeable else a


@dataclass(frozen=True, init=False)
class Assemblage:
    """Bob's unnormalized conditional states, one per (setting, outcome).

    stack[row] is the state for (setting, outcome) row_keys(outcome_counts)[row].
    For every setting the outcome states sum to Bob's reduced state and
    their traces sum to 1.

    A pure state's assemblage, as conditional_states builds it, is factored:
    factors[row] is w_a, its state is w_a w_a^dag, and the dense stack is
    formed on first read. Pass factors and stack None for one. Assemblages
    of density matrices and LHS models hold their dense stack, and factors
    is None. Every array field is read-only, complex and the assemblage's
    own: a writeable input is copied, a read-only one kept.
    """

    setting_labels: tuple
    outcome_counts: tuple
    bob_reduced: np.ndarray
    dims: tuple  # (dA, dB)
    factors: np.ndarray | None  # (sum(outcome_counts), dB), or None

    def __init__(self, setting_labels, outcome_counts, stack, bob_reduced, dims, factors=None):
        if not outcome_counts or min(outcome_counts) < 1:
            raise ValueError(f"outcome_counts {outcome_counts}: need a setting, each with an outcome")
        rows, dB = sum(outcome_counts), dims[1]
        name, shape = ("stack", (rows, dB, dB)) if factors is None else ("factors", (rows, dB))
        data = _owned(stack if factors is None else factors)
        if data.shape != shape:
            raise ValueError(f"{name} shape {data.shape} does not fit {outcome_counts}, {dims}")
        # Frozen: the fields go straight into the instance dict, a dense stack
        # in place of the property below.
        vars(self).update({"factors": None, name: data}, setting_labels=setting_labels, outcome_counts=outcome_counts)
        vars(self).update(dims=dims, bob_reduced=_owned(bob_reduced))

    @functools.cached_property
    def stack(self) -> np.ndarray:
        """(sum(outcome_counts), dB, dB) conditional states; a factored
        assemblage forms them as w_a w_a^dag on first read."""
        w = self.factors
        return _read_only(w[:, :, None] * w.conj()[:, None, :], complex)

    def state(self, n: int, a: int) -> np.ndarray:
        """The conditional state of outcome a of setting n."""
        counts = self.outcome_counts
        if not (0 <= n < len(counts) and 0 <= a < counts[n]):
            raise ValueError(f"no outcome {a} of setting {n} for outcome counts {counts}")
        return self.stack[sum(counts[:n]) + a]


@dataclass(frozen=True)
class PurityProfile:
    """Distinctness of a factored assemblage's conditional states.

    probabilities covers every row, in assemblage row order. A row with
    probability at most tol.rank1 is vacuous; index and principals cover
    the nonvacuous rows only, in the same order, and describe the
    normalized states.

    Every row is w_a w_a^dag, rank 1 by construction, with principal
    w_a / |w_a|; the trace distance between two rows is that of their
    principal projectors. min_distance is the smallest over distinct pairs
    and closest names the first pair at it in row-major order.
    """

    probabilities: np.ndarray  # (rows,) tr(rho~^n_a)
    index: np.ndarray  # (m, 2) (setting, outcome) of each nonvacuous row
    principals: np.ndarray  # (m, dB) normalized factors
    min_distance: float  # inf with fewer than two rows
    closest: np.ndarray | None  # (2, 2) index rows of the closest pair, None with fewer than two rows


def _checked_settings(settings, dA: int, tol: Tolerances) -> list:
    """settings as a nonempty list, each a MeasurementSetting on dimension
    dA that validate_setting passes within tol.eig; raises otherwise."""
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
    return settings


def conditional_states(state, settings, dims, tol: Tolerances = DEFAULT_TOL):
    """Assemblage rho~^n_a = tr_A[(P^n_a (x) 1) rho_AB] for each setting.

    state is a BipartitePureState, a density matrix on dA*dB, or a
    PureStates batch, whose assemblages come as a list, in order. The
    settings are validated once per call. For pure states with dA x dB
    coefficient matrix Psi, P_a = u_a u_a^dag gives rho~_a = w_a w_a^dag
    with w_a = Psi^T conj(u_a), row a of V^dag Psi for V = [u_a]: one product
    forms every w_a of every state (a single state is the batch of one),
    and the assemblages of pure states are factored: they hold the w_a and
    the batch's rho_B, and no projector, density or outer product is built.
    The factors are row-major, so a state's share of a batch equals its own
    run bit for bit. A density matrix gives a dense assemblage.
    """
    dA, dB = dims
    settings = _checked_settings(settings, dA, tol)
    labels, counts = tuple(s.label for s in settings), tuple(s.outcomes for s in settings)
    if isinstance(state, (BipartitePureState, PureStates)):
        batch = state if isinstance(state, PureStates) else PureStates.of(state)
        if (batch.dA, batch.dB) != (dA, dB):
            raise ValueError(f"state dims {(batch.dA, batch.dB)} do not match dims {dims}")
        w = _read_only(np.concatenate([s.vectors for s in settings], axis=1).conj().T @ batch.coefficients)
        asms = [Assemblage(labels, counts, None, bob, (dA, dB), factors) for factors, bob in zip(w, batch.bob_reduced)]
        return asms if batch is state else asms[0]
    rho_ab = np.asarray(state, dtype=complex)
    if rho_ab.shape != (dA * dB, dA * dB):
        raise ValueError(f"rho_AB shape {rho_ab.shape} does not match dims {dims}")
    projs = np.concatenate([s.projectors for s in settings])
    # sigma[n, m, k] = sum_ij P[n, j, i] rho[i, m, j, k]
    stack = _read_only(np.tensordot(projs, rho_ab.reshape(dA, dB, dA, dB), axes=([1, 2], [2, 0])))
    return Assemblage(labels, counts, stack, _read_only(partial_trace(rho_ab, dA, dB)), (dA, dB))


def no_signalling_check(a):
    """Max entrywise deviation of sum_a rho~^n_a from rho_B over settings.

    a is an Assemblage, or a list of assemblages of one row layout whose
    deviations then come as a list, in order, from one computation. When all
    are factored with equal outcome counts, setting n's sum is W_n^T conj(W_n)
    for its factor rows W_n, all from one batched product.
    """
    batch = _batch(a)
    counts, bobs = batch[0].outcome_counts, _stack([x.bob_reduced for x in batch])
    if len(set(counts)) == 1 and all(x.factors is not None for x in batch):
        w = _stack([x.factors for x in batch])
        v = w.reshape(len(batch), len(counts), counts[0], w.shape[2])
        sums = v.swapaxes(2, 3) @ v.conj()
    else:
        sums = setting_sums(_stack([x.stack for x in batch]), counts, axis=1)
    sums -= bobs[:, None]
    dev = np.abs(sums).max(axis=(1, 2, 3))
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
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def purity_profile(a, tol: Tolerances = DEFAULT_TOL):
    """Flag the vacuous conditional states and find the closest pair of
    the normalized nonvacuous ones.

    a is a factored Assemblage, or a list of them of one row layout whose
    profiles then come as a list, in order; a dense assemblage raises
    TypeError. Each row's probability and principal come from its factor
    w_a (see PurityProfile). The assemblages that share their nonvacuous
    rows go together, one projector_distances call per group.
    """
    batch = _batch(a)
    if any(x.factors is None for x in batch):
        raise TypeError("purity_profile needs factored assemblages (of pure states), got a dense one")
    w = _stack([x.factors for x in batch])
    probs = (w.real**2 + w.imag**2).sum(axis=2)
    live = probs > tol.rank1
    keys = row_keys(batch[0].outcome_counts)
    groups = {}
    for p, row in enumerate(live):
        groups.setdefault(row.tobytes(), []).append(p)
    profiles = [None] * len(batch)
    for members in groups.values():
        mask = live[members[0]]
        g, m, d = len(members), np.count_nonzero(mask), batch[0].dims[1]
        rows, index = slice(None), keys
        if g < len(batch) or m < len(keys):  # the group drops states or rows
            rows, index = np.zeros(live.shape, dtype=bool), keys[mask]
            rows[members] = mask
        principals = (w[rows] / np.sqrt(probs[rows])[..., None]).reshape(g, m, d)
        min_distances, pairs = [np.inf] * g, [None] * g
        if m > 1:
            dist = projector_distances(principals)
            first = dist.argmin(axis=1)
            pairs = index[[divmod(k, m) for k in _strict_upper(m)[first].tolist()]]
            min_distances = dist.min(axis=1).tolist()  # the values at first
            del dist
        for j, p in enumerate(members):
            profiles[p] = PurityProfile(probs[p], index, principals[j], min_distances[j], pairs[j])
    return profiles[0] if isinstance(a, Assemblage) else profiles
