"""Steering checks: the k-vs-1 trace paradox for pure entangled states,
the explicit single-hidden-state model for separable states, LP-based
local-hidden-state feasibility over a finite candidate ensemble, and the
GHZ all-versus-nothing enumeration."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .assemblage import Assemblage, PurityProfile, _stack, conditional_states, purity_profile, row_keys, setting_sums
from .linalg import DEFAULT_TOL, Tolerances, _strict_upper, projector_distances
from .measurements import PAULI_X, PAULI_Y
from .simplex import phase_one
from .states import BipartitePureState, MultiQubitPureState, PureStates

__all__ = [
    "CoincidentSettingsError",
    "DegenerateSettingGeometryError",
    "LHSModel",
    "ParadoxCertificate",
    "FeasibilityOutcome",
    "GhzExpectations",
    "pure_state_paradox",
    "separable_lhs_model",
    "lhs_reconstruct",
    "lhs_feasibility_lp",
    "default_candidates",
    "ghz_operator_expectations",
    "ghz_lhv_bruteforce",
]


class CoincidentSettingsError(ValueError):
    """Two supplied settings have the same projector multiset."""


class DegenerateSettingGeometryError(ValueError):
    """Entangled input but some normalized conditional states coincide, so
    the single-term collapse step cannot be applied as stated."""


def _require_states(stack: np.ndarray, tol: Tolerances, what: str) -> None:
    """Raise ValueError unless every matrix of an (H, d, d) stack is a
    density matrix: Hermitian, PSD and of unit trace, each within tol.lp."""
    herm = np.max(np.abs(stack - np.swapaxes(stack, 1, 2).conj()), axis=(1, 2))
    low = np.linalg.eigvalsh(stack)[:, 0]
    trace = np.trace(stack, axis1=1, axis2=2).real
    bad = np.flatnonzero((herm > tol.lp) | (low < -tol.lp) | (np.abs(trace - 1.0) > tol.lp))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"{what} {i} is not a density matrix: max |M - M^dagger| = {herm[i]:.3e}, "
            f"min eigenvalue {low[i]:.3e}, trace {trace[i]:.6g}"
        )


@dataclass(frozen=True)
class LHSModel:
    """Ensemble of weighted hidden states plus stochastic responses.

    Hidden state xi is hidden_states[xi], an (H, dB, dB) stack, with weight
    weights[xi]. responses[row, xi] is p(a | n, xi), where (n, a) =
    row_keys(outcome_counts)[row], so the rows follow the assemblage's.
    Every field is a read-only copy of the value passed in.
    """

    weights: np.ndarray  # (H,)
    hidden_states: np.ndarray  # (H, dB, dB)
    responses: np.ndarray  # (rows, H)
    outcome_counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.outcome_counts)
        w = np.array(self.weights, dtype=float).ravel()
        hs = np.array(self.hidden_states, dtype=complex)
        p = np.array(self.responses, dtype=float)
        if not counts or min(counts) < 1:
            raise ValueError(f"outcome_counts {counts}: need a setting, each with an outcome")
        if hs.ndim != 3 or hs.shape[0] != w.size or hs.shape[1] != hs.shape[2]:
            raise ValueError(f"hidden_states shape {hs.shape} is not ({w.size}, dB, dB)")
        if p.shape != (sum(counts), w.size):
            raise ValueError(f"responses shape {p.shape} does not fit {counts} x {w.size} hidden states")
        for name, value in (("weights", w), ("hidden_states", hs), ("responses", p)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "outcome_counts", counts)

    def validate(self, bob_reduced=None, tol: Tolerances = DEFAULT_TOL) -> None:
        """Raise ValueError unless, within tol.lp, the weights are positive
        and sum to 1, every hidden state is a density matrix, each hidden
        state's responses are >= 0 and sum to 1 over every setting, and
        the weighted hidden states average to rho_B when it is given."""
        w = self.weights
        if np.any(w <= 0):
            raise ValueError("all hidden-state weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > tol.lp:
            raise ValueError(f"weights sum to {np.sum(w)}, expected 1")
        _require_states(self.hidden_states, tol, "hidden state")
        if np.min(self.responses) < -tol.lp:
            raise ValueError(f"a response is negative: {np.min(self.responses)}")
        miss = np.abs(setting_sums(self.responses, self.outcome_counts) - 1.0)
        if np.max(miss) > tol.lp:
            n, xi = np.unravel_index(np.argmax(miss), miss.shape)
            raise ValueError(f"responses for setting {n}, hidden state {xi} miss a sum of 1 by {miss[n, xi]:.3e}")
        if bob_reduced is not None:
            mix = np.tensordot(w, self.hidden_states, axes=1)
            dev = float(np.max(np.abs(mix - bob_reduced)))
            if dev > tol.lp:
                raise ValueError(f"ensemble average deviates from rho_B by {dev:.3e}")

    def to_json(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "hidden_states": np.stack([self.hidden_states.real, self.hidden_states.imag], axis=-1).tolist(),
            "responses": [
                {"setting": n, "outcome": a, "hidden": xi, "p": p}
                for (n, a), row in zip(row_keys(self.outcome_counts).tolist(), self.responses.tolist())
                for xi, p in enumerate(row)
            ],
        }


_APPLIES = "entangled pure state: trace contradiction established"
_SEPARABLE = "separable: paradox not applicable"


@dataclass(frozen=True)
class ParadoxCertificate:
    """Verdict record for the k-vs-1 trace contradiction.

    assemblage and purity are the conditional states the verdict was
    drawn from and their purity profile; both are None when the paradox
    does not apply.
    """

    applicable: bool
    reason: str
    k: int
    lhs_trace_sum: float
    quantum_trace_sum: float
    assemblage: Assemblage | None
    purity: PurityProfile | None
    tolerances: Tolerances
    note: str | None = None

    @property
    def contradiction_magnitude(self) -> float:
        return self.lhs_trace_sum - self.quantum_trace_sum

    @property
    def collapsed_assignments(self) -> dict:
        """(setting, outcome) -> hidden index, {} when the paradox does not
        apply. Collapse: each nonvacuous equation consumes its own hidden
        state, in lexicographic (setting, outcome) order, with the response
        forced to 1."""
        if self.purity is None:
            return {}
        return {(n, a): xi for xi, (n, a) in enumerate(self.purity.index.tolist(), start=1)}

    def to_json(self) -> dict:
        doc = {
            "applicable": self.applicable,
            "reason": self.reason,
            "k": self.k,
            "lhs_trace_sum": self.lhs_trace_sum,
            "quantum_trace_sum": self.quantum_trace_sum,
            "contradiction_magnitude": self.contradiction_magnitude,
            "collapsed_assignments": [
                {"setting": n, "outcome": a, "hidden": xi}
                for xi, (n, a) in enumerate([] if self.purity is None else self.purity.index.tolist(), start=1)
            ],
            "tolerances": dict(vars(self.tolerances)),
        }
        if self.note:
            doc["note"] = self.note
        if self.purity is not None:
            doc["purity"] = {
                "all_rank_one": self.purity.all_rank_one,
                "max_residual_mass": self.purity.max_residual_mass,
                "min_pairwise_distance": self.purity.min_distance,
            }
        return doc


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Result of the LHS feasibility LP over a fixed candidate ansatz.

    FeasibleModelFound carries a complete LHS certificate.
    InfeasibleWithinAnsatz only rules out the supplied candidates; it makes
    no claim about steering in general. Status and residual are taken on
    every equation, also those the simplex leaves out.
    """

    status: str  # "FeasibleModelFound" | "InfeasibleWithinAnsatz"
    model: LHSModel | None
    residual: float
    iterations: int

    @property
    def feasible(self) -> bool:
        return self.status == "FeasibleModelFound"

    def to_json(self) -> dict:
        doc = {
            "status": self.status,
            "residual": self.residual,
            "iterations": self.iterations,
        }
        if self.model is not None:
            doc["model"] = self.model.to_json()
        return doc


@dataclass(frozen=True)
class GhzExpectations:
    """Expectation values of the four three-qubit stabilizer-style
    operators xxx, xyy, yxy, yyx, with eigenstate residuals."""

    values: tuple
    eigenstate_residuals: tuple


# Entries per chunk of a batch of states: 4 MB of complex, so that a batch
# of any size runs in bounded memory.
_BATCH_ENTRIES = 1 << 18


def _states_per_chunk(settings, dA: int, dB: int) -> int:
    """How many dA x dB states a chunk holds under settings: as many as keep
    their factors (rows x dB entries, for rows = k dA conditional states)
    and distance matrices (rows^2) within _BATCH_ENTRIES entries, at least one."""
    rows = len(settings) * dA
    return max(1, _BATCH_ENTRIES // max(1, rows * (dB + rows)))


def pure_state_paradox(
    psi,
    settings,
    tol: Tolerances = DEFAULT_TOL,
):
    """Run the trace-sum contradiction for a pure bipartite state.

    For an entangled input and k pairwise-distinct settings: every
    nonvacuous conditional state is verified rank-1 and pairwise distinct,
    each equation is collapsed onto a single hidden state with response
    probability 1, and the certificate reports the hidden-side trace sum k
    against the quantum value 1.

    Separable inputs yield applicable=False rather than an error.

    psi is a BipartitePureState, the batch of one, or a PureStates batch,
    whose certificates come as a list, in order. A batch goes in chunks of
    at most _BATCH_ENTRIES factor and distance entries (at least one state);
    each chunk validates and compares the settings once and makes one
    conditional_states and one purity_profile call. A setting's deviations
    from a basis are computed once per setting, and whether two settings
    coincide once per settings tuple and tol.state_eq; the tolerances are
    applied on every call. A failed check raises the error of the first
    failing state.
    """
    settings = list(settings)
    if isinstance(psi, BipartitePureState):
        return _paradoxes(PureStates.of(psi), settings, tol)[0]
    step = _states_per_chunk(settings, psi.dA, psi.dB)
    return [cert for lo in range(0, len(psi), step) for cert in _paradoxes(psi[lo : lo + step], settings, tol)]


def _paradoxes(psi: PureStates, settings: list, tol: Tolerances) -> list:
    """The certificates of one chunk of a batch, in order."""
    if (k := len(settings)) < 2:
        raise ValueError(f"need at least 2 settings, got {k}")
    asms = conditional_states(psi, settings, (psi.dA, psi.dB), tol)  # validates the settings
    if pair := _coinciding_pair(tuple(settings), tol.state_eq):
        i, j = pair
        raise CoincidentSettingsError(f"settings {settings[i].label!r} and {settings[j].label!r} coincide")

    entangled = psi.entangled(tol).tolist()
    live = [asm for asm, e in zip(asms, entangled) if e]
    verdicts = iter(())
    if live:
        profiles = purity_profile(live, tol)
        for prof in profiles:
            _require_collapsible(prof, tol)
        lhs = _stack([prof.probabilities for prof in profiles]).sum(axis=1).tolist()
        quantum = _stack([asm.bob_reduced for asm in live]).trace(axis1=1, axis2=2).real.tolist()
        verdicts = zip(live, profiles, lhs, quantum)
    note = "k-setting extension of the two-setting collapse" if k > 2 else None
    certs = []
    for e in entangled:
        if not e:
            certs.append(ParadoxCertificate(False, _SEPARABLE, k, float("nan"), float("nan"), None, None, tol))
            continue
        asm, prof, lhs, quantum = next(verdicts)
        certs.append(ParadoxCertificate(True, _APPLIES, k, lhs, quantum, asm, prof, tol, note))
    return certs


# Settings tuples whose coincidence verdict is kept, per tol.state_eq. The
# CLI hands every run of one spec the same tuple, so it is compared once.
_COINCIDENCE_CACHE = 64


@functools.lru_cache(maxsize=_COINCIDENCE_CACHE)
def _coinciding_pair(settings: tuple, state_eq: float):
    """(i, j) of the first two of the validated settings that coincide, in
    row-major order, or None.

    Validated, each setting is a basis of d vectors at trace distance 1 from
    each other, so each projector is within state_eq < 1/2 of at most one
    partner: settings i and j coincide iff every projector of each has a
    partner in the other.
    """
    k, d = len(settings), settings[0].dim
    vecs = np.concatenate([s.vectors for s in settings], axis=1).T
    close = (projector_distances(vecs) <= state_eq).reshape(k, d, k, d)
    paired = close.any(axis=3).all(axis=1)
    i, j = np.nonzero(np.triu(paired & paired.T, 1))
    return (int(i[0]), int(j[0])) if i.size else None


def _require_collapsible(prof: PurityProfile, tol: Tolerances) -> None:
    """Raise unless no two nonvacuous conditional states coincide, as the
    single-term collapse needs; each is rank 1 by construction."""
    if prof.min_distance <= tol.state_eq:
        raise DegenerateSettingGeometryError(
            "some normalized conditional states coincide across outcomes or "
            "settings; the single-term collapse needs them pairwise distinct "
            f"(min trace distance {prof.min_distance:.3e})"
        )


def separable_lhs_model(
    psi: BipartitePureState,
    settings,
    tol: Tolerances = DEFAULT_TOL,
) -> LHSModel:
    """Single-hidden-state model reproducing a product state's assemblage.

    The hidden state is Bob's (pure) reduced state and the responses are
    Alice's local outcome probabilities u_a^dag rho_A u_a = |Psi^dag u_a|^2.
    """
    if psi.entangled(tol):
        raise ValueError("separable_lhs_model requires a separable (Schmidt rank 1) state")
    settings = list(settings)
    if not settings:
        raise ValueError("need at least one measurement setting")
    for s in settings:
        if s.dim != psi.dA:
            raise ValueError(f"setting {s.label!r} acts on dim {s.dim}, expected {psi.dA}")
    vectors = np.concatenate([s.vectors for s in settings], axis=1)
    probs = np.sum(np.abs(psi.coefficients.conj().T @ vectors) ** 2, axis=0)
    counts = tuple(s.outcomes for s in settings)
    return LHSModel(np.ones(1), psi.reduced_bob()[None], probs[:, None], counts)


def lhs_reconstruct(model: LHSModel, settings, tol: Tolerances = DEFAULT_TOL) -> Assemblage:
    """Assemble rho~^n_a = sum_xi p(a|n,xi) w_xi rho_xi from a model. The
    settings must have the model's outcome counts."""
    model.validate(tol=tol)
    settings = list(settings)
    counts = tuple(s.outcomes for s in settings)
    if counts != model.outcome_counts:
        raise ValueError(f"settings have outcome counts {counts}, the model {model.outcome_counts}")
    weighted = model.weights[:, None, None] * model.hidden_states
    return Assemblage(
        setting_labels=tuple(s.label for s in settings),
        outcome_counts=counts,
        stack=np.tensordot(model.responses, weighted, axes=1),
        bob_reduced=weighted.sum(axis=0),
        dims=(settings[0].dim, weighted.shape[-1]),
    )


def default_candidates(a: Assemblage, tol: Tolerances = DEFAULT_TOL):
    """Natural candidate ensemble: the normalized conditional states of the
    assemblage plus Bob's reduced state."""
    probs = np.trace(a.stack, axis1=1, axis2=2).real
    live = probs > tol.rank1
    cands = list(a.stack[live] / probs[live, None, None])
    cands.append(a.bob_reduced / float(np.trace(a.bob_reduced).real))
    return cands


def _vectorize_hermitian(m: np.ndarray) -> np.ndarray:
    """Real vector of each d x d Hermitian matrix in a stack: diagonal, then
    real and imaginary parts of the strict upper triangle. No redundancy."""
    upper = m[..., _strict_upper(m.shape[-1])]  # row by row, as np.triu_indices
    return np.concatenate([np.diagonal(m, axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1)


def lhs_feasibility_lp(
    a: Assemblage,
    candidates=None,
    tol: Tolerances = DEFAULT_TOL,
) -> FeasibilityOutcome:
    """Search for an LHS model of an assemblage over fixed hidden states.

    Solves for nonnegative weights w_{c,D} over candidates c and
    deterministic strategies D (one fixed outcome per setting) such that
    rho~^n_a = sum over {c, D with D(n)=a} of w_{c,D} rho_c. A phase-1
    simplex solves these without rows zero in both A and b and without the
    last outcome of each setting after the first, which the rest imply: in
    every column, each setting's outcome rows sum to the same rho_c. The
    verdict and residual, max(phase-1 residual, ||A x - b||_1), are on all
    rows; a dropped row then misses by the same amount for every solution of
    the kept ones, so an assemblage that breaks no-signalling is rejected.
    A feasible point is folded back into weights and stochastic responses.
    Every candidate must be a density matrix within tol.lp.
    """
    if candidates is None:
        candidates = default_candidates(a, tol)
    candidates = np.array(candidates, dtype=complex)
    dB = a.dims[1]
    if candidates.ndim != 3 or candidates.shape[1:] != (dB, dB) or not len(candidates):
        raise ValueError(f"candidates have shape {candidates.shape}, expected (count > 0, {dB}, {dB})")
    _require_states(candidates, tol, "candidate")

    strategies = np.array(list(itertools.product(*(range(o) for o in a.outcome_counts))))
    keys = row_keys(a.outcome_counts)
    # hits[row, di]: strategy di answers outcome a on setting n, (n, a) = keys[row]
    hits = strategies[:, keys[:, 0]].T == keys[:, 1:]
    cand_vec = _vectorize_hermitian(candidates)
    b = _vectorize_hermitian(a.stack)
    implied = (keys[:, 0] > 0) & (keys[:, 1] == np.asarray(a.outcome_counts)[keys[:, 0]] - 1)
    # Equation (row, component i) has entry i of candidate c's vector in
    # column (c, di) where hits[row, di], and 0 elsewhere.
    rows, comps = np.nonzero(~implied[:, None] & (cand_vec.any(axis=0) | (b != 0)))
    A = np.where(hits[rows, None, :], cand_vec.T[comps, :, None], 0.0).reshape(rows.size, -1)
    result = phase_one(A, b[rows, comps], tol=tol.lp)
    w = result.x.reshape(len(candidates), -1)
    hit_weights = w @ hits.T  # (candidates, rows)
    residual = max(result.residual, float(np.abs(hit_weights.T @ cand_vec - b).sum()))
    weights_per_candidate = w.sum(axis=1)
    kept = np.flatnonzero(weights_per_candidate > tol.lp)
    if residual > tol.lp or not kept.size:  # no kept candidate only if every row is vacuous
        return FeasibilityOutcome("InfeasibleWithinAnsatz", None, residual, result.iterations)
    weights = weights_per_candidate[kept] / weights_per_candidate[kept].sum()
    p = hit_weights[kept] / weights_per_candidate[kept, None]
    model = LHSModel(weights, candidates[kept], p.T, a.outcome_counts)
    return FeasibilityOutcome("FeasibleModelFound", model, residual, result.iterations)


_PAULI = {"x": PAULI_X, "y": PAULI_Y}
# xxx, xyy, yxy and yyx as read-only 8 x 8 matrices, built once.
_GHZ_OPERATORS = np.array(
    [np.kron(np.kron(_PAULI[a], _PAULI[b]), _PAULI[c]) for a, b, c in ("xxx", "xyy", "yxy", "yyx")]
)
_GHZ_OPERATORS.setflags(write=False)


def ghz_operator_expectations(state: MultiQubitPureState) -> GhzExpectations:
    """Expectations of xxx, xyy, yxy, yyx on a three-qubit state, plus the
    residual ||O psi - <O> psi|| per operator (zero iff exact eigenstate)."""
    if state.n_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {state.n_qubits} qubits")
    psi = state.vector
    values = []
    residuals = []
    for op in _GHZ_OPERATORS:
        applied = op @ psi
        val = float(np.real(np.vdot(psi, applied)))
        values.append(val)
        residuals.append(float(np.linalg.norm(applied - val * psi)))
    return GhzExpectations(tuple(values), tuple(residuals))


def ghz_lhv_bruteforce(targets=(1, -1, -1, -1)):
    """Exhaustively test all 64 assignments of +/-1 to the six local values
    (v1x, v2x, v3x, v1y, v2y, v3y) against the four product constraints.

    Returns (satisfying assignment count, witness product). The witness is
    the product of the four constraint targets: since every squared value
    drops out, any joint assignment would force that product to equal +1,
    so -1 certifies that no assignment can exist.
    """
    count = 0
    for v1x, v2x, v3x, v1y, v2y, v3y in itertools.product((-1, 1), repeat=6):
        if (
            v1x * v2x * v3x == targets[0]
            and v1x * v2y * v3y == targets[1]
            and v1y * v2x * v3y == targets[2]
            and v1y * v2y * v3x == targets[3]
        ):
            count += 1
    witness = 1
    for t in targets:
        witness *= t
    return count, witness
