"""Steering checks: the k-vs-1 trace paradox for pure entangled states,
the explicit single-hidden-state model for separable states, LP-based
local-hidden-state feasibility over a finite candidate ensemble, and the
GHZ all-versus-nothing enumeration."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assemblage import Assemblage, PurityProfile, _checked_settings, _stack, conditional_states, no_signalling_check
from .assemblage import purity_profile, row_keys, setting_sums
from .linalg import _SHAPE_CACHE, DEFAULT_TOL, Tolerances, _read_only, _strict_upper
from .measurements import PAULI_X, PAULI_Y
from .simplex import phase_one
from .states import BipartitePureState, MultiQubitPureState, PureStates

__all__ = [
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


class DegenerateSettingGeometryError(ValueError):
    """Entangled input but some normalized conditional states coincide, so
    the single-term collapse step cannot be applied as stated. closest names
    the closest pair, at trace distance distance, and position the failing
    state's batch index, None for a batch of one."""

    def __init__(self, closest: str, distance: float, position=None):
        super().__init__(closest, distance, position)
        self.closest, self.distance, self.position = closest, distance, position

    def __str__(self):
        where = "" if self.position is None else f" of batch index {self.position}"
        return (
            "some normalized conditional states coincide across outcomes or settings; the single-term collapse "
            f"needs them pairwise distinct; closest: {self.closest}{where} (min trace distance {self.distance:.3e})"
        )


def _require_states(stack: np.ndarray, lp: float, what: str) -> None:
    """Raise ValueError unless every matrix of an (H, d, d) stack is a
    density matrix: Hermitian, PSD and of unit trace, each within lp."""
    herm = np.max(np.abs(stack - np.swapaxes(stack, 1, 2).conj()), axis=(1, 2))
    low = np.linalg.eigvalsh(stack)[:, 0]
    trace = np.trace(stack, axis1=1, axis2=2).real
    bad = np.flatnonzero(~((herm <= lp) & (low >= -lp) & (np.abs(trace - 1.0) <= lp)))  # NaN fails
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
        if not np.all(w > 0):
            raise ValueError(f"all hidden-state weights must be positive, the smallest is {np.min(w)}")
        if abs(float(np.sum(w)) - 1.0) > tol.lp:
            raise ValueError(f"weights sum to {np.sum(w)}, expected 1")
        _require_states(self.hidden_states, tol.lp, "hidden state")
        if not np.min(self.responses) >= -tol.lp:
            raise ValueError(f"a response is negative or NaN: {np.min(self.responses)}")
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


@dataclass(frozen=True)
class ParadoxCertificate:
    """Verdict record for the k-vs-1 trace contradiction.

    no_signalling_deviation is no_signalling_check of the assemblage:
    the contradiction holds only if every setting's conditional states sum
    to rho_B. assemblage and purity are the conditional states the verdict
    was drawn from and their purity profile. These, the trace sums and
    contradiction_magnitude are None when the paradox does not apply.
    """

    applicable: bool
    k: int
    lhs_trace_sum: float | None
    quantum_trace_sum: float | None
    no_signalling_deviation: float | None
    assemblage: Assemblage | None
    purity: PurityProfile | None
    tolerances: Tolerances

    @property
    def reason(self) -> str:
        if self.applicable:
            return "entangled pure state: trace contradiction established"
        return "separable: paradox not applicable"

    @property
    def note(self) -> str | None:
        return "k-setting extension of the two-setting collapse" if self.applicable and self.k > 2 else None

    @property
    def contradiction_magnitude(self) -> float | None:
        return self.lhs_trace_sum - self.quantum_trace_sum if self.applicable else None

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
                {"setting": n, "outcome": a, "hidden": xi} for (n, a), xi in self.collapsed_assignments.items()
            ],
            "tolerances": dict(vars(self.tolerances)),
        }
        if self.note:
            doc["note"] = self.note
        if self.purity is not None:
            # Factored rows are rank one by construction; schema 2 drops these two keys.
            doc["purity"] = {
                "all_rank_one": True,
                "max_residual_mass": 0.0,
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


def pure_state_paradox(psi, settings, tol: Tolerances = DEFAULT_TOL):
    """Run the trace-sum contradiction for a pure bipartite state.

    For an entangled input, the nonvacuous conditional states (rank 1 by
    construction) are checked pairwise distinct, which coincident settings
    fail; each equation is collapsed onto a single hidden state with
    response probability 1, and the certificate reports the hidden-side
    trace sum k against the quantum value 1. The certificate also carries
    the assemblage's no_signalling_check, which the contradiction assumes.

    Separable inputs yield applicable=False rather than an error.

    psi is a BipartitePureState, the batch of one, or a PureStates batch,
    whose certificates come as a list, in order. A batch runs as one
    computation, whatever its size: one call each of conditional_states,
    purity_profile and no_signalling_check. Its certificates keep every
    state's factors and principals, so memory grows with the batch; the CLI
    cuts its sweeps into batches of bounded size. A setting's deviations
    from a basis are computed once per setting; the tolerances are applied
    on every call. A failed check raises the error of the first failing
    state, naming its batch index when the batch holds more than one state.
    """
    settings = list(settings)
    if (k := len(settings)) < 2:
        raise ValueError(f"need at least 2 settings, got {k}")
    batch = psi if isinstance(psi, PureStates) else PureStates.of(psi)
    asms = conditional_states(batch, settings, (batch.dA, batch.dB), tol)  # validates the settings
    entangled = batch.entangled(tol).tolist()
    positions = [i for i, e in enumerate(entangled) if e]
    verdicts = iter(())
    if positions:
        live = [asms[i] for i in positions]
        profiles = purity_profile(live, tol)
        for i, prof in zip(positions, profiles):
            if prof.min_distance <= tol.state_eq:  # the single-term collapse needs them pairwise distinct
                (n, a), (n2, a2) = prof.closest.tolist()
                closest = f"outcome {a} of {settings[n].label!r} and outcome {a2} of {settings[n2].label!r}"
                raise DegenerateSettingGeometryError(closest, prof.min_distance, i if len(batch) > 1 else None)
        lhs = _stack([prof.probabilities for prof in profiles]).sum(axis=1).tolist()
        quantum = batch.bob_reduced.trace(axis1=1, axis2=2).real[positions].tolist()
        verdicts = zip(lhs, quantum, no_signalling_check(live), live, profiles)
    certs = [ParadoxCertificate(e, k, *(next(verdicts) if e else [None] * 5), tol) for e in entangled]
    return certs if batch is psi else certs[0]


def separable_lhs_model(
    psi: BipartitePureState,
    settings,
    tol: Tolerances = DEFAULT_TOL,
) -> LHSModel:
    """Single-hidden-state model reproducing a product state's assemblage.

    The hidden state is Bob's (pure) reduced state and the responses are
    Alice's local outcome probabilities u_a^dag rho_A u_a = |Psi^dag u_a|^2.
    The settings are validated as conditional_states validates them.
    """
    if psi.entangled(tol):
        raise ValueError("separable_lhs_model requires a separable (Schmidt rank 1) state")
    settings = _checked_settings(settings, psi.dA, tol)
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
        stack=_read_only(np.tensordot(model.responses, weighted, axes=1)),
        bob_reduced=_read_only(weighted.sum(axis=0)),
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
    upper = m.reshape(*m.shape[:-2], -1)[..., _strict_upper(m.shape[-1])]  # row by row
    return np.concatenate([np.diagonal(m, axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1)


_ANSATZ_CACHE = 64  # candidate ansatzes whose check and real vectors are kept, per tol.lp
_ANSATZ_BYTES = 1 << 16  # a larger ansatz is checked on every call and not kept


@functools.lru_cache(maxsize=_ANSATZ_CACHE)
def _candidate_vectors(data: bytes, shape: tuple, lp: float) -> np.ndarray:
    """Read-only real vectors of the complex candidate stack data, checked to
    be density matrices within lp; a failed check raises, and is not kept."""
    stack = np.frombuffer(data, dtype=complex).reshape(shape)
    _require_states(stack, lp, "candidate")
    return _read_only(_vectorize_hermitian(stack))


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _strategy_rows(counts: tuple):
    """Read-only (hits, implied) of the LHS LP: hits[row, di] when strategy di
    answers outcome a on setting n, (n, a) = row_keys(counts)[row]; implied
    marks the last outcome of each setting after the first."""
    strategies = np.array(list(itertools.product(*(range(o) for o in counts))))
    keys = row_keys(counts)
    hits = strategies[:, keys[:, 0]].T == keys[:, 1:]
    implied = (keys[:, 0] > 0) & (keys[:, 1] == np.asarray(counts)[keys[:, 0]] - 1)
    return _read_only(hits), _read_only(implied)


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
    Every candidate must be a density matrix within tol.lp; an ansatz within
    _ANSATZ_BYTES equal to a recent call's is not rechecked under that tol.lp.
    A non-finite entry of the assemblage raises ValueError before the solve.
    """
    if candidates is None:
        candidates = default_candidates(a, tol)
    candidates = np.array(candidates, dtype=complex)
    dB = a.dims[1]
    if candidates.ndim != 3 or candidates.shape[1:] != (dB, dB) or not len(candidates):
        raise ValueError(f"candidates have shape {candidates.shape}, expected (count > 0, {dB}, {dB})")
    check = _candidate_vectors if candidates.nbytes <= _ANSATZ_BYTES else _candidate_vectors.__wrapped__
    cand_vec = check(candidates.tobytes(), candidates.shape, tol.lp)

    hits, implied = _strategy_rows(tuple(a.outcome_counts))
    b = _vectorize_hermitian(a.stack)
    if not np.isfinite(b).all():
        raise ValueError("the assemblage has a non-finite entry")
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
# The GHZ state's eigenvalues of xxx, xyy, yxy and yyx.
GHZ_TARGETS = (1, -1, -1, -1)


def ghz_operator_expectations(state: MultiQubitPureState) -> GhzExpectations:
    """Expectations of xxx, xyy, yxy, yyx on a three-qubit state, plus the
    residual ||O psi - <O> psi|| per operator (zero iff exact eigenstate)."""
    if state.n_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {state.n_qubits} qubits")
    psi = state.vector
    applied = _GHZ_OPERATORS @ psi  # row i is operator i applied to psi
    values = (applied @ psi.conj()).real
    residuals = np.linalg.norm(applied - values[:, None] * psi, axis=1)
    return GhzExpectations(tuple(values.tolist()), tuple(residuals.tolist()))


def ghz_lhv_bruteforce(targets=GHZ_TARGETS):
    """Exhaustively test all 64 assignments of +/-1 to the six local values
    (v1x, v2x, v3x, v1y, v2y, v3y) against the four product constraints.

    Returns (satisfying assignment count, witness product). The witness is
    the product of the four constraint targets: since every squared value
    drops out, any joint assignment would force that product to equal +1,
    so -1 certifies that no assignment can exist.
    """
    count = sum(
        (v1x * v2x * v3x, v1x * v2y * v3y, v1y * v2x * v3y, v1y * v2y * v3x) == tuple(targets)
        for v1x, v2x, v3x, v1y, v2y, v3y in itertools.product((-1, 1), repeat=6)
    )
    return count, math.prod(targets)
