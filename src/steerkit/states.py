"""Constructors for the bipartite and multi-qubit states used everywhere.

All states are immutable value objects with eagerly cached Schmidt data,
since every downstream check consults it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, schmidt_decompose, unit_norm

__all__ = [
    "BipartitePureState",
    "MultiQubitPureState",
    "PureStates",
    "theta_state",
    "theta_states",
    "qudit_schmidt_state",
    "nopa_truncated",
    "separable_state",
    "ghz_state",
    "density",
]


@dataclass(frozen=True)
class BipartitePureState:
    """Unit vector on a dA x dB bipartite system with cached Schmidt data."""

    vector: np.ndarray
    dA: int
    dB: int
    schmidt_coeffs: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex).ravel()
        if vec.size != self.dA * self.dB:
            raise ValueError(
                f"vector length {vec.size} does not match dA*dB = {self.dA * self.dB}"
            )
        vec = vec / unit_norm(vec, "state vector")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        coeffs = schmidt_decompose(vec, self.dA, self.dB)[0]
        coeffs.setflags(write=False)
        object.__setattr__(self, "schmidt_coeffs", coeffs)

    def entangled(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        """True iff Bob's subdominant Schmidt mass sum_{m>0} c_m^2 exceeds
        tol.rank1, the mass tolerance that decides purity."""
        return float(np.sum(self.schmidt_coeffs[1:] ** 2)) > tol.rank1

    @property
    def coefficients(self) -> np.ndarray:
        """dA x dB matrix Psi with |psi> = sum_im Psi[i, m] |i>|m>."""
        return self.vector.reshape(self.dA, self.dB)

    def density_matrix(self) -> np.ndarray:
        return density(self.vector)

    def reduced_bob(self) -> np.ndarray:
        """rho_B = Psi^T Psi^*, without forming the bipartite density."""
        psi = self.coefficients
        return psi.T @ psi.conj()

    def to_json(self) -> dict:
        return {
            "dims": [self.dA, self.dB],
            "amplitudes": [[float(z.real), float(z.imag)] for z in self.vector],
        }

    @staticmethod
    def from_json(doc: dict) -> "BipartitePureState":
        dA, dB = (int(x) for x in doc["dims"])
        vec = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        return BipartitePureState(vec, dA, dB)


@dataclass(frozen=True)
class PureStates:
    """A batch of P pure states of one dA x dB system, for the paradox to
    run once over all of them: row p of each field is state p's
    coefficient matrix and descending Schmidt coefficients, as on a
    BipartitePureState."""

    coefficients: np.ndarray  # (P, dA, dB)
    schmidt_coeffs: np.ndarray  # (P, min(dA, dB))

    @staticmethod
    def of(psi: BipartitePureState) -> "PureStates":
        """The batch of one."""
        return PureStates(psi.coefficients[None], psi.schmidt_coeffs[None])

    @property
    def dA(self) -> int:
        return self.coefficients.shape[1]

    @property
    def dB(self) -> int:
        return self.coefficients.shape[2]

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, rows: slice) -> "PureStates":
        return PureStates(self.coefficients[rows], self.schmidt_coeffs[rows])

    def entangled(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """BipartitePureState.entangled of each state, as a bool array."""
        return np.sum(self.schmidt_coeffs[:, 1:] ** 2, axis=1) > tol.rank1


@dataclass(frozen=True)
class MultiQubitPureState:
    """Unit vector on n qubits."""

    vector: np.ndarray
    n_qubits: int

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex).ravel()
        if vec.size != 2**self.n_qubits:
            raise ValueError(f"vector length {vec.size} != 2^{self.n_qubits}")
        vec = vec / unit_norm(vec, "state vector")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    def density_matrix(self) -> np.ndarray:
        return density(self.vector)


def theta_state(theta: float) -> BipartitePureState:
    """cos(theta)|00> + sin(theta)|11> for theta in [0, pi/2].

    Boundary values construct fine but are separable; the paradox routines
    then refuse them with a typed verdict rather than an error.
    """
    if not (0.0 <= theta <= np.pi / 2):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    vec = np.zeros(4, dtype=complex)
    vec[0] = np.cos(theta)
    vec[3] = np.sin(theta)
    return BipartitePureState(vec, 2, 2)


def theta_states(thetas) -> PureStates:
    """The batch of theta_state(t) for each t, in order, without building
    a state object per angle. Each row is normalized by its own
    np.linalg.norm, as BipartitePureState normalizes, so that it equals the
    single state's bit for bit.
    """
    for theta in thetas:
        if not (0.0 <= theta <= np.pi / 2):
            raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    angles = np.asarray(thetas, dtype=float)
    vecs = np.zeros((len(angles), 4), dtype=complex)
    vecs[:, 0] = np.cos(angles)
    vecs[:, 3] = np.sin(angles)
    vecs /= np.array([np.linalg.norm(v) for v in vecs])[:, None]
    coefficients = vecs.reshape(-1, 2, 2)
    return PureStates(coefficients, np.linalg.svd(coefficients, full_matrices=False)[1])


def qudit_schmidt_state(lambdas) -> BipartitePureState:
    """sum_m lambda_m |mm> for a nonnegative unit-norm coefficient vector."""
    lam = np.asarray(lambdas, dtype=float).ravel()
    d = lam.size
    if d < 2:
        raise ValueError(f"need at least 2 Schmidt coefficients, got {d}")
    if np.any(lam < 0):
        raise ValueError("Schmidt coefficients must be nonnegative")
    unit_norm(lam, "Schmidt coefficient vector")
    vec = np.zeros(d * d, dtype=complex)
    vec[np.arange(d) * (d + 1)] = lam
    return BipartitePureState(vec, d, d)


def nopa_truncated(r: float, d: int):
    """Truncated two-mode squeezed vacuum on d Fock levels per side.

    Raw coefficients tanh(r)^m (the 1/cosh(r) factor cancels) are
    renormalized to a genuine unit vector; the discarded tail mass
    tanh(r)^(2d) is returned alongside for diagnostics.
    """
    if not 0 < r < np.inf:
        raise ValueError(f"squeezing parameter r must be finite and > 0, got {r}")
    if d < 2:
        raise ValueError(f"truncation dimension d must be >= 2, got {d}")
    t = np.tanh(r)
    raw = t ** np.arange(d)
    lam = raw / np.linalg.norm(raw)
    truncation_weight = float(t ** (2 * d))  # tail of the squares (t^m / cosh r)^2, which sum to 1
    return qudit_schmidt_state(lam), truncation_weight


def separable_state(beta) -> BipartitePureState:
    """|0> (x) |beta> for a unit qubit vector beta."""
    b = np.asarray(beta, dtype=complex).ravel()
    if b.size != 2:
        raise ValueError(f"beta must be a 2-vector, got length {b.size}")
    vec = np.zeros(4, dtype=complex)
    vec[:2] = b / unit_norm(b, "beta")
    return BipartitePureState(vec, 2, 2)


def ghz_state() -> MultiQubitPureState:
    """(|000> + |111>)/sqrt(2)."""
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / np.sqrt(2)
    return MultiQubitPureState(vec, 3)


def density(psi) -> np.ndarray:
    """Projector |psi><psi| of a unit vector."""
    v = np.asarray(psi, dtype=complex).ravel()
    unit_norm(v, "density: input")
    return np.outer(v, v.conj())
