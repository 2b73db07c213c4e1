"""Constructors for the bipartite and multi-qubit states used everywhere.

All states are immutable value objects. Schmidt coefficients are
computed on first use and kept.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, unit_norm

__all__ = [
    "BipartitePureState",
    "MultiQubitPureState",
    "PureStates",
    "theta_state",
    "qudit_schmidt_state",
    "nopa_truncated",
    "separable_state",
    "ghz_state",
    "density",
]


@dataclass(frozen=True)
class BipartitePureState:
    """Unit vector on a dA x dB bipartite system."""

    vector: np.ndarray
    dA: int
    dB: int

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex).ravel()
        if vec.size != self.dA * self.dB:
            raise ValueError(
                f"vector length {vec.size} does not match dA*dB = {self.dA * self.dB}"
            )
        vec = vec / unit_norm(vec, "state vector")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @functools.cached_property
    def schmidt_coeffs(self) -> np.ndarray:
        """Descending Schmidt coefficients, read-only (those of the batch
        of one, on first use)."""
        coeffs = PureStates.of(self).schmidt_coeffs[0]
        coeffs.setflags(write=False)
        return coeffs

    def entangled(self, tol: Tolerances = DEFAULT_TOL) -> bool:
        """PureStates.entangled of the batch of one."""
        return bool(PureStates.of(self).entangled(tol)[0])

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


@dataclass(frozen=True)
class PureStates:
    """A batch of P pure states of one dA x dB system, for the paradox to
    run once over all of them: row p of coefficients and of schmidt_coeffs
    is state p's coefficient matrix and descending Schmidt coefficients, as
    on a BipartitePureState."""

    coefficients: np.ndarray  # (P, dA, dB)

    @staticmethod
    def of(*states: BipartitePureState) -> "PureStates":
        """The batch of the given states, in order; they must share their dims."""
        return PureStates(np.stack([psi.coefficients for psi in states]))

    @functools.cached_property
    def schmidt_coeffs(self) -> np.ndarray:
        """(P, min(dA, dB)) Schmidt coefficients, from one batched SVD on first use."""
        return np.linalg.svd(self.coefficients, compute_uv=False)

    @property
    def dA(self) -> int:
        return self.coefficients.shape[1]

    @property
    def dB(self) -> int:
        return self.coefficients.shape[2]

    def __len__(self) -> int:
        return len(self.coefficients)

    def entangled(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """True for each state whose subdominant Schmidt mass sum_{m>0} c_m^2
        exceeds tol.rank1, the mass tolerance that decides purity; a bool
        array."""
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


def theta_state(theta: float) -> BipartitePureState:
    """cos(theta)|00> + sin(theta)|11> for theta in [0, pi/2].

    Boundary values construct fine but are separable; the paradox routines
    then refuse them with a typed verdict rather than an error.
    """
    if not (0.0 <= theta <= np.pi / 2):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    return BipartitePureState(np.array([np.cos(theta), 0, 0, np.sin(theta)], dtype=complex), 2, 2)


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
