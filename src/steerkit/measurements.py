"""Projective measurement settings on Alice's side.

A setting is a labeled, ordered orthonormal basis: outcome a projects onto
column a of a unitary. Outcome 0 of a Bloch setting is the +1 eigenspace
of n.sigma; qudit outcomes follow basis index order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, unit_norm

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "MeasurementSetting",
    "SettingValidation",
    "bloch_projectors",
    "angle_projectors",
    "computational_basis",
    "fourier_mub_basis",
    "basis_from_unitary",
    "validate_setting",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """Labeled rank-1 projective measurement on a d-dimensional system,
    stored as a read-only complex d x k matrix whose column a is outcome a's
    vector. Only the shape is checked here; see validate_setting. Two
    settings are equal iff their labels and vectors are. A setting never
    changes, so what is derived from its vectors alone is computed on first
    use and kept."""

    label: str
    vectors: np.ndarray

    def __post_init__(self):
        u = np.array(self.vectors, dtype=complex)
        if u.ndim != 2 or u.shape[1] == 0:
            raise ValueError(f"a setting needs a d x k matrix with k >= 1, got shape {u.shape}")
        u.setflags(write=False)
        object.__setattr__(self, "vectors", u.view())  # a view of a read-only array cannot be made writeable

    def __eq__(self, other):
        same = isinstance(other, MeasurementSetting) and self.label == other.label
        return same and np.array_equal(self.vectors, other.vectors)

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:  # + 0 maps -0.0, which array_equal counts equal, to 0.0
        return hash((self.label, self.vectors.shape, (self.vectors + 0).tobytes()))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def outcomes(self) -> int:
        return self.vectors.shape[1]

    @property
    def projectors(self) -> np.ndarray:
        """Read-only (k, d, d) stack of |u_a><u_a|, derived on each access."""
        p = self.vectors.T[:, :, None] * self.vectors.T.conj()[:, None, :]
        p.setflags(write=False)
        return p


_DEVIATIONS_CACHE = 64  # settings whose deviations are kept; equal settings share an entry


@functools.lru_cache(maxsize=_DEVIATIONS_CACHE)
def _basis_deviations(s: MeasurementSetting) -> tuple:
    """(max|U^dag U - 1|, max|U U^dag - 1|) of the vectors U."""
    u = s.vectors
    orth = float(np.max(np.abs(u.conj().T @ u - np.eye(s.outcomes))))
    return orth, float(np.max(np.abs(u @ u.conj().T - np.eye(s.dim))))


@dataclass(frozen=True)
class SettingValidation:
    """Max deviations of a setting's vectors U from an orthonormal basis:
    orthonormality is max|U^dag U - 1| and completeness max|U U^dag - 1|."""

    orthonormality: float
    completeness: float
    passed: bool

    def __str__(self):
        return f"max|U^dag U - 1| = {self.orthonormality:.3e}, max|U U^dag - 1| = {self.completeness:.3e}"


def bloch_projectors(n) -> MeasurementSetting:
    """Two-outcome qubit setting along a unit Bloch vector n.

    The columns are the +1 and -1 eigenvectors of n.sigma in closed form,
    so P_a = (1 + (-1)^a n.sigma)/2. Each hemisphere uses the form whose
    norm is at least sqrt(2), so n = -z needs no special case.
    """
    n = np.asarray(n, dtype=float).ravel()
    if n.size != 3:
        raise ValueError(f"Bloch vector must have 3 components, got {n.size}")
    unit_norm(n, "Bloch vector")
    x, y, z = n
    if z >= 0:
        u = np.array([[1 + z, -(x - 1j * y)], [x + 1j * y, 1 + z]])
    else:
        u = np.array([[x - 1j * y, 1 - z], [1 - z, -(x + 1j * y)]])
    return MeasurementSetting(f"bloch({x:g},{y:g},{z:g})", u / np.linalg.norm(u, axis=0))


def angle_projectors(alpha: float) -> MeasurementSetting:
    """Qubit setting onto cos(a)|0>+sin(a)|1> and sin(a)|0>-cos(a)|1>."""
    c, s = np.cos(alpha), np.sin(alpha)
    return MeasurementSetting(f"angle({alpha:g})", np.array([[c, s], [s, -c]]))


def computational_basis(d: int) -> MeasurementSetting:
    """The d projectors |m><m| in index order."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return MeasurementSetting(f"Z(d={d})", np.eye(d))


def fourier_mub_basis(d: int) -> MeasurementSetting:
    """The discrete-Fourier basis U[j, m] = omega^(jm)/sqrt(d), unbiased to
    the computational basis: every cross overlap is exactly 1/d. Each phase
    is taken from jm mod d, so its error does not grow with jm."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    k = np.arange(d)
    return MeasurementSetting(f"X(d={d})", np.exp(2j * np.pi * (np.outer(k, k) % d) / d) / np.sqrt(d))


def basis_from_unitary(u, label: str = "unitary") -> MeasurementSetting:
    """Setting whose projectors are onto the columns of a unitary u.

    Covers the freedom of choosing any basis not fully overlapping the
    computational one. Raises ValueError if validate_setting fails.
    """
    s = MeasurementSetting(label, u)
    report = validate_setting(s)
    if not report.passed:
        raise ValueError(f"matrix is not unitary: {report}")
    return s


def validate_setting(s: MeasurementSetting, tol: Tolerances = DEFAULT_TOL) -> SettingValidation:
    """Check that the columns of s.vectors are an orthonormal basis.

    Reports max|U^dag U - 1| (orthonormality) and max|U U^dag - 1|
    (completeness); passes iff both are within tol.eig. The projectors
    u u^dag are then Hermitian, idempotent and pairwise orthogonal by
    construction, so nothing else is checked. The deviations are computed
    once per distinct setting (equal settings share them); the comparison
    with tol.eig is made on every call.
    """
    orth, comp = _basis_deviations(s)
    return SettingValidation(orth, comp, max(orth, comp) <= tol.eig)
