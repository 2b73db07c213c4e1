"""Projective measurement settings on Alice's side.

A setting is a labeled, ordered, complete set of rank-1 orthogonal
projectors. Outcome 0 of a Bloch setting is the +1 eigenspace of
n.sigma; qudit outcomes follow basis index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, as_matrix, herm_deviation
from .states import density

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


@dataclass(frozen=True)
class MeasurementSetting:
    """Labeled complete set of rank-1 projectors on a d-dimensional system."""

    label: str
    projectors: tuple

    def __post_init__(self):
        projs = tuple(as_matrix(p) for p in self.projectors)
        if not projs:
            raise ValueError("a setting needs at least one projector")
        d = projs[0].shape[0]
        for p in projs:
            if p.shape != (d, d):
                raise ValueError(f"projector shape {p.shape} inconsistent with dimension {d}")
        for p in projs:
            p.setflags(write=False)
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def outcomes(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class SettingValidation:
    """Max deviations of a setting from the projective-measurement axioms."""

    idempotence: float
    hermiticity: float
    orthogonality: float
    completeness: float
    passed: bool
    details: dict = field(default_factory=dict)


def bloch_projectors(n) -> MeasurementSetting:
    """Two-outcome qubit setting along a unit Bloch vector n.

    P_a = (1 + (-1)^a n.sigma)/2, so outcome 0 projects onto the +1
    eigenspace of n.sigma.
    """
    n = np.asarray(n, dtype=float).ravel()
    if n.size != 3:
        raise ValueError(f"Bloch vector must have 3 components, got {n.size}")
    nrm = float(np.linalg.norm(n))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"Bloch vector norm {nrm} is not 1")
    ns = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    eye = np.eye(2, dtype=complex)
    label = f"bloch({n[0]:g},{n[1]:g},{n[2]:g})"
    return MeasurementSetting(label, ((eye + ns) / 2, (eye - ns) / 2))


def angle_projectors(alpha: float) -> MeasurementSetting:
    """Qubit setting onto cos(a)|0>+sin(a)|1> and sin(a)|0>-cos(a)|1>."""
    v0 = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
    v1 = np.array([np.sin(alpha), -np.cos(alpha)], dtype=complex)
    return MeasurementSetting(f"angle({alpha:g})", (density(v0), density(v1)))


def computational_basis(d: int) -> MeasurementSetting:
    """The d projectors |m><m| in index order."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    projs = []
    for m in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[m, m] = 1.0
        projs.append(p)
    return MeasurementSetting(f"Z(d={d})", tuple(projs))


def fourier_mub_basis(d: int) -> MeasurementSetting:
    """Projectors onto the discrete-Fourier basis, unbiased to the
    computational basis: every cross overlap is exactly 1/d."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    k = np.arange(d)
    projs = tuple(density(omega ** (k * mp) / np.sqrt(d)) for mp in range(d))
    return MeasurementSetting(f"X(d={d})", projs)


def basis_from_unitary(u, label: str = "unitary") -> MeasurementSetting:
    """Setting whose projectors are onto the columns of a unitary u.

    Covers the freedom of choosing any basis not fully overlapping the
    computational one.
    """
    u = as_matrix(u)
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-8:
        raise ValueError("matrix is not unitary")
    return MeasurementSetting(label, tuple(density(u[:, m]) for m in range(d)))


def validate_setting(s: MeasurementSetting, tol: Tolerances = DEFAULT_TOL) -> SettingValidation:
    """Report max deviations from idempotence, hermiticity, orthogonality
    and completeness; passes iff all are within tol.eig."""
    projs = np.stack(s.projectors)
    d = s.dim
    idem = float(np.max(np.abs(projs @ projs - projs)))
    herm = herm_deviation(projs)
    # one batched product per projector against all later ones
    pairs = (float(np.max(np.abs(projs[i] @ projs[i + 1 :]))) for i in range(len(projs) - 1))
    orth = max(pairs, default=0.0)
    comp = float(np.max(np.abs(projs.sum(axis=0) - np.eye(d))))
    passed = max(idem, herm, orth, comp) <= tol.eig
    return SettingValidation(idem, herm, orth, comp, passed, {"label": s.label, "dim": d})
