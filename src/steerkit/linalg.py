"""Dense complex linear algebra shared by the whole toolkit.

Matrices are plain ``numpy.ndarray`` of dtype complex. All functions are
pure; nothing here keeps state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_matrix",
    "kron",
    "partial_trace",
    "hermitian_eig",
    "trace_distance",
    "projector_distances",
    "is_rank_one",
    "schmidt_decompose",
    "herm_deviation",
    "unit_norm",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used across the toolkit.

    herm     : max entrywise deviation allowed from M = M^dagger
    eig      : residual allowed in eigen/Schmidt reconstructions
    state_eq : trace-distance threshold below which two states count as equal
    rank1    : subdominant eigenvalue mass below which a state counts as pure
    lp       : residual threshold for LP feasibility and LHS-model checks
    """

    herm: float = 1e-10
    eig: float = 1e-10
    state_eq: float = 1e-9
    rank1: float = 1e-9
    lp: float = 1e-8

    def __post_init__(self):
        for name in ("herm", "eig", "state_eq", "rank1", "lp"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"tolerance {name} must be finite and >= 0, got {v}")


DEFAULT_TOL = Tolerances()


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def unit_norm(v, what: str, atol: float = 1e-8) -> float:
    """The 2-norm of v. Raises ValueError, naming v as what, unless it is
    within atol of 1; a NaN norm is never within it."""
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= atol:
        raise ValueError(f"{what} norm {nrm} is not 1")
    return nrm


def herm_deviation(m: np.ndarray) -> float:
    """Max entrywise |M - M^dagger|, over every matrix of a stack."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - _dagger(m)))) if m.size else 0.0


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).conj()


def _require_hermitian(m, tol: Tolerances, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    dev = herm_deviation(m)
    if dev > tol.herm:
        raise ValueError(f"{what} is not Hermitian: max |M - M^dagger| = {dev:.3e}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product a (x) b."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(rho, dA: int, dB: int, keep: str = "B") -> np.ndarray:
    """Partial trace of a (dA*dB) x (dA*dB) matrix over one subsystem.

    keep="B" traces out subsystem A and returns a dB x dB matrix;
    keep="A" the opposite. The trace is preserved.
    """
    rho = as_matrix(rho)
    n = dA * dB
    if rho.shape != (n, n):
        raise ValueError(
            f"partial_trace: matrix shape {rho.shape} does not match dA*dB = {dA}*{dB} = {n}"
        )
    t = rho.reshape(dA, dB, dA, dB)
    if keep.upper() == "B":
        return np.einsum("imin->mn", t)
    if keep.upper() == "A":
        return np.einsum("imjm->ij", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def hermitian_eig(h, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as matching columns.
    """
    h = _require_hermitian(h, tol, "hermitian_eig input")
    w, v = np.linalg.eigh((h + _dagger(h)) / 2)
    return w[..., ::-1], v[..., ::-1]


def trace_distance(rho, sigma, tol: Tolerances = DEFAULT_TOL):
    """Trace distance (1/2)||rho - sigma||_1 for Hermitian inputs; stacks
    broadcast over leading axes and give an array of distances."""
    rho = _require_hermitian(rho, tol, "trace_distance first argument")
    sigma = _require_hermitian(sigma, tol, "trace_distance second argument")
    if rho.shape[-2:] != sigma.shape[-2:]:
        raise ValueError(f"trace_distance: shape mismatch {rho.shape} vs {sigma.shape}")
    diff = rho - sigma
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh((diff + _dagger(diff)) / 2)), axis=-1)


# Residual entries per block of rows: 256 KB of complex, which stays in
# cache and bounds the memory for any number of states.
_BLOCK_ENTRIES = 1 << 14


def projector_distances(vecs: np.ndarray) -> np.ndarray:
    """Trace distances between the projectors onto unit vectors vecs[i].

    Each is the norm of v_j's component orthogonal to v_i, which keeps full
    accuracy where sqrt(1 - |<v_i|v_j>|^2) cancels to 0 for nearly equal
    states. An (..., m, d) stack gives the (..., m, m) distances within
    each set of m vectors. Rows go in blocks of at most _BLOCK_ENTRIES
    residual entries, or of one row of every set where that is more.
    """
    m, d = vecs.shape[-2:]
    dist = np.zeros(vecs.shape[:-1] + (m,))
    step = max(1, _BLOCK_ENTRIES // max(1, vecs.size))
    for i in range(0, m, step):
        v, w = vecs[..., i : i + step, :], vecs[..., i:, :]
        r = w[..., None, :, :] - (v.conj() @ w.swapaxes(-1, -2))[..., None] * v[..., None, :]
        dist[..., i : i + step, i:] = np.sqrt(np.sum(r.real**2 + r.imag**2, axis=-1))
    dist = np.triu(dist, 1)
    return dist + dist.swapaxes(-1, -2)


def is_rank_one(rho, tol: Tolerances = DEFAULT_TOL):
    """Test whether a PSD matrix, or each in a stack, is rank one up to
    tolerance.

    Returns (flag, principal eigenvector, residual_mass) as numpy values,
    where residual_mass is the subdominant eigenvalue mass relative to the
    trace.
    Zero-trace input is rejected: it signals a probability-zero outcome and
    the caller must decide what that means.
    """
    w, v = hermitian_eig(rho, tol)
    low = w[..., -1]
    not_psd = low < -tol.eig * np.maximum(1.0, np.max(np.abs(w), axis=-1))
    if np.any(not_psd):
        raise ValueError(f"is_rank_one: input not PSD, min eigenvalue {np.min(low[not_psd]):.3e}")
    tr = np.sum(w, axis=-1)
    if np.any(tr <= tol.rank1):
        raise ValueError(f"is_rank_one: trace {np.min(tr):.3e} is not positive")
    residual = np.sum(np.abs(w[..., 1:]), axis=-1) / tr
    return residual <= tol.rank1, v[..., 0].copy(), residual


def schmidt_decompose(psi, dA: int, dB: int, tol: Tolerances = DEFAULT_TOL):
    """Schmidt decomposition of a unit bipartite vector.

    Returns (coeffs, left_vecs, right_vecs): nonnegative coefficients in
    descending order with sum of squares 1, and orthonormal vectors as
    columns so that psi = sum_m coeffs[m] * kron(left[:,m], right[:,m]).
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != dA * dB:
        raise ValueError(f"schmidt_decompose: vector length {psi.size} != dA*dB = {dA * dB}")
    unit_norm(psi, "schmidt_decompose: input", max(tol.eig, 1e-8))
    u, s, vh = np.linalg.svd(psi.reshape(dA, dB), full_matrices=False)
    return s.copy(), u.copy(), vh.T.copy()
