"""Dense complex linear algebra shared by the whole toolkit.

Matrices are plain ``numpy.ndarray`` of dtype complex. All functions are
pure; the only state kept is read-only constant arrays, cached per shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "partial_trace",
    "hermitian_eig",
    "trace_distance",
    "projector_distances",
    "herm_deviation",
    "unit_norm",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used across the toolkit.

    herm     : max entrywise deviation from M = M^dagger that hermitian_eig
               and trace_distance allow
    eig      : residual allowed in eigen reconstructions and basis checks
    state_eq : trace-distance threshold below which two states count as equal
    rank1    : subdominant Schmidt mass (all but the largest eigenvalue of
               rho_B) above which a pure state is entangled,
               and outcome probability up to which a conditional state is vacuous
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


def _read_only(a, dtype=None) -> np.ndarray:
    """np.asarray(a, dtype), flagged read-only."""
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def unit_norm(v, what: str) -> float:
    """The 2-norm of v. Raises ValueError, naming v as what, unless it is
    within 1e-8 of 1; a NaN norm is never within it."""
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= 1e-8:
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


def partial_trace(rho, dA: int, dB: int) -> np.ndarray:
    """Partial trace of a (dA*dB) x (dA*dB) matrix over subsystem A: the
    dB x dB matrix tr_A rho. The trace is preserved."""
    rho = np.asarray(rho, dtype=complex)
    n = dA * dB
    if rho.shape != (n, n):
        raise ValueError(
            f"partial_trace: matrix shape {rho.shape} does not match dA*dB = {dA}*{dB} = {n}"
        )
    return np.einsum("imin->mn", rho.reshape(dA, dB, dA, dB))


# Kept because bench/tracing.py wraps it.
def hermitian_eig(h, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as matching columns.
    """
    h = _require_hermitian(h, tol, "hermitian_eig input")
    w, v = np.linalg.eigh((h + _dagger(h)) / 2)
    return w[..., ::-1], v[..., ::-1]


# Kept because bench/tracing.py wraps it.
def trace_distance(rho, sigma, tol: Tolerances = DEFAULT_TOL):
    """Trace distance (1/2)||rho - sigma||_1 for Hermitian inputs; stacks
    broadcast over leading axes and give an array of distances."""
    rho = _require_hermitian(rho, tol, "trace_distance first argument")
    sigma = _require_hermitian(sigma, tol, "trace_distance second argument")
    if rho.shape[-2:] != sigma.shape[-2:]:
        raise ValueError(f"trace_distance: shape mismatch {rho.shape} vs {sigma.shape}")
    diff = rho - sigma
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh((diff + _dagger(diff)) / 2)), axis=-1)


_GRAM_CLOSE = 1e-3  # closer pairs take their distance from residuals
_SHAPE_CACHE = 64  # shapes whose constant arrays (index arrays) are kept


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _strict_upper(m: int) -> np.ndarray:
    """Read-only flat indices i m + j of the entries i < j of an m x m
    matrix, in row-major order (as np.triu_indices(m, 1))."""
    return _read_only(np.flatnonzero(~np.tri(m, dtype=bool)))


def projector_distances(vecs: np.ndarray) -> np.ndarray:
    """Trace distances between the projectors onto unit vectors vecs[i]: of
    an (..., m, d) stack, the (..., m(m-1)/2) distances of the pairs i < j
    of each set of m vectors, pair p being divmod(_strict_upper(m)[p], m).

    The distance is sqrt(1 - |G_ij|^2) for the Gram matrix G = V^* V^T, one
    product; an error eps in |G_ij|^2 moves it by about eps / (2 dist), below
    1e-12 where dist >= _GRAM_CLOSE. Closer pairs, where the square root
    cancels, take the norm of v_j's component orthogonal to v_i, from their
    overlap taken afresh, which keeps full accuracy. |G|^2 is formed in G's
    own memory, so the peak is G and the distances.
    """
    upper = _strict_upper(m := vecs.shape[-2])
    g = (vecs.conj() @ vecs.swapaxes(-1, -2)).astype(complex, copy=False).view(float)
    np.square(g, out=g)
    sq = np.add(g[..., ::2], g[..., 1::2], out=g[..., ::2])  # |G|^2
    dist = sq.reshape(*sq.shape[:-2], m * m)[..., upper]
    del g, sq
    np.sqrt(np.maximum(np.subtract(1.0, dist, out=dist), 0.0, out=dist), out=dist)
    if np.count_nonzero(close := dist < _GRAM_CLOSE):
        *lead, pair = np.nonzero(close)
        i, j = np.divmod(upper[pair], m)
        vi, vj = vecs[(*lead, i)], vecs[(*lead, j)]
        r = vj - np.sum(vi.conj() * vj, axis=-1)[:, None] * vi
        dist[close] = np.sqrt(np.sum(r.real**2 + r.imag**2, axis=-1))
    return dist
