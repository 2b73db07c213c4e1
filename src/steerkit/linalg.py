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
    "is_rank_one",
    "herm_deviation",
    "unit_norm",
]


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds used across the toolkit.

    herm     : max entrywise deviation allowed from M = M^dagger
    eig      : residual allowed in eigen reconstructions and basis checks
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


_GRAM_CLOSE = 1e-3  # closer pairs take their distance from residuals
_SHAPE_CACHE = 64  # shapes whose constant arrays (masks, index arrays) are kept
_WITNESS_ENTRIES = 1 << 15  # entries per witness block: 512 KB of complex, so a block
# and its temporaries stay in a 2 MB L2 cache (4 MB blocks ran 15-25% slower)


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _strict_upper(m: int) -> np.ndarray:
    """Read-only m x m mask of the entries i < j."""
    upper = ~np.tri(m, dtype=bool)
    upper.setflags(write=False)
    return upper


def projector_distances(vecs: np.ndarray) -> np.ndarray:
    """Trace distances between the projectors onto unit vectors vecs[i].

    The distance is sqrt(1 - |G_ij|^2) for the Gram matrix G = V^* V^T, one
    product; an error eps in |G_ij|^2 moves it by about eps / (2 dist), below
    1e-12 where dist >= _GRAM_CLOSE. Closer pairs, where the square root
    cancels, take the norm of v_j's component orthogonal to v_i, from their
    overlap taken afresh, which keeps full accuracy. An (..., m, d) stack
    gives the (..., m, m) distances within each set of m vectors. G is
    squared in place and freed before the symmetrizing add, so the peak is
    G and one (..., m, m) float array.
    """
    upper = _strict_upper(vecs.shape[-2])
    g = (vecs.conj() @ vecs.swapaxes(-1, -2)).astype(complex, copy=False).view(float)
    np.square(g, out=g)
    dist = np.add(g[..., ::2], g[..., 1::2])  # |G_ij|^2
    del g
    np.sqrt(np.maximum(np.subtract(1.0, dist, out=dist), 0.0, out=dist), out=dist)
    dist *= upper
    if (close := (dist < _GRAM_CLOSE) & upper).any():
        *lead, i, j = np.nonzero(close)
        vi, vj = vecs[(*lead, i)], vecs[(*lead, j)]
        r = vj - np.sum(vi.conj() * vj, axis=-1)[:, None] * vi
        dist[(*lead, i, j)] = np.sqrt(np.sum(r.real**2 + r.imag**2, axis=-1))
    return dist + dist.swapaxes(-1, -2)


def is_rank_one(rho, tol: Tolerances = DEFAULT_TOL):
    """Test whether a PSD matrix, or each in a stack, is rank one up to
    tolerance. Returns (flag, principal vector, residual_mass) as numpy
    values; residual_mass bounds sum_{i>=1} |l_i| / tr rho from above.
    Zero-trace input is rejected: it signals a probability-zero outcome.

    The witness, O(d^2) per matrix: t = tr rho, v the unit column with the
    largest diagonal entry, R = rho/t - vv^dag (of rho's Hermitian part,
    formed explicitly) and delta = sqrt(d)/2 ||R||_F >= T = ||R||_1 / 2. As
    R is traceless, 1 - l_0/t <= T and the negative l_i sum to >= -tT, so
    sum_{i>=1} |l_i| / t <= 3T, l_min >= -tT and l_0 >= t (1 - T). Matrices
    with t > tol.rank1, 3 delta <= tol.rank1 and t delta <= tol.eig *
    max(1, t (1 - delta)) thus pass both checks of the eigendecomposition
    (rank one, PSD within tol.eig) and take residual 3 delta and principal
    v; the others go through hermitian_eig, in one call.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"is_rank_one input must be square, got shape {rho.shape}")
    d = rho.shape[-1]
    flat = rho.reshape(-1, d, d)
    principal, residual = np.empty(flat.shape[:2], dtype=complex), np.empty(len(flat))
    accept, step = np.zeros(len(flat), dtype=bool), max(1, _WITNESS_ENTRIES // max(1, d * d))
    for s in range(0, len(flat), step):
        block = _require_hermitian(flat[s : s + step], tol, "is_rank_one input")
        diag = np.diagonal(block, axis1=1, axis2=2).real.copy()  # rows summed in order, whatever the layout
        t = diag.sum(axis=1)
        col = block[np.arange(len(block)), :, diag.argmax(axis=1)]
        with np.errstate(divide="ignore", invalid="ignore"):
            v = col / np.sqrt(np.sum(col.real**2 + col.imag**2, axis=1))[:, None]
            a = np.sqrt(t)[:, None] * v  # t R = block - a a^dag
            r = (block - a[:, :, None] * a.conj()[:, None, :]).reshape(len(block), -1).view(float)
            delta = 0.5 * np.sqrt(d) * np.sqrt(np.einsum("ij,ij->i", r, r)) / t
        principal[s : s + step], residual[s : s + step] = v, 3 * delta
        psd = t * delta <= tol.eig * np.maximum(1.0, t * (1 - delta))
        accept[s : s + step] = (t > tol.rank1) & (3 * delta <= tol.rank1) & psd
    if (rest := np.flatnonzero(~accept)).size:
        w, vecs = hermitian_eig(flat[rest], tol)
        not_psd = w[:, -1] < -tol.eig * np.maximum(1.0, np.max(np.abs(w), axis=-1))
        if np.any(not_psd):
            raise ValueError(f"is_rank_one: input not PSD, min eigenvalue {np.min(w[not_psd, -1]):.3e}")
        tr = np.sum(w, axis=-1)
        if np.any(tr <= tol.rank1):
            raise ValueError(f"is_rank_one: trace {np.min(tr):.3e} is not positive")
        principal[rest], residual[rest] = vecs[..., 0], np.sum(np.abs(w[:, 1:]), axis=-1) / tr
    residual = residual.reshape(rho.shape[:-2])[()]
    return residual <= tol.rank1, principal.reshape(rho.shape[:-1]), residual

