"""Closed forms of the paradox on a Schmidt-form state sum_j lambda_j |jj>
under the computational basis Z and the Fourier basis X, at any d.

With p = lambda^2, Z's outcome j leaves Bob in |j> with probability p_j (a
vacuous row when p_j is zero), and X's outcome a in the state with entries
lambda_j omega^(-ja), with probability 1/d. Distances within Z are 1. Z's j
lies sqrt(1 - p_j) from every X state, and X's a and b lie
sqrt(1 - |g_c|^2) apart for c = a - b mod d and g = FFT(p): X's Gram
matrix is circulant. Hence the minimum distance is
min(sqrt(1 - max p), min over c != 0 of sqrt(1 - |g_c|^2)), in O(d^2) here.

These are the references the code path is checked against, so they stay
on the test side.
"""

import numpy as np


def fourier_gaps(p: np.ndarray) -> np.ndarray:
    """1 - |FFT(p)_c|^2 for c = 0 .. d - 1, p a probability vector.

    Evaluated as sum_m a_m 2 sin^2(pi c m / d) over the cyclic
    autocorrelation a_m = sum_j p_j p_(j+m) of p: a sum of nonnegative
    terms, which keeps full accuracy where |FFT(p)_c| is near 1 and the
    plain form cancels.
    """
    d = p.size
    k = np.arange(d)
    auto = p @ p[(k[:, None] + k) % d]
    return 2 * np.sin(np.pi * (np.outer(k, k) % d) / d) ** 2 @ auto


def schmidt_distance(lam, row, row2) -> float:
    """Closed-form trace distance between the normalized conditional states
    of rows (n, a) and (n2, a2), setting 0 being Z and setting 1 X."""
    p = np.asarray(lam, dtype=float) ** 2
    p = p / p.sum()
    (n, a), (n2, a2) = sorted([tuple(row), tuple(row2)])
    if n == n2 == 0:
        return 1.0
    if n == 0:  # sqrt(1 - p_a), summed without cancellation
        return float(np.sqrt(np.sum(np.delete(p, a))))
    return float(np.sqrt(fourier_gaps(p)[(a - a2) % p.size]))


def schmidt_min_distance(lam) -> float:
    """min(sqrt(1 - max p), min over c != 0 of sqrt(1 - |FFT(p)_c|^2)): the
    paradox's min_pairwise_distance under Z and X."""
    p = np.asarray(lam, dtype=float) ** 2
    p = p / p.sum()
    return float(min(np.sqrt(np.sum(np.delete(p, np.argmax(p)))), np.sqrt(np.min(fourier_gaps(p)[1:]))))
