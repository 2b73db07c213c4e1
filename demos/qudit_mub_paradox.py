"""The same 2-vs-1 contradiction for two qudits, using the computational
basis and its discrete-Fourier partner (a mutually unbiased pair)."""

import numpy as np

from steerkit import (
    computational_basis,
    fourier_mub_basis,
    pure_state_paradox,
    qudit_schmidt_state,
)

for d in range(2, 7):
    z, x = computational_basis(d), fourier_mub_basis(d)
    g = z.vectors.conj().T @ x.vectors
    overlaps = (g * g.conj()).real  # tr(P_z P_x) = |<z|x>|^2
    print(f"d = {d}: all {d * d} cross overlaps equal 1/d = {1 / d:.4f} "
          f"(max dev {np.max(np.abs(overlaps - 1 / d)):.1e})")

    lam = np.full(d, 1 / np.sqrt(d))
    cert = pure_state_paradox(qudit_schmidt_state(lam), [z, x])
    print(f"       trace sums: hidden side {cert.lhs_trace_sum:.12f}, "
          f"quantum side {cert.quantum_trace_sum:.12f}")
