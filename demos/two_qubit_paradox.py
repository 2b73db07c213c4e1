"""Walk through the two-setting trace contradiction for a two-qubit pure
entangled state.

Alice measures along z or x; Bob's four conditional states are pure and
pairwise distinct, so any local-hidden-state expansion collapses to one
hidden state per equation. Summing traces then pits 2 against 1.
"""

import numpy as np

from steerkit import (
    bloch_projectors,
    conditional_states,
    no_signalling_check,
    pure_state_paradox,
    purity_profile,
    theta_state,
)

theta = np.pi / 6
psi = theta_state(theta)
settings = [bloch_projectors([0, 0, 1]), bloch_projectors([1, 0, 0])]

# Bob's states come straight from the 2x2 coefficient matrix of psi: the
# assemblage holds one vector w_a per outcome, and each state w_a w_a^dag is
# rank one by construction.
asm = conditional_states(psi, settings, (2, 2))
print(f"state: cos({theta:.4f})|00> + sin({theta:.4f})|11>")
print(f"no-signalling deviation: {no_signalling_check(asm):.2e}")

# The profile's probabilities follow the assemblage's rows; index covers
# the nonvacuous ones, here all four.
prof = purity_profile(asm)
for (n, a), p in zip(prof.index.tolist(), prof.probabilities):
    print(f"  setting {n} outcome {a}: p = {p:.4f}")
print(f"min pairwise trace distance: {prof.min_distance:.4f}")

cert = pure_state_paradox(psi, settings)
print(f"\nhidden-state side of the trace sum: {cert.lhs_trace_sum}")
print(f"quantum side of the trace sum:      {cert.quantum_trace_sum}")
print(f"contradiction magnitude:            {cert.contradiction_magnitude}")
print(f"collapsed assignments: {cert.collapsed_assignments}")
