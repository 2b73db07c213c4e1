"""Separable states do admit a local-hidden-state model.

For a product state the single hidden state is Bob's own (pure) reduced
state, and Alice's responses are just her local outcome probabilities.
The LP feasibility search finds the same model independently, and
correctly reports infeasibility for an entangled state over the natural
candidate ansatz."""

import numpy as np

from steerkit import (
    angle_projectors,
    bloch_projectors,
    conditional_states,
    default_candidates,
    lhs_feasibility_lp,
    lhs_reconstruct,
    separable_lhs_model,
    separable_state,
    theta_state,
)

beta = np.array([np.cos(0.4), np.sin(0.4)])
settings = [angle_projectors(0.3), angle_projectors(1.1)]
psi = separable_state(beta)
asm = conditional_states(psi, settings, (2, 2))

model = separable_lhs_model(psi, settings)
rec = lhs_reconstruct(model, settings)
dev = float(np.max(np.abs(rec.stack - asm.stack)))
print("separable state |0> (x) |beta>:")
print(f"  explicit one-hidden-state model reconstructs the assemblage, dev = {dev:.2e}")

out = lhs_feasibility_lp(asm, default_candidates(asm))
print(f"  LP search: {out.status} (residual {out.residual:.2e}, {out.iterations} pivots)")

ent = theta_state(np.pi / 4)
settings_zx = [bloch_projectors([0, 0, 1]), bloch_projectors([1, 0, 0])]
asm_ent = conditional_states(ent, settings_zx, (2, 2))
out_ent = lhs_feasibility_lp(asm_ent, default_candidates(asm_ent))
print("\nmaximally entangled two-qubit state:")
print(f"  LP search: {out_ent.status} (phase-1 residual {out_ent.residual:.4f})")
