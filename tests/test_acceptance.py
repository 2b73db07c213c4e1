"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Run with ``pytest tests/test_acceptance.py -s`` to see the lines."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from steerkit.assemblage import conditional_states, no_signalling_check
from steerkit.measurements import (
    angle_projectors,
    basis_from_unitary,
    bloch_projectors,
    computational_basis,
    fourier_mub_basis,
)
from steerkit.states import (
    BipartitePureState,
    density,
    ghz_state,
    nopa_truncated,
    qudit_schmidt_state,
    separable_state,
    theta_state,
)
from steerkit.steering import (
    default_candidates,
    ghz_lhv_bruteforce,
    ghz_operator_expectations,
    lhs_feasibility_lp,
    lhs_reconstruct,
    pure_state_paradox,
    separable_lhs_model,
)

Z = bloch_projectors([0, 0, 1])
X = bloch_projectors([1, 0, 0])
K0 = np.array([1, 0], dtype=complex)
K1 = np.array([0, 1], dtype=complex)

# Phase-1 residual for criterion 6, frozen after the first verified run of
# the simplex on the theta = pi/4 ansatz {|0>,|1>,|+>,|->}.
FROZEN_INFEASIBILITY_RESIDUAL = 0.5


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def max_entrywise_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def test_criterion_1_two_qubit_paradox():
    with criterion(1, "two-qubit paradox with closed-form conditionals"):
        t0 = time.perf_counter()
        for theta in (np.pi / 8, np.pi / 6, np.pi / 4, np.pi / 3, 3 * np.pi / 8):
            cert = pure_state_paradox(theta_state(theta), [Z, X])
            assert cert.applicable
            assert abs(cert.lhs_trace_sum - 2) <= 1e-9
            assert abs(cert.quantum_trace_sum - 1) <= 1e-9
            asm = conditional_states(theta_state(theta).density_matrix(), [Z, X], (2, 2))
            chi_p = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
            chi_m = np.array([np.cos(theta), -np.sin(theta)], dtype=complex)
            assert max_entrywise_dev(asm.state(0, 0), np.cos(theta) ** 2 * density(K0)) <= 1e-10
            assert max_entrywise_dev(asm.state(0, 1), np.sin(theta) ** 2 * density(K1)) <= 1e-10
            assert max_entrywise_dev(asm.state(1, 0), 0.5 * density(chi_p)) <= 1e-10
            assert max_entrywise_dev(asm.state(1, 1), 0.5 * density(chi_m)) <= 1e-10
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_qudit_paradox():
    with criterion(2, "qudit paradox with Fourier MUB settings"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for d in range(2, 7):
            z, x = computational_basis(d), fourier_mub_basis(d)
            for pz in z.projectors:
                for px in x.projectors:
                    assert abs(float(np.real(np.trace(pz @ px))) - 1 / d) <= 1e-10
            vectors = [np.full(d, 1 / np.sqrt(d))]
            while len(vectors) < 4:
                lam = rng.uniform(0.05, 1.0, size=d)
                lam /= np.linalg.norm(lam)
                if np.min(lam) > 0.05:
                    vectors.append(lam)
            for lam in vectors:
                cert = pure_state_paradox(qudit_schmidt_state(lam), [z, x])
                assert abs(cert.lhs_trace_sum - 2) <= 1e-9
                assert abs(cert.quantum_trace_sum - 1) <= 1e-9
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_k_setting_extension():
    with criterion(3, "k-setting trace sum equals k"):
        pool = [Z, X, bloch_projectors([0, 1, 0]), bloch_projectors([np.sin(0.8), 0, np.cos(0.8)])]
        for k in (2, 3, 4):
            cert = pure_state_paradox(theta_state(np.pi / 3), pool[:k])
            assert abs(cert.lhs_trace_sum - k) <= 1e-9


def test_criterion_4_nopa_truncation():
    with criterion(4, "truncated two-mode squeezed vacuum"):
        psi, tail = nopa_truncated(1.0, 20)
        lam = np.sort(np.asarray(psi.schmidt_coeffs))[::-1]
        ratios = lam[1:] / lam[:-1]
        assert np.max(np.abs(ratios - np.tanh(1.0))) <= 1e-12
        assert abs(tail - np.tanh(1.0) ** 40) <= 1e-12
        cert = pure_state_paradox(psi, [computational_basis(20), fourier_mub_basis(20)])
        assert abs(cert.lhs_trace_sum - 2) <= 1e-9
        assert abs(cert.quantum_trace_sum - 1) <= 1e-9


def test_criterion_5_separable_lhs():
    with criterion(5, "separable states admit an LHS model"):
        rng = np.random.default_rng(777)
        for _ in range(10):
            gamma = rng.uniform(0, np.pi / 2)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            beta = np.array([np.cos(gamma), np.sin(gamma) * phase])
            settings = [
                angle_projectors(rng.uniform(0, np.pi)),
                angle_projectors(rng.uniform(0, np.pi)),
            ]
            psi = separable_state(beta)
            asm = conditional_states(psi.density_matrix(), settings, (2, 2))
            model = separable_lhs_model(psi, settings)
            rec = lhs_reconstruct(model, settings)
            dev = max_entrywise_dev(rec.stack, asm.stack)
            assert dev <= 1e-10
            out = lhs_feasibility_lp(asm, default_candidates(asm))
            assert out.status == "FeasibleModelFound"
            out.model.validate(bob_reduced=asm.bob_reduced)


def test_criterion_6_infeasibility_within_ansatz():
    with criterion(6, "entangled assemblage infeasible over the conditional-state ansatz"):
        asm = conditional_states(theta_state(np.pi / 4).density_matrix(), [Z, X], (2, 2))
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        cands = [density(K0), density(K1), density(plus), density(minus)]
        out = lhs_feasibility_lp(asm, cands)
        assert out.status == "InfeasibleWithinAnsatz"
        assert out.residual >= 0.01
        assert out.residual == pytest.approx(FROZEN_INFEASIBILITY_RESIDUAL, abs=1e-9)


def test_criterion_7_ghz():
    with criterion(7, "GHZ operator eigenvalues and exhaustive enumeration"):
        t0 = time.perf_counter()
        exp = ghz_operator_expectations(ghz_state())
        assert np.max(np.abs(np.asarray(exp.values) - [1, -1, -1, -1])) <= 1e-12
        count, witness = ghz_lhv_bruteforce()
        assert count == 0
        assert witness == -1
        assert time.perf_counter() - t0 < 0.1


def test_criterion_8_no_signalling_property():
    with criterion(8, "no-signalling on random states and settings"):
        rng = np.random.default_rng(9001)

        def random_setting(d):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            u, _ = np.linalg.qr(m)
            return basis_from_unitary(u)

        worst = 0.0
        for _ in range(100):
            d = int(rng.choice([2, 3, 4]))
            vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            vec /= np.linalg.norm(vec)
            psi = BipartitePureState(vec, d, d)
            asm = conditional_states(
                psi.density_matrix(), [random_setting(d), random_setting(d)], (d, d)
            )
            worst = max(worst, no_signalling_check(asm))
        assert worst <= 1e-11
