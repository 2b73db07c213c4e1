import numpy as np
import pytest

from steerkit.linalg import DEFAULT_TOL, hermitian_eig, partial_trace, unit_norm
from steerkit.measurements import bloch_projectors
from steerkit.states import (
    BipartitePureState,
    MultiQubitPureState,
    density,
    ghz_state,
    nopa_truncated,
    qudit_schmidt_state,
    separable_state,
    theta_state,
)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


class TestThetaState:
    def test_pi4(self):
        psi = theta_state(np.pi / 4)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(psi.vector, expected)
        assert np.allclose(psi.schmidt_coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_boundary_is_separable(self):
        psi = theta_state(0.0)
        assert np.allclose(psi.vector, [1, 0, 0, 0])
        assert not psi.entangled()

    def test_entangled_compares_schmidt_mass(self):
        # sin(theta)^2 is the mass the rank1 tolerance is stated in.
        assert not theta_state(1.5e-9).entangled()
        assert theta_state(1e-4).entangled()

    def test_pi6_coeffs(self):
        psi = theta_state(np.pi / 6)
        assert np.allclose(psi.schmidt_coeffs, [np.sqrt(3) / 2, 0.5])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            theta_state(-0.1)
        with pytest.raises(ValueError):
            theta_state(np.pi / 2 + 0.1)

    def test_grid_coeffs(self):
        for theta in np.linspace(0.05, np.pi / 2 - 0.05, 30):
            coeffs = theta_state(theta).schmidt_coeffs
            expected = np.sort([np.cos(theta), np.sin(theta)])[::-1]
            assert np.max(np.abs(coeffs - expected)) <= DEFAULT_TOL.eig


class TestQuditSchmidtState:
    def test_uniform_qutrit(self):
        psi = qudit_schmidt_state(np.full(3, 1 / np.sqrt(3)))
        assert psi.dA == psi.dB == 3
        assert psi.entangled()
        assert np.allclose(psi.schmidt_coeffs, 1 / np.sqrt(3))

    def test_rank_one_is_product(self):
        psi = qudit_schmidt_state([1, 0, 0])
        assert not psi.entangled()

    def test_matches_theta_state(self):
        psi = qudit_schmidt_state([0.8, 0.6])
        ref = theta_state(np.arcsin(0.6))
        assert np.allclose(psi.schmidt_coeffs, ref.schmidt_coeffs)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            qudit_schmidt_state([0.8, -0.6])
        with pytest.raises(ValueError):
            qudit_schmidt_state([1.0, 1.0])
        with pytest.raises(ValueError):
            qudit_schmidt_state([1.0])


class TestNopaTruncated:
    def test_ratios_and_tail(self):
        psi, tail = nopa_truncated(1.0, 20)
        lam = np.sort(psi.schmidt_coeffs)[::-1]
        ratios = lam[1:] / lam[:-1]
        assert np.max(np.abs(ratios - np.tanh(1.0))) <= 1e-12
        assert abs(tail - np.tanh(1.0) ** 40) <= 1e-15

    def test_small_r_nearly_product(self):
        psi, _ = nopa_truncated(1e-8, 2)
        assert psi.schmidt_coeffs[0] > 1 - 1e-12

    def test_entangled(self):
        psi, _ = nopa_truncated(1.0, 20)
        assert psi.entangled()

    def test_r_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            nopa_truncated(0.0, 8)
        with pytest.raises(ValueError):
            nopa_truncated(-1.0, 8)


class TestSeparableState:
    def test_zero_beta(self):
        psi = separable_state([1, 0])
        assert np.allclose(psi.vector, [1, 0, 0, 0])

    def test_plus_beta_reduced(self):
        psi = separable_state(PLUS)
        assert np.allclose(psi.reduced_bob(), density(PLUS))
        assert not psi.entangled()

    def test_schmidt_rank_one(self):
        beta = np.array([np.cos(0.3), np.sin(0.3)])
        psi = separable_state(beta)
        assert psi.schmidt_coeffs[0] >= 1 - 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            separable_state([1, 1])


class TestGhzState:
    def test_amplitudes(self):
        psi = ghz_state()
        assert abs(np.vdot(psi.vector, psi.vector) - 1) < 1e-12
        assert abs(psi.vector[0] - 1 / np.sqrt(2)) < 1e-12
        assert abs(psi.vector[7] - 1 / np.sqrt(2)) < 1e-12

    def test_single_qubit_reduced(self):
        rho = density(ghz_state().vector)
        assert np.allclose(partial_trace(rho, 4, 2), np.eye(2) / 2)


class TestDensity:
    def test_basis_state(self):
        assert np.allclose(density([1, 0]), np.diag([1, 0]))

    def test_theta_corners(self):
        rho = density(theta_state(np.pi / 4).vector)
        assert abs(rho[0, 0] - 0.5) < 1e-12
        assert abs(rho[0, 3] - 0.5) < 1e-12
        assert abs(rho[3, 0] - 0.5) < 1e-12
        assert abs(rho[3, 3] - 0.5) < 1e-12

    def test_constructors_yield_valid_densities(self):
        rng = np.random.default_rng(23)
        states = [
            theta_state(0.9),
            qudit_schmidt_state(np.full(4, 0.5)),
            nopa_truncated(0.7, 6)[0],
            separable_state(PLUS),
        ]
        for psi in states:
            rho = psi.density_matrix()
            assert abs(np.trace(rho) - 1) < 1e-12
            w, _ = hermitian_eig(rho)
            assert np.min(w) >= -DEFAULT_TOL.eig


class TestUnitNorm:
    """Every unit-norm check goes through linalg.unit_norm, which rejects a
    NaN norm: a comparison with NaN is False, so abs(nrm - 1) > tol let it
    through."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BipartitePureState(np.array([np.nan, 0, 0, 1]), 2, 2),
            lambda: MultiQubitPureState(np.array([np.nan, 1]), 1),
            lambda: qudit_schmidt_state([np.nan, 1.0]),
            lambda: separable_state([np.nan, 1.0]),
            lambda: density([np.nan, 1.0]),
            lambda: bloch_projectors([np.nan, 0, 1]),
        ],
        ids=["bipartite", "multi-qubit", "qudit-schmidt", "separable", "density", "bloch"],
    )
    def test_nan_rejected(self, build):
        with pytest.raises(ValueError, match="norm nan is not 1"):
            build()

    def test_threshold(self):
        assert unit_norm([1 + 5e-9], "v") == 1 + 5e-9
        for bad in (1 + 2e-8, np.inf, np.nan):
            with pytest.raises(ValueError, match="^v norm"):
                unit_norm([bad], "v")

    def test_schmidt_coefficients_bounded_by_their_norm(self):
        lam = np.array([0.8, 0.6]) * (1 + 9e-9)  # square sum 1 + 1.8e-8
        assert np.allclose(qudit_schmidt_state(lam).schmidt_coeffs, [0.8, 0.6])
        with pytest.raises(ValueError, match="Schmidt coefficient vector norm"):
            qudit_schmidt_state(np.array([0.8, 0.6]) * (1 + 2e-8))

