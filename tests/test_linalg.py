import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit.linalg import (
    DEFAULT_TOL,
    Tolerances,
    hermitian_eig,
    partial_trace,
    projector_distances,
    trace_distance,
)
from steerkit.states import BipartitePureState, density, ghz_state, theta_state

K0 = np.array([1, 0], dtype=complex)
K1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.herm == t.eig == 1e-10
        assert t.state_eq == t.rank1 == 1e-9
        assert t.lp == 1e-8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Tolerances(eig=-1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Tolerances(lp=np.nan)


class TestPartialTrace:
    def test_theta_pi4_reduced(self):
        rho = theta_state(np.pi / 4).density_matrix()
        assert np.allclose(partial_trace(rho, 2, 2), np.eye(2) / 2)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        ra, rb = random_density(rng, 3), random_density(rng, 2)
        assert np.allclose(partial_trace(np.kron(ra, rb), 3, 2), np.trace(ra) * rb)

    def test_ghz_split_1_23(self):
        rho = density(ghz_state().vector)
        assert np.allclose(partial_trace(rho, 2, 4), np.diag([0.5, 0, 0, 0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="3\\*3"):
            partial_trace(np.eye(4), 3, 3)

    def test_linearity_and_trace_preservation(self):
        rng = np.random.default_rng(11)
        for dA, dB in [(2, 2), (2, 3), (3, 2)]:
            x = random_hermitian(rng, dA * dB)
            y = random_hermitian(rng, dA * dB)
            lhs = partial_trace(2 * x - 0.5 * y, dA, dB)
            rhs = 2 * partial_trace(x, dA, dB) - 0.5 * partial_trace(y, dA, dB)
            assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.eig
            assert abs(np.trace(partial_trace(x, dA, dB)) - np.trace(x)) <= DEFAULT_TOL.eig


class TestHermitianEig:
    def test_pauli_z(self):
        w, v = hermitian_eig(SZ)
        assert np.allclose(w, [1, -1])
        assert abs(abs(v[:, 0] @ K0.conj()) - 1) < 1e-12
        assert abs(abs(v[:, 1] @ K1.conj()) - 1) < 1e-12

    def test_degenerate_identity(self):
        w, v = hermitian_eig(np.eye(2) / 2)
        assert np.allclose(w, [0.5, 0.5])
        assert np.allclose(v.conj().T @ v, np.eye(2))

    def test_scaled_projector(self):
        w, v = hermitian_eig(np.cos(np.pi / 3) ** 2 * density(K0))
        assert np.allclose(w, [0.25, 0.0])
        assert abs(abs(v[:, 0] @ K0.conj()) - 1) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]]))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for d in (4, 8, 16, 32):
            h = random_hermitian(rng, d)
            w, v = hermitian_eig(h)
            res = np.max(np.abs(v @ np.diag(w) @ v.conj().T - h))
            scale = max(1.0, np.max(np.abs(h)))
            assert res <= DEFAULT_TOL.eig * scale
            assert np.all(np.diff(w) <= 1e-12)
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= DEFAULT_TOL.eig


class TestTraceDistance:
    def test_self_is_zero(self):
        rho = density(PLUS)
        assert trace_distance(rho, rho) == 0

    def test_orthogonal_pure(self):
        assert abs(trace_distance(density(K0), density(K1)) - 1) < 1e-12

    def test_zero_plus(self):
        assert abs(trace_distance(density(K0), density(PLUS)) - 1 / np.sqrt(2)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(np.eye(2), np.eye(3))

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a, b, c = (random_density(rng, 3) for _ in range(3))
            assert trace_distance(a, c) <= (
                trace_distance(a, b) + trace_distance(b, c) + 10 * DEFAULT_TOL.eig
            )


def residual_distances(vecs):
    """The distances between projectors as norms of residuals, pairs i < j
    in row-major order: the (..., m, m, d) form that projector_distances
    replaced."""
    r = vecs[..., None, :, :] - (vecs.conj() @ vecs.swapaxes(-1, -2))[..., None] * vecs[..., :, None, :]
    return np.sqrt(np.sum(r.real**2 + r.imag**2, axis=-1))[(..., *np.triu_indices(vecs.shape[-2], 1))]


class TestProjectorDistances:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 18), m=st.integers(1, 6), batch=st.integers(0, 3))
    def test_matches_the_residual_form(self, seed, d, m, batch):
        # m random unit vectors and a copy of each, turned by 1e-12 to 1
        # radian towards an orthogonal vector, with a random phase: pairs
        # on both sides of the switch to residuals at distance 1e-3.
        rng = np.random.default_rng(seed)
        shape = (batch, m) if batch else (m,)
        base = rng.normal(size=shape + (d,)) + 1j * rng.normal(size=shape + (d,))
        base /= np.linalg.norm(base, axis=-1, keepdims=True)
        u = rng.normal(size=base.shape) + 1j * rng.normal(size=base.shape)
        u -= np.sum(base.conj() * u, axis=-1, keepdims=True) * base
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        angle = 10 ** rng.uniform(-12, 0, size=shape + (1,))
        turned = (np.cos(angle) * base + np.sin(angle) * u) * np.exp(2j * np.pi * rng.uniform(size=shape + (1,)))
        vecs = np.concatenate([base, turned], axis=-2)
        dist = projector_distances(vecs)
        assert dist.shape == shape[:-1] + (2 * m * (2 * m - 1) // 2,)
        assert np.max(np.abs(dist - residual_distances(vecs)), initial=0.0) <= 1e-12

    def test_equal_states_at_zero(self):
        v = np.array([[1, 1j, 0], [1j, -1, 0], [0, 0, 1]]) / np.array([[2**0.5], [2**0.5], [1]])
        dist = projector_distances(v)  # pairs (0, 1), (0, 2), (1, 2)
        assert dist[0] <= 1e-15 and dist[1] == pytest.approx(1.0, abs=1e-15)

    def test_real_vectors(self):
        v = np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 1e-9]])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        assert np.array_equal(projector_distances(v), projector_distances(v.astype(complex)))

    def test_peak_memory_bounded(self):
        # The complex Gram matrix takes two (m, m) float sizes and its
        # gathered upper triangle a third; nothing else of that size may be
        # alive at once.
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(800, 100)) + 1j * rng.normal(size=(800, 100))
        vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
        tracemalloc.start()
        try:
            dist = projector_distances(vecs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.shape == (800 * 799 // 2,)
        assert peak <= 3.5 * 800 * 800 * dist.itemsize


class TestSchmidtDecompose:
    """Schmidt coefficients of BipartitePureState, from PureStates' batched SVD."""

    def test_theta_pi6(self):
        coeffs = theta_state(np.pi / 6).schmidt_coeffs
        assert np.allclose(coeffs, [np.sqrt(3) / 2, 0.5])

    def test_product_state(self):
        beta = np.array([np.cos(0.7), np.sin(0.7) * 1j])
        coeffs = BipartitePureState(np.kron(K0, beta), 2, 2).schmidt_coeffs
        assert coeffs[0] >= 1 - DEFAULT_TOL.eig
        assert np.all(coeffs[1:] <= DEFAULT_TOL.eig)

    def test_reconstruction(self):
        # The squared coefficients are the spectrum of Bob's reduced state.
        rng = np.random.default_rng(17)
        psi = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = BipartitePureState(psi / np.linalg.norm(psi), 3, 4)
        coeffs = psi.schmidt_coeffs
        w, _ = hermitian_eig(psi.reduced_bob())
        assert np.max(np.abs(w[: coeffs.size] - coeffs**2)) <= DEFAULT_TOL.eig
        assert np.max(np.abs(w[coeffs.size :])) <= DEFAULT_TOL.eig
        assert abs(np.sum(coeffs**2) - 1) <= DEFAULT_TOL.eig
        assert np.all(np.diff(coeffs) <= 1e-12)

    def test_random_product_vectors(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            coeffs = BipartitePureState(psi, 3, 4).schmidt_coeffs
            assert np.sum(coeffs >= 1 - DEFAULT_TOL.eig) == 1

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            BipartitePureState(np.ones(4), 2, 2)
