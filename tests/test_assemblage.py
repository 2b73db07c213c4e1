import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import linalg
from steerkit.assemblage import (
    Assemblage,
    conditional_states,
    no_signalling_check,
    purity_profile,
    row_keys,
    setting_sums,
)
from steerkit.linalg import DEFAULT_TOL, is_rank_one, kron, partial_trace, trace_distance
from steerkit.measurements import (
    MeasurementSetting,
    angle_projectors,
    basis_from_unitary,
    bloch_projectors,
    computational_basis,
    fourier_mub_basis,
)
from steerkit.states import (
    BipartitePureState,
    density,
    qudit_schmidt_state,
    separable_state,
    theta_state,
)

Z = bloch_projectors([0, 0, 1])
X = bloch_projectors([1, 0, 0])
K0 = np.array([1, 0], dtype=complex)
K1 = np.array([0, 1], dtype=complex)


def chi(theta, sign):
    return np.array([np.cos(theta), sign * np.sin(theta)], dtype=complex)


def dense_reference(rho, settings_, dA, dB):
    """tr_A[(P (x) 1) rho] for every projector, through the (dA*dB)^2
    product: an independent formula for the batched build to match."""
    eye_b = np.eye(dB, dtype=complex)
    return np.stack(
        [
            partial_trace(kron(p, eye_b) @ rho, dA, dB, keep="B")
            for s in settings_
            for p in s.projectors
        ]
    )


def haar_unitary(rng, d):
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_density(rng, n, rank):
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_settings(rng, d, count):
    return [basis_from_unitary(haar_unitary(rng, d), f"haar{i}") for i in range(count)]


class TestConditionalStates:
    def test_theta_closed_forms(self):
        theta = np.pi / 6
        rho = theta_state(theta).density_matrix()
        asm = conditional_states(rho, [Z, X], (2, 2))
        assert np.allclose(asm.state(0, 0), np.cos(theta) ** 2 * density(K0))
        assert np.allclose(asm.state(0, 1), np.sin(theta) ** 2 * density(K1))
        assert np.allclose(asm.state(1, 0), 0.5 * density(chi(theta, +1)))
        assert np.allclose(asm.state(1, 1), 0.5 * density(chi(theta, -1)))

    def test_separable_closed_forms(self):
        beta = np.array([np.cos(0.4), np.sin(0.4)], dtype=complex)
        a1, a2 = 0.3, 1.1
        rho = separable_state(beta).density_matrix()
        asm = conditional_states(rho, [angle_projectors(a1), angle_projectors(a2)], (2, 2))
        assert np.allclose(asm.state(0, 0), np.cos(a1) ** 2 * density(beta))
        assert np.allclose(asm.state(0, 1), np.sin(a1) ** 2 * density(beta))
        assert np.allclose(asm.state(1, 0), np.cos(a2) ** 2 * density(beta))
        assert np.allclose(asm.state(1, 1), np.sin(a2) ** 2 * density(beta))

    def test_qudit_traces_and_normalized_forms(self):
        lam = np.array([0.7, 0.5, np.sqrt(1 - 0.74)])
        psi = qudit_schmidt_state(lam)
        d = 3
        asm = conditional_states(
            psi.density_matrix(), [computational_basis(d), fourier_mub_basis(d)], (d, d)
        )
        for m in range(d):
            p = asm.probability(0, m)
            assert abs(p - lam[m] ** 2) < 1e-12
            em = np.zeros(d, dtype=complex)
            em[m] = 1
            assert np.allclose(asm.state(0, m) / p, density(em))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conditional_states(np.eye(4) / 4, [computational_basis(3)], (2, 2))

    def test_invalid_setting_rejected(self):
        # a duplicated column, a non-unit column, an incomplete 2 x 1 setting
        for vectors in (np.stack([K0, K0], axis=1), np.diag([1.0, 0.5]), K0[:, None]):
            broken = MeasurementSetting("broken", vectors)
            with pytest.raises(ValueError, match="invalid setting"):
                conditional_states(np.eye(4) / 4, [broken], (2, 2))


class TestNoSignalling:
    def test_computed_assemblages_pass(self):
        rho = theta_state(1.1).density_matrix()
        asm = conditional_states(rho, [Z, X], (2, 2))
        assert no_signalling_check(asm) <= 1e-12

    def test_corrupted_assemblage_detected(self):
        rho = theta_state(1.1).density_matrix()
        good = conditional_states(rho, [Z, X], (2, 2))
        stack = good.stack.copy()
        stack[0] += 0.01 * np.eye(2)
        asm = Assemblage(good.setting_labels, good.outcome_counts, stack, good.bob_reduced, good.dims)
        assert no_signalling_check(asm) >= 0.01

    def test_qudit_d5(self):
        psi = qudit_schmidt_state(np.full(5, 1 / np.sqrt(5)))
        asm = conditional_states(
            psi.density_matrix(), [computational_basis(5), fourier_mub_basis(5)], (5, 5)
        )
        assert no_signalling_check(asm) <= 1e-12


class TestPurityProfile:
    def test_theta_pi4(self):
        rho = theta_state(np.pi / 4).density_matrix()
        prof = purity_profile(conditional_states(rho, [Z, X], (2, 2)))
        assert prof.all_rank_one
        assert abs(prof.min_pairwise_distance() - 1 / np.sqrt(2)) < 1e-9
        assert np.allclose(prof.probabilities, [0.5, 0.5, 0.5, 0.5])

    def test_separable_all_coincide(self):
        beta = np.array([np.cos(0.4), np.sin(0.4)])
        rho = separable_state(beta).density_matrix()
        prof = purity_profile(
            conditional_states(rho, [angle_projectors(0.3), angle_projectors(1.1)], (2, 2))
        )
        assert prof.all_rank_one
        assert np.max(prof.distance_matrix) <= 1e-9

    def test_mixed_state_not_rank_one(self):
        rho = 0.5 * theta_state(np.pi / 4).density_matrix() + 0.5 * np.eye(4) / 4
        prof = purity_profile(conditional_states(rho, [Z, X], (2, 2)))
        assert prof.rank_one.shape == (4,)
        assert not np.any(prof.rank_one)

    def test_only_mixed_rows_are_eigendecomposed(self, monkeypatch):
        # Phi+ mixed with |11>: both z outcomes leave Bob pure, the x ones do not.
        rho = 0.6 * theta_state(np.pi / 4).density_matrix() + 0.4 * np.diag([0.0, 0, 0, 1])
        asm = conditional_states(rho, [Z, X], (2, 2))
        calls = []
        exact = linalg.hermitian_eig
        monkeypatch.setattr(linalg, "hermitian_eig", lambda h, tol: calls.append(h.copy()) or exact(h, tol))
        prof = purity_profile(asm)
        assert prof.rank_one.tolist() == [True, True, False, False]
        assert len(calls) == 1 and np.array_equal(calls[0], asm.stack[2:])

    def test_vacuous_outcome_flagged(self):
        rho = theta_state(0.0).density_matrix()  # |00>, z-outcome 1 has p = 0
        prof = purity_profile(conditional_states(rho, [Z, X], (2, 2)))
        assert prof.index.tolist() == [[0, 0], [1, 0], [1, 1]]
        assert prof.probabilities[1] <= DEFAULT_TOL.rank1

    def test_outcome_probabilities_theta(self):
        theta = 0.7
        rho = theta_state(theta).density_matrix()
        asm = conditional_states(rho, [Z, X], (2, 2))
        assert abs(asm.probability(0, 0) - np.cos(theta) ** 2) <= DEFAULT_TOL.eig
        assert abs(asm.probability(0, 1) - np.sin(theta) ** 2) <= DEFAULT_TOL.eig
        assert abs(asm.probability(1, 0) - 0.5) <= DEFAULT_TOL.eig
        assert abs(asm.probability(1, 1) - 0.5) <= DEFAULT_TOL.eig


class TestPurityInvariant:
    def test_entangled_states_give_pure_conditionals(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            theta = rng.uniform(0.1, np.pi / 2 - 0.1)
            n1, n2 = rng.normal(size=3), rng.normal(size=3)
            n1 /= np.linalg.norm(n1)
            n2 /= np.linalg.norm(n2)
            asm = conditional_states(
                theta_state(theta).density_matrix(),
                [bloch_projectors(n1), bloch_projectors(n2)],
                (2, 2),
            )
            prof = purity_profile(asm)
            assert prof.all_rank_one

    def test_qudit_matches_theta_assemblage(self):
        theta = 0.6
        lam = np.array([np.cos(theta), np.sin(theta)])
        a1 = conditional_states(
            theta_state(theta).density_matrix(), [Z, X], (2, 2)
        )
        a2 = conditional_states(
            qudit_schmidt_state(lam).density_matrix(),
            [computational_basis(2), fourier_mub_basis(2)],
            (2, 2),
        )
        assert np.max(np.abs(a1.stack - a2.stack)) <= 1e-12


class TestDenseReference:
    """The batched build against the dense kron formula, d <= 6."""

    dims = st.tuples(st.integers(2, 6), st.integers(2, 6))
    seeds = st.integers(0, 2**32 - 1)

    @staticmethod
    def assert_matches(asm, rho, settings_, dA, dB):
        ref = dense_reference(rho, settings_, dA, dB)
        assert np.max(np.abs(asm.stack - ref)) <= 1e-12
        assert np.max(np.abs(asm.bob_reduced - partial_trace(rho, dA, dB, "B"))) <= 1e-12
        assert no_signalling_check(asm) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(dims=dims, seed=seeds, rank=st.integers(1, 6))
    def test_mixed_state(self, dims, seed, rank):
        dA, dB = dims
        rng = np.random.default_rng(seed)
        rho = random_density(rng, dA * dB, rank)
        settings_ = [computational_basis(dA)] + haar_settings(rng, dA, 2)
        self.assert_matches(conditional_states(rho, settings_, dims), rho, settings_, dA, dB)

    @settings(max_examples=60, deadline=None)
    @given(dims=dims, seed=seeds)
    def test_pure_state_both_forms(self, dims, seed):
        dA, dB = dims
        rng = np.random.default_rng(seed)
        psi = BipartitePureState(random_vector(rng, dA * dB), dA, dB)
        settings_ = [fourier_mub_basis(dA)] + haar_settings(rng, dA, 2)
        rho = psi.density_matrix()
        from_psi = conditional_states(psi, settings_, dims)
        from_rho = conditional_states(rho, settings_, dims)
        self.assert_matches(from_psi, rho, settings_, dA, dB)
        self.assert_matches(from_rho, rho, settings_, dA, dB)

    def test_pure_state_dims_must_match(self):
        with pytest.raises(ValueError, match="dims"):
            conditional_states(theta_state(0.3), [Z, X], (2, 3))


class TestBatchedPurityChecks:
    """purity_profile batches its eigendecompositions; each state must still
    get exactly the per-state verdicts and checks."""

    @pytest.mark.parametrize("pure", [True, False])
    def test_matches_per_state_calls(self, pure):
        d = 7
        rng = np.random.default_rng(7)
        psi = BipartitePureState(random_vector(rng, d * d), d, d)
        state = psi if pure else random_density(rng, d * d, 3)
        asm = conditional_states(state, [computational_basis(d)] + haar_settings(rng, d, 2), (d, d))
        prof = purity_profile(asm)
        assert prof.all_rank_one == pure
        assert prof.index.tolist() == [list(key) for key in asm.index]
        normalized = []
        for i, (n, a) in enumerate(asm.index):
            rho = asm.state(n, a)
            flag, principal, residual = is_rank_one(rho)
            assert prof.rank_one[i] == flag
            assert abs(prof.residual_mass[i] - residual) <= 1e-12
            assert abs(abs(np.vdot(prof.principals[i], principal)) - 1) <= 1e-12
            assert abs(prof.probabilities[i] - asm.probability(n, a)) <= 1e-12
            normalized.append(rho / prof.probabilities[i])
        m = len(normalized)
        assert prof.distance_matrix.shape == (m, m)
        for i in range(m):
            for j in range(m):
                want = trace_distance(normalized[i], normalized[j]) if i != j else 0.0
                assert abs(prof.distance_matrix[i, j] - want) <= 1e-12

    @staticmethod
    def corrupted(row, bad):
        good = conditional_states(theta_state(0.6), [Z, X], (2, 2))
        stack = good.stack.copy()
        stack[row] = bad
        return Assemblage(good.setting_labels, good.outcome_counts, stack, good.bob_reduced, good.dims)

    def test_non_hermitian_state_rejected(self):
        bad = self.corrupted(2, np.array([[0.5, 0.1], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            purity_profile(bad)

    def test_non_psd_state_rejected(self):
        bad = self.corrupted(3, np.diag([0.6, -0.1]))
        with pytest.raises(ValueError, match="PSD"):
            purity_profile(bad)

    def test_vacuous_outcome_pure_input(self):
        prof = purity_profile(conditional_states(theta_state(0.0), [Z, X], (2, 2)))
        assert prof.probabilities.shape == (4,)
        assert prof.probabilities[1] <= DEFAULT_TOL.rank1
        assert prof.index.tolist() == [[0, 0], [1, 0], [1, 1]]
        for field in (prof.rank_one, prof.residual_mass, prof.principals, prof.distance_matrix):
            assert len(field) == 3
        assert prof.all_rank_one

    def test_row_layout(self):
        assert row_keys((2, 3)).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [1, 2]]
        assert row_keys(()).shape == (0, 2)
        assert setting_sums(np.arange(5.0), (2, 3)).tolist() == [1.0, 9.0]
        asm = conditional_states(theta_state(0.6), [Z, X, angle_projectors(0.3)], (2, 2))
        assert asm.index == tuple(map(tuple, row_keys((2, 2, 2)).tolist()))

    def test_row_keys_built_once_read_only(self):
        keys = row_keys((2, 3))
        assert row_keys([2, 3]) is keys and not keys.flags.writeable

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError, match="stack shape"):
            Assemblage(("z",), (2,), np.zeros((3, 2, 2)), np.eye(2) / 2, (2, 2))

    @pytest.mark.parametrize("counts", [(2, 0, 2), ()])
    def test_setting_without_outcomes_rejected(self, counts):
        # with counts (2, 0, 2), setting_sums would take setting 2's first
        # row as the empty setting's sum, and no_signalling_check would
        # report 0.25 where the empty sum misses rho_B by 0.5
        stack = np.tile(np.eye(2) / 4, (sum(counts), 1, 1))
        labels = tuple("abc"[: len(counts)])
        with pytest.raises(ValueError, match="each with an outcome"):
            Assemblage(labels, counts, stack, np.eye(2) / 2, (2, 2))


def reference_distances(asm, prof):
    """Per-pair trace distances of the profile's normalized states, each an
    eigendecomposition of the difference: the reference for the closed form
    purity_profile uses between rank-1 states."""
    normalized = [asm.state(n, a) / asm.probability(n, a) for n, a in prof.index.tolist()]
    m = len(normalized)
    ref = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                ref[i, j] = trace_distance(normalized[i], normalized[j])
    return ref


class TestClosedFormDistances:
    """Distances between rank-1 states come from their principal vectors;
    they must match the eigendecomposition of each difference."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(2, 6), st.integers(2, 6)), seed=st.integers(0, 2**32 - 1))
    def test_random_pure_states(self, dims, seed):
        dA, dB = dims
        rng = np.random.default_rng(seed)
        psi = BipartitePureState(random_vector(rng, dA * dB), dA, dB)
        asm = conditional_states(psi, [computational_basis(dA)] + haar_settings(rng, dA, 2), dims)
        prof = purity_profile(asm)
        assert prof.all_rank_one
        assert np.max(np.abs(prof.distance_matrix - reference_distances(asm, prof))) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-9, 1e-10, 1e-12])
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_near_coincident_bases(self, d, eps):
        # sqrt(1 - |<v|w>|^2) cancels here and misses by far more than 1e-12.
        rng = np.random.default_rng(d)
        u = haar_unitary(rng, d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h_vals, h_vecs = np.linalg.eigh(g + g.conj().T)
        rotation = (h_vecs * np.exp(1j * eps * h_vals / np.max(np.abs(h_vals)))) @ h_vecs.conj().T
        settings_ = [basis_from_unitary(u, "u"), basis_from_unitary(rotation @ u, "u'")]
        psi = BipartitePureState(random_vector(rng, d * d), d, d)
        asm = conditional_states(psi, settings_, (d, d))
        prof = purity_profile(asm)
        ref = reference_distances(asm, prof)
        assert prof.all_rank_one
        assert 0 < np.min(ref[np.triu_indices(2 * d, k=1)]) < 10 * eps
        assert np.max(np.abs(prof.distance_matrix - ref)) <= 1e-12

    @pytest.mark.parametrize("mix", [0.0, 1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 1e-6, 0.3])
    def test_nearly_pure_and_mixed(self, mix):
        d = 4
        rng = np.random.default_rng(11)
        psi = BipartitePureState(random_vector(rng, d * d), d, d)
        rho = (1 - mix) * psi.density_matrix() + mix * random_density(rng, d * d, d * d)
        asm = conditional_states(rho, [computational_basis(d)] + haar_settings(rng, d, 2), (d, d))
        prof = purity_profile(asm)
        r = prof.residual_mass
        bound = r[:, None] + r[None, :] + 1e-12
        assert np.all(np.abs(prof.distance_matrix - reference_distances(asm, prof)) <= bound)
