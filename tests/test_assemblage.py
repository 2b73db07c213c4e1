import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lhs_cases import werner_assemblage
from schmidt_anchors import schmidt_distance, schmidt_min_distance

from steerkit import linalg
from steerkit.assemblage import (
    Assemblage,
    conditional_states,
    no_signalling_check,
    purity_profile,
    row_keys,
    setting_sums,
)
from steerkit.linalg import DEFAULT_TOL, partial_trace, projector_distances
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
    PureStates,
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
            partial_trace(np.kron(p, eye_b) @ rho, dA, dB)
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


def closest_pair_reference(prof):
    """(min distance, (2, 2) keys of the closest pair) by brute force: the
    first minimum over the principals' distances of the pairs i < j in
    row-major order; (inf, None) with fewer than two rows."""
    rows, cols = np.triu_indices(len(prof.index), 1)
    if not rows.size:
        return np.inf, None
    dist = projector_distances(prof.principals)
    first = np.argmin(dist)
    return dist[first], prof.index[[rows[first], cols[first]]]


def eigh_trace_distance(rho, sigma):
    """(1/2)||rho - sigma||_1 from np.linalg.eigvalsh of the difference;
    stacks broadcast. The reference for the closed-form distances."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - sigma)), axis=-1)


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
            p = np.trace(asm.state(0, m)).real
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
        prof = purity_profile(conditional_states(theta_state(np.pi / 4), [Z, X], (2, 2)))
        assert abs(prof.min_distance - 1 / np.sqrt(2)) < 1e-9
        assert prof.closest.tolist() == [[0, 0], [1, 0]]
        assert np.allclose(prof.probabilities, [0.5, 0.5, 0.5, 0.5])

    def test_separable_all_coincide(self):
        beta = np.array([np.cos(0.4), np.sin(0.4)])
        prof = purity_profile(
            conditional_states(separable_state(beta), [angle_projectors(0.3), angle_projectors(1.1)], (2, 2))
        )
        assert np.max(projector_distances(prof.principals)) <= 1e-9
        want_min, want_pair = closest_pair_reference(prof)
        assert prof.min_distance == want_min <= 1e-9 and np.array_equal(prof.closest, want_pair)

    def test_vacuous_outcome_flagged(self):
        psi = theta_state(0.0)  # |00>, z-outcome 1 has p = 0
        prof = purity_profile(conditional_states(psi, [Z, X], (2, 2)))
        assert prof.index.tolist() == [[0, 0], [1, 0], [1, 1]]
        assert prof.probabilities[1] <= DEFAULT_TOL.rank1

    def test_outcome_probabilities_theta(self):
        theta = 0.7
        rho = theta_state(theta).density_matrix()
        probs = np.trace(conditional_states(rho, [Z, X], (2, 2)).stack, axis1=1, axis2=2).real
        assert np.max(np.abs(probs - [np.cos(theta) ** 2, np.sin(theta) ** 2, 0.5, 0.5])) <= DEFAULT_TOL.eig

    def test_dense_assemblage_rejected(self):
        asm, _ = werner_assemblage(0.5, "zx")
        with pytest.raises(TypeError, match="^purity_profile needs factored assemblages"):
            purity_profile(asm)
        with pytest.raises(TypeError, match="needs factored"):
            purity_profile([conditional_states(theta_state(0.6), [Z, X], (2, 2)), asm])


class TestPurityInvariant:
    def test_entangled_states_give_pure_conditionals(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            theta = rng.uniform(0.1, np.pi / 2 - 0.1)
            n1, n2 = rng.normal(size=3), rng.normal(size=3)
            n1 /= np.linalg.norm(n1)
            n2 /= np.linalg.norm(n2)
            asm = conditional_states(theta_state(theta), [bloch_projectors(n1), bloch_projectors(n2)], (2, 2))
            prof = purity_profile(asm)
            assert np.max(np.linalg.eigvalsh(asm.stack)[:, :-1]) <= 1e-12  # every row rank 1
            projectors = prof.principals[:, :, None] * prof.principals.conj()[:, None]
            assert np.max(np.abs(projectors - asm.stack / prof.probabilities[:, None, None])) <= 1e-12

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
        assert np.max(np.abs(asm.bob_reduced - partial_trace(rho, dA, dB))) <= 1e-12
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
    """purity_profile profiles a batch in one computation; each state must
    still get exactly the per-state verdicts and checks."""

    def test_matches_per_state_calls(self):
        d = 7
        rng = np.random.default_rng(7)
        psi = BipartitePureState(random_vector(rng, d * d), d, d)
        asm = conditional_states(psi, [computational_basis(d)] + haar_settings(rng, d, 2), (d, d))
        prof = purity_profile(asm)
        assert prof.index.tolist() == row_keys(asm.outcome_counts).tolist()
        normalized = []
        for i, rho in enumerate(asm.stack):
            w, v = np.linalg.eigh(rho)
            assert np.sum(np.abs(w[:-1])) / np.sum(w) <= 1e-12  # rank 1
            assert abs(abs(np.vdot(prof.principals[i], v[:, -1])) - 1) <= 1e-12
            assert abs(prof.probabilities[i] - np.trace(rho).real) <= 1e-12
            normalized.append(rho / prof.probabilities[i])
        m = len(normalized)
        dist = projector_distances(prof.principals)
        for i, j, got in zip(*np.triu_indices(m, 1), dist):
            assert abs(got - eigh_trace_distance(normalized[i], normalized[j])) <= 1e-12
        want_min, want_pair = closest_pair_reference(prof)
        assert prof.min_distance == want_min and np.array_equal(prof.closest, want_pair)

    @pytest.mark.parametrize("order", ["batch", "reversed", "subset"])
    def test_lists_of_batch_members_match_single_calls(self, order):
        d, rng = 8, np.random.default_rng(8)
        states = [qudit_schmidt_state(np.sqrt(rng.dirichlet(np.ones(d)))) for _ in range(4)]
        asms = conditional_states(PureStates.of(*states), [computational_basis(d), fourier_mub_basis(d)], (d, d))
        chosen = {"batch": asms, "reversed": asms[::-1], "subset": asms[1:3]}[order]
        assert_profiles_match_single_calls(chosen)

    def test_vacuous_outcome_pure_input(self):
        prof = purity_profile(conditional_states(theta_state(0.0), [Z, X], (2, 2)))
        assert prof.probabilities.shape == (4,)
        assert prof.probabilities[1] <= DEFAULT_TOL.rank1
        assert prof.index.tolist() == [[0, 0], [1, 0], [1, 1]]
        assert len(prof.principals) == 3
        # Every nonvacuous row leaves Bob in |0>: the first pair coincides.
        assert prof.min_distance == 0.0 and prof.closest.tolist() == [[0, 0], [1, 0]]

    def test_row_layout(self):
        assert row_keys((2, 3)).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1], [1, 2]]
        assert row_keys(()).shape == (0, 2)
        assert setting_sums(np.arange(5.0), (2, 3)).tolist() == [1.0, 9.0]

    @pytest.mark.parametrize("factored", [True, False], ids=["factored", "dense"])
    def test_state_reads_its_row(self, factored):
        psi = theta_state(0.6)
        asm = conditional_states(psi if factored else psi.density_matrix(), [Z, X, angle_projectors(0.3)], (2, 2))
        assert (asm.factors is not None) == factored
        for row, (n, a) in enumerate(row_keys(asm.outcome_counts).tolist()):
            assert np.array_equal(asm.state(n, a), asm.stack[row])
        # A negative index must not wrap around to a row from the end.
        for n, a in [(-1, 0), (0, -1), (3, 0), (0, 2)]:
            with pytest.raises(ValueError, match=f"no outcome {a} of setting {n}"):
                asm.state(n, a)

    def test_row_keys_built_once_read_only(self):
        keys = row_keys((2, 3))
        assert row_keys([2, 3]) is keys and not keys.flags.writeable

    @pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
    def test_caller_arrays_stay_writeable_and_apart(self, factored):
        # The assemblage copies a writeable input: the caller's arrays keep
        # their flags, and writing to them leaves the assemblage as it was.
        data = np.zeros((4, 2), complex) if factored else np.zeros((4, 2, 2), complex)
        bob = np.eye(2, dtype=complex) / 2
        args = (None, bob, (2, 2), data) if factored else (data, bob, (2, 2))
        asm = Assemblage(("z", "x"), (2, 2), *args)
        field = asm.factors if factored else asm.stack
        assert data.flags.writeable and bob.flags.writeable
        assert not field.flags.writeable and not asm.bob_reduced.flags.writeable
        data[...], bob[...] = 1, 1
        assert not np.any(field) and np.array_equal(asm.bob_reduced, np.eye(2) / 2)

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


def assert_profiles_match_single_calls(asms):
    """purity_profile and no_signalling_check on a list give each member's
    single-call results exactly."""
    for asm, prof, dev in zip(asms, purity_profile(asms), no_signalling_check(asms)):
        single = purity_profile(asm)
        for name in ("probabilities", "index", "principals", "closest"):
            assert np.array_equal(getattr(prof, name), getattr(single, name)), name
        assert prof.min_distance == single.min_distance
        assert dev == no_signalling_check(asm)


class TestClosestPair:
    """min_distance and closest are the first minimum, in row-major order,
    over the distinct pairs of nonvacuous rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 6),
        size=st.integers(1, 4),
        drop=st.floats(0, 0.9),
        both=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_schmidt_states_with_vacuous_rows(self, d, size, drop, both, seed):
        # Zero Schmidt coefficients leave vacuous Z outcomes; one nonzero
        # coefficient makes every X row coincide with a Z row (ties), and
        # under Z alone leaves a single nonvacuous row (no pair).
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(size):
            lam = rng.dirichlet(np.ones(d)) * (rng.random(d) >= drop)
            if not lam.any():
                lam[rng.integers(d)] = 1.0
            states.append(qudit_schmidt_state(np.sqrt(lam / lam.sum())))
        settings_ = [computational_basis(d), fourier_mub_basis(d)][: 1 + both]
        asms = conditional_states(PureStates.of(*states), settings_, (d, d))
        for asm in asms:
            prof = purity_profile(asm)
            want_min, want_pair = closest_pair_reference(prof)
            assert prof.min_distance == want_min
            assert (prof.closest is None) == (want_pair is None) == (len(prof.index) < 2)
            if want_pair is not None:
                assert prof.closest.shape == (2, 2) and np.array_equal(prof.closest, want_pair)
        assert_profiles_match_single_calls(asms)

    def test_ties_on_the_maximally_entangled_qutrit(self):
        # Under Z and X every cross distance is sqrt(2/3) and every other
        # one 1: nine pairs tie at the minimum, and the first in row-major
        # order is named.
        settings_ = [computational_basis(3), fourier_mub_basis(3)]
        asm = conditional_states(qudit_schmidt_state(np.full(3, 1 / np.sqrt(3))), settings_, (3, 3))
        prof = purity_profile(asm)
        dist = projector_distances(prof.principals)
        assert np.sum(np.abs(dist - np.sqrt(2 / 3)) <= 1e-15) == 9
        want_min, want_pair = closest_pair_reference(prof)
        assert prof.min_distance == want_min and np.array_equal(prof.closest, want_pair)
        assert abs(prof.min_distance - np.sqrt(2 / 3)) <= 1e-15 and prof.closest[0].tolist() == [0, 0]


class TestFactoredAssemblages:
    """A pure state's assemblage holds its factors w_a. Every quantity read
    from them must match the dense assemblage of the state's density
    matrix, the profile's through np.linalg.eigh of its states."""

    @staticmethod
    def assert_matches_dense(psi, settings_):
        dA, dB = psi.dA, psi.dB
        factored = conditional_states(psi, settings_, (dA, dB))
        dense = conditional_states(psi.density_matrix(), settings_, (dA, dB))
        assert factored.factors is not None and dense.factors is None
        assert np.max(np.abs(factored.stack - dense.stack)) <= 1e-12
        assert np.max(np.abs(factored.bob_reduced - dense.bob_reduced)) <= 1e-12
        got = purity_profile(factored)
        probs = np.trace(dense.stack, axis1=1, axis2=2).real
        live = probs > DEFAULT_TOL.rank1
        normalized = dense.stack[live] / probs[live, None, None]
        w, v = np.linalg.eigh(normalized)
        want = eigh_trace_distance(normalized[:, None], normalized[None])
        assert np.max(np.abs(got.probabilities - probs)) <= 1e-12
        assert np.array_equal(got.index, row_keys(dense.outcome_counts)[live])
        assert np.max(np.sum(np.abs(w[:, :-1]), axis=1)) <= 1e-12  # every row rank 1
        assert np.max(np.abs(np.abs(np.sum(got.principals.conj() * v[:, :, -1], axis=1)) - 1)) <= 1e-12
        want = want[np.triu_indices(len(want), 1)]
        assert np.max(np.abs(projector_distances(got.principals) - want)) <= 1e-12
        assert abs(got.min_distance - np.min(want)) <= 1e-12
        assert abs(no_signalling_check(factored) - no_signalling_check(dense)) <= 1e-12
        return factored

    @staticmethod
    def schmidt_state(rng, d, rotate):
        """sum_m lam_m |u_m> |v_m>, random lam; u and v the computational
        basis, or Haar-random when rotate."""
        psi = np.diag(np.sqrt(rng.dirichlet(np.ones(d)))).astype(complex)
        if rotate:
            psi = haar_unitary(rng, d) @ psi @ haar_unitary(rng, d).T
        return BipartitePureState(psi.ravel(), d, d)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), rotate=st.booleans())
    def test_schmidt_states_under_z_x(self, d, seed, rotate):
        rng = np.random.default_rng(seed)
        states = [self.schmidt_state(rng, d, rotate) for _ in range(3)]
        settings_ = [computational_basis(d), fourier_mub_basis(d)]
        for psi in states:
            self.assert_matches_dense(psi, settings_)
        assert_profiles_match_single_calls(conditional_states(PureStates.of(*states), settings_, (d, d)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rotate=st.booleans(), k=st.integers(2, 4))
    def test_schmidt_states_under_qubit_settings(self, seed, rotate, k):
        rng = np.random.default_rng(seed)
        n = rng.normal(size=3)
        settings_ = [Z, X, bloch_projectors([0, 1, 0]), bloch_projectors(n / np.linalg.norm(n))][:k]
        self.assert_matches_dense(self.schmidt_state(rng, 2, rotate), settings_)

    @pytest.mark.parametrize("counts", [(3, 3), (3, 1)])
    def test_no_signalling_matches_dense(self, counts):
        # Factored members of one batch, one with a factor row scaled by 1.1;
        # (3, 1) keeps the first four rows, as an assemblage built directly.
        # Rotated states, so that rho_B is complex and not symmetric.
        rng = np.random.default_rng(4)
        states = [self.schmidt_state(rng, 3, rotate=True) for _ in range(3)]
        settings_ = [computational_basis(3), fourier_mub_basis(3)]
        asms = conditional_states(PureStates.of(*states), settings_, (3, 3))
        scale = np.ones((sum(counts), 1))
        scale[0] = 1.1
        batch = [
            Assemblage(asm.setting_labels, counts, None, asm.bob_reduced, asm.dims, asm.factors[: sum(counts)] * s)
            for asm, s in zip(asms, (1, scale, 1))
        ]
        dense = [Assemblage(x.setting_labels, counts, x.stack, x.bob_reduced, x.dims) for x in batch]
        got, want = no_signalling_check(batch), [no_signalling_check(x) for x in dense]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 and got[1] > 0.01
        assert [no_signalling_check(x) for x in batch] == got
        if counts == (3, 3):
            assert max(got[0], got[2]) <= 1e-12

    def test_stack_formed_on_first_read(self):
        asm = conditional_states(theta_state(np.pi / 4), [Z, X], (2, 2))
        assert "stack" not in vars(asm) and np.allclose(np.linalg.norm(asm.factors, axis=1) ** 2, 0.5)
        stack = asm.stack
        assert asm.stack is stack and not stack.flags.writeable and not asm.factors.flags.writeable
        assert np.array_equal(stack, [np.outer(v, v.conj()) for v in asm.factors])

    def test_pure_inputs_run_no_purity_witness(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense purity check on a factored assemblage")

        for name in ("hermitian_eig", "trace_distance", "herm_deviation"):
            monkeypatch.setattr(linalg, name, refuse)
        asms = conditional_states(PureStates.of(theta_state(0.3), theta_state(0.0)), [Z, X], (2, 2))
        profiles = purity_profile(asms)
        assert [p.index.tolist() for p in profiles] == [[[0, 0], [0, 1], [1, 0], [1, 1]], [[0, 0], [1, 0], [1, 1]]]
        assert max(no_signalling_check(asms)) <= 1e-15

    def test_factors_shape_checked(self):
        with pytest.raises(ValueError, match="factors shape"):
            Assemblage(("z",), (2,), None, np.eye(2) / 2, (2, 2), np.zeros((2, 3)))


def reference_distances(asm, prof):
    """Trace distances of the profile's normalized states, pairs i < j in
    row-major order, each an eigendecomposition of the difference: the
    reference for the closed form purity_profile uses between rank-1 states."""
    normalized = [asm.state(n, a) / np.trace(asm.state(n, a)).real for n, a in prof.index.tolist()]
    pairs = zip(*np.triu_indices(len(normalized), 1))
    return np.array([eigh_trace_distance(normalized[i], normalized[j]) for i, j in pairs])


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
        assert np.max(np.abs(projector_distances(prof.principals) - reference_distances(asm, prof))) <= 1e-12

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
        assert 0 < np.min(ref) < 10 * eps
        assert np.max(np.abs(projector_distances(prof.principals) - ref)) <= 1e-12
        assert abs(prof.min_distance - np.min(ref)) <= 1e-12


class TestSchmidtAnchors:
    """purity_profile on a Schmidt-form state under Z and X against the
    closed forms of schmidt_anchors, zero coefficients included."""

    @settings(max_examples=100, deadline=None)
    @given(lam=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=2, max_size=12).filter(any))
    def test_closest_pair_and_min_distance(self, lam):
        lam = np.array(lam) / np.linalg.norm(lam)
        d = lam.size
        settings_ = [computational_basis(d), fourier_mub_basis(d)]
        prof = purity_profile(conditional_states(qudit_schmidt_state(lam), settings_, (d, d)))
        # A zero coefficient leaves its Z row vacuous; every X row has probability 1/d.
        assert prof.index.tolist() == [[0, j] for j in np.flatnonzero(lam)] + [[1, a] for a in range(d)]
        assert abs(schmidt_distance(lam, *prof.closest.tolist()) - prof.min_distance) <= 1e-12
        assert abs(schmidt_min_distance(lam) - prof.min_distance) <= 1e-12
