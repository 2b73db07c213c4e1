import collections
import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lhs_cases import GRIDS, full_lp_system, lp_system, werner_assemblage

from steerkit import assemblage, steering
from steerkit.assemblage import Assemblage, conditional_states, no_signalling_check, purity_profile, row_keys
from steerkit.linalg import DEFAULT_TOL, Tolerances, projector_distances
from steerkit.measurements import (
    MeasurementSetting,
    angle_projectors,
    basis_from_unitary,
    bloch_projectors,
    computational_basis,
    fourier_mub_basis,
)
from steerkit.simplex import phase_one
from steerkit.states import (
    BipartitePureState,
    MultiQubitPureState,
    PureStates,
    density,
    ghz_state,
    nopa_truncated,
    qudit_schmidt_state,
    separable_state,
    theta_state,
)
from steerkit.steering import (
    CoincidentSettingsError,
    DegenerateSettingGeometryError,
    LHSModel,
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
Y = bloch_projectors([0, 1, 0])
K0 = np.array([1, 0], dtype=complex)
K1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def random_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def haar_unitary(rng, d):
    q, r = np.linalg.qr((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPureStateParadox:
    def test_two_vs_one_at_pi4(self):
        cert = pure_state_paradox(theta_state(np.pi / 4), [Z, X])
        assert cert.applicable
        assert abs(cert.lhs_trace_sum - 2) <= 1e-9
        assert abs(cert.quantum_trace_sum - 1) <= 1e-9
        assert cert.contradiction_magnitude == pytest.approx(1.0, abs=1e-9)
        # one hidden state per equation, responses forced to 1
        assert cert.collapsed_assignments == {
            (0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4,
        }

    def test_separable_not_applicable(self):
        cert = pure_state_paradox(theta_state(0.0), [Z, X])
        assert not cert.applicable
        assert "separable" in cert.reason

    def test_qudit_uniform_d4(self):
        psi = qudit_schmidt_state(np.full(4, 0.5))
        cert = pure_state_paradox(psi, [computational_basis(4), fourier_mub_basis(4)])
        assert abs(cert.lhs_trace_sum - 2) <= 1e-9
        assert abs(cert.quantum_trace_sum - 1) <= 1e-9

    def test_three_settings(self):
        cert = pure_state_paradox(theta_state(np.pi / 3), [Z, X, Y])
        assert abs(cert.lhs_trace_sum - 3) <= 1e-9
        assert abs(cert.quantum_trace_sum - 1) <= 1e-9
        assert cert.note is not None

    def test_coincident_settings_rejected(self):
        with pytest.raises(CoincidentSettingsError):
            pure_state_paradox(theta_state(0.5), [Z, bloch_projectors([0, 0, 1])])

    @pytest.mark.parametrize("theta", [np.pi / 4, 0.0])
    def test_invalid_settings_reported_invalid(self, theta):
        # a duplicated column: not a basis, and equal to its twin, so only
        # validating before the coincidence test names the real fault
        bad = [MeasurementSetting(label, [[1, 1], [0, 0]]) for label in ("a", "b")]
        with pytest.raises(ValueError, match="invalid setting") as err:
            pure_state_paradox(theta_state(theta), bad)
        assert not isinstance(err.value, CoincidentSettingsError)

    @pytest.mark.parametrize("theta", [np.pi / 4, 0.0])
    def test_each_setting_validated_once(self, theta):
        with mock.patch.object(assemblage, "validate_setting", wraps=assemblage.validate_setting) as check:
            pure_state_paradox(theta_state(theta), [Z, X, Y])
        assert check.call_count == 3

    def test_settings_checked_once_per_tuple(self):
        steering._coinciding_pair.cache_clear()
        settings = (angle_projectors(0.2), angle_projectors(0.9))
        deviations = vars(MeasurementSetting)["_deviations"]
        with (
            mock.patch.object(deviations, "func", wraps=deviations.func) as validated,
            mock.patch.object(steering, "projector_distances", wraps=projector_distances) as compared,
            mock.patch.object(assemblage, "validate_setting", wraps=assemblage.validate_setting) as checked,
        ):
            for theta in (0.5, 0.7):
                assert pure_state_paradox(theta_state(theta), settings).applicable
        assert validated.call_count == 2  # once per setting
        assert compared.call_count == 1  # once per tuple
        assert checked.call_count == 4  # the tolerance is applied on every call

    @pytest.mark.parametrize("loose_first", [True, False])
    def test_coincidence_cached_per_state_eq(self, loose_first):
        # Projectors 1e-6 apart: one setting under state_eq = 1e-3, two
        # under the default 1e-9, whichever tolerance the tuple meets first.
        steering._coinciding_pair.cache_clear()
        settings = (angle_projectors(0.3), angle_projectors(0.3 + 1e-6))
        psi = theta_state(np.pi / 4)
        for loose in (loose_first, not loose_first):
            if loose:
                with pytest.raises(CoincidentSettingsError, match="coincide"):
                    pure_state_paradox(psi, settings, Tolerances(state_eq=1e-3))
            else:
                assert abs(pure_state_paradox(psi, settings).lhs_trace_sum - 2) <= 1e-9

    def test_nearly_coincident_settings_certified(self):
        # Coincidence is judged by trace distance, as tol.state_eq is defined:
        # every projector of R.F lies 2e-9 to 3e-9 from its partner in F, so
        # the pair is distinct, although the projectors differ entrywise by
        # at most 5.3e-10.
        d = 30
        rng = np.random.default_rng(0)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        vals, vecs = np.linalg.eigh((g + g.conj().T) / 2)
        rotation = (vecs * np.exp(5e-10j * vals)) @ vecs.conj().T
        f = np.exp(2j * np.pi / d) ** np.outer(np.arange(d), np.arange(d)) / np.sqrt(d)
        rf = rotation @ f
        gaps = np.linalg.norm(rf - np.sum(f.conj() * rf, axis=0) * f, axis=0)
        assert 2e-9 < np.min(gaps) and np.max(gaps) < 3.2e-9
        settings = [fourier_mub_basis(d), basis_from_unitary(rf, "R.F")]
        cert = pure_state_paradox(qudit_schmidt_state(np.full(d, 1 / np.sqrt(d))), settings)
        assert cert.applicable
        assert abs(cert.lhs_trace_sum - 2) <= 1e-9
        assert abs(cert.purity.min_distance - np.min(gaps)) <= 1e-13

    def test_single_setting_rejected(self):
        with pytest.raises(ValueError):
            pure_state_paradox(theta_state(0.5), [Z])

    def test_theta_grid(self):
        for theta in np.linspace(0.01, np.pi / 2 - 0.01, 50):
            cert = pure_state_paradox(theta_state(theta), [Z, X])
            assert cert.applicable
            assert abs(cert.lhs_trace_sum - 2) <= 1e-9
            assert abs(cert.quantum_trace_sum - 1) <= 1e-9

    def test_qudit_grid(self):
        rng = np.random.default_rng(53)
        for d in range(2, 7):
            vectors = [np.full(d, 1 / np.sqrt(d))]
            while len(vectors) < 3:
                lam = rng.uniform(0.05, 1.0, size=d)
                lam /= np.linalg.norm(lam)
                if np.min(lam) > 0.05:
                    vectors.append(lam)
            settings = [computational_basis(d), fourier_mub_basis(d)]
            for lam in vectors:
                cert = pure_state_paradox(qudit_schmidt_state(lam), settings)
                assert abs(cert.lhs_trace_sum - 2) <= 1e-9
                assert abs(cert.quantum_trace_sum - 1) <= 1e-9

    def test_k_setting_law(self):
        settings_pool = [Z, X, Y, bloch_projectors([np.sin(0.8), 0, np.cos(0.8)])]
        for k in (2, 3, 4):
            cert = pure_state_paradox(theta_state(np.pi / 3), settings_pool[:k])
            assert abs(cert.lhs_trace_sum - k) <= 1e-9

    def test_nopa(self):
        psi, _ = nopa_truncated(1.0, 20)
        cert = pure_state_paradox(psi, [computational_basis(20), fourier_mub_basis(20)])
        assert abs(cert.lhs_trace_sum - 2) <= 1e-9
        assert abs(cert.quantum_trace_sum - 1) <= 1e-9

    def test_certificate_json(self):
        cert = pure_state_paradox(theta_state(0.9), [Z, X])
        doc = cert.to_json()
        assert doc["applicable"]
        assert doc["k"] == 2
        assert doc["purity"]["all_rank_one"]
        assert no_signalling_check(cert.assemblage) <= 1e-12
        assert doc["purity"]["max_residual_mass"] == cert.purity.max_residual_mass
        assert pure_state_paradox(theta_state(0.0), [Z, X]).assemblage is None


def settings_coincide_reference(s1, s2, tol):
    """True if the projectors of two settings pair up, each pair within
    trace distance tol.state_eq: the rule applied one pair of settings at a
    time, kept as the reference for pure_state_paradox's single distance
    matrix over every setting."""
    if s1.dim != s2.dim:
        return False
    k = s1.outcomes
    dist = projector_distances(np.concatenate([s1.vectors, s2.vectors], axis=1).T)
    close = dist[:k, k:] <= tol.state_eq
    return bool(close.any(axis=0).all() and close.any(axis=1).all())


class TestSettingCoincidence:
    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 5), k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_first_pair_matches_pairwise_rule(self, d, k, seed):
        rng = np.random.default_rng(seed)
        bases = [haar_unitary(rng, d)]
        while len(bases) < k:
            if rng.random() < 0.3:
                bases.append(haar_unitary(rng, d))
                continue
            # An earlier basis, columns permuted, rotated by exp(i eps H) with
            # |H| = 1 and eps from 1e-13 to 1e-7, around tol.state_eq = 1e-9.
            u = bases[rng.integers(len(bases))][:, rng.permutation(d)]
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            vals, vecs = np.linalg.eigh(g + g.conj().T)
            eps = 10 ** rng.uniform(-13, -7)
            u = (vecs * np.exp(1j * eps * vals / np.max(np.abs(vals)))) @ vecs.conj().T @ u
            if d > 2 and rng.random() < 0.3:
                u[:, :2] = u[:, :2] @ haar_unitary(rng, 2)  # shares all but two projectors
            bases.append(u)
        settings_ = [MeasurementSetting(f"s{i}", u) for i, u in enumerate(bases)]
        pairs = [
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if settings_coincide_reference(settings_[i], settings_[j], DEFAULT_TOL)
        ]
        try:
            pure_state_paradox(qudit_schmidt_state(np.full(d, 1 / np.sqrt(d))), settings_)
            named = None
        except CoincidentSettingsError as err:
            named = str(err)
        except DegenerateSettingGeometryError:  # distinct settings sharing a projector
            named = None
        assert named == (f"settings 's{pairs[0][0]}' and 's{pairs[0][1]}' coincide" if pairs else None)

    def test_first_coinciding_pair_named(self):
        settings_ = [Z, X, MeasurementSetting("z again", Z.vectors), MeasurementSetting("x again", X.vectors)]
        with pytest.raises(CoincidentSettingsError, match=r"^settings 'bloch\(0,0,1\)' and 'z again' coincide$"):
            pure_state_paradox(theta_state(0.5), settings_)


class TestParadoxProperty:
    """Every pure state with generic settings either certifies the k-vs-1
    trace contradiction or reports separable."""

    @settings(max_examples=150, deadline=None)
    @given(
        lam=st.lists(st.floats(0, 1), min_size=2, max_size=5).filter(any),
        k=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certifies_or_reports_separable(self, lam, k, seed):
        lam = np.array(lam) / max(lam)  # largest entry 1, so the norm cannot underflow
        psi = qudit_schmidt_state(lam / np.linalg.norm(lam))
        d = lam.size
        rng = np.random.default_rng(seed)
        settings_ = [basis_from_unitary(haar_unitary(rng, d), f"haar{i}") for i in range(k)]
        assert no_signalling_check(conditional_states(psi, settings_, (d, d))) <= 1e-12
        cert = pure_state_paradox(psi, settings_)
        if cert.applicable:
            assert abs(cert.lhs_trace_sum - k) <= DEFAULT_TOL.lp
            assert abs(cert.quantum_trace_sum - 1) <= DEFAULT_TOL.lp
        else:
            assert cert.reason == "separable: paradox not applicable"
            assert not psi.entangled(DEFAULT_TOL)


class TestSeparableLhsModel:
    def test_paper_style_responses(self):
        a1, a2 = 0.3, 1.1
        psi = separable_state(PLUS)
        model = separable_lhs_model(psi, [angle_projectors(a1), angle_projectors(a2)])
        assert np.allclose(model.weights, [1.0])
        assert np.allclose(model.hidden_states[0], density(PLUS))
        assert model.outcome_counts == (2, 2)
        expected = [np.cos(a1) ** 2, np.sin(a1) ** 2, np.cos(a2) ** 2, np.sin(a2) ** 2]
        assert model.responses[:, 0] == pytest.approx(expected)

    def test_z_x_responses(self):
        beta = np.array([np.cos(0.7), np.sin(0.7) * np.exp(0.4j)])
        model = separable_lhs_model(separable_state(beta), [Z, X])
        assert model.responses.shape == (4, 1)
        assert model.responses[:, 0] == pytest.approx([1.0, 0.0, 0.5, 0.5], abs=1e-12)

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            gamma = rng.uniform(0, np.pi / 2)
            beta = np.array([np.cos(gamma), np.sin(gamma) * np.exp(1j * rng.uniform(0, 2 * np.pi))])
            settings = [angle_projectors(rng.uniform(0, np.pi)) for _ in range(2)]
            psi = separable_state(beta)
            model = separable_lhs_model(psi, settings)
            rec = lhs_reconstruct(model, settings)
            asm = conditional_states(psi.density_matrix(), settings, (2, 2))
            dev = float(np.max(np.abs(rec.stack - asm.stack)))
            assert dev <= 1e-10

    def test_entangled_rejected(self):
        with pytest.raises(ValueError, match="separable"):
            separable_lhs_model(theta_state(0.5), [Z, X])

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(st.integers(2, 5), st.integers(2, 5)),
        count=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_product_states_haar_settings(self, dims, count, seed):
        # The model reconstructs the assemblage, and its JSON lists the
        # responses rows x hidden states in assemblage row order.
        dA, dB = dims
        rng = np.random.default_rng(seed)
        psi = BipartitePureState(np.kron(random_vector(rng, dA), random_vector(rng, dB)), dA, dB)
        settings_ = [basis_from_unitary(haar_unitary(rng, dA), f"haar{i}") for i in range(count)]
        model = separable_lhs_model(psi, settings_)
        asm = conditional_states(psi, settings_, dims)
        assert np.max(np.abs(lhs_reconstruct(model, settings_).stack - asm.stack)) <= 1e-12
        listed = model.to_json()["responses"]
        keys = row_keys(asm.outcome_counts).tolist()
        assert [(r["setting"], r["outcome"], r["hidden"]) for r in listed] == [(n, a, 0) for n, a in keys]
        assert [r["p"] for r in listed] == model.responses[:, 0].tolist()


class TestLhsReconstruct:
    # responses[row, xi] with rows (z, 0), (z, 1), (x, 0), (x, 1)
    def test_single_deterministic_hidden_state(self):
        rho1 = density(PLUS)
        model = LHSModel(np.array([1.0]), [rho1], [[1.0], [0.0], [1.0], [0.0]], (2, 2))
        asm = lhs_reconstruct(model, [Z, X])
        assert np.allclose(asm.state(0, 0), rho1)
        assert np.allclose(asm.state(0, 1), 0)

    def test_two_hidden_states(self):
        responses = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        model = LHSModel(np.array([0.5, 0.5]), [density(K0), density(K1)], responses, (2, 2))
        asm = lhs_reconstruct(model, [Z, X])
        assert np.allclose(asm.state(0, 0), 0.5 * density(K0))
        assert np.allclose(asm.state(1, 0), 0.5 * density(K0))

    def test_no_signalling_by_construction(self):
        responses = [[0.2, 0.9], [0.8, 0.1], [0.6, 0.5], [0.4, 0.5]]
        model = LHSModel(np.array([0.3, 0.7]), [density(K0), density(PLUS)], responses, (2, 2))
        assert no_signalling_check(lhs_reconstruct(model, [Z, X])) <= 1e-12

    def test_outcome_counts_must_match(self):
        model = separable_lhs_model(separable_state(PLUS), [Z, X])
        with pytest.raises(ValueError, match="outcome counts"):
            lhs_reconstruct(model, [Z])
        with pytest.raises(ValueError, match="outcome counts"):
            lhs_reconstruct(model, [Z, X, Y])


def non_state_candidates():
    """P^z_a + P^x_b - 1/2: Hermitian with unit trace, but each has the
    eigenvalue 1/2 - 1/sqrt(2) < 0."""
    return [Z.projectors[a] + X.projectors[b] - np.eye(2) / 2 for a in (0, 1) for b in (0, 1)]


class TestLhsModelInvariants:
    @staticmethod
    def model(responses, weights=(1.0,), hidden=(np.eye(2) / 2,), counts=(2, 2)):
        return LHSModel(np.array(weights), np.array(hidden), responses, counts)

    def test_non_state_candidates_rejected(self):
        # Over these four matrices the theta = pi/4 {z, x} assemblage has an
        # exact "model", hidden state (a, b) answering a to z and b to x;
        # the state is steerable, so only the hidden states can be at fault.
        asm = conditional_states(theta_state(np.pi / 4), [Z, X], (2, 2))
        with pytest.raises(ValueError, match="candidate 0 is not a density matrix"):
            lhs_feasibility_lp(asm, non_state_candidates())
        responses = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        fake = self.model(responses, [0.25] * 4, non_state_candidates())
        weighted = fake.weights[:, None, None] * fake.hidden_states
        assert np.max(np.abs(np.tensordot(fake.responses, weighted, axes=1) - asm.stack)) <= 1e-12
        with pytest.raises(ValueError, match="hidden state 0 is not a density matrix"):
            fake.validate(asm.bob_reduced)

    @pytest.mark.parametrize(
        "hidden, fault",
        [
            (np.diag([1.2, -0.2]), "min eigenvalue -2.000e-01"),
            (np.diag([0.5, 0.4]), "trace 0.9"),
            ([[0.5, 0.1], [0, 0.5]], "max |M - M^dagger| = 1.000e-01"),
        ],
    )
    def test_hidden_state_must_be_a_state(self, hidden, fault):
        with pytest.raises(ValueError, match=re.escape(fault)):
            self.model([[1.0], [0.0], [0.5], [0.5]], hidden=[hidden]).validate()

    def test_negative_response_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            self.model([[1.5], [-0.5], [0.5], [0.5]]).validate()
        self.model([[1.0 + 1e-9], [-1e-9], [0.5], [0.5]]).validate()

    def test_every_setting_checked(self):
        # A setting whose responses are all 0 fails, wherever it sits.
        for responses in ([[1.0], [0.0], [0.0], [0.0]], [[0.0], [0.0], [0.5], [0.5]]):
            with pytest.raises(ValueError, match="miss a sum of 1"):
                self.model(responses).validate()

    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (4, 2), (4,), (1, 4)])
    def test_responses_shape_checked(self, shape):
        # (2, 1) holds setting 0 only: a setting with no responses at all
        # cannot be written down.
        with pytest.raises(ValueError, match="responses shape"):
            self.model(np.full(shape, 0.5))

    @pytest.mark.parametrize("counts", [(), (2, 0, 2)])
    def test_outcome_counts_checked(self, counts):
        with pytest.raises(ValueError, match="outcome_counts"):
            self.model(np.full((4, 1), 0.5), counts=counts)

    def test_hidden_states_shape_checked(self):
        with pytest.raises(ValueError, match="hidden_states shape"):
            self.model(np.full((4, 1), 0.5), hidden=[np.eye(2) / 2, np.eye(2) / 2])

    def test_fields_are_read_only_copies(self):
        weights, hidden, responses = np.array([1.0]), [np.eye(2, dtype=complex) / 2], np.full((4, 1), 0.5)
        model = LHSModel(weights, hidden, responses, [2, 2])
        weights[0], hidden[0][0, 0], responses[0, 0] = 7.0, 7.0, 7.0
        assert model.weights[0] == 1.0 and model.hidden_states[0, 0, 0] == 0.5 and model.responses[0, 0] == 0.5
        assert hidden[0].flags.writeable and weights.flags.writeable and responses.flags.writeable
        for field in (model.weights, model.hidden_states, model.responses):
            assert not field.flags.writeable
        assert model.outcome_counts == (2, 2)

    def test_json_layout(self):
        hidden = [density(K0), [[0.5, 0.5j], [-0.5j, 0.5]]]
        model = self.model([[0.2, 0.9], [0.8, 0.1], [0.6, 0.5], [0.4, 0.5]], [0.3, 0.7], hidden)
        doc = model.to_json()
        assert doc["weights"] == [0.3, 0.7]
        assert doc["hidden_states"][1] == [[[0.5, 0.0], [0.0, 0.5]], [[-0.0, -0.5], [0.5, 0.0]]]
        keys = [(r["setting"], r["outcome"], r["hidden"], r["p"]) for r in doc["responses"]]
        assert keys == [
            (0, 0, 0, 0.2), (0, 0, 1, 0.9), (0, 1, 0, 0.8), (0, 1, 1, 0.1),
            (1, 0, 0, 0.6), (1, 0, 1, 0.5), (1, 1, 0, 0.4), (1, 1, 1, 0.5),
        ]


class TestFeasibilityLp:
    def test_separable_assemblage_feasible(self):
        psi = separable_state(PLUS)
        settings = [angle_projectors(0.3), angle_projectors(1.1)]
        asm = conditional_states(psi.density_matrix(), settings, (2, 2))
        out = lhs_feasibility_lp(asm, [density(PLUS)])
        assert out.feasible
        model = out.model
        model.validate(bob_reduced=asm.bob_reduced)
        rec = lhs_reconstruct(model, settings)
        dev = float(np.max(np.abs(rec.stack - asm.stack)))
        assert dev <= 1e-8
        # same responses as the explicit construction
        ref = separable_lhs_model(psi, settings)
        assert model.responses == pytest.approx(ref.responses, abs=1e-8)

    def test_entangled_infeasible_in_conditional_ansatz(self):
        asm = conditional_states(theta_state(np.pi / 4).density_matrix(), [Z, X], (2, 2))
        cands = [density(K0), density(K1), density(PLUS), density(MINUS)]
        out = lhs_feasibility_lp(asm, cands)
        assert not out.feasible
        assert out.residual >= 0.05

    def test_uncorrelated_assemblage_feasible(self):
        rho_b = np.eye(2) / 2
        asm = Assemblage(("s0", "s1"), (2, 2), np.stack([rho_b / 2] * 4), rho_b, (2, 2))
        out = lhs_feasibility_lp(asm, [rho_b])
        assert out.feasible
        assert out.model.responses.shape == (4, 1)
        assert out.model.responses == pytest.approx(0.5, abs=1e-9)

    def test_default_candidates(self):
        asm = conditional_states(theta_state(np.pi / 4).density_matrix(), [Z, X], (2, 2))
        cands = default_candidates(asm)
        assert len(cands) == 5  # four conditionals plus Bob's reduced state
        for c in cands:
            assert abs(np.trace(c) - 1) < 1e-12

    def test_theta_sweep_infeasible(self):
        for theta in (np.pi / 8, np.pi / 4, 3 * np.pi / 8):
            asm = conditional_states(theta_state(theta).density_matrix(), [Z, X], (2, 2))
            cands = default_candidates(asm)[:4]
            out = lhs_feasibility_lp(asm, cands)
            assert not out.feasible

    def test_tiny_pivot_gives_valid_model(self):
        # Werner state just below the two-setting threshold 1/sqrt(2), over
        # 64 pure states on the x-z circle: a pivot on a rounding-sized
        # element once certified a model whose average missed rho_B.
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        p = 0.558990751775139
        rho = p * np.outer(bell, bell.conj()) + (1 - p) * np.eye(4) / 4
        angles = 2 * np.pi * np.arange(64) / 64
        cands = [bloch_projectors([np.sin(t), 0, np.cos(t)]).projectors[0] for t in angles]
        asm = conditional_states(rho, [Z, X], (2, 2))
        out = lhs_feasibility_lp(asm, cands)
        assert out.status == "FeasibleModelFound"
        out.model.validate(asm.bob_reduced)
        rec = lhs_reconstruct(out.model, [Z, X])
        dev = float(np.max(np.abs(rec.stack - asm.stack)))
        assert dev <= DEFAULT_TOL.lp

    def test_no_signalling_violation_rejected(self):
        # delta/2 on both diagonal entries of the last outcome of setting 1,
        # the rows the simplex leaves out, of an assemblage feasible by 0.05
        axes, states, threshold = GRIDS["circle64"]
        asm, _ = werner_assemblage(threshold - 0.05, axes)
        assert lhs_feasibility_lp(asm, states()).feasible
        delta = 1e-6
        stack = asm.stack.copy()
        stack[3] += delta * np.eye(2) / 2
        broken = Assemblage(asm.setting_labels, asm.outcome_counts, stack, asm.bob_reduced, asm.dims)
        out = lhs_feasibility_lp(broken, states())
        assert out.status == "InfeasibleWithinAnsatz"
        # the dropped row misses by delta/2 on each diagonal entry, so the
        # all-row residual is delta up to rounding
        assert abs(out.residual - delta) <= 1e-15
        linprog = pytest.importorskip("scipy.optimize").linprog
        A, b = full_lp_system(broken, states())
        highs = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert highs.status == 2  # infeasible

    def test_dimension_mismatch(self):
        asm = conditional_states(theta_state(0.5).density_matrix(), [Z, X], (2, 2))
        with pytest.raises(ValueError, match="candidate"):
            lhs_feasibility_lp(asm, [np.eye(3) / 3])


class TestIndependentRows:
    """lhs_feasibility_lp hands phase_one a full-row-rank subset of the
    equations that spans all of them."""

    SHAPES = {"circle8": (9, 32), "circle64": (9, 256), "cube": (16, 64), "cube_fib248": (16, 2048)}

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_full_row_rank(self, grid):
        axes, states, threshold = GRIDS[grid]
        asm, _ = werner_assemblage(threshold - 0.01, axes)
        A, b, _ = lp_system(asm, states())
        A_full, b_full = full_lp_system(asm, states())
        assert A.shape == self.SHAPES[grid]
        assert np.linalg.matrix_rank(A) == len(A) == np.linalg.matrix_rank(A_full)
        equations = {(*row, rhs) for row, rhs in zip(A_full.tolist(), b_full.tolist())}
        assert all((*row, rhs) in equations for row, rhs in zip(A.tolist(), b.tolist()))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("offset", [-0.01, 0.01])
    def test_kept_rows_of_the_full_system(self, grid, offset):
        # Only the kept rows are built, but they are exactly the full
        # system's rows, in its order, that are neither the last outcome of
        # a setting after the first nor zero in both A and b: phase_one gets
        # the input, and so takes the pivots, it got when all of A was
        # built. The residual over every row comes from the factors.
        axes, states, threshold = GRIDS[grid]
        asm, _ = werner_assemblage(threshold + offset, axes)
        A, b, outcome = lp_system(asm, states())
        A_full, b_full = full_lp_system(asm, states())
        implied = [n > 0 and a == asm.outcome_counts[n] - 1 for n, a in row_keys(asm.outcome_counts).tolist()]
        keep = ~np.repeat(implied, len(b_full) // len(implied)) & (A_full.any(axis=1) | (b_full != 0))
        assert np.array_equal(A, A_full[keep]) and np.array_equal(b, b_full[keep])
        ref = phase_one(A_full[keep], b_full[keep])
        assert outcome.iterations == ref.iterations
        full_residual = max(ref.residual, float(np.abs(A_full @ ref.x - b_full).sum()))
        assert abs(outcome.residual - full_residual) <= 1e-12
        assert outcome.feasible == (offset < 0)


class TestWernerThresholds:
    """Closed-form LHS visibility thresholds of the Werner state: 1/sqrt(2)
    for {z, x} over the 8-point x-z circle, 1/sqrt(3) for {x, y, z} over
    the 8 cube vertices."""

    @pytest.mark.parametrize("grid", ["circle8", "cube"])
    def test_feasible_below(self, grid):
        axes, states, threshold = GRIDS[grid]
        asm, settings = werner_assemblage(threshold - 0.01, axes)
        out = lhs_feasibility_lp(asm, states())
        assert out.status == "FeasibleModelFound"
        out.model.validate(asm.bob_reduced)
        rec = lhs_reconstruct(out.model, settings)
        dev = float(np.max(np.abs(rec.stack - asm.stack)))
        assert dev <= DEFAULT_TOL.lp

    @pytest.mark.parametrize("grid", ["circle8", "cube"])
    def test_infeasible_above(self, grid):
        axes, states, threshold = GRIDS[grid]
        asm, _ = werner_assemblage(threshold + 0.01, axes)
        out = lhs_feasibility_lp(asm, states())
        assert out.status == "InfeasibleWithinAnsatz"
        assert out.model is None


class TestGhz:
    def test_expectations(self):
        exp = ghz_operator_expectations(ghz_state())
        assert np.allclose(exp.values, [1, -1, -1, -1], atol=1e-12)
        assert max(exp.eigenstate_residuals) <= 1e-12

    def test_product_state_expectations_vanish(self):
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1
        exp = ghz_operator_expectations(MultiQubitPureState(vec, 3))
        assert np.allclose(exp.values, 0, atol=1e-12)

    def test_operators_built_once(self, monkeypatch):
        monkeypatch.setattr(np, "kron", None)  # a call would fail
        assert np.allclose(ghz_operator_expectations(ghz_state()).values, [1, -1, -1, -1], atol=1e-12)
        assert not steering._GHZ_OPERATORS.flags.writeable

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            ghz_operator_expectations(MultiQubitPureState(np.array([1, 0], dtype=complex), 1))

    def test_bruteforce_no_solutions(self):
        count, witness = ghz_lhv_bruteforce()
        assert count == 0
        assert witness == -1

    def test_relaxed_constraints_have_solutions(self):
        # Four parity constraints on six signs with one GF(2) dependency:
        # rank 3, so 2^(6-3) = 8 satisfying assignments.
        count, witness = ghz_lhv_bruteforce(targets=(-1, -1, -1, -1))
        assert count == 8
        assert witness == 1


class TestStateBatches:
    """A PureStates batch runs the paradox once; each state's share of it
    must be what the state gives on its own."""

    GRID = [0.0, 0.3, 0.6, np.pi / 4, 1.2, np.pi / 2]

    @staticmethod
    def theta_states(thetas) -> PureStates:
        return PureStates.of(*map(theta_state, thetas))

    def test_theta_states_match_single_states(self):
        batch = self.theta_states(self.GRID)
        assert len(batch) == len(self.GRID) and (batch.dA, batch.dB) == (2, 2)
        for i, theta in enumerate(self.GRID):
            single = theta_state(theta)
            assert np.array_equal(batch.coefficients[i], single.coefficients)
            assert np.array_equal(batch.schmidt_coeffs[i], single.schmidt_coeffs)
            assert batch.entangled()[i] == single.entangled()
        one = PureStates.of(theta_state(0.3))
        assert np.array_equal(one.coefficients, batch[1:2].coefficients)

    def test_nopa_batch_matches_single_certificates(self):
        # Row-major conditional states: a state's share of a batch is its
        # single run bit for bit, the trace sums included.
        psis = [nopa_truncated(r, 18)[0] for r in (0.3, 1.0)]
        settings_ = [computational_basis(18), fourier_mub_basis(18)]
        certs = pure_state_paradox(PureStates.of(*psis), settings_)
        singles = [pure_state_paradox(psi, settings_) for psi in psis]
        assert [c.to_json() for c in certs] == [s.to_json() for s in singles]

    def test_projector_distances_per_stack(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
        vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
        batched = projector_distances(vecs)
        for p in range(3):
            assert np.array_equal(batched[p], projector_distances(vecs[p]))

    def test_paradox_batch_matches_single_certificates(self):
        certs = pure_state_paradox(self.theta_states(self.GRID), [Z, X, Y])
        singles = [pure_state_paradox(theta_state(theta), [Z, X, Y]) for theta in self.GRID]
        assert [c.applicable for c in certs] == [s.applicable for s in singles] == [False, True, True, True, True, False]
        assert [json.dumps(c.to_json()) for c in certs] == [json.dumps(s.to_json()) for s in singles]
        for cert, single in zip(certs, singles):
            if cert.applicable:
                assert np.array_equal(cert.assemblage.stack, single.assemblage.stack)
                assert np.array_equal(cert.purity.distance_matrix, single.purity.distance_matrix)
        asms = [c.assemblage for c in certs if c.applicable]
        assert no_signalling_check(asms) == [no_signalling_check(a) for a in asms]

    def test_chunks_bound_a_batch(self, monkeypatch):
        thetas = np.linspace(0.1, 1.4, 7)
        whole = pure_state_paradox(self.theta_states(thetas), [Z, X])
        calls = []
        exact = steering.conditional_states
        monkeypatch.setattr(steering, "conditional_states", lambda psi, *args: calls.append(len(psi)) or exact(psi, *args))
        # One state of two qubit settings holds 4 factors of 2 entries and a
        # 4 x 4 distance matrix: 24 entries.
        monkeypatch.setattr(steering, "_BATCH_ENTRIES", 3 * 24)
        chunked = pure_state_paradox(self.theta_states(thetas), [Z, X])
        assert calls == [3, 3, 1]
        assert [json.dumps(c.to_json()) for c in chunked] == [json.dumps(c.to_json()) for c in whole]

    def test_purity_profiles_group_by_nonvacuous_rows(self, monkeypatch):
        # At d = 18, tanh(0.3)^(2m) falls below tol.rank1 from m = 9: nine
        # vacuous Z outcomes at r = 0.3, none at r = 1.0.
        settings_ = [computational_basis(18), fourier_mub_basis(18)]
        asms = [conditional_states(nopa_truncated(r, 18)[0], settings_, (18, 18)) for r in (0.3, 1.0, 0.3)]
        calls = collections.Counter()
        exact = assemblage.projector_distances
        monkeypatch.setattr(
            assemblage, "projector_distances", lambda vecs: calls.update([vecs.shape[:-1]]) or exact(vecs)
        )
        profiles = purity_profile(asms)
        assert calls == {(2, 27): 1, (1, 36): 1}  # (states, nonvacuous rows) of each group
        for prof, asm in zip(profiles, asms):
            single = purity_profile(asm)
            assert np.array_equal(prof.index, single.index)
            assert np.array_equal(prof.distance_matrix, single.distance_matrix)
            assert (prof.all_rank_one, prof.max_residual_mass, prof.min_distance) == (
                single.all_rank_one,
                single.max_residual_mass,
                single.min_distance,
            )
        with pytest.raises(ValueError, match="share their outcome counts"):
            purity_profile([asms[0], conditional_states(nopa_truncated(0.3, 18)[0], settings_[:1], (18, 18))])

    def test_batch_error_is_the_first_failing_state(self, monkeypatch):
        exact = steering.purity_profile

        def flaky(asms, tol):
            # theta = 0.6 and theta = 0.9 get coinciding states, at min
            # distances 1e-10 and 0 (every row is nonvacuous)
            profiles = exact(asms, tol)
            for j, prof in enumerate(profiles):
                for theta, dist in ((0.6, 1e-10), (0.9, 0.0)):
                    if abs(prof.probabilities[0] - np.cos(theta) ** 2) <= 1e-12:
                        profiles[j] = dataclasses.replace(prof, min_distance=dist)
            return profiles

        monkeypatch.setattr(steering, "purity_profile", flaky)
        with pytest.raises(DegenerateSettingGeometryError, match=r"\(min trace distance 1\.000e-10\)"):
            pure_state_paradox(self.theta_states([0.3, 0.6, 0.9]), [Z, X])
