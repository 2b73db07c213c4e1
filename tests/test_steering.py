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

from steerkit import assemblage, measurements, steering
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

    @pytest.mark.parametrize(
        "theta, settings_, reason, note",
        [
            (np.pi / 4, [Z, X], "entangled pure state: trace contradiction established", None),
            (0.5, [Z, X, Y], "entangled pure state: trace contradiction established",
             "k-setting extension of the two-setting collapse"),
            (0.0, [Z, X, Y], "separable: paradox not applicable", None),
        ],
    )
    def test_reason_and_note(self, theta, settings_, reason, note):
        cert = pure_state_paradox(theta_state(theta), settings_)
        assert (cert.reason, cert.note) == (reason, note)
        assert cert.to_json()["reason"] == reason and cert.to_json().get("note") == note

    def test_certificate_carries_no_signalling_check(self):
        # The deviation is that of no_signalling_check on the certificate's
        # own assemblage, bit for bit, whether the state runs alone or in a
        # batch; a state the paradox does not apply to has None.
        cert = pure_state_paradox(theta_state(0.4), [Z, X, Y])
        assert cert.no_signalling_deviation == no_signalling_check(cert.assemblage)
        psis = [nopa_truncated(r, 9)[0] for r in (0.3, 1.0, 2.0)]
        psis.insert(1, qudit_schmidt_state(np.eye(9)[0]))
        certs = pure_state_paradox(PureStates.of(*psis), [computational_basis(9), fourier_mub_basis(9)])
        assert [c.applicable for c in certs] == [True, False, True, True]
        for c in certs:
            if c.applicable:
                assert c.no_signalling_deviation == no_signalling_check(c.assemblage)
                assert 0 <= c.no_signalling_deviation <= 1e-12
            else:
                assert c.no_signalling_deviation is None

    def test_coincident_settings_rejected(self):
        # Coincident settings give an entangled state coincident conditional
        # states; on a separable state the paradox does not apply.
        settings_ = [Z, bloch_projectors([0, 0, 1])]
        with pytest.raises(DegenerateSettingGeometryError, match=r"\(min trace distance 0\.000e\+00\)$"):
            pure_state_paradox(theta_state(0.5), settings_)
        assert pure_state_paradox(theta_state(0.0), settings_).reason == "separable: paradox not applicable"

    @pytest.mark.parametrize("theta", [np.pi / 4, 0.0])
    def test_invalid_settings_reported_invalid(self, theta):
        # a duplicated column: not a basis, and equal to its twin, so only
        # validating before the distinctness check names the real fault
        bad = [MeasurementSetting(label, [[1, 1], [0, 0]]) for label in ("a", "b")]
        with pytest.raises(ValueError, match="invalid setting"):
            pure_state_paradox(theta_state(theta), bad)

    @pytest.mark.parametrize("theta", [np.pi / 4, 0.0])
    def test_each_setting_validated_once(self, theta):
        with mock.patch.object(assemblage, "validate_setting", wraps=assemblage.validate_setting) as check:
            pure_state_paradox(theta_state(theta), [Z, X, Y])
        assert check.call_count == 3

    def test_settings_checked_once_per_tuple(self):
        measurements._basis_deviations.cache_clear()
        settings = (angle_projectors(0.2), angle_projectors(0.9))
        with mock.patch.object(assemblage, "validate_setting", wraps=assemblage.validate_setting) as checked:
            for theta in (0.5, 0.7):
                assert pure_state_paradox(theta_state(theta), settings).applicable
        assert measurements._basis_deviations.cache_info().misses == 2  # once per setting
        assert checked.call_count == 4  # the tolerance is applied on every call

    @pytest.mark.parametrize("loose_first", [True, False])
    def test_coincidence_cached_per_state_eq(self, loose_first):
        # Projectors 1e-6 apart, and so, on the maximally entangled state,
        # conditional states 1e-6 apart: one setting under state_eq = 1e-3,
        # two under the default 1e-9, whichever tolerance comes first.
        settings = (angle_projectors(0.3), angle_projectors(0.3 + 1e-6))
        psi = theta_state(np.pi / 4)
        for loose in (loose_first, not loose_first):
            if loose:
                with pytest.raises(DegenerateSettingGeometryError, match="coincide"):
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
        assert doc["purity"] == {
            "all_rank_one": True,
            "max_residual_mass": 0.0,
            "min_pairwise_distance": cert.purity.min_distance,
        }
        assert no_signalling_check(cert.assemblage) <= 1e-12
        assert doc["collapsed_assignments"] == [
            {"setting": n, "outcome": a, "hidden": xi} for (n, a), xi in cert.collapsed_assignments.items()
        ]
        assert [row["hidden"] for row in doc["collapsed_assignments"]] == [1, 2, 3, 4]
        assert pure_state_paradox(theta_state(0.0), [Z, X]).assemblage is None


def settings_coincide_reference(s1, s2, tol):
    """True if the projectors of two settings pair up, each pair within
    trace distance tol.state_eq: the rule by which settings coincide,
    applied one pair of settings at a time."""
    if s1.dim != s2.dim:
        return False
    k = s1.outcomes
    dist = np.zeros((2 * k, 2 * k))
    dist[np.triu_indices(2 * k, 1)] = projector_distances(np.concatenate([s1.vectors, s2.vectors], axis=1).T)
    close = dist[:k, k:] <= tol.state_eq
    return bool(close.any(axis=0).all() and close.any(axis=1).all())


class TestSettingCoincidence:
    """Coincident settings have no check of their own: on an entangled
    state they give coincident conditional states, which the distinctness
    check rejects. Within tol.state_eq of coincidence the two rules could
    disagree, as u -> Psi^T conj(u) is no isometry; these tests pin the
    verdict there."""

    @staticmethod
    def assert_rejected_if_coincident(psi, settings_):
        """Whether the run raised DegenerateSettingGeometryError, which it
        must when the reference calls any two settings coincident; a run
        that does not raise certifies."""
        k = len(settings_)
        coincident = any(
            settings_coincide_reference(settings_[i], settings_[j], DEFAULT_TOL)
            for i in range(k)
            for j in range(i + 1, k)
        )
        try:
            cert = pure_state_paradox(psi, settings_)
        except DegenerateSettingGeometryError:  # also distinct settings sharing a projector
            return True
        assert not coincident
        assert abs(cert.lhs_trace_sum - k) <= DEFAULT_TOL.lp
        return False

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 5), k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_first_pair_matches_pairwise_rule(self, d, k, seed):
        # On the maximally entangled state the normalized conditional state
        # of u is conj(u): conditional states lie as far apart as projectors.
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
        self.assert_rejected_if_coincident(qudit_schmidt_state(np.full(d, 1 / np.sqrt(d))), settings_)

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.01, np.pi / 2 - 0.01),
        alpha=st.floats(0, np.pi),
        log_eps=st.floats(-13, -7),
        swap=st.booleans(),
    )
    def test_qubit_theta_states_reject_coincident_settings(self, theta, alpha, log_eps, swap):
        # Real qubit bases at angles alpha and alpha + eps, the second with
        # its outcomes swapped or not, lie eps apart in trace distance. With
        # c = cos(alpha), s = sin(alpha) and Schmidt coefficients l0, l1 of
        # the theta state, outcome 0 maps to (l0 c, l1 s), whose angle moves
        # by l0 l1 / (l0^2 c^2 + l1^2 s^2) per unit of alpha, and outcome 1
        # to (l0 s, -l1 c), whose angle moves by l0 l1 / (l0^2 s^2 + l1^2 c^2).
        # The denominators multiply to c^2 s^2 (l0^4 + l1^4) + l0^2 l1^2
        # (c^4 + s^4) >= l0^2 l1^2 (c^2 + s^2)^2, as l0^4 + l1^4 >= 2 l0^2 l1^2
        # (AM-GM), so the two stretch factors multiply to at most 1: to first
        # order, some conditional pair lies no farther apart than its
        # projectors, and settings within tol.state_eq are rejected.
        eps = 10**log_eps
        settings_ = [angle_projectors(alpha), angle_projectors(alpha + eps + (np.pi / 2 if swap else 0))]
        rejected = self.assert_rejected_if_coincident(theta_state(theta), settings_)
        assert rejected or eps > 0.99e-9

    def test_first_coinciding_pair_named(self):
        settings_ = [Z, X, MeasurementSetting("z again", Z.vectors), MeasurementSetting("x again", X.vectors)]
        pair = "closest: outcome 0 of 'bloch(0,0,1)' and outcome 0 of 'z again' (min trace distance 0.000e+00)"
        with pytest.raises(DegenerateSettingGeometryError, match=re.escape(pair) + "$"):
            pure_state_paradox(theta_state(0.5), settings_)

    def test_coinciding_conditional_states_named(self):
        # Distinct settings sharing the projector onto |0>: outcome 0 of
        # each leaves Bob in the same state, whatever the entangled state.
        shared = np.eye(3, dtype=complex)
        shared[1:, 1:] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        settings_ = [computational_basis(3), MeasurementSetting("shares |0>", shared)]
        entangled = qudit_schmidt_state([0.6, 0.8, 0.0])
        pair = "closest: outcome 0 of 'Z(d=3)' and outcome 0 of 'shares |0>'"
        with pytest.raises(DegenerateSettingGeometryError, match=re.escape(pair + " (min trace distance")):
            pure_state_paradox(entangled, settings_)
        # In a batch, the entangled state at index 1 fails; the separable
        # one at index 0 is not collapsed.
        batch = PureStates.of(qudit_schmidt_state([1.0, 0.0, 0.0]), entangled)
        with pytest.raises(DegenerateSettingGeometryError, match=re.escape(pair + " of batch index 1 (min")):
            pure_state_paradox(batch, settings_)


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

    def test_settings_validated(self):
        # Columns of norms 1 and 1.25: the responses of setting 0 would sum to 1.25.
        psi = separable_state(K0)
        with pytest.raises(ValueError, match="^invalid setting 'bad'"):
            separable_lhs_model(psi, [MeasurementSetting("bad", [[1, 0.5], [0, 1]]), X])
        with pytest.raises(TypeError, match="^setting 1 is not a MeasurementSetting$"):
            separable_lhs_model(psi, [X, np.eye(2)])

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


class TestAnsatzCache:
    """lhs_feasibility_lp checks and vectorizes each candidate ansatz once
    per tol.lp."""

    @staticmethod
    def werner_circle8():
        axes, states, threshold = GRIDS["circle8"]
        asm, _ = werner_assemblage(threshold - 0.05, axes)
        return asm, [np.array(c) for c in states()]

    def test_candidates_mutated_in_place_are_checked_again(self):
        asm, cands = self.werner_circle8()
        assert lhs_feasibility_lp(asm, cands).feasible
        cands[3][:] = np.diag([1.2, -0.2])
        with pytest.raises(ValueError, match="candidate 3 is not a density matrix"):
            lhs_feasibility_lp(asm, cands)

    @pytest.mark.parametrize("strict_first", [True, False])
    def test_lp_tolerance_is_part_of_the_key(self, strict_first):
        steering._candidate_vectors.cache_clear()
        asm, cands = self.werner_circle8()
        cands.append(np.diag([0.5 + 5e-8, 0.5]))
        order = [Tolerances(lp=1e-8), Tolerances(lp=1e-7)]
        for tol in order if strict_first else order[::-1]:
            if tol.lp < 5e-8:
                with pytest.raises(ValueError, match="candidate 8 is not a density matrix"):
                    lhs_feasibility_lp(asm, cands, tol)
            else:
                assert lhs_feasibility_lp(asm, cands, tol).feasible

    def test_cached_call_gives_the_same_outcome(self):
        asm, cands = self.werner_circle8()
        steering._candidate_vectors.cache_clear()
        outcomes = [lhs_feasibility_lp(asm, cands), lhs_feasibility_lp(asm, cands)]
        assert steering._candidate_vectors.cache_info().hits == 1
        steering._candidate_vectors.cache_clear()
        outcomes.append(lhs_feasibility_lp(asm, cands))
        first = outcomes[0]
        for out in outcomes[1:]:
            assert (out.status, out.residual, out.iterations) == (first.status, first.residual, first.iterations)
            for field in ("weights", "hidden_states", "responses"):
                assert np.array_equal(getattr(out.model, field), getattr(first.model, field))

    def test_large_ansatz_is_not_kept(self):
        # 1108 qubit candidates, 70912 bytes: over the cache's per-ansatz bound.
        asm, cands = self.werner_circle8()
        rng = np.random.default_rng(9)
        v = rng.normal(size=(1100, 2)) + 1j * rng.normal(size=(1100, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        big = np.concatenate([np.array(cands), v[:, :, None] * v.conj()[:, None, :]])
        assert big.nbytes > steering._ANSATZ_BYTES
        steering._candidate_vectors.cache_clear()
        first, second = lhs_feasibility_lp(asm, big), lhs_feasibility_lp(asm, big)
        assert steering._candidate_vectors.cache_info().currsize == 0
        assert first.feasible
        assert (second.status, second.residual, second.iterations) == (first.status, first.residual, first.iterations)
        for field in ("weights", "hidden_states", "responses"):
            assert np.array_equal(getattr(second.model, field), getattr(first.model, field))

    def test_cached_vectors_are_read_only(self):
        _, cands = self.werner_circle8()
        stack = np.array(cands, dtype=complex)
        vec = steering._candidate_vectors(stack.tobytes(), stack.shape, DEFAULT_TOL.lp)
        assert vec is steering._candidate_vectors(stack.tobytes(), stack.shape, DEFAULT_TOL.lp)
        assert not vec.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vec[0, 0] = 1.0


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

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_operator_reference(self, seed):
        psi = random_vector(np.random.default_rng(seed), 8)
        exp = ghz_operator_expectations(MultiQubitPureState(psi, 3))
        for op, value, residual in zip(steering._GHZ_OPERATORS, exp.values, exp.eigenstate_residuals):
            applied = op @ psi
            want = np.vdot(psi, applied).real
            assert abs(value - want) <= 1e-12
            assert abs(residual - np.linalg.norm(applied - want * psi)) <= 1e-12
        assert all(type(v) is float for v in exp.values + exp.eigenstate_residuals)

    def test_targets_are_the_ghz_eigenvalues(self):
        assert steering.GHZ_TARGETS == (1, -1, -1, -1)
        assert np.allclose(ghz_operator_expectations(ghz_state()).values, steering.GHZ_TARGETS, atol=1e-12)
        assert ghz_lhv_bruteforce() == ghz_lhv_bruteforce(steering.GHZ_TARGETS) == (0, -1)

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

    def test_one_rho_b_and_no_svd(self, monkeypatch):
        # Entanglement comes from the spectrum of the batch's rho_B, which
        # every certificate's assemblage shares; no SVD is taken.
        def svd(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", svd)
        settings_ = [computational_basis(4), fourier_mub_basis(4)]
        psis = [qudit_schmidt_state(lam) for lam in ([0.5] * 4, [1.0, 0, 0, 0], [0.8, 0.6, 0, 0])]
        assert pure_state_paradox(psis[0], settings_).applicable
        batch = PureStates.of(*psis)
        certs = pure_state_paradox(batch, settings_)
        assert [c.applicable for c in certs] == [True, False, True]
        for i in (0, 2):
            bob = certs[i].assemblage.bob_reduced
            assert np.shares_memory(bob, batch.bob_reduced) and np.array_equal(bob, batch.bob_reduced[i])

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
                assert np.array_equal(cert.purity.principals, single.purity.principals)
                assert np.array_equal(cert.purity.closest, single.purity.closest)
        asms = [c.assemblage for c in certs if c.applicable]
        assert no_signalling_check(asms) == [no_signalling_check(a) for a in asms]

    def test_batch_runs_whole(self, monkeypatch):
        # Five states at d = 100 under Z, X: more than a CLI sweep puts in
        # one batch (four), yet the library runs them as one computation.
        rng = np.random.default_rng(24)
        psis = [qudit_schmidt_state(np.sqrt(rng.dirichlet(np.ones(100)))) for _ in range(5)]
        settings_ = [computational_basis(100), fourier_mub_basis(100)]
        calls = []
        exact = steering.conditional_states
        monkeypatch.setattr(steering, "conditional_states", lambda psi, *args: calls.append(len(psi)) or exact(psi, *args))
        certs = pure_state_paradox(PureStates.of(*psis), settings_)
        assert calls == [5]
        for psi, cert in zip(psis, certs):
            single = pure_state_paradox(psi, settings_)
            assert cert.applicable and json.dumps(cert.to_json()) == json.dumps(single.to_json())
            assert np.array_equal(cert.assemblage.factors, single.assemblage.factors)
            assert np.array_equal(cert.purity.principals, single.purity.principals)

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
            assert np.array_equal(prof.principals, single.principals)
            assert np.array_equal(prof.closest, single.closest)
            assert prof.min_distance == single.min_distance
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
