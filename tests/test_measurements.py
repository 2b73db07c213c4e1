import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit.linalg import DEFAULT_TOL, Tolerances
from steerkit.measurements import (
    MeasurementSetting,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    angle_projectors,
    basis_from_unitary,
    bloch_projectors,
    computational_basis,
    fourier_mub_basis,
    validate_setting,
)
from steerkit.states import density

K0 = np.array([1, 0], dtype=complex)
K1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


class TestBlochProjectors:
    def test_z_axis(self):
        s = bloch_projectors([0, 0, 1])
        assert np.allclose(s.projectors[0], density(K0))
        assert np.allclose(s.projectors[1], density(K1))

    def test_x_axis(self):
        s = bloch_projectors([1, 0, 0])
        assert np.allclose(s.projectors[0], density(PLUS))
        assert np.allclose(s.projectors[1], density(MINUS))

    def test_y_axis_offdiagonals(self):
        s = bloch_projectors([0, 1, 0])
        assert np.allclose(s.projectors[0], (np.eye(2) + PAULI_Y) / 2)
        assert abs(s.projectors[0][0, 1] - (-0.5j)) < 1e-12
        assert abs(s.projectors[1][0, 1] - 0.5j) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            bloch_projectors([1, 1, 0])

    def test_random_directions_valid(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            assert validate_setting(bloch_projectors(n)).passed

    def test_antipodal_swaps_outcomes(self):
        rng = np.random.default_rng(37)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        s, sm = bloch_projectors(n), bloch_projectors(-n)
        assert np.max(np.abs(s.projectors[0] - sm.projectors[1])) <= DEFAULT_TOL.eig
        assert np.max(np.abs(s.projectors[1] - sm.projectors[0])) <= DEFAULT_TOL.eig


class TestAngleProjectors:
    def test_zero_is_z(self):
        s = angle_projectors(0.0)
        assert np.allclose(s.projectors[0], density(K0))
        assert np.allclose(s.projectors[1], density(K1))

    def test_pi4_is_x_up_to_outcome_sign(self):
        s = angle_projectors(np.pi / 4)
        assert np.allclose(s.projectors[0], density(PLUS))
        assert np.allclose(s.projectors[1], density(MINUS))

    def test_matches_bloch_identity(self):
        alpha = 0.3
        s = angle_projectors(alpha)
        b = bloch_projectors([np.sin(2 * alpha), 0, np.cos(2 * alpha)])
        for p, q in zip(s.projectors, b.projectors):
            assert np.max(np.abs(p - q)) <= 1e-12


class TestBases:
    def test_computational_d2(self):
        s = computational_basis(2)
        assert np.allclose(s.projectors[0], density(K0))
        assert np.allclose(s.projectors[1], density(K1))

    def test_computational_d3_complete(self):
        s = computational_basis(3)
        assert all(np.allclose(p, np.diag(np.diag(p))) for p in s.projectors)
        assert np.allclose(sum(s.projectors), np.eye(3))

    def test_fourier_d2_is_hadamard(self):
        s = fourier_mub_basis(2)
        assert np.allclose(s.projectors[0], density(PLUS))
        assert np.allclose(s.projectors[1], density(MINUS))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_mub_overlaps(self, d):
        z = computational_basis(d)
        x = fourier_mub_basis(d)
        for pz in z.projectors:
            for px in x.projectors:
                overlap = float(np.real(np.trace(pz @ px)))
                assert abs(overlap - 1 / d) <= DEFAULT_TOL.eig

    def test_fourier_complete_d5(self):
        assert np.allclose(sum(fourier_mub_basis(5).projectors), np.eye(5))

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            computational_basis(1)
        with pytest.raises(ValueError):
            fourier_mub_basis(1)

    def test_basis_from_unitary(self):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(m)
        s = basis_from_unitary(u, "random-basis")
        assert validate_setting(s).passed
        with pytest.raises(ValueError, match="unitary"):
            basis_from_unitary(np.ones((3, 3)))


class TestConstructorsAgainstClosedForms:
    """Each constructor stores vectors; the projectors derived from them must
    equal the closed forms the projectors were once built from."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.tuples(*[st.floats(-1, 1, allow_nan=False)] * 3).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
        alpha=st.floats(-10, 10, allow_nan=False),
        d=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_projectors_match(self, n, alpha, d, seed):
        n = np.array(n) / np.linalg.norm(n)
        ns = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        v0 = np.array([np.cos(alpha), np.sin(alpha)], dtype=complex)
        v1 = np.array([np.sin(alpha), -np.cos(alpha)], dtype=complex)
        omega, k = np.exp(2j * np.pi / d), np.arange(d)
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        cases = [
            (bloch_projectors(n), [(np.eye(2) + ns) / 2, (np.eye(2) - ns) / 2]),
            (angle_projectors(alpha), [density(v0), density(v1)]),
            (computational_basis(d), [np.diag(np.eye(d)[m]) for m in range(d)]),
            (fourier_mub_basis(d), [density(omega ** (k * m) / np.sqrt(d)) for m in range(d)]),
            (basis_from_unitary(u), [density(u[:, m]) for m in range(d)]),
        ]
        for s, closed in cases:
            assert s.projectors.shape == (s.outcomes, s.dim, s.dim)
            assert np.max(np.abs(s.projectors - np.stack(closed))) <= 1e-15
            assert validate_setting(s).passed

    @pytest.mark.parametrize("n", [[0, 0, -1], [1e-9, 0, -1], [0, 0, 1]])
    def test_bloch_poles(self, n):
        n = np.array(n) / np.linalg.norm(n)
        ns = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        s = bloch_projectors(n)
        assert validate_setting(s).passed
        assert np.max(np.abs(s.projectors - np.stack([np.eye(2) + ns, np.eye(2) - ns]) / 2)) <= 1e-15

    def test_fourier_d100_orthonormal(self):
        assert validate_setting(fourier_mub_basis(100)).orthonormality <= 1e-13

    def test_stored_read_only(self):
        s = fourier_mub_basis(3)
        with pytest.raises(ValueError):
            s.vectors[0, 0] = 2
        with pytest.raises(ValueError):
            s.projectors[0, 0, 0] = 2

    def test_vectors_cannot_be_made_writeable(self):
        # The hash and the validation deviations are kept per setting, so
        # the vectors must stay as they were built.
        s = computational_basis(3)
        with pytest.raises(ValueError):
            s.vectors.setflags(write=True)
        assert validate_setting(s).passed and np.array_equal(s.vectors, np.eye(3))


class TestValueSemantics:
    def test_equal_settings_hash_alike(self):
        z1, z2 = bloch_projectors([0, 0, 1]), bloch_projectors([0, 0, 1])
        assert z1 == z2 and hash(z1) == hash(z2)
        assert len({z1, z2, bloch_projectors([1, 0, 0])}) == 2
        assert computational_basis(3) == MeasurementSetting("Z(d=3)", np.eye(3))

    def test_label_and_every_entry_count(self):
        z = bloch_projectors([0, 0, 1])
        assert z != bloch_projectors([1, 0, 0])
        assert z != MeasurementSetting("other", z.vectors)
        assert z != MeasurementSetting(z.label, z.vectors[:, ::-1])
        assert z != MeasurementSetting(z.label, z.vectors[:1])
        assert z != z.vectors

    def test_signed_zero_hashes_like_zero(self):
        a = MeasurementSetting("s", [[1.0, -0.0], [-0.0j, 1.0]])
        b = MeasurementSetting("s", np.eye(2))
        assert a == b and hash(a) == hash(b)


class TestValidateSetting:
    def test_good_setting_passes(self):
        rep = validate_setting(bloch_projectors([0, 0, 1]))
        assert rep.passed
        assert max(rep.orthonormality, rep.completeness) == 0

    def test_duplicated_projector_fails(self):
        rep = validate_setting(MeasurementSetting("broken", np.stack([K0, K0], axis=1)))
        assert not rep.passed
        assert rep.completeness >= 1 - 1e-12
        assert rep.orthonormality >= 1 - 1e-12

    def test_non_unit_column_fails(self):
        rep = validate_setting(MeasurementSetting("short", np.diag([1.0, 0.5])))
        assert not rep.passed
        assert rep.orthonormality >= 0.75 - 1e-12
        assert rep.completeness >= 0.75 - 1e-12

    def test_incomplete_setting_fails(self):
        rep = validate_setting(MeasurementSetting("incomplete", np.eye(4)[:, :3]))
        assert not rep.passed
        assert rep.orthonormality == 0
        assert rep.completeness >= 1 - 1e-12

    def test_fourier_d7_within_tight_tolerance(self):
        rep = validate_setting(fourier_mub_basis(7))
        assert rep.passed
        assert max(rep.orthonormality, rep.completeness) <= 1e-12

    def test_deviations_computed_lazily_once(self, monkeypatch):
        calls = []
        prop = vars(MeasurementSetting)["_deviations"]
        monkeypatch.setattr(prop, "func", lambda s: calls.append(s) or (0.0, 0.0))
        s = fourier_mub_basis(5)
        assert calls == []  # not at construction
        assert validate_setting(s).passed and validate_setting(s, Tolerances(eig=0.0)).passed
        assert calls == [s]

    @pytest.mark.parametrize("strict_first", [True, False])
    def test_tolerance_applied_on_every_call(self, strict_first):
        # The deviations (2e-8) are kept; each call compares them anew.
        s = MeasurementSetting("tilted", np.diag([1.0, 1.0 + 1e-8]))
        loose, strict = Tolerances(eig=1e-6), Tolerances(eig=1e-9)
        order = [(strict, False), (loose, True)]
        for tol, passed in order if strict_first else order[::-1]:
            rep = validate_setting(s, tol)
            assert rep.passed is passed
            assert 1.9e-8 < rep.orthonormality == rep.completeness < 2.1e-8
