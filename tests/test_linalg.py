import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import linalg
from steerkit.linalg import (
    DEFAULT_TOL,
    Tolerances,
    hermitian_eig,
    is_rank_one,
    kron,
    partial_trace,
    projector_distances,
    schmidt_decompose,
    trace_distance,
)
from steerkit.states import density, ghz_state, theta_state

K0 = np.array([1, 0], dtype=complex)
K1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
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


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_block_structure(self):
        # |0><0| (x) sigma_x: sigma_x in the top-left 2x2 block, zeros elsewhere
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = expected[1, 0] = 1
        assert np.allclose(kron(density(K0), SX), expected)

    def test_associativity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= DEFAULT_TOL.eig


class TestPartialTrace:
    def test_theta_pi4_reduced(self):
        rho = theta_state(np.pi / 4).density_matrix()
        assert np.allclose(partial_trace(rho, 2, 2, "B"), np.eye(2) / 2)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        ra, rb = random_density(rng, 3), random_density(rng, 2)
        assert np.allclose(partial_trace(kron(ra, rb), 3, 2, "B"), np.trace(ra) * rb)
        assert np.allclose(partial_trace(kron(ra, rb), 3, 2, "A"), np.trace(rb) * ra)

    def test_ghz_split_1_23(self):
        rho = ghz_state().density_matrix()
        assert np.allclose(partial_trace(rho, 2, 4, "B"), np.diag([0.5, 0, 0, 0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="3\\*3"):
            partial_trace(np.eye(4), 3, 3)

    def test_linearity_and_trace_preservation(self):
        rng = np.random.default_rng(11)
        for dA, dB in [(2, 2), (2, 3), (3, 2)]:
            x = random_hermitian(rng, dA * dB)
            y = random_hermitian(rng, dA * dB)
            lhs = partial_trace(2 * x - 0.5 * y, dA, dB, "B")
            rhs = 2 * partial_trace(x, dA, dB, "B") - 0.5 * partial_trace(y, dA, dB, "B")
            assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.eig
            assert abs(np.trace(partial_trace(x, dA, dB, "B")) - np.trace(x)) <= DEFAULT_TOL.eig


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


class TestIsRankOne:
    def test_scaled_pure(self):
        flag, principal, residual = is_rank_one(np.cos(0.4) ** 2 * density(K0))
        assert flag
        assert residual <= 1e-12
        assert abs(abs(principal @ K0.conj()) - 1) < 1e-12

    def test_maximally_mixed(self):
        flag, _, residual = is_rank_one(np.eye(2) / 2)
        assert not flag
        assert abs(residual - 0.5) < 1e-12

    def test_chi_plus(self):
        theta = np.pi / 6
        chi = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
        flag, principal, _ = is_rank_one(0.5 * density(chi))
        assert flag
        assert abs(abs(principal @ chi.conj()) - 1) < 1e-12

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            is_rank_one(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.zeros((2, 2)), "trace 0.000e"),
            (np.diag([1.5, -0.5]), "not PSD, min eigenvalue -5.000e-01"),
            # Rank one by the witness (3 delta = 9e-10), but not PSD within tol.eig.
            (np.diag([1.0, -3e-10]), "not PSD, min eigenvalue -3.000e-10"),
            (np.array([[0.5, 1e-6], [0, 0.5]]), "not Hermitian"),
        ],
    )
    def test_every_row_checked(self, bad, match, monkeypatch):
        # Pure rows pass the witness; the bad row fails it, also in a block
        # of its own.
        monkeypatch.setattr(linalg, "_WITNESS_ENTRIES", 8)
        with pytest.raises(ValueError, match=match):
            is_rank_one(np.stack([density(K0), 0.3 * density(PLUS), density(K1), bad]))

    def test_blocks_and_layout_give_the_same_result(self, monkeypatch):
        stack = witness_stack(np.random.default_rng(3), 12, 9)
        whole = is_rank_one(stack)
        # The same matrices with the stack axis innermost in memory, the
        # layout of the outer products that conditional_states forms.
        transposed = np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)
        monkeypatch.setattr(linalg, "_WITNESS_ENTRIES", 2 * 144)
        for got, also, want in zip(is_rank_one(stack), is_rank_one(transposed), whole):
            assert np.array_equal(got, want) and np.array_equal(also, want)

    def test_eigendecomposes_only_the_rows_the_witness_rejects(self, monkeypatch):
        rows = []
        exact = linalg.hermitian_eig
        monkeypatch.setattr(linalg, "hermitian_eig", lambda h, tol: rows.append(len(h)) or exact(h, tol))
        pure = [t * density(v) for t, v in ((1.0, K0), (0.2, PLUS), (3.0, K1))]
        flags, _, residual = is_rank_one(np.stack(pure))
        assert rows == [] and flags.all() and np.all(residual <= 1e-15)
        flags, _, residual = is_rank_one(np.stack(pure + [np.eye(2) / 2, pure[0]]))
        assert rows == [1]
        assert flags.tolist() == [True, True, True, False, True] and residual[3] == pytest.approx(0.5)

    def test_bound_covers_negative_eigenvalues(self, monkeypatch):
        # PSD within tol.eig, residual mass 15x. R = rho - |0><0| has 16
        # eigenvalues +-x, so T = 8x = sqrt(16)/2 ||R||_F: both the factor
        # 3 and the sqrt(d) are needed.
        x = 1e-12
        rho = np.diag([1 - x] + [x] * 8 + [-x] * 7)
        monkeypatch.setattr(linalg, "hermitian_eig", None)  # the witness decides
        flag, principal, residual = is_rank_one(rho)
        assert flag and np.array_equal(principal, np.eye(16)[0])
        assert residual >= 15 * x

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 12), n=st.integers(1, 12))
    def test_witness_bounds_the_eigendecomposition(self, seed, d, n):
        rng = np.random.default_rng(seed)
        stack = witness_stack(rng, d, n)
        want_flags, want = eigh_rank_one(stack)
        flags, principals, residual = is_rank_one(stack)
        # The bound holds on every row, up to rounding, with the default
        # tolerances and with loose ones that let the witness take rows of
        # residual mass up to about 0.1 too.
        assert np.all(residual >= want - 1e-14)
        unit = stack / np.trace(stack, axis1=1, axis2=2).real[:, None, None]
        assert np.all(is_rank_one(unit, Tolerances(eig=1.0, rank1=0.9))[2] >= want - 1e-14)
        away = (want <= DEFAULT_TOL.rank1 / 10) | (want >= DEFAULT_TOL.rank1 * 10)
        assert np.array_equal(flags[away], want_flags[away])
        _, vecs = hermitian_eig(stack)
        overlap = np.abs(np.sum(principals.conj() * vecs[..., 0], axis=-1))
        assert np.all(overlap[flags] >= 1 - 1e-6)


def eigh_rank_one(rho, tol=DEFAULT_TOL):
    """The rank-1 test by eigendecomposition alone: (flags, residual mass)."""
    w, _ = hermitian_eig(rho, tol)
    residual = np.sum(np.abs(w[..., 1:]), axis=-1) / np.sum(w, axis=-1)
    return residual <= tol.rank1, residual


def witness_stack(rng, d, n):
    """n PSD d x d matrices, each pure, nearly pure (a random density at
    weight 1e-16 to 0.1) or of random rank 2 to d, with traces 1e-3 to 5."""
    out = []
    for kind in rng.integers(0, 3, size=n):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        rho = density(v / np.linalg.norm(v))
        if kind == 1:
            rho = rho + 10 ** rng.uniform(-16, -1) * random_density(rng, d)
        elif kind == 2:
            size = (d, rng.integers(2, d + 1))
            m = rng.normal(size=size) + 1j * rng.normal(size=size)
            rho = m @ m.conj().T
        out.append(10 ** rng.uniform(-3, np.log10(5)) * rho / np.trace(rho).real)
    return np.array(out)


def residual_distances(vecs):
    """The distances between projectors as norms of residuals, for every
    pair: the (..., m, m, d) form that projector_distances replaced."""
    r = vecs[..., None, :, :] - (vecs.conj() @ vecs.swapaxes(-1, -2))[..., None] * vecs[..., :, None, :]
    dist = np.triu(np.sqrt(np.sum(r.real**2 + r.imag**2, axis=-1)), 1)
    return dist + dist.swapaxes(-1, -2)


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
        assert np.max(np.abs(dist - residual_distances(vecs))) <= 1e-12
        assert np.array_equal(dist, dist.swapaxes(-1, -2))
        assert np.all(np.diagonal(dist, axis1=-2, axis2=-1) == 0)

    def test_equal_states_at_zero(self):
        v = np.array([[1, 1j, 0], [1j, -1, 0], [0, 0, 1]]) / np.array([[2**0.5], [2**0.5], [1]])
        dist = projector_distances(v)
        assert dist[0, 1] <= 1e-15 and dist[0, 2] == pytest.approx(1.0, abs=1e-15)


class TestSchmidtDecompose:
    def test_theta_pi6(self):
        coeffs, _, _ = schmidt_decompose(theta_state(np.pi / 6).vector, 2, 2)
        assert np.allclose(coeffs, [np.sqrt(3) / 2, 0.5])

    def test_product_state(self):
        beta = np.array([np.cos(0.7), np.sin(0.7) * 1j])
        psi = np.kron(K0, beta)
        coeffs, _, _ = schmidt_decompose(psi, 2, 2)
        assert coeffs[0] >= 1 - DEFAULT_TOL.eig
        assert np.all(coeffs[1:] <= DEFAULT_TOL.eig)

    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        psi = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi /= np.linalg.norm(psi)
        coeffs, left, right = schmidt_decompose(psi, 3, 4)
        rebuilt = sum(
            coeffs[m] * np.kron(left[:, m], right[:, m]) for m in range(coeffs.size)
        )
        assert np.max(np.abs(rebuilt - psi)) <= DEFAULT_TOL.eig
        assert abs(np.sum(coeffs**2) - 1) <= DEFAULT_TOL.eig
        assert np.all(np.diff(coeffs) <= 1e-12)

    def test_random_product_vectors(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            coeffs, _, _ = schmidt_decompose(psi, 3, 4)
            assert np.sum(coeffs >= 1 - DEFAULT_TOL.eig) == 1

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            schmidt_decompose(np.ones(4), 2, 2)
