from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lhs_cases import GRIDS, full_lp_system, lp_system, werner_assemblage

from steerkit import simplex
from steerkit.simplex import PhaseOneResult, phase_one


def dense_tableau_reference(A, b, tol: float = 1e-8, max_iter: int = 100_000):
    """The dense-tableau phase 1 that phase_one replaced: the whole
    (m+1) x (n+m+1) tableau is pivoted, with phase_one's entering rule
    applied to the tableau's own reduced-cost row (lowest index within
    1e-9 of the most negative, or below -1e-9 after simplex._BLAND_AFTER
    degenerate pivots in a row), ratio ties to the lowest basis index and
    the same residual, so both solvers must take the same pivots. Returns
    the result and the final basis matrix."""
    eps = 1e-9
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1
    b[neg] *= -1

    # Tableau: columns [x | artificials | rhs]; bottom row holds reduced
    # costs and minus the current objective.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    iters = degenerate = 0
    while iters < max_iter:
        cost = T[m, : n + m]
        low = float(np.min(cost, initial=0.0))
        if low >= -eps:
            break
        ceiling = -eps if degenerate >= simplex._BLAND_AFTER else low + eps
        enter = next(j for j in range(n + m) if cost[j] < ceiling)
        leave = -1
        best = np.inf
        for i in range(m):
            if T[i, enter] > eps:
                ratio = T[i, -1] / T[i, enter]
                if ratio < best - eps or (
                    abs(ratio - best) <= eps and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            break
        degenerate = degenerate + 1 if best <= eps else 0
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(m + 1):
            if i != leave and abs(T[i, enter]) > 0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
        iters += 1

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = max(0.0, T[i, -1])
    residual = float(max(0.0, -T[m, -1], np.max(np.abs(A @ x - b), initial=0.0)))
    basis_matrix = np.hstack([A, np.eye(m)])[:, basis]
    return PhaseOneResult(residual <= tol, x, residual, iters), basis_matrix


def random_system(seed: int, m: int, n: int, integer: bool, feasible: bool):
    """A and b with a known verdict. Small-integer A and 0/1 x0 make
    degenerate problems: repeated columns, zero ratios and ratio ties. A
    feasible b is A x0 with x0 >= 0. An infeasible b has a Farkas
    certificate: columns are flipped until y A >= 0, then b is shifted along
    y until y b <= -1, so every x >= 0 misses the equations."""
    rng = np.random.default_rng(seed)
    if integer:
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        x0 = rng.integers(0, 2, size=n).astype(float)
        y = rng.integers(-1, 2, size=m).astype(float)
    else:
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 2, size=n) * (rng.random(n) < 0.5)
        y = rng.normal(size=m)
    if feasible:
        return A, A @ x0
    if not y.any():
        y[0] = 1.0
    A[:, y @ A < 0] *= -1
    b = A @ x0
    return A, b - np.ceil((y @ b + 1) / (y @ y)) * y


class TestPhaseOne:
    def test_trivially_feasible(self):
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([2.0, 0.0])
        res = phase_one(A, b)
        assert res.feasible
        assert np.max(np.abs(A @ res.x - b)) <= 1e-9
        assert np.all(res.x >= 0)

    def test_infeasible_sign(self):
        # x1 + x2 = -1 has no nonnegative solution
        res = phase_one(np.array([[1.0, 1.0]]), np.array([-1.0]))
        assert not res.feasible
        assert abs(res.residual - 1.0) <= 1e-9

    def test_inconsistent_rows(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([1.0, 3.0])
        res = phase_one(A, b)
        assert not res.feasible
        assert res.residual >= 1.0

    def test_degenerate_rhs(self):
        A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([0.0, 0.0])
        res = phase_one(A, b)
        assert res.feasible
        assert np.allclose(res.x, 0)

    def test_random_feasible_systems(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            m, n = rng.integers(2, 6), rng.integers(4, 10)
            A = rng.normal(size=(m, n))
            x_true = rng.uniform(0, 2, size=n)
            b = A @ x_true
            res = phase_one(A, b)
            assert res.feasible, f"residual {res.residual}"
            assert np.max(np.abs(A @ res.x - b)) <= 1e-8

    def test_inputs_unmodified(self):
        # Rows of both signs, so that phase_one negates some; read-only
        # inputs make any write to them raise.
        A, b = random_system(9, 6, 12, integer=False, feasible=True)
        assert (b < 0).any() and (b > 0).any()
        A0, b0 = A.copy(), b.copy()
        A.setflags(write=False)
        b.setflags(write=False)
        assert phase_one(A, b).feasible
        assert np.array_equal(A, A0) and np.array_equal(b, b0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            phase_one(np.eye(2), np.ones(3))


class TestEdgeCases:
    def test_max_iter_zero(self):
        A = np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 3.0]])
        b = np.array([3.0, -2.0])
        res = phase_one(A, b, max_iter=0)
        assert res.iterations == 0
        assert not res.feasible
        assert res.residual == np.sum(np.abs(b))
        assert not res.x.any()

    @pytest.mark.parametrize("n", [0, 3])
    def test_no_rows(self, n):
        res = phase_one(np.zeros((0, n)), np.zeros(0))
        assert res.feasible
        assert res.residual == 0.0
        assert res.x.shape == (n,) and not res.x.any()

    def test_zero_rhs_feasible_at_origin(self):
        rng = np.random.default_rng(5)
        A = rng.integers(-2, 3, size=(6, 10)).astype(float)
        res = phase_one(A, np.zeros(6))
        assert res.feasible
        assert not res.x.any()


def check_random_system(m, n, integer, feasible, seed):
    A, b = random_system(seed, m, n, integer, feasible)
    res = phase_one(A, b)
    ref, basis_matrix = dense_tableau_reference(A, b)
    assert res.iterations == ref.iterations
    assert res.feasible == ref.feasible == feasible
    # Same pivots give the same vertex up to rounding of the entering
    # column, which the final basis B amplifies by its condition number
    # (up to 1e5 for Gaussian data); over 20,000 random systems the
    # largest difference was 2.4e-15 in units of cond(B) max(1, max x).
    scale = np.linalg.cond(basis_matrix) * max(1.0, float(np.max(ref.x, initial=0.0)))
    assert np.max(np.abs(res.x - ref.x), initial=0.0) <= 1e-12 * scale
    assert np.all(res.x >= 0)
    if res.feasible:
        assert np.max(np.abs(A @ res.x - b), initial=0.0) <= 1e-8


def grid_system(grid, offset, full):
    """A Werner LHS LP at threshold + offset: the rows phase_one is handed,
    or with full every row of the rank-deficient system."""
    axes, states, threshold = GRIDS[grid]
    asm, _ = werner_assemblage(threshold + offset, axes)
    return full_lp_system(asm, states()) if full else lp_system(asm, states())[:2]


def check_grid_lp(grid, offset, full):
    A, b = grid_system(grid, offset, full)
    res = phase_one(A, b)
    ref, _ = dense_tableau_reference(A, b)
    assert res.iterations == ref.iterations
    assert res.feasible == ref.feasible == (offset < 0)
    assert np.max(np.abs(res.x - ref.x)) <= 1e-12


SYSTEMS = dict(
    m=st.integers(1, 8),
    n=st.integers(1, 16),
    integer=st.booleans(),
    feasible=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


class TestAgainstDenseTableau:
    @settings(max_examples=300, deadline=None)
    @given(**SYSTEMS)
    def test_random_systems(self, m, n, integer, feasible, seed):
        check_random_system(m, n, integer, feasible, seed)

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("offset", [-0.05, -0.01, 0.01, 0.05])
    def test_lhs_grid_lps(self, grid, offset):
        # every grid, from the 9 x 32 circle LP to the 16 x 2048 cube +
        # Fibonacci LP
        check_grid_lp(grid, offset, full=False)

    @pytest.mark.parametrize("grid", ["circle64", "cube_fib248"])
    @pytest.mark.parametrize("offset", [-0.01, 0.01])
    def test_full_lhs_grid_lps(self, grid, offset):
        # the same LPs with every row, 16 x 256 of rank 9 and 24 x 2048 of
        # rank 16, whose dependent rows keep artificials basic at zero
        check_grid_lp(grid, offset, full=True)


class TestBlandFallback:
    """The same comparisons with Bland's rule entering after 0 degenerate
    pivots (always) or after 1 (switching at every degenerate pivot and
    back at every nondegenerate one). The LHS grid LPs never reach the
    default threshold, so only these tests exercise the fallback."""

    @pytest.mark.parametrize("bland_after", [0, 1])
    @settings(max_examples=300, deadline=None)
    @given(**SYSTEMS)
    def test_random_systems(self, bland_after, m, n, integer, feasible, seed):
        with mock.patch.object(simplex, "_BLAND_AFTER", bland_after):
            check_random_system(m, n, integer, feasible, seed)

    @pytest.mark.parametrize("bland_after", [0, 1])
    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("grid", ["circle64", "cube_fib248"])
    @pytest.mark.parametrize("offset", [-0.01, 0.01])
    def test_lhs_grid_lps(self, grid, offset, full, bland_after, monkeypatch):
        monkeypatch.setattr(simplex, "_BLAND_AFTER", bland_after)
        check_grid_lp(grid, offset, full)

    @pytest.mark.parametrize("grid", ["circle64", "cube_fib248"])
    @pytest.mark.parametrize("offset", [-0.01, 0.01])
    def test_fewer_pivots_than_bland(self, grid, offset, monkeypatch):
        A, b = grid_system(grid, offset, full=False)
        dantzig = phase_one(A, b).iterations
        monkeypatch.setattr(simplex, "_BLAND_AFTER", 0)
        assert dantzig < phase_one(A, b).iterations


class TestAgainstHighs:
    """Verdicts against scipy's HiGHS, an independent LP solver."""

    @staticmethod
    def highs_feasible(A, b) -> bool:
        linprog = pytest.importorskip("scipy.optimize").linprog
        out = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert out.status in (0, 2), out.message  # 0 solved, 2 infeasible
        return out.status == 0

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("offset", [-0.05, -0.01, 0.01, 0.05])
    def test_werner_grids(self, grid, offset):
        axes, states, threshold = GRIDS[grid]
        asm, _ = werner_assemblage(threshold + offset, axes)
        A, b, outcome = lp_system(asm, states())
        assert outcome.feasible == self.highs_feasible(A, b) == (offset < 0)

    def test_random_systems(self):
        rng = np.random.default_rng(11)
        for k in range(200):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 17))
            A, b = random_system(k, m, n, integer=bool(k % 2), feasible=bool(k % 3))
            assert phase_one(A, b).feasible == self.highs_feasible(A, b) == bool(k % 3)
