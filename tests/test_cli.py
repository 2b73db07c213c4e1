import collections
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from schmidt_anchors import schmidt_min_distance

from steerkit import assemblage, cli, linalg, report, states, steering
from steerkit.cli import main
from steerkit.report import ReportDocument, RunConfig, run


def counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    return wrapper


def count_dense_linalg(monkeypatch, calls):
    """Count the calls of linalg's dense eigendecomposition, trace distance
    and Hermiticity check, through every steerkit module that binds them."""
    for name in ("hermitian_eig", "trace_distance", "herm_deviation"):
        wrapped = counting(calls, getattr(linalg, name))
        for module in (linalg, assemblage, steering, report, states):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)


class TestRunConfig:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(scenario="nope")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(scenario="ghz", format="xml")


class TestScenarios:
    def test_paradox_qubit(self):
        doc, code = run(RunConfig(scenario="paradox-qubit", theta=np.pi / 4, settings="z,x"))
        assert code == 0
        assert doc.schema == "steerkit-report/1"
        assert doc.result["lhs_trace_sum"] == pytest.approx(2.0, abs=1e-9)
        assert doc.result["quantum_trace_sum"] == pytest.approx(1.0, abs=1e-9)
        assert doc.checks["no_signalling_deviation"] <= 1e-11

    def test_paradox_qubit_separable_boundary(self):
        doc, code = run(RunConfig(scenario="paradox-qubit", theta=0.0, settings="z,x"))
        assert code == 1
        assert doc.result["applicable"] is False

    def test_paradox_qudit(self):
        doc, code = run(RunConfig(scenario="paradox-qudit", d=5))
        assert code == 0
        assert doc.result["contradiction_magnitude"] == pytest.approx(1.0, abs=1e-9)

    def test_paradox_builds_assemblage_once(self, monkeypatch):
        calls = collections.Counter()
        for name in ("conditional_states", "purity_profile"):
            wrapped = counting(calls, getattr(assemblage, name))
            for module in (report, steering):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        run(RunConfig(scenario="paradox-qudit", d=3))
        assert calls == {"conditional_states": 1, "purity_profile": 1}

    def test_rank_one_distances_need_no_eigendecomposition(self, monkeypatch):
        calls = collections.Counter()
        count_dense_linalg(monkeypatch, calls)
        _, code = run(RunConfig(scenario="paradox-qudit", d=6))
        assert code == 0
        # Schmidt states with vacuous Z outcomes, in one batch.
        psi = states.PureStates.of(*(states.nopa_truncated(r, 18)[0] for r in (0.3, 1.0)))
        certs = steering.pure_state_paradox(psi, report.parse_qudit_settings("Z,X", 18))
        assert [len(c.purity.index) for c in certs] == [27, 36]
        assert calls == {}

    def test_pure_paradox_runs_no_purity_witness(self, monkeypatch):
        # A factored row is rank 1 by construction: its residual mass is exactly 0.
        calls = collections.Counter()
        count_dense_linalg(monkeypatch, calls)
        for scenario in ("paradox-qubit", "paradox-qudit", "paradox-nopa"):
            doc, code = run(RunConfig(scenario=scenario, d=6))
            assert code == 0
            assert doc.checks["all_rank_one"] is True and doc.checks["max_purity_residual"] == 0.0
        assert calls == {}

    def test_lhs_scenarios_make_no_purity_profile(self, monkeypatch):
        # Their conditional states are factored, rank one by construction:
        # the purity checks are the constants true and 0.0.
        calls = collections.Counter()
        wrapped = counting(calls, assemblage.purity_profile)
        for module in (assemblage, report, steering):
            if hasattr(module, "purity_profile"):
                monkeypatch.setattr(module, "purity_profile", wrapped)
        for scenario in ("separable-lhs", "feasibility"):
            doc, code = run(RunConfig(scenario=scenario))
            assert code == 0
            assert doc.checks["all_rank_one"] is True and doc.checks["max_purity_residual"] == 0.0
        assert calls == {}

    @pytest.mark.parametrize("shift, want", [(0.5, report.EXIT_OK), (2.0, report.EXIT_NUMERICAL)])
    def test_trace_sum_mismatch_is_a_numerical_failure(self, monkeypatch, capsys, shift, want):
        # The paradox scenarios' only exit 2: an LHS trace sum more than
        # tol.lp from k.
        exact = steering.purity_profile

        def off_by(asms, tol):
            profiles = exact(asms, tol)
            for j, prof in enumerate(profiles):
                probs = prof.probabilities.copy()
                probs[0] += shift * tol.lp
                profiles[j] = dataclasses.replace(prof, probabilities=probs)
            return profiles

        monkeypatch.setattr(steering, "purity_profile", off_by)
        assert main(["paradox-qubit", "--theta", "0.6"]) == want
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["lhs_trace_sum"] == pytest.approx(2 + shift * linalg.DEFAULT_TOL.lp, abs=1e-14)
        assert main(["sweep", "--param", "theta", "--values", "0.3,0.6"]) == want

    def test_paradox_nopa(self):
        doc, code = run(RunConfig(scenario="paradox-nopa", r=1.0, d=12))
        assert code == 0
        assert doc.result["truncation_weight"] == pytest.approx(np.tanh(1) ** 24, abs=1e-14)

    def test_separable_lhs(self):
        doc, code = run(RunConfig(scenario="separable-lhs", beta_angle=0.5, alphas="0.3,1.1"))
        assert code == 0
        assert doc.result["reconstruction_deviation"] <= 1e-10

    def test_separable_lhs_exit_code_from_its_one_reconstruction(self, monkeypatch):
        calls = collections.Counter()
        monkeypatch.setattr(report, "lhs_reconstruct", counting(calls, report.lhs_reconstruct))
        cfg = RunConfig(scenario="separable-lhs", beta_angle=0.5, alphas="0.3,1.1")
        doc, code = run(cfg)
        assert code == 0 and doc.result["reconstruction_deviation"] <= 1e-12
        assert calls == {"lhs_reconstruct": 1}
        # A model that fails validation is a numerical failure, not an error.
        not_psd = steering.LHSModel(np.array([1.0]), [np.diag([1.5, -0.5])], np.full((4, 1), 0.5), (2, 2))
        monkeypatch.setattr(report, "separable_lhs_model", lambda psi, angles, tol: not_psd)
        doc, code = run(cfg)
        assert code == report.EXIT_NUMERICAL
        assert doc.result["reconstruction_deviation"] is None

    def test_feasibility_entangled(self):
        doc, code = run(RunConfig(scenario="feasibility", theta=np.pi / 4, settings="z,x"))
        assert code == 0
        assert doc.result["status"] == "InfeasibleWithinAnsatz"

    @pytest.mark.parametrize(
        "hidden, reason",
        [
            (np.diag([1.0, 0.0]), "average is not rho_B"),
            (np.eye(2) / 2, "valid, but reconstructs the wrong assemblage"),
        ],
    )
    def test_feasibility_checks_the_model(self, monkeypatch, hidden, reason):
        bad = steering.LHSModel(np.array([1.0]), [hidden], np.full((4, 1), 0.5), (2, 2))

        def lp(asm, tol):
            return steering.FeasibilityOutcome("FeasibleModelFound", bad, 0.0, 1)

        monkeypatch.setattr(report, "lhs_feasibility_lp", lp)
        doc, code = run(RunConfig(scenario="feasibility", theta=np.pi / 4, settings="z,x"))
        assert code == report.EXIT_NUMERICAL, reason
        assert doc.result["status"] == "FeasibleModelFound"

    def test_feasible_model_validated_once(self, monkeypatch):
        calls = collections.Counter()
        monkeypatch.setattr(steering.LHSModel, "validate", counting(calls, steering.LHSModel.validate))
        doc, code = run(RunConfig(scenario="feasibility", theta=0.0, settings="z,x"))
        assert doc.result["status"] == "FeasibleModelFound"
        assert code == 0
        assert calls["validate"] == 1

    def test_ghz(self):
        doc, code = run(RunConfig(scenario="ghz"))
        assert code == 0
        assert doc.result["satisfying_assignments"] == 0
        assert np.allclose(doc.result["expectations"], [1, -1, -1, -1])

    def test_ghz_residual_sets_exit_code(self, monkeypatch):
        exact = report.ghz_operator_expectations

        def off_eigenstate(state):
            exp = exact(state)
            return steering.GhzExpectations(exp.values, (0.0, 0.0, 1e-6, 0.0))

        monkeypatch.setattr(report, "ghz_operator_expectations", off_eigenstate)
        doc, code = run(RunConfig(scenario="ghz"))
        assert code == report.EXIT_NUMERICAL
        assert doc.checks["max_eigenstate_residual"] == 1e-6

    def test_sweep_theta(self):
        doc, code = run(RunConfig(scenario="sweep", param="theta", linspace="0.1:1.4:10"))
        assert code == 0
        summary = doc.result["summary"]
        assert summary["points"] == 10
        assert summary["min_contradiction_magnitude"] == pytest.approx(1.0, abs=1e-9)
        assert summary["max_contradiction_magnitude"] == pytest.approx(1.0, abs=1e-9)

    def test_sweep_k(self):
        doc, code = run(RunConfig(scenario="sweep", param="k", values="2,3,4"))
        assert code == 0
        mags = [r["result"]["contradiction_magnitude"] for r in doc.result["reports"]]
        assert np.allclose(mags, [1, 2, 3], atol=1e-9)

    @pytest.mark.parametrize(
        "cfg, constructor, builds",
        [
            (RunConfig(scenario="sweep", param="theta", linspace="0.1:1.4:25"), "bloch_projectors", 2),
            (RunConfig(scenario="sweep", param="r", values="0.5,1.0,1.5", d=4), "fourier_mub_basis", 1),
        ],
    )
    def test_sweep_parses_settings_once(self, monkeypatch, cfg, constructor, builds):
        report.parse_qubit_settings.cache_clear()
        report.parse_qudit_settings.cache_clear()
        calls = collections.Counter()
        monkeypatch.setattr(report, constructor, counting(calls, getattr(report, constructor)))
        _, code = run(cfg)
        assert code == 0
        assert calls[constructor] == builds
        assert isinstance(report.parse_qubit_settings("z,x"), tuple)
        assert isinstance(report.parse_qudit_settings("Z,X", 3), tuple)

    def test_sweep_empty_grid(self):
        with pytest.raises(ValueError):
            run(RunConfig(scenario="sweep", param="theta"))


def _without_duration(doc: dict) -> str:
    """A report as JSON text without its duration_s, NaN-safe to compare."""
    return json.dumps({k: v for k, v in doc.items() if k != "duration_s"})


class TestBatchedSweep:
    """A theta sweep runs as one batch of paradoxes; every point must still
    be the report that a single run of that point's config gives."""

    @staticmethod
    def assert_points_are_single_runs(cfg, values):
        doc, worst = run(cfg)
        reports = doc.result["reports"]
        assert len(reports) == len(values)
        codes = []
        for value, point in zip(values, reports):
            single, code = run(report._sweep_point_config(cfg, value))
            assert _without_duration(point) == _without_duration(vars(single))
            assert point["duration_s"] >= 0
            codes.append(code)
        assert worst == max(codes)
        return reports

    @settings(max_examples=40, deadline=None)
    @given(
        inner=st.lists(st.floats(0.0, np.pi / 2), min_size=0, max_size=12),
        ends=st.sets(st.sampled_from([0.0, np.pi / 2])),
        spec=st.sampled_from(["z,x", "z,x,y", "x,angle:0.4,y"]),
        seed=st.integers(0, 2**16),
    )
    def test_theta_points_equal_single_runs(self, inner, ends, spec, seed):
        values = inner + sorted(ends)
        np.random.default_rng(seed).shuffle(values)
        if not values:
            values = [0.7]
        cfg = RunConfig(scenario="sweep", param="theta", values=",".join(map(repr, values)), settings=spec)
        self.assert_points_are_single_runs(cfg, [float(v) for v in values])

    @pytest.mark.parametrize(
        "d, values, batches", [(18, [0.3, 1.0], [2]), (100, [0.3, 0.6, 1.0, 1.5, 2.0], [4, 1])], ids=["d18", "d100"]
    )
    def test_r_sweep_batches_under_the_budget(self, monkeypatch, d, values, batches):
        # A point's factors and distance matrix grow as d^2: at d = 18 a batch
        # holds 134 points, at d = 100 four.
        sizes = []
        exact = report.pure_state_paradox
        monkeypatch.setattr(report, "pure_state_paradox", lambda psi, *args: sizes.append(len(psi)) or exact(psi, *args))
        cfg = RunConfig(scenario="sweep", param="r", values=",".join(map(repr, values)), d=d)
        reports = self.assert_points_are_single_runs(cfg, values)
        assert sizes == batches + [1] * len(values)  # the sweep, then the single runs
        if d == 18:
            assert [len(r["result"]["collapsed_assignments"]) for r in reports] == [27, 36]

    def test_summary_ignores_points_where_the_paradox_does_not_apply(self):
        summaries = []
        for grid in ("0,0.5,1.0", "0.5,1.0,0"):
            doc, code = run(RunConfig(scenario="sweep", param="theta", values=grid))
            assert code == report.EXIT_PRECONDITION
            summaries.append(doc.result["summary"])
        assert summaries[0] == summaries[1]
        assert summaries[0]["min_contradiction_magnitude"] == pytest.approx(1.0, abs=1e-9)
        assert summaries[0]["max_contradiction_magnitude"] == pytest.approx(1.0, abs=1e-9)
        doc, code = run(RunConfig(scenario="sweep", param="theta", values=f"0,{np.pi / 2!r}"))
        assert code == report.EXIT_PRECONDITION
        summary = doc.result["summary"]
        assert summary["min_contradiction_magnitude"] is None
        assert summary["max_contradiction_magnitude"] is None

    @staticmethod
    def coincide_at(monkeypatch, theta):
        """Make the purity profile of the point at theta report two
        coinciding conditional states."""
        exact = steering.purity_profile

        def flaky(asms, tol):
            profiles = exact(asms, tol)
            for j, prof in enumerate(profiles):
                if abs(prof.probabilities[0] - np.cos(theta) ** 2) <= 1e-12:
                    profiles[j] = dataclasses.replace(prof, min_distance=0.0)
            return profiles

        monkeypatch.setattr(steering, "purity_profile", flaky)

    def test_first_failing_point_decides(self, monkeypatch, capsys):
        argv = ["sweep", "--param", "theta", "--values", "0.3,0.6,0.9,2.0"]
        assert main(argv) == report.EXIT_PRECONDITION
        assert capsys.readouterr().err == "error: theta must lie in [0, pi/2], got 2.0\n"
        self.coincide_at(monkeypatch, 0.6)
        assert main(argv) == report.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: some normalized conditional states coincide")
        assert err.endswith("(min trace distance 0.000e+00)\n")
        assert main(["sweep", "--param", "theta", "--values", "0.3,2.0,0.6"]) == report.EXIT_PRECONDITION
        assert "got 2.0" in capsys.readouterr().err
        # A value that no point config takes fails as that point's config.
        assert main(["sweep", "--param", "theta", "--values", "0.3,nan"]) == report.EXIT_PRECONDITION
        assert capsys.readouterr().err == "error: theta must lie in [0, pi/2], got nan\n"

    def test_single_runs_name_no_batch_index(self, monkeypatch, capsys):
        # A paradox-* run names no index; a k sweep, whose every point runs
        # as a batch of one, names the failing point's grid index.
        self.coincide_at(monkeypatch, np.pi / 4)
        k_sweep = ["sweep", "--param", "k", "--values", "2,3"]
        for argv, where in ((["paradox-qubit"], ""), (k_sweep, " of batch index 0")):
            assert main(argv) == report.EXIT_PRECONDITION
            err = capsys.readouterr().err
            assert err.startswith("error: some normalized conditional states coincide")
            assert err.endswith(f"'{where} (min trace distance 0.000e+00)\n")

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["sweep", "--param", "theta", "--values", "0.3,0.6,0.9"], " of batch index 1"),
            (["sweep", "--param", "r", "--values", "0.5,1.0,1.5", "--d", "3"], " of batch index 1"),
            (["sweep", "--param", "d", "--values", "2,3,4"], " of batch index 1"),
            (["sweep", "--param", "k", "--values", "2,3,4"], " of batch index 1"),
            (["paradox-qudit", "--d", "3"], ""),
            (["paradox-nopa", "--d", "3"], ""),
        ],
        ids=["theta", "r", "d", "k", "qudit", "nopa"],
    )
    def test_sweeps_name_the_failing_grid_point(self, monkeypatch, capsys, argv, where):
        # A sweep's second point fails, whether the sweep runs as one batch
        # (theta, r) or one batch per point (d, k), and the error names its
        # grid index. A single run, whose one point fails, names none.
        exact, seen = steering.purity_profile, []

        def fail_second(asms, tol):
            profiles = exact(asms, tol)
            for j, prof in enumerate(profiles):
                seen.append(j)
                if len(seen) == (2 if where else 1):
                    profiles[j] = dataclasses.replace(prof, min_distance=0.0)
            return profiles

        monkeypatch.setattr(steering, "purity_profile", fail_second)
        assert main(argv) == report.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: some normalized conditional states coincide")
        assert err.endswith(f"'{where} (min trace distance 0.000e+00)\n")

    @pytest.mark.parametrize(
        "values, batches", [("0.3,0.6,1.0,1.5,2.0,2.5", [4, 2]), ("0.3,0.6,1.0,1.5,2.0", [4, 1])], ids=["4+2", "4+1"]
    )
    def test_sweep_errors_name_the_grid_point(self, monkeypatch, capsys, values, batches):
        # The last point of an r sweep at d = 100 fails: the error names its
        # index in the grid, in a batch of two or alone in the last batch,
        # and reads the same when the whole sweep runs as one batch.
        grid = [float(v) for v in values.split(",")]
        exact = steering.purity_profile

        def fail_where(hit):
            """Make each purity profile for which hit holds report two
            coinciding conditional states."""
            monkeypatch.setattr(
                steering,
                "purity_profile",
                lambda asms, tol: [dataclasses.replace(p, min_distance=0.0) if hit(p) else p for p in exact(asms, tol)],
            )

        last = np.sum(np.abs(states.nopa_truncated(grid[-1], 100)[0].coefficients[0]) ** 2)
        fail_where(lambda prof: abs(prof.probabilities[0] - last) <= 1e-12)
        sizes = []
        run_batch = report.pure_state_paradox
        monkeypatch.setattr(
            report, "pure_state_paradox", lambda psi, *args: sizes.append(len(psi)) or run_batch(psi, *args)
        )
        errors = []
        for entries in (report._BATCH_ENTRIES, 1 << 30):
            monkeypatch.setattr(report, "_BATCH_ENTRIES", entries)
            assert main(["sweep", "--param", "r", "--values", values, "--d", "100"]) == report.EXIT_PRECONDITION
            errors.append(capsys.readouterr().err)
        assert sizes == batches + [len(grid)]
        assert errors[0] == errors[1]
        assert errors[0].endswith(f"of batch index {len(grid) - 1} (min trace distance 0.000e+00)\n")
        # Each point of a d sweep runs alone, and is named by its grid index too.
        fail_where(lambda prof: prof.principals.shape[-1] == 4)
        assert main(["sweep", "--param", "d", "--values", "3,4"]) == report.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: some normalized conditional states coincide")
        assert err.endswith("of batch index 1 (min trace distance 0.000e+00)\n")

    def test_theta_sweep_chunks_bound_a_batch(self, monkeypatch):
        # One state of two qubit settings holds 4 factors of 2 entries and a
        # 4 x 4 distance matrix: 24 entries.
        monkeypatch.setattr(report, "_BATCH_ENTRIES", 3 * 24)
        sizes = []
        exact = report.pure_state_paradox
        monkeypatch.setattr(report, "pure_state_paradox", lambda psi, *args: sizes.append(len(psi)) or exact(psi, *args))
        values = [float(v) for v in np.linspace(0.1, 1.4, 7)]
        cfg = RunConfig(scenario="sweep", param="theta", values=",".join(map(repr, values)))
        self.assert_points_are_single_runs(cfg, values)
        assert sizes == [3, 3, 1] + [1] * len(values)  # the sweep, then the single runs

    def test_one_eigendecomposition_and_validation_per_sweep(self, monkeypatch):
        calls = collections.Counter()
        monkeypatch.setattr(linalg, "hermitian_eig", counting(calls, linalg.hermitian_eig))
        monkeypatch.setattr(assemblage, "validate_setting", counting(calls, assemblage.validate_setting))
        monkeypatch.setattr(report, "pure_state_paradox", counting(calls, report.pure_state_paradox))
        doc, code = run(RunConfig(scenario="sweep", param="theta", linspace="0.1:1.4:40", settings="z,x"))
        assert code == 0 and len(doc.result["reports"]) == 40
        assert calls == {"validate_setting": 2, "pure_state_paradox": 1}


class TestSweepValues:
    """Only the swept value is converted: a d or k must be finite and is
    rounded, and a theta or r reaches its own checks unchanged."""

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("theta", "0.3,inf", "theta must lie in [0, pi/2], got inf"),
            ("theta", "0.3,nan", "theta must lie in [0, pi/2], got nan"),
            ("d", "2,inf", "sweep d must be finite, got inf"),
            ("d", "2,nan", "sweep d must be finite, got nan"),
            ("d", "0,3", "dimension d must be >= 2, got 0"),
            ("r", "0.5,inf", "squeezing parameter r must be finite and > 0, got inf"),
            ("r", "0.5,nan", "squeezing parameter r must be finite and > 0, got nan"),
            ("k", "2,inf", "sweep k must be finite, got inf"),
            ("k", "2,nan", "sweep k must be finite, got nan"),
            ("k", "0", "need at least 2 settings, got 0"),
            ("k", "-3", "need at least 2 settings, got -3"),
            ("k", "2,0,-3", "need at least 2 settings, got 0"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_value_is_a_one_line_error(self, param, values, message, capsys):
        assert main(["sweep", "--param", param, "--values", values]) == report.EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("linspace", ["0.1:1.4", "0.1:1.4:3:4", "0.1:1.4:2.5", "0.1:1.4:-3", "a:1.4:3"])
    def test_malformed_linspace_names_the_flag_and_its_form(self, linspace, capsys):
        assert main(["sweep", "--param", "theta", "--linspace", linspace]) == report.EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --linspace takes the form lo:hi:num, num an integer >= 0; got {linspace!r}\n"

    def test_d_and_k_rounded(self):
        doc, code = run(RunConfig(scenario="sweep", param="d", linspace="2:7:4"))
        assert code == 0
        assert [p["config"]["d"] for p in doc.result["reports"]] == [2, 4, 5, 7]
        doc, code = run(RunConfig(scenario="sweep", param="k", values="2.4,2.6"))
        assert code == 0
        assert [(p["config"]["k"], p["result"]["k"]) for p in doc.result["reports"]] == [(2, 2), (3, 3)]


class TestSweepSettings:
    """An r or d sweep runs its --settings at every point, as a theta sweep
    does; the spec passes unchanged, so an empty one keeps its default."""

    @pytest.mark.parametrize("param, values", [("r", "0.5,1.0"), ("d", "3,4")])
    def test_points_carry_the_spec_unchanged(self, param, values):
        for spec in ("", "X,Z"):
            doc, code = run(RunConfig(scenario="sweep", param=param, values=values, d=3, settings=spec))
            assert code == report.EXIT_OK
            assert [p["config"]["settings"] for p in doc.result["reports"]] == [spec, spec]

    def test_three_settings_at_every_point(self, capsys):
        # Squeezed to Schmidt mass below rank1, both points are separable,
        # so Z, X, Z is not rejected as a repeated basis and each point
        # reports k = 3.
        argv = ["sweep", "--param", "r", "--values", "1e-12,2e-12", "--d", "3", "--settings", "Z,X,Z"]
        assert main(argv) == report.EXIT_PRECONDITION
        reports = json.loads(capsys.readouterr().out)["result"]["reports"]
        assert [(p["result"]["k"], p["result"]["applicable"]) for p in reports] == [(3, False), (3, False)]

    def test_repeated_basis_reaches_every_point(self, capsys):
        # Any three qudit settings repeat Z or X; on the maximally entangled
        # points of a d sweep that fails the distinctness check.
        assert main(["sweep", "--param", "d", "--values", "3,4", "--settings", "X,Z,X"]) == report.EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and "closest: outcome 0 of 'X(d=3)' and outcome 0 of 'X(d=3)'" in err

    @pytest.mark.parametrize("param, values", [("r", "0.5,1.0"), ("d", "3,4")])
    def test_one_setting_rejected(self, param, values, capsys):
        assert main(["sweep", "--param", param, "--values", values, "--settings", "X"]) == report.EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and err == "error: need at least 2 settings, got 1\n"


class TestSchmidtAnchors:
    """Every paradox scenario runs a Schmidt-form state under Z and X, whose
    minimum pairwise distance has a closed form (schmidt_anchors)."""

    @pytest.mark.parametrize(
        "scenario, value, d",
        [("paradox-qubit", theta, 2) for theta in (0.3, 0.7, 1.2)]
        + [("paradox-qudit", "dirichlet", d) for d in (5, 50, 300)]
        + [("paradox-nopa", r, d) for r in (0.3, 1.0, 2.0) for d in (5, 50, 300)],
    )
    def test_min_distance_and_trace_sums(self, scenario, value, d, capsys):
        if scenario == "paradox-qubit":
            argv, lam = ["--theta", repr(value)], [np.cos(value), np.sin(value)]
        elif scenario == "paradox-qudit":
            lam = np.sqrt(np.random.default_rng(d).dirichlet(np.ones(d))).tolist()
            argv = ["--lambdas", ",".join(map(repr, lam))]
        else:
            argv, lam = ["--r", repr(value), "--d", str(d)], np.tanh(value) ** np.arange(d)
        assert main([scenario, *argv]) == report.EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        tol = result["tolerances"]["lp"]
        assert abs(result["purity"]["min_pairwise_distance"] - schmidt_min_distance(lam)) <= 1e-12
        assert abs(result["lhs_trace_sum"] - 2) <= tol and abs(result["quantum_trace_sum"] - 1) <= tol


class TestRunInputs:
    """RunConfig's and Tolerances' fields are the one list of run inputs:
    each is a flag and a config-file key with one type."""

    # A sample value per field type; "text" is also a valid format.
    SAMPLES = {float: "0.25", int: "3", str: "text"}
    INPUTS = [(f.name, f.name, False) for f in dataclasses.fields(RunConfig) if f.name not in ("scenario", "tolerances")]
    INPUTS += [(f"tol_{f.name}", f.name, True) for f in dataclasses.fields(linalg.Tolerances)]

    @pytest.mark.parametrize("key, name, is_tol", INPUTS, ids=[key for key, _, _ in INPUTS])
    def test_flag_and_config_line_agree(self, key, name, is_tol, tmp_path):
        owner = linalg.Tolerances if is_tol else RunConfig
        default = next(f.default for f in dataclasses.fields(owner) if f.name == name)
        sample = self.SAMPLES[type(default)]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={sample}\n")
        by_flag = cli.make_config(cli.build_parser().parse_args(["ghz", f"--{key.replace('_', '-')}", sample]))
        by_file = cli.make_config(cli.build_parser().parse_args(["ghz", "--config", str(path)]))
        values = [getattr(cfg.tolerances if is_tol else cfg, name) for cfg in (by_flag, by_file)]
        assert values[0] == values[1] == type(default)(sample) != default
        assert type(values[0]) is type(values[1]) is type(default)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("format=xml", "error: format must be 'json' or 'text', got 'xml'"),
            ("tolerances=1", "error: unknown config key 'tolerances'"),
            ("d=2.5", "error: invalid literal for int() with base 10: '2.5'"),
            ("tol-lp=-1", "error: tolerance lp must be finite and >= 0, got -1.0"),
        ],
    )
    def test_bad_config_line_is_a_one_line_error(self, line, message, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        assert main(["ghz", "--config", str(path)]) == report.EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and err == message + "\n"

    def test_help_lists_the_same_flags(self):
        helps = {
            "--config": "key=value file; flags override it",
            "--lambdas": "comma-separated Schmidt coefficients",
            "--alphas": "comma-separated setting angles",
            "--param": "sweep parameter: theta, d, r or k",
            "--values": "comma-separated sweep grid",
            "--linspace": "sweep grid as lo:hi:num",
            "--output": "write the report here instead of stdout",
        }
        flags = ["--theta", "--d", "--r", "--k", "--beta-angle", "--settings", "--format"]
        flags += ["--tol-herm", "--tol-eig", "--tol-state-eq", "--tol-rank1", "--tol-lp"]
        actions = {a.option_strings[-1]: a for a in cli.build_parser()._actions if a.option_strings}
        assert set(actions) == {"--help", *helps, *flags}
        assert {flag: actions[flag].help for flag in [*helps, *flags]} == {**helps, **dict.fromkeys(flags)}
        assert actions["--format"].choices == ("json", "text")


class TestReportDocument:
    def test_json_round_trip_byte_stable(self):
        doc, _ = run(RunConfig(scenario="paradox-qubit", theta=0.7, settings="z,x"))
        text = doc.to_json()
        back = ReportDocument.from_json(text)
        assert back.to_json() == text

    def test_json_is_one_line(self):
        doc, _ = run(RunConfig(scenario="paradox-qubit", theta=0.7, settings="z,x"))
        text = doc.to_json()
        assert "\n" not in text and json.loads(text) == vars(doc)

    def test_text_format(self):
        doc, _ = run(RunConfig(scenario="ghz", format="text"))
        text = doc.to_text()
        assert "result.satisfying_assignments: 0" in text
        assert all(": " in line for line in text.strip().splitlines())


class TestMain:
    def test_exit_codes(self, capsys):
        assert main(["paradox-qubit", "--theta", "0.7854", "--settings", "z,x"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["lhs_trace_sum"] == pytest.approx(2.0, abs=1e-9)
        assert main(["paradox-qubit", "--theta", "0", "--settings", "z,x"]) == 1
        capsys.readouterr()
        assert main(["paradox-qubit", "--settings", "bogus"]) == 1

    @pytest.mark.parametrize("theta, code", [("1.5e-9", 1), ("1e-4", 0)])
    def test_tiny_theta_exit_code(self, theta, code, capsys):
        # At 1.5e-9 one outcome has probability ~2e-18: Bob's subdominant
        # Schmidt mass is below tol.rank1, so the state counts as separable.
        assert main(["paradox-qubit", "--theta", theta, "--settings", "z,x"]) == code
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["applicable"] is (code == 0)

    def test_ghz_subcommand(self, capsys):
        assert main(["ghz"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["witness_product"] == -1

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        assert main(["ghz", "--output", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == "steerkit-report/1"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta=0.0\nsettings=z,x\nformat=json\n")
        # file alone: separable boundary
        assert main(["paradox-qubit", "--config", str(cfg)]) == 1
        capsys.readouterr()
        # explicit flag overrides the file value
        assert main(["paradox-qubit", "--config", str(cfg), "--theta", "0.9"]) == 0

    def test_parser_reused_without_leaking_values(self, monkeypatch, tmp_path, capsys):
        calls = collections.Counter()
        monkeypatch.setattr(cli, "build_parser", counting(calls, cli.build_parser))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("settings=z,y\nlambdas=0.6,0.8\nformat=text\n")
        assert main(["paradox-qubit", "--config", str(cfg), "--theta", "0.9"]) == 0
        capsys.readouterr()
        assert main(["paradox-qubit"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["theta"] == np.pi / 4
        assert (out["config"]["settings"], out["config"]["lambdas"]) == ("", "")
        assert calls["build_parser"] == 0

    @pytest.mark.parametrize(
        "argv",
        [["paradox-qubit", "--theta", "abc"], ["paradox-qubit", "--bogus", "1"], []],
        ids=["bad-float", "unknown-flag", "no-scenario"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == report.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("usage: steerkit") and "error:" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == report.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: steerkit")

    def test_unwritable_output_is_an_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        assert main(["ghz", "--output", str(target)]) == report.EXIT_PRECONDITION
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists()

    def test_coinciding_settings_named(self, capsys):
        assert main(["paradox-qubit", "--settings", "z,x,z"]) == report.EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "error: some normalized conditional states coincide across outcomes or settings; the single-term "
            "collapse needs them pairwise distinct; closest: outcome 0 of 'bloch(0,0,1)' and outcome 0 of "
            "'bloch(0,0,1)' (min trace distance 0.000e+00)\n"
        )
        # On a separable state the paradox does not apply, coincident settings or not.
        assert main(["paradox-qubit", "--theta", "0", "--settings", "z,z"]) == report.EXIT_PRECONDITION
        assert json.loads(capsys.readouterr().out)["result"]["reason"] == "separable: paradox not applicable"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["paradox-nopa", "--r", "inf"], "error: squeezing parameter r must be finite and > 0, got inf"),
            (["paradox-qudit", "--lambdas", "0,0"], "error: lambdas norm must be finite and > 0, got 0.0"),
            (["paradox-qudit", "--d", "1"], "error: dimension d must be >= 2, got 1"),
            (["paradox-qudit", "--d", "0"], "error: dimension d must be >= 2, got 0"),
            (["paradox-qudit", "--d", "-3"], "error: dimension d must be >= 2, got -3"),
            (
                ["paradox-qubit", "--settings", "angle:nan,z"],
                "error: invalid setting 'angle(nan)': max|U^dag U - 1| = nan, max|U U^dag - 1| = nan",
            ),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_state_is_an_error(self, argv, message, capsys):
        assert main(argv) == report.EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and err == message + "\n"

    @pytest.mark.parametrize("lambdas", ["1e200,1e200", "1e-200,1e-200", "3e-320,3e-320"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lambdas_of_any_scale_run_as_their_state(self, lambdas, capsys):
        # Scaled before the norm is taken, the input is the state 1,1 describes.
        assert main(["paradox-qudit", "--lambdas", lambdas]) == report.EXIT_OK
        scaled = json.loads(capsys.readouterr().out)
        assert main(["paradox-qudit", "--lambdas", "1,1"]) == report.EXIT_OK
        unit = json.loads(capsys.readouterr().out)
        assert (scaled["result"], scaled["checks"]) == (unit["result"], unit["checks"])
