import gc
import json
import math
from dataclasses import replace

import pytest
from click.testing import CliRunner

from rankstop import cli
from rankstop.cli import main
from rankstop.distributions import from_spec
from rankstop.fullinfo import FULL_INNER_CFG, solve_full_info
from rankstop.relranks import PQ_INNER_CFG, compute_pq

UNIFORM = '{"kind": "uniform", "a": 1}'
LAPLACE = '{"kind": "laplace", "b": 1}'
INTERVAL = '{"kind": "interval_union", "c": 1, "d": 2}'
POWERFOLD2 = '{"kind": "powerfold", "delta": 2}'
UNIFORM2 = '{"kind": "tabulated", "grid": [[0, 0.5], [0.5, 0.75], [1, 1]]}'


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


class TestSolve:
    def test_full_uniform(self, runner):
        res = invoke(runner, ["solve", "--dist", UNIFORM, "--model", "full"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["x1_star"] == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-6)
        assert payload["value"] == pytest.approx(2.2786, abs=1e-4)
        assert payload["manifest"]["distribution"]["kind"] == "uniform"
        assert payload["diagnostics"]["panels"] > 0
        assert payload["diagnostics"]["threshold_panels"] > 0
        bound = payload["diagnostics"]["threshold_error_bound"]
        assert abs(payload["x1_star"] - 2 * (math.sqrt(2) - 1)) <= bound <= 1e-13

    def test_full_reports_p_and_its_bound(self, runner):
        # V = 109/48 + p + T: p's term of V's bound, beside the total
        res = invoke(runner, ["solve", "--dist", LAPLACE, "--model", "full"])
        diagnostics = json.loads(res.output)["diagnostics"]
        assert abs(diagnostics["p"] - 1 / 192) <= diagnostics["p_error_bound"]
        assert 0 < diagnostics["p_error_bound"] <= diagnostics["quadrature_error_bound"]

    def test_relranks_laplace(self, runner):
        res = invoke(runner, ["solve", "--dist", LAPLACE, "--model", "relranks"])
        payload = json.loads(res.output)
        assert payload["p"] == pytest.approx(1 / 192, abs=1e-9)
        assert payload["value"] == pytest.approx(2.28125, abs=1e-8)
        assert payload["branch"] == "a"
        assert payload["panels"] > 0

    def test_relranks_interval_union_branch_b(self, runner):
        res = invoke(runner, ["solve", "--dist", INTERVAL, "--model", "relranks"])
        payload = json.loads(res.output)
        assert payload["branch"] == "b"
        assert payload["value"] == pytest.approx(55 / 24, abs=1e-8)

    def test_invalid_spec_exits_2(self, runner):
        res = runner.invoke(main, ["solve", "--dist", "not json", "--model", "full"])
        assert res.exit_code == 2

    def test_unknown_kind_exits_2(self, runner):
        res = runner.invoke(main, ["solve", "--dist", '{"kind": "gauss"}', "--model", "full"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("spec", [
        '{"kind": "uniform", "a": "abc"}',
        '{"kind": "tabulated", "grid": 5}',
        '{"kind": "tabulated", "grid": [["x", 1]]}',
        '{"kind": "laplace", "b": [1]}',
    ])
    def test_mistyped_field_exits_2(self, runner, spec):
        res = runner.invoke(main, ["pq", "--dist", spec])
        assert res.exit_code == 2
        assert repr(json.loads(spec)["kind"]) in res.output
        assert "Traceback" not in res.output

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "sol.json"
        res = invoke(runner, ["solve", "--dist", INTERVAL, "--model", "relranks",
                              "--out", str(out)])
        assert res.exit_code == 0
        assert json.loads(out.read_text())["branch"] == "b"
        assert res.stdout == ""


class TestVerify:
    def test_uniform_passes(self, runner):
        res = invoke(runner, ["verify", "--dist", UNIFORM, "--paths", "60000",
                              "--seed", "5"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_bad_tabulated_rejected_at_load(self, runner):
        res = runner.invoke(
            main,
            ["verify", "--dist", '{"kind": "tabulated", "grid": [[0, 0.48], [1, 1.0]]}'],
        )
        assert res.exit_code == 2

    def test_powerfold_small_delta(self, runner):
        res = invoke(runner, ["verify", "--dist", '{"kind": "powerfold", "delta": 0.05}',
                              "--paths", "60000", "--seed", "5"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        pq = next(c for c in payload["checks"] if c["check"] == "pq_sum")
        assert pq["detail"]["p"] < 1 / 960

    def test_powerfold_p_matches_its_closed_form(self, runner):
        res = invoke(runner, ["verify", "--dist", '{"kind": "powerfold", "delta": 4}',
                              "--paths", "20000", "--seed", "5"])
        assert res.exit_code == 0
        checks = {c["check"]: c for c in json.loads(res.output)["checks"]}
        detail = checks["p_closed_form"]["detail"]
        assert checks["p_closed_form"]["passed"] is True
        assert detail["closed_form"] == pytest.approx(23 / 1120, abs=1e-17)
        assert detail["defect"] <= detail["error_bound"] + 4 * math.ulp(1 / 48)
        uniform = {c["check"] for c in json.loads(invoke(runner, [
            "verify", "--dist", UNIFORM, "--paths", "2000", "--seed", "5"]).output)["checks"]}
        assert "p_closed_form" not in uniform

    def test_single_path_fails_monte_carlo_checks(self, runner):
        # one path has no spread; its mean is off both targets
        res = invoke(runner, ["verify", "--dist", UNIFORM, "--paths", "1", "--seed", "5"])
        assert res.exit_code == 1
        checks = {c["check"]: c for c in json.loads(res.output)["checks"]}
        for name in ("monte_carlo_rank_rule", "monte_carlo_full_info"):
            assert checks[name]["passed"] is False, name
            assert math.isinf(checks[name]["detail"]["z"]), name
        assert all(c["passed"] for n, c in checks.items() if not n.startswith("monte_carlo"))


class TestTable2:
    def test_all_nine_rows(self, runner):
        res = invoke(runner, ["table2"])
        payload = json.loads(res.output)
        rows = {(r["version"], r["description"]): r["expected_rank"] for r in payload["rows"]}
        assert len(rows) == 9
        assert rows[("Full Information", "Lower bound")] == pytest.approx(
            (109 - math.sqrt(2)) / 48, abs=1e-9)
        assert rows[("Full Information", "Laplace Distribution")] == pytest.approx(2.271, abs=1e-3)
        assert rows[("Full Information", "Uniform Distribution")] == pytest.approx(2.279, abs=1e-3)
        assert rows[("Full Information", "Maximum")] == pytest.approx(55 / 24, abs=1e-8)
        assert rows[("Relative Ranks", "Greatest Lower Bound")] == pytest.approx(109 / 48, abs=1e-9)
        assert rows[("Relative Ranks", "Laplace Distribution")] == pytest.approx(73 / 32, abs=1e-9)
        assert rows[("Relative Ranks", "Uniform Distribution")] == pytest.approx(55 / 24, abs=1e-9)
        assert rows[("Relative Ranks", "Maximum")] == pytest.approx(55 / 24, abs=1e-9)
        assert rows[("Both Versions", "Stopping Immediately")] == pytest.approx(2.5, abs=1e-12)

    def test_csv_format(self, runner):
        res = invoke(runner, ["table2", "--csv"])
        lines = res.output.strip().splitlines()
        assert lines[0] == "version,description,expected_rank"
        assert len(lines) == 10


class TestCurve:
    def test_monotone_and_marked(self, runner):
        res = invoke(runner, ["curve", "--dist", UNIFORM, "--lo", "0.01", "--hi", "1",
                              "--points", "40"])
        payload = json.loads(res.output)
        w1 = [p["continuation_value"] for p in payload["points"]]
        assert all(b <= a + 1e-9 for a, b in zip(w1, w1[1:]))
        marked = [p for p in payload["points"] if p["is_threshold"]]
        assert len(marked) == 1
        assert marked[0]["x"] == pytest.approx(0.8284, abs=1e-3)
        assert marked[0]["continuation_value"] == pytest.approx(2.0, abs=1e-8)

    def test_known_point(self, runner):
        res = invoke(runner, ["curve", "--dist", UNIFORM, "--lo", "0.5", "--hi", "0.5001",
                              "--points", "2"])
        payload = json.loads(res.output)
        assert payload["points"][0]["continuation_value"] == pytest.approx(2.109375, abs=1e-8)

    def test_bad_range(self, runner):
        res = runner.invoke(main, ["curve", "--dist", UNIFORM, "--lo", "1", "--hi", "0"])
        assert res.exit_code == 2


class TestSimulateCmd:
    def test_rank_rule_on_uniform(self, runner):
        res = invoke(runner, ["simulate", "--dist", UNIFORM, "--policy", "thm4a",
                              "--paths", "200000", "--seed", "42"])
        payload = json.loads(res.output)
        assert abs(payload["mean_rank"] - 55 / 24) <= 3 * payload["std_error"]

    def test_two_step_rule_forces_horizon(self, runner):
        res = invoke(runner, ["simulate", "--dist", LAPLACE, "--policy", "thm1",
                              "--paths", "100000", "--seed", "1"])
        payload = json.loads(res.output)
        assert payload["manifest"]["horizon"] == 2
        assert abs(payload["mean_rank"] - 15 / 8) <= 3 * payload["std_error"]

    def test_custom_rank_table(self, runner):
        policy = json.dumps({"kind": "rank_table", "bits": [1, 0, 0, 0, 0, 0, 0, 0, 0]})
        res = invoke(runner, ["simulate", "--dist", UNIFORM, "--policy", policy,
                              "--paths", "50000", "--seed", "2"])
        payload = json.loads(res.output)
        assert payload["stop_time_histogram"][0] == 50000

    def test_three_bit_rank_table_at_horizon_2(self, runner):
        policy = json.dumps({"kind": "rank_table", "bits": [0, 1, 0]})
        res = invoke(runner, ["simulate", "--dist", LAPLACE, "--policy", policy,
                              "--horizon", "2", "--paths", "50000", "--seed", "1"])
        two_step = invoke(runner, ["simulate", "--dist", LAPLACE, "--policy", "thm1",
                                   "--paths", "50000", "--seed", "1"])
        assert json.loads(res.output)["mean_rank"] == json.loads(two_step.output)["mean_rank"]

    def test_three_bit_rank_table_takes_its_horizon(self, runner):
        policy = json.dumps({"kind": "rank_table", "bits": [0, 1, 0]})
        res = invoke(runner, ["simulate", "--dist", UNIFORM, "--policy", policy,
                              "--paths", "1000", "--seed", "1"])
        payload = json.loads(res.output)
        assert payload["manifest"]["horizon"] == 2
        assert len(payload["stop_time_histogram"]) == 3

    def test_rank_table_horizon_mismatch_exits_2(self, runner):
        policy = json.dumps({"kind": "rank_table", "bits": [0, 1, 0]})
        res = runner.invoke(main, ["simulate", "--dist", UNIFORM, "--policy", policy,
                                   "--horizon", "3", "--paths", "10"])
        assert res.exit_code == 2

    def test_two_step_rule_at_horizon_3_exits_2(self, runner):
        res = runner.invoke(main, ["simulate", "--dist", UNIFORM, "--policy", "thm1",
                                   "--horizon", "3", "--paths", "10"])
        assert res.exit_code == 2
        assert "horizon 2, requested 3" in res.output

    def test_audit_csv_keeps_stdout_json(self, runner, tmp_path):
        audit = tmp_path / "audit.csv"
        res = invoke(runner, ["simulate", "--dist", UNIFORM, "--policy", "thm4a",
                              "--paths", "1000", "--chunk-size", "400",
                              "--audit-csv", str(audit)])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["n_paths"] == 1000
        assert f"wrote {audit}" in res.stderr
        assert len(audit.read_text().splitlines()) == 4

    @pytest.mark.parametrize("args", [
        ["simulate", "--dist", UNIFORM, "--policy", "thm4a", "--paths", "0"],
        ["simulate", "--dist", UNIFORM, "--policy", "thm4a", "--paths", "10",
         "--chunk-size", "0"],
        ["verify", "--dist", UNIFORM, "--paths", "0"],
    ])
    def test_degenerate_budget_exits_2(self, runner, args):
        assert runner.invoke(main, args).exit_code == 2

    def test_unknown_policy_exits_2(self, runner):
        res = runner.invoke(main, ["simulate", "--dist", UNIFORM, "--policy", "thm9"])
        assert res.exit_code == 2

    def test_seed_env_var(self, runner):
        res = invoke(runner, ["simulate", "--dist", UNIFORM, "--policy", "stop_at_0",
                              "--paths", "1000"], env={"RANKSTOP_SEED": "777"})
        assert json.loads(res.output)["manifest"]["seed"] == 777

    def test_deterministic_output_modulo_timestamp(self, runner):
        args = ["simulate", "--dist", UNIFORM, "--policy", "thm4b",
                "--paths", "50000", "--seed", "3"]
        a = json.loads(invoke(runner, args).output)
        b = json.loads(invoke(runner, args).output)
        a["manifest"].pop("timestamp")
        b["manifest"].pop("timestamp")
        assert a == b


class TestPq:
    def test_values(self, runner):
        res = invoke(runner, ["pq", "--dist", UNIFORM])
        payload = json.loads(res.output)
        assert payload["p"] == pytest.approx(1 / 96, abs=1e-10)

    def test_table_csv_row_order(self, runner):
        res = invoke(runner, ["pq", "--dist", UNIFORM, "--csv"])
        lines = res.output.strip().splitlines()
        assert len(lines) == 13
        assert lines[1].startswith("0>S1>S2>S3,0<S1<S2<S3,1/8")
        assert lines[5].startswith("0>S3>S1>S2,0<S3<S1<S2,1/48,2,0")

    def test_json_table(self, runner):
        res = invoke(runner, ["pq", "--dist", LAPLACE, "--table"])
        payload = json.loads(res.output)
        assert len(payload["permutation_table"]) == 12
        total = sum(r["probability"] for r in payload["permutation_table"])
        assert 2 * total == pytest.approx(1.0, abs=1e-9)


class TestEnumerate:
    def test_exact_fraction_input(self, runner):
        res = invoke(runner, ["enumerate", "--p", "1/192"])
        payload = json.loads(res.output)
        assert payload["optimal_value"] == "73/32"
        assert payload["policy_count"] == 512
        assert payload["named_rules_optimal"]["rank_rule_a"] is True
        assert payload["named_rules_optimal"]["rank_rule_b"] is False

    def test_two_step(self, runner):
        res = invoke(runner, ["enumerate", "--n", "2"])
        payload = json.loads(res.output)
        assert payload["optimal_value"] == "15/8"
        assert payload["named_rules_optimal"]["two_step_rule"] is True
        assert payload["minimizer_descriptions"] == ["stop at 1 if rank in [1]"]

    def test_from_distribution(self, runner):
        res = invoke(runner, ["enumerate", "--dist", UNIFORM])
        payload = json.loads(res.output)
        assert payload["optimal_value"] == "55/24"
        assert payload["manifest"]["p_rationalized_from_quadrature"] is True

    @pytest.mark.parametrize("extra", [["--p", "1/10"], ["--q", "1/96"]], ids=["p", "q"])
    def test_from_distribution_rejects_p_and_q(self, runner, monkeypatch, extra):
        # p and q come from the law: input that would be dropped is refused
        # before any work
        def no_work(*a, **k):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(cli, "compute_pq", no_work)
        monkeypatch.setattr(cli, "enumerate_rank_policies", no_work)
        res = runner.invoke(main, ["enumerate", "--dist", LAPLACE, *extra])
        assert res.exit_code == 2, res.output
        assert "enumeration from --dist takes no " + extra[0] in res.output

    def test_missing_p_exits_2(self, runner):
        res = runner.invoke(main, ["enumerate"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("extra", [["--p", "1/10"], ["--q", "1/96"], ["--dist", LAPLACE],
                                       ["--p", "1/10", "--dist", LAPLACE]],
                             ids=["p", "q", "dist", "p_and_dist"])
    def test_two_step_rejects_p_q_and_dist(self, runner, extra):
        # two-step ordering probabilities do not depend on the law: input
        # that would be dropped is refused before any work
        res = runner.invoke(main, ["enumerate", "--n", "2", *extra])
        assert res.exit_code == 2
        assert "two-step enumeration takes no " + extra[0] in res.output


class TestDeterminism:
    def test_solve_output_identical_modulo_timestamp(self, runner):
        args = ["solve", "--dist", LAPLACE, "--model", "relranks"]
        a = json.loads(invoke(runner, args).output)
        b = json.loads(invoke(runner, args).output)
        a["manifest"].pop("timestamp")
        b["manifest"].pop("timestamp")
        assert a == b

    def test_tolerance_flags_recorded_in_manifest(self, runner):
        res = invoke(runner, ["solve", "--dist", LAPLACE, "--model", "full",
                              "--abs-tol", "1e-9", "--rel-tol", "1e-9"])
        payload = json.loads(res.output)
        assert payload["manifest"]["tolerances"] == {
            "inner_abs_tol": 1e-9, "inner_rel_tol": 1e-9,
            "outer_abs_tol": 1e-7, "outer_rel_tol": 1e-7,
            "root_x_tol": 1e-13, "root_f_tol": 1e-14,
        }
        assert payload["x1_star"] == pytest.approx(1.71, abs=5e-3)

    def test_default_tolerances_recorded(self, runner):
        res = invoke(runner, ["pq", "--dist", LAPLACE])
        payload = json.loads(res.output)
        assert payload["manifest"]["tolerances"] == {
            "inner_abs_tol": 1e-13, "inner_rel_tol": 1e-13,
            "outer_abs_tol": 1e-11, "outer_rel_tol": 1e-11,
        }

    def test_method_recorded(self, runner):
        for args, method in [
            (["solve", "--dist", UNIFORM2, "--model", "full"], "exact_piecewise_linear"),
            (["solve", "--dist", UNIFORM2, "--model", "relranks"], "exact_piecewise_linear"),
            (["pq", "--dist", UNIFORM2], "exact_piecewise_linear"),
            (["pq", "--dist", LAPLACE], "quadrature"),
        ]:
            payload = json.loads(invoke(runner, args).output)
            assert payload["manifest"]["method"] == method, args


#: Tolerance flags and the fields they set in a solver's default config.
_FLAGS = {
    "default": ([], {}),
    "abs": (["--abs-tol", "1e-9"], {"abs_tol": 1e-9}),
    "both": (["--abs-tol", "1e-9", "--rel-tol", "1e-8"], {"abs_tol": 1e-9, "rel_tol": 1e-8}),
}
_TOLERANCE_KEYS = {"inner_abs_tol", "inner_rel_tol", "outer_abs_tol", "outer_rel_tol",
                   "root_x_tol", "root_f_tol"}


def _result_record(command, dist_spec, fields):
    """The tolerance record of the library result that a command reports."""
    dist = from_spec(dist_spec)
    if command in ("relranks", "pq"):
        return compute_pq(dist, replace(PQ_INNER_CFG, **fields)).tolerances
    record = solve_full_info(dist, replace(FULL_INNER_CFG, **fields)).diagnostics["tolerances"]
    if command == "curve":  # the curve and its threshold run no outer integral
        record = {k: v for k, v in record.items() if not k.startswith("outer_")}
    return record


class TestToleranceRecord:
    """The manifests copy the tolerance record of the result, in one shape:
    flat ``<level>_<name>`` keys, a level present exactly when it ran."""

    @pytest.mark.parametrize("flags", list(_FLAGS), ids=list(_FLAGS))
    @pytest.mark.parametrize("dist_spec", [LAPLACE, UNIFORM], ids=["laplace", "uniform"])
    @pytest.mark.parametrize("command", ["full", "relranks", "pq", "curve"])
    def test_manifest_copies_result_record(self, runner, command, dist_spec, flags):
        args = {"full": ["solve", "--model", "full"], "relranks": ["solve", "--model", "relranks"],
                "pq": ["pq"], "curve": ["curve", "--lo", "0.1", "--hi", "1", "--points", "3"]}
        argv, fields = _FLAGS[flags]
        res = invoke(runner, args[command] + ["--dist", dist_spec] + argv)
        assert res.exit_code == 0
        tols = json.loads(res.output)["manifest"]["tolerances"]
        assert tols == _result_record(command, dist_spec, fields)
        assert set(tols) <= _TOLERANCE_KEYS
        levels = {key.split("_")[0] for key in tols}
        assert len(tols) == 2 * len(levels)
        if dist_spec == UNIFORM:  # a table: exact path, no quadrature tolerance
            assert levels <= {"root"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    @pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
    @pytest.mark.parametrize("args", [
        ["solve", "--model", "full"], ["solve", "--model", "relranks"], ["pq"],
        ["curve", "--lo", "0.1", "--hi", "1"],
    ], ids=["full", "relranks", "pq", "curve"])
    def test_invalid_tolerance_is_a_usage_error(self, runner, args, flag, value):
        res = runner.invoke(main, args + ["--dist", POWERFOLD2, flag, value])
        assert res.exit_code == 2, res.output
        assert "must be positive and finite" in res.output

    @pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
    @pytest.mark.parametrize("args", [
        ["solve", "--model", "full"], ["solve", "--model", "relranks"], ["pq"],
    ], ids=["full", "relranks", "pq"])
    def test_overflowing_outer_tolerance_is_a_usage_error(self, runner, monkeypatch, args, flag):
        # the outer integral runs at 100x the flag: 1e307 would make it inf
        def no_work(*a, **k):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(cli, "solve_full_info", no_work)
        monkeypatch.setattr(cli, "compute_pq", no_work)
        res = runner.invoke(main, args + ["--dist", LAPLACE, flag, "1e307"])
        assert res.exit_code == 2, res.output
        assert f"{flag} 1e+307 is too large" in res.output
        assert "inf" not in res.output

    @pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
    def test_curve_runs_no_outer_integral_and_accepts_huge_tolerance(self, runner, flag):
        res = invoke(runner, ["curve", "--dist", LAPLACE, "--lo", "0.1", "--hi", "1",
                              "--points", "3", flag, "1e307"])
        assert res.exit_code == 0
        tols = json.loads(res.output)["manifest"]["tolerances"]
        assert tols[f"inner_{flag[2:5]}_tol"] == 1e307

    def test_nan_tolerances_rejected(self, runner):
        # NaN fails every comparison, so a check written as tol <= 0 passes it,
        # and NaN is not JSON
        res = runner.invoke(main, ["pq", "--dist", POWERFOLD2, "--abs-tol", "nan", "--rel-tol", "nan"])
        assert res.exit_code == 2
        assert "NaN" not in res.output


def _live_click_testing_objects():
    gc.collect()
    return sum(type(o).__module__ == "click.testing" for o in gc.get_objects())


class TestStreams:
    def test_invocations_leave_no_streams_behind(self, runner, tmp_path):
        # click.echo without an explicit stream caches every stream it sees,
        # mapped to itself, so each invocation's stream wrappers would live on
        out = tmp_path / "pq.json"

        def run(i):
            args = ["pq", "--dist", UNIFORM2] + (["--out", str(out)] if i % 2 else [])
            assert invoke(runner, args).exit_code == 0

        for i in range(4):
            run(i)
        before = _live_click_testing_objects()
        for i in range(200):
            run(i)
        assert _live_click_testing_objects() <= before
