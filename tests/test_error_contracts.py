"""Contract checks for the error paths across the package."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from fractions import Fraction

from rankstop.cli import main
from rankstop.distributions import DistributionError, Laplace, TabulatedCdf, Uniform, from_spec
from rankstop.fullinfo import continuation_curve, solve_full_info
from rankstop.numerics import (RootConfig, find_root, integrate_batch, integrate_detailed,
                              integrate_pieces)
from rankstop.oracle import enumerate_rank_policies, grid_dp_full_info, stage2_disagreement
from rankstop.relranks import optimal_rank_value
from rankstop.simulate import SimConfig, chunk_partials, permutation_frequencies
from rankstop.walkcore import StoppingPolicy, permutation_table, stop_at_policy

ROOT = Path(__file__).resolve().parents[1]


#: Laws whose density overflows a double: a Laplace scale whose 1/(2b) is
#: infinite, and table pieces whose F rises by more than a double's range
#: times their width.  Accepted, a Laplace solve at b = 1e-312 did not
#: return within 30 s, and a uniform one failed on an infinite q.
TOO_NARROW = ['{"kind": "laplace", "b": 1e-310}', '{"kind": "laplace", "b": 1e-320}',
              '{"kind": "uniform", "a": 1e-310}',
              '{"kind": "tabulated", "grid": [[1e-320, 0.6], [1, 1]]}']


class TestDistributionErrors:
    @pytest.mark.parametrize("bad", [
        '{"kind": "laplace", "b": 0}',
        '{"kind": "laplace", "b": -2}',
        '{"kind": "powerfold", "delta": 0}',
        '{"kind": "interval_union", "c": 0, "d": 1}',
    ])
    def test_bad_parameters(self, bad):
        with pytest.raises(DistributionError):
            from_spec(bad)

    @pytest.mark.parametrize("spec", TOO_NARROW)
    def test_density_overflow_rejected(self, spec):
        with pytest.raises(DistributionError, match="overflows a double"):
            from_spec(spec)

    def test_smallest_laplace_scale_still_solves(self):
        # 1/(2b) is 5e307 at b = 1e-308; the solve is the unit law's, scaled
        sol, unit = solve_full_info(Laplace(1e-308)), solve_full_info(Laplace(1))
        assert abs(sol.value - unit.value) <= unit.diagnostics["quadrature_error_bound"]

    def test_tabulated_shape_and_content(self):
        with pytest.raises(DistributionError):
            TabulatedCdf([])
        with pytest.raises(DistributionError):
            TabulatedCdf([[0.0, 0.5, 1.0]])
        with pytest.raises(DistributionError):
            TabulatedCdf([[0.0, 0.5], [float("nan"), 1.0]])
        with pytest.raises(DistributionError):
            TabulatedCdf([[-1.0, 0.2], [1.0, 1.0]])  # negative side is mirrored
        with pytest.raises(DistributionError):
            TabulatedCdf([[0.5, 0.4], [1.0, 1.0]])  # F below 1/2 at positive x


#: Bounds that are not both finite.
NON_FINITE = [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)]
NON_FINITE_IDS = ["hi_inf", "lo_-inf", "lo_nan", "hi_nan"]


class TestNumericsErrors:
    def test_non_vectorized_integrand_rejected(self):
        with pytest.raises(TypeError):
            integrate_detailed(lambda x: 1.0, 0.0, 1.0)  # scalar return, not elementwise

    def test_root_config_validation(self):
        with pytest.raises(ValueError):
            RootConfig(x_tol=0.0)

    def test_find_root_bad_bracket_order(self):
        with pytest.raises(ValueError, match="in order"):
            find_root(self.refuse, (1.0, -1.0))

    @staticmethod
    def refuse(*_):
        raise AssertionError("ran on invalid bounds")

    @pytest.mark.parametrize("a, b", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_bounds_rejected_before_work(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            integrate_batch(self.refuse, [0.0, a], [1.0, b])
        with pytest.raises(ValueError, match="finite"):
            integrate_detailed(self.refuse, a, b)
        with pytest.raises(ValueError, match="finite"):
            integrate_pieces(self.refuse, [a], [b])

    @pytest.mark.parametrize("a, b", NON_FINITE, ids=NON_FINITE_IDS)
    def test_find_root_non_finite_bracket_rejected_before_work(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            find_root(self.refuse, (a, b))

    @pytest.mark.parametrize("dist", [Uniform(1), Laplace(1)], ids=["exact", "adaptive"])
    def test_curve_at_nan_raises(self, dist):
        with pytest.raises(ValueError, match="finite"):
            continuation_curve(dist, [np.nan])


class TestWalkcoreErrors:
    def test_policy_mode_validation(self):
        with pytest.raises(ValueError):
            StoppingPolicy("psychic", 3, "bad", lambda k, obs: None)

    def test_stop_at_out_of_range(self):
        with pytest.raises(ValueError):
            stop_at_policy(4, 3)

    @pytest.mark.parametrize("horizon", [0, 4])
    def test_stop_at_horizon_outside_tables(self, horizon):
        with pytest.raises(ValueError):
            stop_at_policy(0, horizon)


class TestRelranksErrors:
    def test_table_rejects_negative_p(self):
        with pytest.raises(ValueError):
            permutation_table(-0.001)

    def test_value_rejects_negative_p(self):
        with pytest.raises(ValueError):
            optimal_rank_value(-0.1)

    @pytest.mark.parametrize("p", [Fraction(-1, 48), -1 / 48], ids=["fraction", "float"])
    def test_value_rejects_negative_p_of_either_kind(self, p):
        # a negative Fraction gave 107/48 = 109/48 - 2/48, below the floor
        with pytest.raises(ValueError, match="nonnegative"):
            optimal_rank_value(p)


class TestOracleErrors:
    def test_enumeration_horizon(self):
        with pytest.raises(ValueError):
            enumerate_rank_policies(Fraction(1, 96), n=4)

    def test_dp_horizon(self):
        with pytest.raises(ValueError):
            grid_dp_full_info(Uniform(1), m=101, horizon=4)

    def test_two_step_dp_has_no_stage2_grid(self):
        dp = grid_dp_full_info(Uniform(1), m=101, horizon=2)
        with pytest.raises(ValueError):
            stage2_disagreement(dp, stop_at_policy(0, 3))


class TestSimulateErrors:
    @pytest.mark.parametrize("kwargs", [
        {"n_paths": 0},
        {"n_paths": 10, "chunk_size": 0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        cfg = SimConfig(n_paths=10)
        with pytest.raises(ValueError):
            chunk_partials(Uniform(1), stop_at_policy(0, 3), cfg, workers=workers)

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_paths": 0}, "n_paths"),
        ({"n_paths": 10, "chunk_size": 0}, "chunk_size"),
    ])
    def test_frequencies_reject_empty_budget(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            permutation_frequencies(Uniform(1), **kwargs)

    @pytest.mark.parametrize("args", [
        ["--policy", "stop_at_n", "--horizon", "4"],
        ["--policy", "stop_at_n", "--horizon", "40"],
        ["--policy", "stop_at_n", "--horizon", "0"],
        ["--policy", "thm4a", "--workers", "0"],
        ["--policy", "thm4a", "--workers", "-3"],
    ])
    def test_cli_rejects_before_work(self, args):
        res = CliRunner().invoke(main, ["simulate", "--dist", '{"kind": "uniform", "a": 1}',
                                        "--paths", "10", *args])
        assert res.exit_code == 2


class TestCliErrors:
    @pytest.mark.parametrize("spec", TOO_NARROW)
    def test_density_overflow_exits_2_before_work(self, spec):
        # in a fresh process, under a timeout: the solve must not start
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "rankstop.cli", "solve", "--dist", spec,
                               "--model", "full"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "overflows a double" in proc.stderr

    def test_bad_env_seed(self):
        runner = CliRunner()
        res = runner.invoke(main, ["simulate", "--dist", '{"kind": "uniform", "a": 1}',
                                   "--policy", "stop_at_0", "--paths", "10"],
                            env={"RANKSTOP_SEED": "not-a-number"})
        assert res.exit_code == 2

    def test_bad_fraction(self):
        res = CliRunner().invoke(main, ["enumerate", "--p", "one over six"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [["--p", "1/10"]], ids=["p_above_1_48"])
    def test_enumerate_rejects_pq_before_work(self, args, monkeypatch):
        def no_work(*_, **__):
            raise AssertionError("enumeration ran on invalid (p, q)")

        monkeypatch.setattr("rankstop.cli.enumerate_rank_policies", no_work)
        res = CliRunner().invoke(main, ["enumerate", *args])
        assert res.exit_code == 2
        assert "need 0 <= p <= 1/48, got p = 1/10" in res.output

    def test_enumerate_takes_no_q(self, monkeypatch):
        # q = 1/48 - p: there is no second number to give
        def no_work(*_, **__):
            raise AssertionError("enumeration ran")

        monkeypatch.setattr("rankstop.cli.enumerate_rank_policies", no_work)
        res = CliRunner().invoke(main, ["enumerate", "--q", "1/96"])
        assert res.exit_code == 2
        assert "No such option" in res.output and "--q" in res.output

    @pytest.mark.parametrize("policy", ["[1,2]", "5", '"thm9"', "null"],
                             ids=["list", "number", "string", "null"])
    def test_policy_json_not_an_object(self, policy):
        res = CliRunner().invoke(main, ["simulate", "--dist", '{"kind": "uniform", "a": 1}',
                                        "--policy", policy, "--paths", "10"])
        assert res.exit_code == 2
        assert "rank_table" in res.output

    def test_policy_horizon_conflict(self):
        res = CliRunner().invoke(main, ["simulate", "--dist", '{"kind": "uniform", "a": 1}',
                                        "--policy", "thm4a", "--horizon", "2",
                                        "--paths", "10"])
        assert res.exit_code == 2


class TestCurveErrors:
    UNIFORM = '{"kind": "uniform", "a": 1}'

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("curve ran on invalid arguments")

        monkeypatch.setattr("rankstop.cli.solve_threshold", refuse)

    @pytest.mark.parametrize("lo, hi", [("-inf", "1"), ("0", "inf"), ("nan", "1"), ("0", "nan"),
                                        ("-1e308", "1e308")],
                             ids=["lo_-inf", "hi_inf", "lo_nan", "hi_nan", "width_overflows"])
    def test_rejects_non_finite_range_before_work(self, no_work, lo, hi):
        res = CliRunner().invoke(main, ["curve", "--dist", self.UNIFORM, "--lo", lo, "--hi", hi])
        assert res.exit_code == 2
        assert "finite" in res.output

    @pytest.mark.parametrize("points", ["1", "0", "100001"])
    def test_rejects_points_outside_range_before_work(self, no_work, points):
        res = CliRunner().invoke(main, ["curve", "--dist", self.UNIFORM, "--lo", "0.1", "--hi", "1",
                                        "--points", points])
        assert res.exit_code == 2

    @pytest.mark.parametrize("points", [2, 100_000])
    def test_accepts_points_at_both_ends(self, monkeypatch, points):
        # the curve itself is replaced: only the argument check is under test
        monkeypatch.setattr("rankstop.cli.continuation_curve",
                            lambda dist, xs, cfg: np.zeros(len(xs)))
        res = CliRunner().invoke(main, ["curve", "--dist", self.UNIFORM, "--lo", "0.1", "--hi", "1",
                                        "--points", str(points), "--csv"])
        assert res.exit_code == 0, res.output
        assert len(res.output.splitlines()) == 1 + points + 1  # header, points, threshold
