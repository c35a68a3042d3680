"""Command-line surface: machine-readable reports for every solver.

All commands emit JSON (CSV where tabular output makes sense) with an
embedded run manifest, so identical inputs reproduce byte-identical
output up to the timestamp field.  Exit codes: 0 success, 1 numeric
failure or failed verification, 2 invalid input.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction

import click
import numpy as np

from . import __version__, _lazy_attributes
from .distributions import (CDF_SYMMETRY_TOL, QUANTILE_ROUNDTRIP_TOL, DistributionError, PowerFold,
                            from_spec)

# The solver names a command runs load on first access, so each command
# imports only the solver modules it needs.  Commands look them up on
# ``_cli``, this module, at call time: a name replaced on ``rankstop.cli``
# is the one they call.
__getattr__, __dir__ = _lazy_attributes(__name__, {
    "fullinfo": ("BOUND_TOL", "FULL_INNER_CFG", "THRESHOLD_QUANTILE_BOUND", "V_LOWER_BOUND",
                 "V_UPPER_BOUND", "continuation_curve", "full_info_policy", "lower_bound_check",
                 "solve_full_info", "solve_threshold", "tolerances"),
    "numerics": ("QuadratureConfig",),
    "oracle": ("canonical_rules", "enumerate_rank_policies"),
    "relranks": ("PQ_INNER_CFG", "compute_pq", "optimal_rank_policy", "optimal_rank_value",
                 "shift_concentration_check"),
    "simulate": ("SimConfig", "chunk_partials", "estimate_expected_rank", "reduce_partials"),
    "walkcore": ("PQ_TOL", "RankPolicyTable", "StoppingPolicy", "permutation_table",
                 "rank_policy_a", "rank_policy_b", "stop_at_policy", "two_step_policy"),
})
_cli = sys.modules[__name__]

DEFAULT_SEED = 20260808


def _quad_cfg(abs_tol, rel_tol, default: QuadratureConfig, outer: bool = True) -> QuadratureConfig:
    """A solver's inner config: ``default`` with the flags that were given.

    An invalid tolerance is an input error, raised before any work starts.
    For a command that runs an outer integral (``outer``), so is a flag
    whose derived outer tolerance, 100 times it, overflows.
    """
    given = {k: v for k, v in {"abs_tol": abs_tol, "rel_tol": rel_tol}.items() if v is not None}
    try:
        cfg = replace(default, **given)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if outer:
        for name, value in given.items():
            try:
                replace(default, **{name: value}).outer()
            except ValueError:
                raise click.UsageError(f"--{name.replace('_', '-')} {value!r} is too large: "
                                       "the outer tolerance, 100 times it, overflows") from None
    return cfg


def _seed_default() -> int:
    env = os.environ.get("RANKSTOP_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise click.UsageError(f"RANKSTOP_SEED must be an integer, got {env!r}") from exc


def _manifest(command: str, dist_spec=None, seed=None, **extra) -> dict:
    man = {
        "command": command,
        "artifact_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if dist_spec is not None:
        man["distribution"] = dist_spec
    if seed is not None:
        man["seed"] = seed
    man.update(extra)
    return man


def _load_dist(spec_text: str):
    try:
        dist = from_spec(spec_text)
    except DistributionError as exc:
        raise click.UsageError(str(exc)) from exc
    return dist, dist.spec()


def _emit(payload: dict, out: str | None):
    # Streams are passed explicitly: click.echo's default-stream cache maps a
    # stream to itself, so every stream it ever saw (each CliRunner
    # invocation's, say) would stay alive.
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        click.echo(f"wrote {out}", file=sys.stderr)
    else:
        click.echo(text, file=sys.stdout)


def _emit_csv(rows: list[dict], fieldnames: list[str], out: str | None):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {out}", file=sys.stderr)
    else:
        click.echo(text, nl=False, file=sys.stdout)


def _z_score(mean: float, target: float, std_error: float) -> float:
    """Standard score of a Monte Carlo mean.  A sample without spread
    matches only a target it hits exactly."""
    if std_error > 0:
        return (mean - target) / std_error
    return 0.0 if mean == target else math.copysign(math.inf, mean - target)


def _numeric_guard(fn):
    try:
        return fn()
    except (ValueError, RuntimeError) as exc:  # QuadratureError and BracketError among them
        raise click.ClickException(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))


@click.group()
@click.version_option(version=__version__, prog_name="rankstop")
def main():
    """Optimal stopping of a symmetric random walk to minimize expected rank."""


@main.command()
@click.option("--dist", "dist_spec", required=True, help="distribution spec as JSON")
@click.option("--model", type=click.Choice(["full", "relranks"]), required=True)
@click.option("--abs-tol", type=float, default=None, help="absolute tolerance, inner; outer 100x")
@click.option("--rel-tol", type=float, default=None, help="relative tolerance, inner; outer 100x")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def solve(dist_spec, model, abs_tol, rel_tol, out):
    """Solve the three-step problem for one distribution."""
    dist, spec = _load_dist(dist_spec)
    if model == "full":
        cfg = _quad_cfg(abs_tol, rel_tol, _cli.FULL_INNER_CFG)
        sol = _numeric_guard(lambda: _cli.solve_full_info(dist, cfg))
        payload = {
            "manifest": _manifest("solve", spec, model="full",
                                  tolerances=sol.diagnostics["tolerances"],
                                  method=sol.diagnostics["method"]),
            "x1_star": sol.x1_star,
            "value": sol.value,
            "F_at_threshold": sol.F_at_threshold,
            "diagnostics": sol.diagnostics,
        }
    else:
        cfg = _quad_cfg(abs_tol, rel_tol, _cli.PQ_INNER_CFG)
        pq = _numeric_guard(lambda: _cli.compute_pq(dist, cfg))
        policy, branch = _cli.optimal_rank_policy(pq)
        payload = {
            "manifest": _manifest("solve", spec, model="relranks", tolerances=pq.tolerances,
                                  method=pq.method),
            "p": pq.p,
            "q": pq.q,
            "error_bound": pq.error_bound,
            "panels": pq.panels,
            "value": _cli.optimal_rank_value(pq),
            "branch": branch,
            "rule": policy.name,
        }
    _emit(payload, out)


@main.command()
@click.option("--dist", "dist_spec", required=True)
@click.option("--paths", type=click.IntRange(min=1), default=200_000, show_default=True,
              help="Monte Carlo budget")
@click.option("--seed", type=int, default=None, help="override RANKSTOP_SEED / default")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def verify(dist_spec, paths, seed, out):
    """Run the invariant suite for one distribution; exit 0 iff all pass."""
    dist, spec = _load_dist(dist_spec)
    seed = seed if seed is not None else _seed_default()
    checks = []

    def record(name, passed, detail):
        checks.append({"check": name, "passed": bool(passed), "detail": detail})

    def run():
        lo, hi = dist.support
        lo = lo if math.isfinite(lo) else dist.quantile(1e-12)
        hi = hi if math.isfinite(hi) else dist.quantile(1.0 - 1e-12)
        xs = np.linspace(lo, hi, 1001)
        sym = float(np.max(np.abs(dist.cdf(xs) + dist.cdf(-xs) - 1.0)))
        record("cdf_symmetry", sym < CDF_SYMMETRY_TOL, {"max_abs_defect": sym})

        us = np.linspace(1e-6, 1 - 1e-6, 1001)
        rt = float(np.max(np.abs(dist.cdf(dist.ppf(us)) - us)))
        record("quantile_roundtrip", rt < QUANTILE_ROUNDTRIP_TOL, {"max_abs_defect": rt})

        pq = _cli.compute_pq(dist)
        defect = abs(pq.p + pq.q - 1.0 / 48.0)
        record("pq_sum", defect <= _cli.PQ_TOL, {"p": pq.p, "q": pq.q, "defect": defect})

        if isinstance(dist, PowerFold):
            # p = 1/48 - delta B(delta, delta)/96, B from lgamma; a few ulps of
            # 1/48 cover the closed form's own rounding
            d = dist.delta
            exact = 1.0 / 48.0 - d * math.exp(2.0 * math.lgamma(d) - math.lgamma(2.0 * d)) / 96.0
            defect = abs(pq.p - exact)
            record("p_closed_form", defect <= pq.error_bound + 4.0 * math.ulp(1.0 / 48.0),
                   {"p": pq.p, "closed_form": exact, "defect": defect,
                    "error_bound": pq.error_bound})

        conc = _cli.shift_concentration_check(dist)
        if conc.member:
            record("p_bound_in_class", pq.p <= 1.0 / 96.0 + _cli.PQ_TOL,
                   {"p": pq.p, "bound": 1.0 / 96.0})
        else:
            record("p_bound_in_class", True,
                   {"skipped": "distribution fails the concentration grid check",
                    "worst_pair": conc.worst_pair})

        sol = _cli.solve_full_info(dist)
        tol, lower, upper = _cli.BOUND_TOL, _cli.V_LOWER_BOUND, _cli.V_UPPER_BOUND
        record("threshold_quantile",
               sol.F_at_threshold >= _cli.THRESHOLD_QUANTILE_BOUND - tol,
               {"F_at_threshold": sol.F_at_threshold, "bound": _cli.THRESHOLD_QUANTILE_BOUND})
        record("value_bounds", lower - tol <= sol.value <= upper + tol,
               {"value": sol.value, "lower": lower, "upper": upper})

        floor = _cli.lower_bound_check(dist)
        record("continuation_floor", floor.passed,
               {"max_violation": floor.max_violation, "worst_x": floor.worst_x})

        p_frac = Fraction(pq.p).limit_denominator(10**9)
        enum = _cli.enumerate_rank_policies(p_frac, n=3)
        closed = _cli.optimal_rank_value(p_frac)
        record("enumeration_matches_closed_form", enum.optimal_value == closed,
               {"p": str(p_frac), "enumeration": str(enum.optimal_value), "closed_form": str(closed)})

        rank_pol, branch = _cli.optimal_rank_policy(pq)
        cfg = _cli.SimConfig(n_paths=paths, horizon=3, seed=seed)
        mc = _cli.estimate_expected_rank(dist, rank_pol, cfg)
        target = _cli.optimal_rank_value(pq)
        z = _z_score(mc.mean_rank, target, mc.std_error)
        record("monte_carlo_rank_rule", abs(z) <= 4.0,
               {"branch": branch, "mean": mc.mean_rank, "target": target, "z": z})

        mc2 = _cli.estimate_expected_rank(dist, _cli.full_info_policy(dist, sol.x1_star), cfg)
        z2 = _z_score(mc2.mean_rank, sol.value, mc2.std_error)
        record("monte_carlo_full_info", abs(z2) <= 4.0,
               {"mean": mc2.mean_rank, "target": sol.value, "z": z2})

    _numeric_guard(run)
    ok = all(c["passed"] for c in checks)
    payload = {
        "manifest": _manifest("verify", spec, seed=seed, paths=paths),
        "passed": ok,
        "checks": checks,
    }
    _emit(payload, out)
    if not ok:
        sys.exit(1)


@main.command()
@click.option("--csv", "as_csv", is_flag=True, help="emit CSV instead of JSON")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def table2(as_csv, out):
    """Summary of the three-step results, all rows computed live."""
    def run():
        uniform, _ = _load_dist('{"kind": "uniform", "a": 1.0}')
        laplace, _ = _load_dist('{"kind": "laplace", "b": 1.0}')
        extremal, _ = _load_dist('{"kind": "interval_union", "c": 1.0, "d": 2.0}')
        v_lap = _cli.solve_full_info(laplace).value
        v_uni = _cli.solve_full_info(uniform).value
        v_max = _cli.solve_full_info(extremal).value
        p_lap = _cli.compute_pq(laplace)
        p_uni = _cli.compute_pq(uniform)
        p_max = _cli.compute_pq(extremal)
        stop_now = _cli.enumerate_rank_policies(Fraction(1, 96), n=3).values[
            _cli.canonical_rules(3)["stop_at_start"]
        ]
        return [
            {"version": "Full Information", "description": "Lower bound",
             "expected_rank": _cli.V_LOWER_BOUND},
            {"version": "Full Information", "description": "Laplace Distribution",
             "expected_rank": v_lap},
            {"version": "Full Information", "description": "Uniform Distribution",
             "expected_rank": v_uni},
            {"version": "Full Information", "description": "Maximum",
             "expected_rank": v_max},
            {"version": "Relative Ranks", "description": "Greatest Lower Bound",
             "expected_rank": float(_cli.optimal_rank_value(Fraction(0)))},
            {"version": "Relative Ranks", "description": "Laplace Distribution",
             "expected_rank": _cli.optimal_rank_value(p_lap)},
            {"version": "Relative Ranks", "description": "Uniform Distribution",
             "expected_rank": _cli.optimal_rank_value(p_uni)},
            {"version": "Relative Ranks", "description": "Maximum",
             "expected_rank": _cli.optimal_rank_value(p_max)},
            {"version": "Both Versions", "description": "Stopping Immediately",
             "expected_rank": float(stop_now)},
        ]

    rows = _numeric_guard(run)
    if as_csv:
        _emit_csv(rows, ["version", "description", "expected_rank"], out)
    else:
        _emit({"manifest": _manifest("table2"), "rows": rows}, out)


@main.command()
@click.option("--dist", "dist_spec", required=True)
@click.option("--lo", type=float, required=True)
@click.option("--hi", type=float, required=True)
@click.option("--points", type=click.IntRange(2, 100_000), default=100, show_default=True)
@click.option("--abs-tol", type=float, default=None, help="the curve's absolute tolerance")
@click.option("--rel-tol", type=float, default=None, help="the curve's relative tolerance")
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def curve(dist_spec, lo, hi, points, abs_tol, rel_tol, as_csv, out):
    """Sample the continuation-value curve, marking the threshold crossing."""
    if not all(map(math.isfinite, (lo, hi, hi - lo))):
        raise click.UsageError(f"need finite --lo and --hi a finite distance apart, "
                               f"got {lo!r} and {hi!r}")
    if not lo < hi:
        raise click.UsageError("need lo < hi")
    dist, spec = _load_dist(dist_spec)
    cfg = _quad_cfg(abs_tol, rel_tol, _cli.FULL_INNER_CFG, outer=False)

    def run():
        x1s = _cli.solve_threshold(dist, cfg)
        xs = np.linspace(lo, hi, points)
        marked = lo <= x1s <= hi
        values = _cli.continuation_curve(dist, np.append(xs, x1s) if marked else xs, cfg).tolist()
        rows = [{"x": x, "continuation_value": v, "is_threshold": 0}
                for x, v in zip(xs.tolist(), values)]
        if marked:
            rows.append({"x": x1s, "continuation_value": values[-1], "is_threshold": 1})
            rows.sort(key=lambda r: r["x"])
        return x1s, rows

    x1s, rows = _numeric_guard(run)
    if as_csv:
        _emit_csv(rows, ["x", "continuation_value", "is_threshold"], out)
    else:
        tolerances = _cli.tolerances(dist, cfg, outer=False)
        _emit({"manifest": _manifest("curve", spec, tolerances=tolerances),
               "x1_star": x1s, "points": rows}, out)


def _policy_from_spec(token: str, dist, horizon: int) -> StoppingPolicy:
    presets = {
        "thm1": _cli.two_step_policy,
        "thm2": lambda: _cli.full_info_policy(dist),
        "thm4a": _cli.rank_policy_a,
        "thm4b": _cli.rank_policy_b,
        "stop_at_0": lambda: _cli.stop_at_policy(0, horizon),
        "stop_at_n": lambda: _cli.stop_at_policy(horizon, horizon),
    }
    if token in presets:
        return presets[token]()
    try:
        payload = json.loads(token)
        if not isinstance(payload, dict) or payload.get("kind") != "rank_table":
            raise ValueError("custom policy JSON must have kind 'rank_table'")
        return _cli.RankPolicyTable(tuple(payload["bits"])).to_policy()
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(
            f"unknown policy {token!r}; use thm1/thm2/thm4a/thm4b/stop_at_0/stop_at_n "
            f"or a rank_table JSON ({exc})"
        ) from exc


@main.command("simulate")
@click.option("--dist", "dist_spec", required=True)
@click.option("--policy", "policy_spec", required=True,
              help="thm1|thm2|thm4a|thm4b|stop_at_0|stop_at_n or rank_table JSON")
@click.option("--paths", type=click.IntRange(min=1), default=10**6, show_default=True)
@click.option("--horizon", type=click.IntRange(1, 3), default=None,
              help="the policy's own if left out; stop_at_0 and stop_at_n take 3")
@click.option("--seed", type=int, default=None)
@click.option("--chunk-size", type=click.IntRange(min=1), default=1 << 18, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--audit-csv", type=click.Path(dir_okay=False), default=None,
              help="also write per-chunk partial sums for audit")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def simulate_cmd(dist_spec, policy_spec, paths, horizon, seed, chunk_size, workers,
                 audit_csv, out):
    """Monte Carlo estimate of the expected rank of a policy."""
    dist, spec = _load_dist(dist_spec)
    seed = seed if seed is not None else _seed_default()
    policy = _policy_from_spec(policy_spec, dist, 3 if horizon is None else horizon)
    if horizon is not None and policy.horizon != horizon:
        raise click.UsageError(
            f"policy {policy.name!r} has horizon {policy.horizon}, requested {horizon}"
        )
    horizon = policy.horizon

    def run():
        cfg = _cli.SimConfig(n_paths=paths, horizon=horizon, seed=seed, chunk_size=chunk_size)
        return _cli.chunk_partials(dist, policy, cfg, workers=workers)

    parts = _numeric_guard(run)
    res = _cli.reduce_partials(parts)
    if audit_csv:
        rows = [
            {"chunk": p.index, "n_paths": p.n_paths, "rank_sum": p.rank_sum,
             "rank_sq_sum": p.rank_sq_sum,
             "stop_time_histogram": " ".join(map(str, p.stop_time_histogram))}
            for p in parts
        ]
        _emit_csv(rows, ["chunk", "n_paths", "rank_sum", "rank_sq_sum",
                         "stop_time_histogram"], audit_csv)
    payload = {
        "manifest": _manifest("simulate", spec, seed=seed, policy=policy.name,
                              paths=paths, horizon=horizon, chunk_size=chunk_size),
        "mean_rank": res.mean_rank,
        "std_error": res.std_error,
        "n_paths": res.n_paths,
        "stop_time_histogram": list(res.stop_time_histogram),
    }
    _emit(payload, out)


@main.command()
@click.option("--dist", "dist_spec", required=True)
@click.option("--table/--no-table", default=False, help="include the 24-ordering table")
@click.option("--abs-tol", type=float, default=None, help="absolute tolerance, inner; outer 100x")
@click.option("--rel-tol", type=float, default=None, help="relative tolerance, inner; outer 100x")
@click.option("--csv", "as_csv", is_flag=True, help="emit the table as CSV")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def pq(dist_spec, table, abs_tol, rel_tol, as_csv, out):
    """The ordering parameters (p, q) of a distribution."""
    dist, spec = _load_dist(dist_spec)
    cfg = _quad_cfg(abs_tol, rel_tol, _cli.PQ_INNER_CFG)
    params = _numeric_guard(lambda: _cli.compute_pq(dist, cfg))
    tab = _cli.permutation_table(params.p, params.q)
    if as_csv:
        _emit_csv(tab.as_records(),
                  ["ordering", "reflection", "constant", "p_coefficient",
                   "q_coefficient", "probability"], out)
        return
    payload = {
        "manifest": _manifest("pq", spec, tolerances=params.tolerances, method=params.method),
        "p": params.p,
        "q": params.q,
        "method": params.method,
        "error_bound": params.error_bound,
    }
    if table:
        payload["permutation_table"] = tab.as_records()
    _emit(payload, out)


@main.command("enumerate")
@click.option("--p", "p_text", default=None, help="exact p as a fraction, e.g. 1/96")
@click.option("--q", "q_text", default=None, help="exact q (defaults to 1/48 - p)")
@click.option("--dist", "dist_spec", default=None,
              help="compute p from a distribution instead (rationalized)")
@click.option("--n", "horizon", type=click.Choice(["2", "3"]), default="3")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def enumerate_cmd(p_text, q_text, dist_spec, horizon, out):
    """Exact enumeration of every rank-adapted stopping rule."""
    horizon = int(horizon)
    p = q = None
    spec = None
    rationalized = False
    given = [name for name, value in (("--p", p_text), ("--q", q_text), ("--dist", dist_spec))
             if value is not None]
    if horizon == 2:
        if given:
            raise click.UsageError(f"two-step enumeration takes no {', '.join(given)}: "
                                   "its ordering probabilities do not depend on the law")
    elif dist_spec is not None:
        if given != ["--dist"]:
            raise click.UsageError(f"enumeration from --dist takes no {', '.join(given[:-1])}: "
                                   "p and q come from the distribution")
        dist, spec = _load_dist(dist_spec)
        params = _numeric_guard(lambda: _cli.compute_pq(dist))
        p = Fraction(params.p).limit_denominator(10**9)
        q = Fraction(1, 48) - p
        rationalized = True
    elif p_text is not None:
        try:
            p = Fraction(p_text)
            q = Fraction(q_text) if q_text else Fraction(1, 48) - p
        except (ValueError, ZeroDivisionError) as exc:
            raise click.UsageError(f"bad fraction: {exc}") from exc
        if p < 0 or q < 0 or p + q != Fraction(1, 48):
            raise click.UsageError(f"need p >= 0, q >= 0 and p + q = 1/48, got p = {p}, q = {q}")
    else:
        raise click.UsageError("three-step enumeration needs --p or --dist")

    def run():
        return _cli.enumerate_rank_policies(p, q, n=horizon)

    res = _numeric_guard(run)
    named = {
        name: res.is_minimizer(bits) for name, bits in _cli.canonical_rules(horizon).items()
    }
    descriptions = sorted({_cli.RankPolicyTable(bits).describe() for bits in res.minimizers})
    payload = {
        "manifest": _manifest("enumerate", spec, n=horizon,
                              p=str(p) if p is not None else None,
                              q=str(q) if q is not None else None,
                              p_rationalized_from_quadrature=rationalized),
        "optimal_value": str(res.optimal_value),
        "optimal_value_float": float(res.optimal_value),
        "policy_count": res.policy_count,
        "minimizer_count": len(res.minimizers),
        "minimizers": ["".join(map(str, bits)) for bits in res.minimizers],
        "minimizer_descriptions": descriptions,
        "named_rules_optimal": named,
    }
    _emit(payload, out)


if __name__ == "__main__":
    main()
