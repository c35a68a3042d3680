"""Benchmark of the rankstop command line, one workload per run.

    python3 perfbench/run.py --workload solve_builtin --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; rankstop is imported from ``src/``.
Each op is one real ``rankstop`` command invoked in-process through
click's ``CliRunner``: closed loop (the next op starts when the previous
one returned), one client, ``--workers 1``, numeric libraries held to one
thread.  A pass is one sweep over the workload's op list (workloads.py);
the run repeats whole passes, so every run holds each op equally often,
and starts another pass only while it is expected to end less than half
a pass after ``--seconds``.  Every op's JSON output is checked against
references.py.

``--trace 0`` reports the end-to-end metrics; nothing is wrapped.
``--trace 1`` runs one untraced pass, then at least two passes with the
module boundaries wrapped (tracer.py), and reports the per-layer metrics
of one pass.  Counts must repeat exactly from pass to pass; the run is
marked incorrect if they do not.  Layer times are comparable only between
traced runs.

Op times are scaled to a reference speed measured around and during every
op (speed.py), because the machine's speed drifts between and within runs.
Set-up launches are scaled by reference launches.  The raw wall times and
the reference times are in the detail file.

The last line of standard output is the JSON result.  A detail file with
the environment, the generated inputs, per-op times and checks, and in
traced runs the per-op counts and all stored spans is written to
``perfbench/out/``.  ``--tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# After the thread settings, which numpy reads when it is first imported.
import speed  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SETUP_LAUNCHES = 5
TRACED_PASSES_MIN = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="import rankstop.cli, build the inputs and exit (one setup launch)")
    return ap.parse_args(argv)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh interpreters that import rankstop.cli
    and build the inputs (see speed.scaled_launches)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    return speed.scaled_launches(cmd, 2 if args.tiny else SETUP_LAUNCHES)


def environment() -> dict:
    import importlib.metadata

    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "rankstop")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "click": importlib.metadata.version("click"),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def run_op(runner, cli_main, op, op_id, tracer=None) -> dict:
    t0 = time.perf_counter()
    if tracer is None:
        res = runner.invoke(cli_main, list(op.argv))
    else:
        tracer.begin_op(op_id)
        res = tracer.call("cli.op", True, runner.invoke, (cli_main, list(op.argv)), {})
    t1 = time.perf_counter()
    rec = {"name": op.name, "start": t0, "wall_s": t1 - t0, "failures": [], "abs_err": []}
    if res.exit_code != 0:
        rec["failures"].append(f"exit code {res.exit_code}: {res.exception!r} {res.output[-500:]}")
    else:
        try:
            rec.update(op.check(json.loads(res.stdout)))
        except (ValueError, KeyError, TypeError) as exc:
            rec["failures"].append(f"unreadable output: {exc!r}")
    if tracer is not None:
        rec["stats"], rec["counters"] = tracer.stats, tracer.counters
    return rec


def run_passes(runner, cli_main, ops, seconds, min_passes, tracer=None):
    """Whole passes over ``ops``: at least ``min_passes``, then as many as fit ``seconds``."""
    records, passes = [], 0
    start = time.perf_counter()
    with speed.Sampler() as sampler:
        while True:
            for op in ops:
                rec = run_op(runner, cli_main, op, len(records), tracer)
                kernel = speed.kernel_for(op.argv)
                rec["pass"] = passes
                rec["ref_s"] = sampler.reference_s(kernel, rec["start"],
                                                   rec["start"] + rec["wall_s"])
                rec["scale"] = speed.NOMINAL_S[kernel] / rec["ref_s"]
                rec["op_s"] = rec["wall_s"] * rec["scale"]
                records.append(rec)
            passes += 1
            elapsed = time.perf_counter() - start
            # Another pass only if it is expected to end less than half a pass late.
            if passes >= min_passes and elapsed * (passes + 0.5) / passes > seconds:
                return records, passes, elapsed


def op_time_summary(ops, records, passes) -> dict:
    """Per-op time of a typical pass: each op at its median over the passes.

    Percentiles of all samples pooled would fall between two groups of
    ops of very different cost, and read the extreme sample of one group.
    """
    typical = {op.name: statistics.median(r["op_s"] for r in records if r["name"] == op.name)
               for op in ops}
    times = sorted(typical.values())
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    return {"ops": len(times), "passes": passes, "samples": len(records),
            "p50": cuts[4], "p90": cuts[8],
            "beyond_p50": sum(t > cuts[4] for t in times),
            "beyond_p90": sum(t > cuts[8] for t in times),
            "typical_pass_s": sum(times), "typical_op_s": typical}


def pass_totals(records):
    """Per pass: span name -> [count, total_s, self_s, elements], and counters.

    Times are scaled to the reference speed with each op's own factor.
    """
    out = {}
    for rec in records:
        stats, counters = out.setdefault(rec["pass"], ({}, {}))
        scale = rec["scale"]
        for name, (n, tot, self_t, elems) in rec["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += n
            acc[1] += tot * scale
            acc[2] += self_t * scale
            acc[3] += elems
        for key, n in rec["counters"].items():
            counters[key] = counters.get(key, 0) + n
    return [out[k] for k in sorted(out)]


def count_signature(stats, counters) -> dict:
    sig = {f"{name}.count": v[0] for name, v in stats.items()}
    sig.update({f"{name}.elems": v[3] for name, v in stats.items() if v[3]})
    sig.update(counters)
    return sig


def layer_metrics(stats, counters) -> dict:
    """The per-layer metrics of one pass (see README.md for what each should move)."""
    def col(name, i):
        return stats.get(name, (0, 0.0, 0.0, 0))[i]

    def layer(prefix, i):
        return sum(v[i] for k, v in stats.items() if k.split(".", 1)[0] == prefix)

    def suffix(end, i):
        return sum(v[i] for k, v in stats.items() if k.endswith(end))

    integrals = col("numerics.integrate_detailed", 0)
    panels = suffix(".integrand", 0)
    dist_calls = layer("distributions", 0)
    paths = counters.get("simulate.paths", 0)
    chunk_s = col("simulate.chunk_partials", 1)
    return {
        "numerics.integrals": (integrals, "count"),
        "numerics.panels": (panels, "count"),
        "numerics.panels_per_integral": (panels / integrals if integrals else 0.0, "panels/integral"),
        "numerics.root_evals": (suffix(".root_fn", 0), "count"),
        "numerics.budget_hits": (counters.get("numerics.budget_hits", 0), "count"),
        "numerics.self_s": (layer("numerics", 2), "s"),
        "distributions.calls": (dist_calls, "count"),
        "distributions.elems_per_call": (layer("distributions", 3) / dist_calls if dist_calls else 0.0,
                                         "elems/call"),
        "distributions.self_s": (layer("distributions", 2), "s"),
        "fullinfo.solve_s": (col("fullinfo.solve_full_info", 1), "s"),
        "fullinfo.threshold_s": (col("fullinfo.solve_threshold", 1), "s"),
        "fullinfo.self_s": (layer("fullinfo", 2), "s"),
        "relranks.pq_s": (col("relranks.compute_pq", 1), "s"),
        "relranks.self_s": (layer("relranks", 2), "s"),
        "relranks.inner_integrals": (counters.get("relranks.integrals", 0)
                                     - col("relranks.compute_pq", 0), "count"),
        "simulate.paths": (paths, "count"),
        "simulate.chunks": (counters.get("simulate.chunks", 0), "count"),
        "simulate.paths_per_s": (paths / chunk_s if chunk_s else 0.0, "paths/s"),
        "simulate.self_s": (layer("simulate", 2), "s"),
        "walkcore.rule_calls": (col("walkcore.batch_rule", 0), "count"),
        "walkcore.rule_s": (col("walkcore.batch_rule", 1), "s"),
        "oracle.enumerate_s": (col("oracle.enumerate_rank_policies", 1), "s"),
        "oracle.policies_evaluated": (counters.get("oracle.policies_evaluated", 0), "count"),
        "cli.self_s": (col("cli.op", 2), "s"),
    }


def traced_run(args, runner, cli_main, ops, detail):
    import tracer as tr

    plain, _, plain_elapsed = run_passes(runner, cli_main, ops, 0, 1)
    tracer = tr.Tracer()
    tr.install(tracer)
    traced, passes, _ = run_passes(runner, cli_main, ops, args.seconds - plain_elapsed,
                                   TRACED_PASSES_MIN, tracer=tracer)
    totals = pass_totals(traced)
    signatures = [count_signature(*t) for t in totals]
    problems = [] if all(s == signatures[0] for s in signatures) else [
        "trace counts differ between passes"]

    per_pass = [layer_metrics(*t) for t in totals]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s" or name == "simulate.paths_per_s":
            value = statistics.fmean(m[name][0] for m in per_pass)
        metrics[name] = (value, unit)
    plain_s = sum(r["op_s"] for r in plain)
    traced_s = sum(r["op_s"] for r in traced) / passes
    metrics["trace.slowdown"] = (traced_s / plain_s, "ratio")

    detail["traced_passes"] = passes
    detail["untraced_pass_s"] = plain_s
    detail["traced_pass_s"] = traced_s
    detail["per_op_pass0"] = [
        {"name": r["name"], "op_s": r["op_s"], "counters": r["counters"],
         "stats": {k: {"count": v[0], "total_s": v[1], "self_s": v[2], "elems": v[3]}
                   for k, v in r["stats"].items()}}
        for r in traced if r["pass"] == 0]
    detail["count_signature"] = signatures[0]
    detail["spans"] = tracer.dump()
    return plain + traced, metrics, problems


def untraced_run(args, runner, cli_main, ops, setup, detail):
    records, passes, elapsed = run_passes(runner, cli_main, ops, args.seconds, 1)
    summary = op_time_summary(ops, records, passes)
    errs = [e for r in records for e in r["abs_err"]]
    if not errs:
        raise RuntimeError("no op output has a closed form; the accuracy metric is undefined")
    failed = sum(bool(r["failures"]) for r in records)
    setup_raw, setup_scaled = setup
    detail.update(passes=passes, elapsed_s=elapsed, setup_launch_wall_s=setup_raw,
                  setup_launch_s=setup_scaled, op_s=summary)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (len(ops) / summary["typical_pass_s"], "1/s"),
        "op_s.p50": (summary["p50"], "s"),
        "op_s.p90": (summary["p90"], "s"),
        "ok_rate": ((len(records) - failed) / len(records), "ratio"),
        "abs_err.max": (max(errs), "abs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return records, metrics, []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rankstop", "cli.py")):
        print(f"rankstop sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        import rankstop.cli  # noqa: F401  (the import floor is what a launch measures)

        build(args.workload, args.seed, args.tiny)
        return 0

    setup = None if args.trace else measure_setup(args)
    from click.testing import CliRunner
    from rankstop.cli import main as cli_main

    ops, inputs = build(args.workload, args.seed, args.tiny)
    detail = {"environment": environment(), "args": vars(args), "inputs": inputs}
    runner = CliRunner()
    if args.trace:
        records, metrics, problems = traced_run(args, runner, cli_main, ops, detail)
    else:
        records, metrics, problems = untraced_run(args, runner, cli_main, ops, setup, detail)

    failed = sum(bool(r["failures"]) for r in records)
    detail["ops"] = [{k: r[k] for k in ("name", "pass", "wall_s", "ref_s", "op_s", "failures",
                                        "abs_err")}
                     | ({"z": r["z"]} if "z" in r else {})
                     for r in records]
    detail["problems"] = problems
    result = {"correct": failed == 0 and not problems, "attempted": len(records),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail["result"] = result
    os.makedirs(OUT, exist_ok=True)
    suffix = "-tiny" if args.tiny else ""
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh)

    env = detail["environment"]
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} click={env['click']} commit={env['git_commit']}", file=sys.stderr)
    if "op_s" in detail:
        s = detail["op_s"]
        print(f"op_s over the {s['ops']} ops of a pass, each the median of {s['passes']} passes: "
              f"p50={s['p50']:.4f} ({s['beyond_p50']} beyond) "
              f"p90={s['p90']:.4f} ({s['beyond_p90']} beyond)", file=sys.stderr)
    for r in records:
        if r["failures"]:
            print(f"FAILED {r['name']} (pass {r['pass']}): {r['failures']}", file=sys.stderr)
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"detail: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
