"""The import graph: each command loads only the solver modules it runs.

Every check runs in a fresh interpreter and reads its ``sys.modules``
afterwards; nothing is timed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOLVERS = {f"rankstop.{name}"
           for name in ("fullinfo", "numerics", "walkcore", "relranks", "oracle", "simulate")}
LAPLACE = '{"kind": "laplace", "b": 1}'


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_after_command(*args: str) -> set[str]:
    return loaded_after("from rankstop.cli import main\n"
                        f"main({list(args)!r}, standalone_mode=False)")


@pytest.mark.parametrize("code", ["import rankstop", "import rankstop.cli"])
def test_import_loads_no_solver(code):
    assert not loaded_after(code) & SOLVERS


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_solver(flag):
    assert not loaded_after_command(flag) & SOLVERS


def test_solve_full_loads_only_its_solvers():
    modules = loaded_after_command("solve", "--dist", LAPLACE, "--model", "full")
    assert modules & SOLVERS == {"rankstop.fullinfo", "rankstop.numerics", "rankstop.walkcore"}
    assert "concurrent.futures" not in modules


def test_solve_relranks_loads_no_oracle_or_simulation():
    modules = loaded_after_command("solve", "--dist", LAPLACE, "--model", "relranks")
    assert "rankstop.relranks" in modules
    assert not modules & {"rankstop.oracle", "rankstop.simulate"}


def test_every_export_resolves():
    code = ("import rankstop\n"
            "assert {'__all__', *rankstop.__all__} <= set(dir(rankstop)), dir(rankstop)\n"
            "from rankstop import *")
    assert SOLVERS <= loaded_after(code)


@pytest.mark.parametrize("policy", ["thm4a", "thm1", '{"kind": "rank_table", "bits": [0, 1, 0]}'],
                         ids=["thm4a", "thm1", "rank_table"])
def test_simulate_loads_no_quadrature(policy):
    modules = loaded_after_command("simulate", "--dist", LAPLACE, "--policy", policy,
                                   "--paths", "1000", "--seed", "1")
    assert "rankstop.simulate" in modules
    assert not modules & {"rankstop.fullinfo", "rankstop.numerics", "rankstop.relranks"}


def test_enumerate_at_given_p_loads_no_quadrature():
    modules = loaded_after_command("enumerate", "--p", "1/100")
    assert "rankstop.oracle" in modules
    assert not modules & {"rankstop.fullinfo", "rankstop.numerics", "rankstop.relranks"}


@pytest.mark.parametrize("name", ["rank_policy_a", "permutation_table"])
def test_rank_rules_and_ordering_table_load_no_quadrature(name):
    # both live in walkcore, which the package resolves them from
    modules = loaded_after(f"import rankstop\nrankstop.{name}")
    assert "rankstop.walkcore" in modules
    assert not modules & {"rankstop.fullinfo", "rankstop.numerics", "rankstop.relranks"}
