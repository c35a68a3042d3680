"""The import graph and the public API.

Each command loads only the solver modules it runs: every such check runs
in a fresh interpreter and reads its ``sys.modules`` afterwards; nothing is
timed.  Every name a module exports resolves and is used outside the tests.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rankstop"
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


def _submodules():
    """Every module of the package that declares ``__all__``, by short name."""
    modules = {path.stem: importlib.import_module(f"rankstop.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    return {name: module for name, module in modules.items() if hasattr(module, "__all__")}


def test_every_submodule_export_resolves():
    for name, module in _submodules().items():
        for attr in module.__all__:
            assert hasattr(module, attr), f"rankstop.{name}.{attr}"


def test_package_exports_are_submodule_exports():
    import rankstop

    modules = _submodules()
    for sub, names in rankstop._EXPORTS.items():
        assert set(names) <= set(modules[sub].__all__), sub


def _without_export_lists(path: Path) -> str:
    """The source of ``path`` with its ``__all__`` and ``_EXPORTS`` blocks blanked."""
    lines = path.read_text().splitlines()
    for node in ast.parse("\n".join(lines)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("__all__", "_EXPORTS") for t in node.targets):
            lines[node.lineno - 1 : node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def test_every_export_is_used_outside_the_tests():
    # A use is a mention in src/ other than the name's own definition line
    # and the export lists, or any mention in the demos, perfbench or the
    # README.  A name only tests use belongs in the tests.
    src = [_without_export_lists(path) for path in sorted(SRC.glob("*.py"))]
    other = [path.read_text() for path in (*sorted((ROOT / "demos").rglob("*.py")),
                                           *sorted((ROOT / "perfbench").rglob("*.py")),
                                           ROOT / "README.md")]
    unused = []
    for name, module in _submodules().items():
        for attr in module.__all__:
            name_re = re.escape(attr)
            word = re.compile(rf"\b{name_re}\b")
            definition = re.compile(rf"^(?:def|class)\s+{name_re}\b|^{name_re}\s*[:=]")
            if not (any(word.search(line) and not definition.match(line)
                        for text in src for line in text.splitlines())
                    or any(word.search(text) for text in other)):
                unused.append(f"{name}.{attr}")
    assert not unused


@pytest.mark.parametrize("policy", ["thm4a", "thm1", '{"kind": "rank_table", "bits": [0, 1, 0]}'],
                         ids=["thm4a", "thm1", "rank_table"])
def test_simulate_loads_no_quadrature(policy):
    modules = loaded_after_command("simulate", "--dist", LAPLACE, "--policy", policy,
                                   "--paths", "1000", "--seed", "1")
    assert "rankstop.simulate" in modules
    assert not modules & {"rankstop.fullinfo", "rankstop.numerics", "rankstop.relranks"}


@pytest.mark.parametrize("args", [("--p", "1/100"), ("--dist", '{"kind": "powerfold", "delta": 2}')],
                         ids=["p", "integer_powerfold"])
def test_enumerate_at_given_p_loads_no_quadrature(args):
    modules = loaded_after_command("enumerate", *args)
    assert "rankstop.oracle" in modules
    assert not modules & {"rankstop.fullinfo", "rankstop.numerics", "rankstop.relranks"}


@pytest.mark.parametrize("name", ["rank_policy_a", "permutation_table"])
def test_rank_rules_and_ordering_table_load_no_quadrature(name):
    # both live in walkcore, which the package resolves them from
    modules = loaded_after(f"import rankstop\nrankstop.{name}")
    assert "rankstop.walkcore" in modules
    assert not modules & {"rankstop.fullinfo", "rankstop.numerics", "rankstop.relranks"}
