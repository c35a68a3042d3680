"""Smoke test of tools/fingerprint.py on two laws."""

import json
import os
import subprocess
import sys
from pathlib import Path

from rankstop.distributions import Laplace, TabulatedCdf
from rankstop.fullinfo import solve_full_info

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "fingerprint.py"


def run(*names):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPT), *names], env=env, capture_output=True,
                          text=True)


def test_prints_one_line_of_bits_per_law():
    proc = run("laplace", "uniform6")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["law"] for line in lines] == ["laplace", "uniform6"]
    uniform6 = TabulatedCdf([[i / 6, 0.5 + 0.5 * i / 6] for i in range(7)])
    for line, dist in zip(lines, [Laplace(1), uniform6]):
        sol = solve_full_info(dist)
        assert (line["x1_star"], line["value"]) == (sol.x1_star.hex(), sol.value.hex())
        assert line["solve_threshold"] == line["x1_star"]
        assert line["diagnostics"]["panels"] == sol.diagnostics["panels"]
        assert len(line["curve_sha256"]) == 64


def test_unknown_law_is_a_usage_error():
    proc = run("laplace", "no-such-law")
    assert proc.returncode == 2 and "no-such-law" in proc.stderr and not proc.stdout
