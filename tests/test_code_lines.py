"""Smoke test of tools/code_lines.py on a small sample package."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
on two lines."""

import math  # a comment


def f(x):
    """A docstring."""
    # a comment line
    text = """a string
that is not a docstring"""
    return math.sqrt(x) + len(text)
'''


def test_counts_lines_and_code_lines(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(SAMPLE)
    (package / "b.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(package)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    # a.py: 12 lines; code on the import, the def, the two lines of the
    # assigned string and the return
    assert out[0].split()[:2] == ["12", "5"]
    assert out[1].split()[:2] == ["1", "1"]
    assert out[-1].split() == ["13", "6", "total"]
