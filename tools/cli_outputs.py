"""Print the output of a fixed list of ``rankstop`` commands.

The command line's counterpart of ``tools/fingerprint.py``.  Every command
runs in process through click's ``CliRunner`` and is printed as its argv,
its exit code and its output, with the manifest's ``timestamp`` line
removed, so two trees that print the same text gave the same output.

    PYTHONPATH=src python tools/cli_outputs.py > a.txt
    PYTHONPATH=OTHER/src python tools/cli_outputs.py > b.txt
    diff a.txt b.txt

Only CLI arguments are passed, so this one script compares any tree, an
older one without it too.  The laws are ``builtin_suite()``, Laplace(3)
and PowerFold(8).  On each: ``pq --table`` and ``pq --csv``, ``solve``
with both models, ``enumerate --dist``, ``simulate`` of the six preset
policies and of ``stop_at_0``/``stop_at_n`` at ``--horizon`` 1 and 2, at
50,000 paths, ``verify`` at 20,000 paths and ``curve`` at 5 points; then
``enumerate --p`` at six values in [0, 1/48] and two outside,
``enumerate --n 2`` and ``table2``.  Monte Carlo runs take fixed seeds.
"""

import json
import shlex
import sys

from click.testing import CliRunner

from rankstop.cli import main as cli_main
from rankstop.distributions import Laplace, PowerFold, builtin_suite

_POLICIES = ["thm1", "thm2", "thm4a", "thm4b", "stop_at_0", "stop_at_n"]
_P_VALUES = ["0", "1/192", "1/96", "5/288", "1/60", "1/48", "1/10", "-1/96"]


def laws():
    """The laws by name, as JSON specs."""
    table = {**builtin_suite(), "laplace3": Laplace(3), "powerfold8": PowerFold(8)}
    return {name: json.dumps(dist.spec()) for name, dist in table.items()}


def commands():
    """The argv of every command, in print order."""
    out = []
    for i, spec in enumerate(laws().values()):
        dist = ["--dist", spec]
        out += [["pq", *dist, "--table"], ["pq", *dist, "--csv"],
                ["solve", *dist, "--model", "full"], ["solve", *dist, "--model", "relranks"],
                ["enumerate", *dist]]
        sim = ["simulate", *dist, "--paths", "50000", "--seed", str(100 + i)]
        out += [[*sim, "--policy", policy] for policy in _POLICIES]
        out += [[*sim, "--policy", policy, "--horizon", horizon]
                for policy in ("stop_at_0", "stop_at_n") for horizon in ("1", "2")]
        out += [["verify", *dist, "--paths", "20000", "--seed", str(200 + i)],
                ["curve", *dist, "--lo", "-1", "--hi", "1", "--points", "5"]]
    out += [["enumerate", f"--p={p}"] for p in _P_VALUES]
    return out + [["enumerate", "--n", "2"], ["table2"], ["table2", "--csv"]]


def run(runner, argv):
    """One command's printed block: argv, exit code, output without the timestamp."""
    res = runner.invoke(cli_main, argv)
    lines = [line for line in res.output.splitlines() if '"timestamp": ' not in line]
    return "\n".join([f"$ rankstop {shlex.join(argv)}", f"exit {res.exit_code}", *lines])


def main() -> int:
    runner = CliRunner()
    for argv in commands():
        print(run(runner, argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
