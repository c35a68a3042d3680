"""Smoke test of tools/cli_outputs.py on two commands."""

import importlib.util
import json
from pathlib import Path

from click.testing import CliRunner

from rankstop.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_every_command_on_every_law():
    tool = load_tool()
    commands = tool.commands()
    names = {argv[0] for argv in commands}
    assert names == {"pq", "solve", "enumerate", "simulate", "verify", "curve", "table2"}
    for spec in tool.laws().values():
        assert ["pq", "--dist", spec, "--csv"] in commands
        assert sum(argv[1:3] == ["--dist", spec] for argv in commands) == 17


def test_prints_argv_exit_code_and_output_without_the_timestamp():
    tool = load_tool()
    runner = CliRunner()
    argv = ["enumerate", "--p=1/96"]
    head, code, *body = tool.run(runner, argv).splitlines()
    assert (head, code) == ("$ rankstop enumerate --p=1/96", "exit 0")
    payload = json.loads("\n".join(body))
    want = json.loads(runner.invoke(main, argv).output)
    want["manifest"].pop("timestamp")
    assert payload == want and payload["optimal_value"] == "55/24"

    uniform = tool.laws()["uniform"]
    block = tool.run(runner, ["pq", "--dist", uniform, "--csv"]).splitlines()
    assert block[:3] == [f"$ rankstop pq --dist '{uniform}' --csv", "exit 0",
                         "ordering,reflection,constant,p_coefficient,q_coefficient,probability"]
    assert len(block) == 3 + 12
