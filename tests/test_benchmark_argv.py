"""The command line that perfbench/run.py gives each workload of
perfbench/workloads.json still parses, so a change to the CLI that would
break the benchmark fails here first."""

import json
from pathlib import Path

import pytest

from legmsfem import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_command_line_parses(name):
    # the workload's args, then the config and output paths and one
    # worker, as run.py's cli_args builds them
    args = WORKLOADS[name]["args"]
    argv = [*args, "--config", "workload.json", "--out", "workload.csv",
            "--workers", "1"]
    parsed = cli._parser().parse_args(argv)
    assert parsed.command == args[0]
    assert (parsed.config, parsed.out) == ("workload.json", "workload.csv")
