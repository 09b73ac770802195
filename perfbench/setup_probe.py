"""Set-up probe: the start of a CLI run up to the return of
``cli.build_problem`` (interpreter start, numpy/scipy/legmsfem import,
config parse, coarse and fine mesh build), then exit.

    python perfbench/setup_probe.py CONFIG_JSON

Prints the monotonic time at which ``build_problem`` returned; the parent
takes the difference to the moment it started this process.
"""

import sys
import time

from legmsfem import cli

if __name__ == "__main__":
    cli.build_problem(cli.RunConfig.load(sys.argv[1]))
    print(repr(time.monotonic()))
