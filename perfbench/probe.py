"""Benchmark set-up: import the CLI from the checkout and write the configs.

`prepare` is the set-up every benchmark run performs.  Run as a script
(`python3 perfbench/probe.py <workload> <dir>`), it performs that set-up in a
fresh interpreter and prints the monotonic clock when done, so the parent
can time set-up from process start.
"""

import os
import sys

import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def prepare(workload, directory):
    """Import modheat.cli from the checkout's src/; returns (cli, config paths)."""
    sys.path.insert(0, SRC)
    import modheat.cli

    if not os.path.abspath(modheat.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"modheat imported from {modheat.cli.__file__}, "
                          f"not from {SRC}")
    return modheat.cli, workloads.write_configs(workload, directory)


if __name__ == "__main__":
    import time

    prepare(sys.argv[1], sys.argv[2])
    print(repr(time.monotonic()))
