"""Smoke test of the maintenance scripts under tools/."""

import pathlib
import runpy

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

# one line per frozen constant, in the order the script prints them
CONSTANT_LABELS = ["CROSS_ESTIMATOR", "M22_OVER_L2", "ALGEBRA_DEFECT",
                   "FL1_EMBEDDING", "PROPAGATOR_UNIFORM", "PICARD_DOMINATION",
                   "TRANSFER", "DECAY_PROFILE"]


def test_measure_constants_runs(capsys):
    # runs the script against the library as it is, so a signature change
    # there cannot break it silently
    runpy.run_path(str(TOOLS / "measure_constants.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == CONSTANT_LABELS
