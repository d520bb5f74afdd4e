"""Seeded config fuzz of the blowup and picard subcommands' CLI contract.

Every mutated config must end in exit 0 or 1 (verdicts) or exit 2 with the
name of a mutated field on stderr; never in an exception or a warning.
"""

import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_cli import (SMALL_GRID, blowup_config,  # noqa: E402
                      dominated_picard_config, run, with_field)

_NUMBERS = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 0.5, 1.0, 2.0,
            1e300]
_WRONG_TYPES = ["x", True, None, [1.0]]
# bounded so that no example allocates a huge dealiasing lattice
_INTS = [-1, 0, 1, 2, 3, 60, 400, 100000]
FIELDS = {
    "problem.beta": _NUMBERS,
    "problem.k": _INTS,
    "data.amplitude": _NUMBERS,
    "data.exponent": _NUMBERS,
    "data.scale": _NUMBERS,
    "hypothesis.gamma": _NUMBERS,
    "hypothesis.r": _NUMBERS,
    "solver.dt": [math.nan, -1e-3, 0.0, 1e-3, 3e-3, 0.02, math.inf],
    "solver.t_max": [math.nan, -0.01, 0.0, 1e-4, 0.02, math.inf],
    "solver.threshold_factor": _NUMBERS,
    "solver.scheme": ["ETD1", "ETD2", "RK4"],
    "detect_by": _NUMBERS,
    "witness_terms": _INTS,
    "norm.p": _NUMBERS,
    "norm.q": _NUMBERS,
    "norm.s": _NUMBERS,
}

# t_points and depth stay small: a term costs O(t_points^2) lattice-wide
# updates, and its number of products grows with depth
PICARD_FIELDS = {
    "problem.beta": _NUMBERS,
    "problem.k": [-1, 0, 1, 2, 3, 14, 100000],
    "depth": [-1, 0, 1, 2, 3, 4],
    "t_max": _NUMBERS,
    "t_points": [-1, 0, 1, 2, 3, 4, 5, 8],
    "norm.p": _NUMBERS,
    "norm.q": _NUMBERS,
    "norm.s": _NUMBERS,
    "domination.gamma": _NUMBERS,
    "domination.r": _NUMBERS,
}


def _mutations(fields):
    """1-3 (dotted field, value) pairs; values from fields or a wrong type."""
    return st.lists(st.sampled_from(sorted(fields)).flatmap(
        lambda path: st.tuples(st.just(path),
                               st.sampled_from(fields[path] + _WRONG_TYPES))),
        min_size=1, max_size=3)


def _check_contract(tmp_path, capsys, command, cfg, mutations):
    for path, value in mutations:
        cfg = with_field(cfg, path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        names = {name for path, _ in mutations for name in path.split(".")}
        assert any(f"'{name}'" in err for name in names), err


_FUZZ = settings(max_examples=40, derandomize=True, database=None,
                 deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(_mutations(FIELDS))
def test_mutated_blowup_config(tmp_path, capsys, mutations):
    cfg = blowup_config(grid=SMALL_GRID, solver={"dt": 1e-3, "t_max": 0.02})
    _check_contract(tmp_path, capsys, "blowup", cfg, mutations)


@_FUZZ
@given(_mutations(PICARD_FIELDS))
def test_mutated_picard_config(tmp_path, capsys, mutations):
    cfg = dict(dominated_picard_config(), grid=SMALL_GRID, depth=3,
               t_points=5)
    _check_contract(tmp_path, capsys, "picard", cfg, mutations)
