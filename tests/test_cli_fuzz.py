"""Seeded config fuzz of the blowup subcommand's CLI contract.

Every mutated config must end in exit 0 or 1 (verdicts) or exit 2 with the
name of a mutated field on stderr; never in an exception or a warning.
"""

import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_cli import SMALL_GRID, blowup_config, run, with_field  # noqa: E402

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

_MUTATION = st.sampled_from(sorted(FIELDS)).flatmap(
    lambda path: st.tuples(st.just(path),
                           st.sampled_from(FIELDS[path] + _WRONG_TYPES)))


def _base():
    return blowup_config(grid=SMALL_GRID, solver={"dt": 1e-3, "t_max": 0.02})


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_blowup_config(tmp_path, capsys, mutations):
    cfg = _base()
    for path, value in mutations:
        cfg = with_field(cfg, path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, "blowup", cfg)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        names = {name for path, _ in mutations for name in path.split(".")}
        assert any(f"'{name}'" in err for name in names), err
