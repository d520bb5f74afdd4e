"""Seeded config fuzz of every subcommand's CLI contract.

Every mutated config must end in exit 0 or 1 (verdicts) or exit 2 with the
name of a mutated field on stderr (a list entry may be named by its index,
as 'times[0]'); never in an exception or a warning.
"""

import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_cli import (SMALL_GRID, blowup_config,  # noqa: E402
                      dominated_picard_config, hermite_config,
                      propagate_config, run, transfer_config, with_field)

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
    # 100000 points ask for an 80 GB weight matrix: rejected unallocated
    "t_points": [-1, 0, 1, 2, 3, 4, 5, 8, 100000],
    "norm.p": _NUMBERS,
    "norm.q": _NUMBERS,
    "norm.s": _NUMBERS,
    "domination.gamma": _NUMBERS,
    "domination.r": _NUMBERS,
}


# mutated on _TINY_GRID: 100000 points exceed the bound on the partition's
# size; every grid that is accepted keeps the STFT estimator's cost, which
# grows like N^(2d), small
GRID_FIELDS = {
    "grid.dim": [-1, 0, 1, 2],
    "grid.points_per_axis": [-1, 0, 3, 4, 6, 16, 32, 100000],
    "grid.half_width": _NUMBERS,
}
_EXPONENT_LISTS = [[], [0.5], [math.nan], [math.inf], [1.0], [1.0, 4.0]]
PROPAGATE_FIELDS = dict(GRID_FIELDS, **{
    "beta": _NUMBERS,
    "times": [[], [0.0], [-0.1], [math.nan], [math.inf], [0.1, 1.0],
              [1e300]],
    "corpus_size": [-1, 0, 1, 3, 40],
    "stability_tolerance": _NUMBERS,
    "norm.p": _NUMBERS,
    "norm.s": _NUMBERS,
})
MODNORM_FIELDS = dict(GRID_FIELDS, **{
    "corpus_size": [-1, 0, 1, 3, 40],
    "max_mode": [-1, 0, 3, 7, 8, 1000],  # at most 7 on 16 points
    "specs": [[], [[0.5, 1, 0]], [[2, 1]], [[2, 1, 0], [math.nan, 1, 0]],
              [[math.inf, math.inf, 0]], [[1, 2, 1.5], [4, 1, 0]]],
    "algebra_p": _NUMBERS,
})
# the degree cap, the profile's points and the family size stay small or
# exceed the bound on an array's size (rejected unallocated); d = 200 in
# the eigenvalue lattice overflows its multiplicities in 0.07 s
_DEGREE_CAPS = [-1, 0, 1, 3, 16, 100000]
_POSITIVE_LISTS = [[], [-1.0], [0.0], [math.nan], [math.inf], [1e-300],
                   [1e300], [0.5, 2.0]]
HERMITE_FIELDS = dict(GRID_FIELDS, **{
    "betas": [[], [-1.0], [0.0], [math.nan], [math.inf], [1e-300], [1e300],
              [1.0, 2.0]],
    "ps": _EXPONENT_LISTS,
    "slope_tolerance": _NUMBERS,
    "dim": [-1, 0, 1, 2],
    "degree_cap": _DEGREE_CAPS,
    "coeff_levels": [-1, 0, 1, 3, 11, 100000],
    "slope_window": [[], [3.0], [5.0, 3.0], [0.5, 5.0], [math.nan, 5.0],
                     [-math.inf, math.inf], [1e300, math.inf],
                     [3.0, 4.0, 5.0]],
    "t_profile.lo": _NUMBERS,
    "t_profile.hi": _NUMBERS,
    "t_profile.points": [-1, 0, 1, 2, 3, 10, 60, 1 << 22],
    "eigen_lattice.ds": [[], [-1], [0], [1], [3], [1, 2], [12], [200]],
    "eigen_lattice.betas": _POSITIVE_LISTS + [[0.001], [0.25]],
    "eigen_lattice.ts": _POSITIVE_LISTS,
})
TRANSFER_FIELDS = dict(GRID_FIELDS, **{
    "beta": _NUMBERS,
    "t": _NUMBERS,
    "ps": _EXPONENT_LISTS,
    "dim": [-1, 0, 1, 2],
    # 3 is odd; 2^22 modes exceed the bound on TorusGrid.mode_mesh
    "modes_per_axis": [-1, 0, 3, 4, 8, 16, 64, 1 << 22],
    "trials": [-1, 0, 1, 3],
    "family_size": [-1, 0, 1, 3, 1 << 22],
    "degree_cap": _DEGREE_CAPS,
})


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
        assert any(f"'{name}'" in err or f"'{name}[" in err
                   for name in names), err


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



_TINY_GRID = {"dim": 1, "points_per_axis": 16, "half_width": 4.0}


@_FUZZ
@given(_mutations(PROPAGATE_FIELDS))
def test_mutated_propagate_config(tmp_path, capsys, mutations):
    _check_contract(tmp_path, capsys, "propagate",
                    propagate_config(grid=_TINY_GRID), mutations)


@_FUZZ
@given(_mutations(MODNORM_FIELDS))
def test_mutated_modnorm_config(tmp_path, capsys, mutations):
    cfg = {"schema_version": 1, "seed": 3, "grid": _TINY_GRID,
           "corpus_size": 2, "max_mode": 3, "specs": [[2, 1, 0]]}
    _check_contract(tmp_path, capsys, "modnorm", cfg, mutations)


@_FUZZ
@given(_mutations(HERMITE_FIELDS))
def test_mutated_hermite_config(tmp_path, capsys, mutations):
    cfg = hermite_config(grid=_TINY_GRID,
                         t_profile={"lo": 0.5, "hi": 5.0, "points": 4},
                         eigen_lattice={"ds": [1], "betas": [1.0],
                                        "ts": [0.5]})
    _check_contract(tmp_path, capsys, "hermite", cfg, mutations)


@_FUZZ
@given(_mutations(TRANSFER_FIELDS))
def test_mutated_transfer_config(tmp_path, capsys, mutations):
    cfg = dict(transfer_config(), grid=_TINY_GRID, family_size=2, trials=2)
    _check_contract(tmp_path, capsys, "transfer", cfg, mutations)
