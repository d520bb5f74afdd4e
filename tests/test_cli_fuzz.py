"""Seeded config fuzz of every subcommand's CLI contract.

The fields each subcommand's fuzz mutates, and the values they draw, come
from its table in `modheat.cli.TABLES`, so a new field is fuzzed by
construction.  Every mutated config must end in exit 0 or 1 (verdicts) or
exit 2 with the name of a mutated field on stderr (a list entry may be
named as 'times'[0] or 'times[0]'); never in an exception or a warning.  A
size field's first value past MAX_LATTICE_VALUES must exit 2.
"""

import math
import time
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from modheat.cli import REQUIRED, TABLES  # noqa: E402
from modheat.heat import MAX_LATTICE_VALUES  # noqa: E402
from test_cli import (SMALL_GRID, blowup_config,  # noqa: E402
                      dominated_picard_config, hermite_config,
                      propagate_config, run, transfer_config, with_field)

_NUMBERS = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 0.5, 1.0, 2.0,
            1e300]
_WRONG_TYPES = ["x", True, None, [1.0]]

# the grids stay small: every accepted grid keeps the STFT estimator's
# cost, which grows like N^(2d), and the solver's steps cheap
_TINY_GRID = {"dim": 1, "points_per_axis": 16, "half_width": 4.0}
BASES = {
    "blowup": lambda: blowup_config(grid=SMALL_GRID,
                                    solver={"dt": 1e-3, "t_max": 0.02}),
    # t_points stays small: every slice of every term is a product on the
    # dealiasing lattice
    "picard": lambda: dict(dominated_picard_config(), grid=SMALL_GRID,
                           depth=3, t_points=5),
    "propagate": lambda: propagate_config(grid=_TINY_GRID),
    "modnorm": lambda: {"schema_version": 1, "seed": 3, "grid": _TINY_GRID,
                        "corpus_size": 2, "max_mode": 3,
                        "specs": [[2, 1, 0]]},
    "hermite": lambda: hermite_config(
        grid=_TINY_GRID, t_profile={"lo": 0.5, "hi": 5.0, "points": 4},
        eigen_lattice={"ds": [1], "betas": [1.0], "ts": [0.5]}),
    "transfer": lambda: dict(transfer_config(), grid=_TINY_GRID,
                             family_size=2, trials=2),
}


def _value(cfg, path):
    """The value at the dotted path of cfg, or None where it is absent."""
    for key in path.split("."):
        if not isinstance(cfg, dict) or key not in cfg:
            return None
        cfg = cfg[key]
    return cfg


def _draws(typ, check, base):
    """The values a field of type typ within check draws; base is its value
    in the fuzzed config (or its default)."""
    if getattr(typ, "__origin__", None) is list:
        base = base or []
        entries = _draws(typ.__args__[0], check, base[0] if base else None)
        return [[]] + [[entry] + base[1:] for entry in entries]
    if isinstance(check, tuple):
        return [*check, "unknown"]
    if typ is float:
        return _NUMBERS
    if typ is int:
        lo, hi = ((float(end) for end in check[1:-1].split(","))
                  if check else (-math.inf, math.inf))
        edge = int(lo) if math.isfinite(lo) else 0
        return ([edge - 1, edge, edge + 1]
                + ([base] if base is not None else [])
                + ([MAX_LATTICE_VALUES + 1] if hi == MAX_LATTICE_VALUES
                   else []))
    if typ is str:
        return ([base] if base is not None else []) + ["unknown"]
    return []  # a section: wrong types only


def fuzz_fields(command):
    """{path: values drawn} for every row of the command's table."""
    base = BASES[command]()
    fields = {}
    for path, typ, check, default in TABLES[command]:
        value = _value(base, path)
        if value is None and default is not REQUIRED:
            value = default
        fields[path] = _draws(typ, check, value) + _WRONG_TYPES
    return fields


def _leaves(cfg, prefix=""):
    """Every dotted path of cfg, sections included."""
    for key, value in cfg.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")


@pytest.mark.parametrize("command", sorted(TABLES))
def test_fuzz_covers_every_table_path(command):
    fields = fuzz_fields(command)
    assert set(fields) == {path for path, *_ in TABLES[command]}
    assert set(_leaves(BASES[command]())) <= set(fields)
    assert all(fields.values())


def _mutations(fields):
    """1-3 (dotted field, value) pairs."""
    return st.lists(st.sampled_from(sorted(fields)).flatmap(
        lambda path: st.tuples(st.just(path), st.sampled_from(fields[path]))),
        min_size=1, max_size=3)


def _check_contract(tmp_path, capsys, command, mutations):
    cfg = BASES[command]()
    # a section's fields first, so that a mutated section overrides them
    for path, value in sorted(mutations, key=lambda m: -m[0].count(".")):
        cfg = with_field(cfg, path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if any(type(value) is int and value > MAX_LATTICE_VALUES
           for _, value in mutations):
        assert code == 2, mutations
    if code == 2:
        names = {name for path, _ in mutations for name in path.split(".")}
        assert any(f"'{name}'" in err or f"'{name}[" in err
                   for name in names), err


_FUZZ = settings(max_examples=40, derandomize=True, database=None,
                 deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(_mutations(fuzz_fields("blowup")))
def test_mutated_blowup_config(tmp_path, capsys, mutations):
    _check_contract(tmp_path, capsys, "blowup", mutations)


@_FUZZ
@given(_mutations(fuzz_fields("picard")))
def test_mutated_picard_config(tmp_path, capsys, mutations):
    _check_contract(tmp_path, capsys, "picard", mutations)


@_FUZZ
@given(_mutations(fuzz_fields("propagate")))
def test_mutated_propagate_config(tmp_path, capsys, mutations):
    _check_contract(tmp_path, capsys, "propagate", mutations)


@_FUZZ
@given(_mutations(fuzz_fields("modnorm")))
def test_mutated_modnorm_config(tmp_path, capsys, mutations):
    _check_contract(tmp_path, capsys, "modnorm", mutations)


@_FUZZ
@given(_mutations(fuzz_fields("hermite")))
def test_mutated_hermite_config(tmp_path, capsys, mutations):
    _check_contract(tmp_path, capsys, "hermite", mutations)


@_FUZZ
@given(_mutations(fuzz_fields("transfer")))
def test_mutated_transfer_config(tmp_path, capsys, mutations):
    _check_contract(tmp_path, capsys, "transfer", mutations)


@pytest.mark.parametrize("depth", [1000, 10 ** 4])
def test_large_depth_rejected_at_once(tmp_path, capsys, depth):
    # t_points = 2 passes the bound on the terms' size; the product count
    # rejects the depth (enumerating the products took hours at 10^4)
    cfg = dict(dominated_picard_config(), grid=SMALL_GRID, depth=depth,
               t_points=2)
    start = time.monotonic()
    code, _ = run(tmp_path, "picard", cfg)
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 2 and "config field 'depth' gives" in err, err
    assert elapsed < 1.0


@pytest.mark.parametrize("command,path,value,named", [
    # one witness term or CSV row costs ~4 us, one trial ~130 us at 64 modes
    ("blowup", "witness_terms", 10 ** 9, "'witness_terms'"),
    ("transfer", "trials", 10 ** 9, "'trials'"),
    # 65537 trials of 64 modes pass the table but not the product bound
    ("transfer", "trials", MAX_LATTICE_VALUES // 64 + 1, "'trials'"),
    # 2e10 solver steps, one trace row each
    ("blowup", "solver.dt", 1e-12, "'dt'"),
    # N^d as an exact integer would not fit in memory
    ("propagate", "grid.dim", 10 ** 12, "'dim'"),
])
def test_long_loop_rejected_at_once(tmp_path, capsys, command, path, value,
                                    named):
    cfg = with_field(BASES[command](), path, value)
    start = time.monotonic()
    code, _ = run(tmp_path, command, cfg)
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 2 and named in err, err
    assert elapsed < 1.0
