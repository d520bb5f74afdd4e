"""Experiment runner: configure, run, persist, and summarize the checks.

Usage:

    modheat <subcommand> --config cfg.json [--out DIR] [--seed N] [--gnuplot]

Subcommands: propagate, blowup, picard, modnorm, hermite, transfer.

Configs are versioned JSON.  Each subcommand declares its fields (type,
range or choices, default) once, in its table in TABLES; unknown keys are
rejected by name.  Results are written as CSV tables plus a run_record.json
that echoes the config as given and as parsed, the code version, and one
(value, bound, margin, pass) row per asserted inequality.  With a fixed
config and seed the CSV outputs are byte identical across reruns.  Exit
codes: 0 all verdicts pass, 1 some verdict failed, 2 configuration error.
"""

import argparse
import json
import math
import os
import sys
import time
from itertools import product

import numpy as np

from . import __version__, constants
from .corpus import band_limited, hermite_coeff_family, propagation_corpus
from .heat import (MAX_LATTICE_VALUES, BlowupHypothesis, HeatProblem,
                   SolverConfig, check_lattice, certify_hypothesis,
                   divergence_witness, domination_ratios,
                   picard_product_count, picard_terms, plateau_data, solve)
from .hermite import (ZeroNormError, decay_profile, eigen_sum,
                      eigen_sum_bound)
from .modnorm import (ModNormSpec, STFTPlan, UniformPartition, algebra_defect,
                      mod_norms_from_frequency, mod_norms_stft,
                      stft_resolution_ok)
from .spectral import (SpectralGrid, boundary_tail_ratio, fine_grid,
                       forward_values, heat_symbol, load_grid_function)
from .torus import operator_norm_lower, transference_check


class ConfigError(Exception):
    pass


# -- config tables ---------------------------------------------------------------
#
# A row of a subcommand's table is (path, type, check, default).  A field
# "section.key" follows its section's row, of type dict.  A type is int,
# float (an int passes as a float, a bool as neither), str, dict or list[T],
# a non-empty list of T.  A check is None, an interval such as "(0, inf)"
# that the value (each number of a list) must lie in, or a tuple of choices.
# An absent field takes its default unless that is REQUIRED; the fields of
# an absent section whose default is None are None.  An int field whose
# interval ends at MAX_LATTICE_VALUES sizes an array or a loop.  Rules across
# fields and the checks of the library's constructors run in cmd_*.

REQUIRED = object()
_FINITE = "(-inf, inf)"
_POSITIVE = "(0, inf)"


def _size(lo):
    return f"[{lo}, {MAX_LATTICE_VALUES}]"


_COMMON = (
    ("schema_version", int, (1,), REQUIRED),
    ("seed", int, "[0, inf)", 0),
    ("output_dir", str, None, "."),
    ("grid", dict, None, REQUIRED),
    ("grid.dim", int, _size("-inf"), REQUIRED),
    ("grid.points_per_axis", int, None, REQUIRED),
    ("grid.half_width", float, None, REQUIRED),
)
_NORM = (
    ("norm", dict, None, {}),
    ("norm.p", float, None, 2.0),
    ("norm.q", float, None, 1.0),
    ("norm.s", float, None, 0.0),
)
# the equation and its data, whose kind decides the fields it needs
_PROBLEM = (
    ("problem", dict, None, REQUIRED),
    ("problem.beta", float, _POSITIVE, REQUIRED),
    ("problem.k", int, "[2, inf)", REQUIRED),
    ("data", dict, None, REQUIRED),
    ("data.kind", str, ("gaussian", "plateau", "csv"), REQUIRED),
    ("data.amplitude", float, _FINITE, None),
    ("data.exponent", float, _FINITE, 2 * math.pi),
    ("data.gamma", float, _FINITE, None),
    ("data.r", float, _FINITE, 1.0),
    ("data.path", str, None, None),
    ("data.scale", float, _FINITE, 1.0),
)
_BETA = ("beta", float, _POSITIVE, REQUIRED)
_CORPUS_SIZE = ("corpus_size", int, _size(1), REQUIRED)
_DEGREE_CAP = ("degree_cap", int, _size(0), 16)

TABLES = {
    "propagate": _COMMON + _NORM + (
        _BETA,
        ("times", list[float], "[0, inf)", REQUIRED),
        _CORPUS_SIZE,
        ("stability_tolerance", float, _POSITIVE, 0.05),
    ),
    "blowup": _COMMON + _NORM + _PROBLEM + (
        ("hypothesis", dict, None, REQUIRED),
        ("hypothesis.gamma", float, _POSITIVE, REQUIRED),
        ("hypothesis.r", float, _POSITIVE, REQUIRED),
        ("solver", dict, None, REQUIRED),
        ("solver.dt", float, None, REQUIRED),
        ("solver.t_max", float, None, REQUIRED),
        ("solver.threshold_factor", float, "(1, inf)", 1e6),
        ("solver.scheme", str, None, "ETD1"),
        ("detect_by", float, _POSITIVE, None),
        ("witness_terms", int, _size(1), 12),
    ),
    "picard": _COMMON + _NORM + _PROBLEM + (
        ("depth", int, _size(1), REQUIRED),
        ("t_max", float, _POSITIVE, REQUIRED),
        ("t_points", int, _size(2), 33),
        ("domination", dict, None, None),
        ("domination.gamma", float, _POSITIVE, REQUIRED),
        ("domination.r", float, _POSITIVE, REQUIRED),
        ("converge_by", int, None, 3),
        ("expect", str, ("summable", "growing", "none"), "summable"),
    ),
    "modnorm": _COMMON + (
        _CORPUS_SIZE,
        ("max_mode", int, "[0, inf)", 6),
        ("specs", list[list[float]], None, REQUIRED),
        ("algebra_p", float, "[1, inf]", 2.0),
    ),
    "hermite": _COMMON + (
        _DEGREE_CAP,
        ("betas", list[float], _POSITIVE, REQUIRED),
        ("ps", list[float], "[1, inf]", REQUIRED),
        ("t_profile", dict, None, REQUIRED),
        ("t_profile.lo", float, _POSITIVE, REQUIRED),
        ("t_profile.hi", float, _FINITE, REQUIRED),
        ("t_profile.points", int, _size(1), REQUIRED),
        ("eigen_lattice", dict, None, None),
        ("eigen_lattice.ds", list[int], "[1, inf)", REQUIRED),
        ("eigen_lattice.betas", list[float], _POSITIVE, REQUIRED),
        ("eigen_lattice.ts", list[float], _POSITIVE, REQUIRED),
        ("coeff_levels", int, "[1, inf)", 11),
        ("slope_window", list[float], None, [3.0, 5.0]),
        ("slope_tolerance", float, _POSITIVE, 0.02),
    ),
    "transfer": _COMMON + (
        _DEGREE_CAP, _BETA,
        ("t", float, _POSITIVE, REQUIRED),
        ("ps", list[float], "[1, inf)", REQUIRED),
        ("modes_per_axis", int, None, 64),
        ("family_size", int, _size(1), 8),
        ("trials", int, _size(1), 20),
    ),
}


def _name(path):
    """A field as messages name it: 'key' or section.'key'."""
    section, _, key = path.rpartition(".")
    return f"{section}.{key!r}" if section else repr(key)


def _parse(cfg, table):
    """The flat {path: value} of the config cfg under table: unknown keys
    rejected per section, every value type- and range-checked, defaults
    filled; else a ConfigError naming the field."""
    known = {path for path, *_ in table}

    def reject_unknown(obj, section):
        for key in obj:
            path = f"{section}.{key}" if section else key
            if "." in key or path not in known:
                raise ConfigError(f"unknown config field {_name(path)}")

    reject_unknown(cfg, "")
    values = {}
    for path, typ, check, default in table:
        section, _, key = path.rpartition(".")
        obj = values[section] if section else cfg
        if obj is None:
            values[path] = None
        elif key in obj:
            values[path] = _checked(obj[key], typ, check, _name(path))
            if typ is dict:
                reject_unknown(obj[key], path)
        elif default is REQUIRED:
            raise ConfigError(f"missing config field {_name(path)}")
        else:
            values[path] = default
    return values


def _checked(val, typ, check, name):
    """val as a typ within check (see TABLES); a list entry is named
    'key'[i]."""
    if typ is float and type(val) is int:  # json reads 1e400 as inf too
        val = (float(val) if abs(val) <= sys.float_info.max
               else math.copysign(math.inf, val))
    kind = getattr(typ, "__origin__", typ)
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ConfigError(f"config field {name} has wrong type "
                          f"(expected {kind.__name__})")
    if kind is list:
        if not val:
            raise ConfigError(f"config field {name} must not be empty")
        return [_checked(v, typ.__args__[0], check, f"{name}[{i}]")
                for i, v in enumerate(val)]
    if isinstance(check, tuple):
        if val not in check:
            raise ConfigError(f"config field {name} must be one of "
                              + ", ".join(map(repr, check)))
    elif check is not None:
        lo, hi = (float(end) for end in check[1:-1].split(","))
        if not ((lo < val if check[0] == "(" else lo <= val)
                and (val < hi if check[-1] == ")" else val <= hi)):
            raise ConfigError(f"config field {name} must lie in {check}")
    return val


def _bounded(values, fields):
    """ConfigError naming fields if values exceeds MAX_LATTICE_VALUES."""
    if values > MAX_LATTICE_VALUES:
        raise ConfigError(f"config fields {fields} give an array of "
                          f"{values:.4g} values, above the bound "
                          f"{MAX_LATTICE_VALUES}")


def _parse_grid(v):
    dim, half = v["grid.dim"], v["grid.half_width"]
    try:
        grid = SpectralGrid(dim, v["grid.points_per_axis"], half)
    except ValueError as exc:
        raise ConfigError(f"invalid config field 'grid': {exc}") from exc
    if not dim * half * half < math.inf:
        raise ConfigError("config field grid.'half_width' is too large: "
                          "|x|^2 overflows on the grid")
    # the partition holds 2 k_max + 1 rows of N values, k_max ~ pi N / 2L
    _bounded(max(grid.size, (2.0 * grid.max_freq_component + 3.0)
                 * grid.points_per_axis), "'grid'")
    return grid


def _parse_norm(v):
    try:
        return ModNormSpec(v["norm.p"], v["norm.q"], v["norm.s"])
    except ValueError as exc:
        raise ConfigError(f"invalid config field 'norm': {exc}") from exc


def _parse_problem(v):
    """The grid, problem.beta and problem.k (within the dealiasing-lattice
    bound, checked before anything is allocated) and the initial data."""
    grid = _parse_grid(v)
    try:
        check_lattice(grid, v["problem.k"])
    except ValueError as exc:
        raise ConfigError(f"config field problem.'k': {exc}") from exc
    return grid, v["problem.beta"], v["problem.k"], _parse_data(v, grid)


def _parse_degree_cap(v, grid, stack, stack_field):
    """'degree_cap', with the level mesh, `stack` coefficient tensors (sized
    by stack_field) and the table of the Hermite functions on grid's axis
    bounded.  A batch's synthesis intermediates then are too: each holds at
    most the larger of its tensors and one norm batch of N^d values."""
    cap = v["degree_cap"]
    _bounded(max((cap + 1) * grid.points_per_axis,
                 max(stack, grid.dim) * (cap + 1) ** grid.dim),
             f"'degree_cap' and {stack_field!r}")
    return cap


def _data_field(v, path):
    """v[path], a data field that data.kind needs."""
    if v[path] is None:
        raise ConfigError(f"missing config field {_name(path)}, needed by "
                          f"data.'kind' {v['data.kind']!r}")
    return v[path]


def _parse_data(v, grid):
    """The data's complex physical samples on grid."""
    kind, scale = v["data.kind"], v["data.scale"]
    # overflow shows as a non-finite sample, rejected below by name
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "gaussian":
            amp = _data_field(v, "data.amplitude")
            sq = np.sum(grid.x_mesh ** 2, axis=-1)
            u0 = scale * amp * np.exp(-v["data.exponent"] * sq)
        elif kind == "plateau":
            gam = _data_field(v, "data.gamma")
            u0 = scale * plateau_data(grid, gam, v["data.r"])
        else:
            base = _data_field(v, "data.path")
            try:
                file_grid, u0 = load_grid_function(base)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"config field data.'path' names no "
                                  f"readable grid function: {exc!r}") from exc
            if file_grid != grid:
                raise ConfigError("config field data.'path' holds a grid "
                                  "other than 'grid'")
            u0 = scale * u0
        u0 = np.asarray(u0, dtype=complex)
    if not np.all(np.isfinite(u0)):
        raise ConfigError("config field 'data' gives non-finite samples")
    return u0


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


# -- run records -----------------------------------------------------------------


class RunRecord:
    """Collects result rows and verdicts, then persists them deterministically."""

    def __init__(self, command, config, parameters, out_dir):
        self.command = command
        self.config = config
        self.parameters = parameters  # the parsed fields, defaults filled
        self.out_dir = out_dir
        self.verdicts = []
        self.csv_files = []
        self.notes = []
        self.diagnostics = {}  # run facts that no verdict checks
        self.t0 = time.monotonic()

    def note(self, text):
        self.notes.append(text)

    def verdict(self, name, value, bound, passed=None, direction="<="):
        if passed is None:
            passed = value <= bound if direction == "<=" else value >= bound
        margin = bound - value if direction == "<=" else value - bound
        self.verdicts.append({"name": name, "value": value, "bound": bound,
                              "margin": margin, "pass": bool(passed)})
        return passed

    def write_csv(self, name, header, rows):
        path = os.path.join(self.out_dir, name)
        lines = [",".join(header)]
        # str of a NumPy float64 is the repr of the float it holds
        lines.extend(",".join(map(str, row)) for row in rows)
        # one write call for the whole file, not one per row
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        self.csv_files.append(name)
        return path

    def write_json(self, name, payload):
        path = os.path.join(self.out_dir, name)
        # one write: json.dump would issue one per token
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def finalize(self, gnuplot):
        if gnuplot:
            for name in self.csv_files:
                _emit_gnuplot(self.out_dir, name)
        record = {
            "command": self.command,
            "code_version": __version__,
            "config": self.config,
            "parameters": self.parameters,
            "csv_files": sorted(self.csv_files),
            "diagnostics": self.diagnostics,
            "notes": self.notes,
            "verdicts": self.verdicts,
            "all_passed": all(v["pass"] for v in self.verdicts),
            "wall_time_s": time.monotonic() - self.t0,
        }
        self.write_json("run_record.json", record)
        return record


def _emit_gnuplot(out_dir, csv_name):
    base = csv_name[:-4] if csv_name.endswith(".csv") else csv_name
    script = (f"set datafile separator ','\n"
              f"set key autotitle columnhead\n"
              f"set term png size 900,600\n"
              f"set output '{base}.png'\n"
              f"plot '{csv_name}' using 1:2 with linespoints\n")
    with open(os.path.join(out_dir, f"{base}.gp"), "w") as fh:
        fh.write(script)


# -- subcommands -----------------------------------------------------------------


def cmd_propagate(cfg, seed, rec):
    grid = _parse_grid(cfg)
    spec = _parse_norm(cfg)
    beta, times, count = cfg["beta"], cfg["times"], cfg["corpus_size"]
    tol = cfg["stability_tolerance"]
    _bounded(count * len(times) * grid.size, "'corpus_size' and 'times'")

    partition = UniformPartition(grid)
    corpus = propagation_corpus(grid, count, seed)
    hats = forward_values(grid, corpus)
    # the flow is a frequency-side multiplier: one stack of every (t, f);
    # norms of 0 or beyond the float range are named below
    with np.errstate(over="ignore", invalid="ignore"):
        base = mod_norms_from_frequency(hats, [spec], partition)[0]
        results = mod_norms_from_frequency(
            heat_symbol(grid, times, beta)[:, None] * hats, [spec],
            partition)[0]
    if not (np.all(base > 0) and np.all(results > 0)
            and np.isfinite(results).all()):
        raise ConfigError("config fields 'norm', 'beta' and 'times' give a "
                          "norm of 0 or beyond the float range")
    base, results = base.tolist(), results.tolist()
    rows = []
    uniform = []
    for t, norms in zip(times, results):
        ratios = [n / b for n, b in zip(norms, base)]
        uniform.append(max(ratios))
        for i, (n, r) in enumerate(zip(norms, ratios)):
            rows.append((i, t, base[i], n, r))
    rec.write_csv("propagate_ratios.csv",
                  ["func_id", "t", "norm_0", "norm_t", "ratio"], rows)
    rec.verdict("uniform_bound", max(uniform),
                constants.PROPAGATOR_UNIFORM_CONST)
    rec.verdict("uniform_stability", max(uniform) / min(uniform), 1.0 + tol)


def _resolution_shares(grid, values):
    """How far one function's physical samples are from resolved, real
    data: the largest |F| on the -N/2 slots (of any axis) over max |F|,
    and max |Im f| over max |f|; 0 for the zero function.  The -N/2 mode
    has no mirror on the lattice, so where it carries mass real data turns
    complex."""
    # the state before an overflow may transform to inf: a NaN share
    with np.errstate(over="ignore", invalid="ignore"):
        hat = np.abs(forward_values(grid, values))
        nyquist = max(np.take(hat, grid.points_per_axis // 2, axis=axis).max()
                      for axis in range(grid.dim))
        peak, top = hat.max(), np.abs(values).max()
        return {"nyquist_share": float(nyquist / peak) if peak else 0.0,
                "imaginary_share": (float(np.abs(values.imag).max() / top)
                                    if top else 0.0)}


def cmd_blowup(cfg, seed, rec):
    grid, beta, k, u0 = _parse_problem(cfg)
    hyp = BlowupHypothesis(cfg["hypothesis.gamma"], cfg["hypothesis.r"], beta,
                           k, grid.dim)
    factor = cfg["solver.threshold_factor"]
    spec = _parse_norm(cfg)
    detect_by, witness_terms = cfg["detect_by"], cfg["witness_terms"]

    if spec.p > 2:
        rec.note(f"norm exponent p={spec.p} is outside the certified blow-up "
                 "range 1 <= p <= 2; trace emitted for exploration only")
    partition = UniformPartition(grid)
    # an overflowed norm is named below
    with np.errstate(over="ignore", invalid="ignore"):
        init_norm = float(mod_norms_from_frequency(
            forward_values(grid, u0), [spec], partition)[0])
    if not factor * init_norm > init_norm:
        raise ConfigError(f"config fields 'data' and 'norm' give initial "
                          f"norm {init_norm:g}: no blow-up threshold "
                          "exceeds it")
    try:
        conditions = certify_hypothesis(hyp, grid, u0)
        wit = divergence_witness(hyp, witness_terms)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(
            "config fields problem.'beta', problem.'k', 'hypothesis' and "
            "'witness_terms' give a certificate or witness term beyond the "
            "float range"
        ) from exc
    rec.write_csv("blowup_certificate.csv",
                  ["condition", "value", "bound", "margin", "pass"],
                  [(c.name, c.value, c.bound, c.margin, int(c.passed))
                   for c in conditions])
    for c in conditions:
        rec.verdict(f"certificate_{c.name}", c.value, c.bound, passed=c.passed,
                    direction=">=")

    problem = HeatProblem(beta, k, grid, u0, spec)
    try:
        config = SolverConfig(dt=cfg["solver.dt"], t_max=cfg["solver.t_max"],
                              blowup_threshold=factor * init_norm,
                              scheme=cfg["solver.scheme"])
    except ValueError as exc:
        raise ConfigError(f"invalid config field 'solver': {exc}") from exc
    # the trace records every step
    _bounded(config.t_max / config.dt, "solver.'dt' and solver.'t_max'")
    trace = solve(problem, config, partition)
    rec.diagnostics["data"] = {"boundary_tail_ratio": boundary_tail_ratio(u0)}
    rec.diagnostics["solver"] = {"stop_reason": trace.stop_reason,
                                 "steps": len(trace.times) - 1,
                                 "steps_discarded": trace.steps_discarded,
                                 **_resolution_shares(grid,
                                                      trace.final_state)}
    rec.write_csv("blowup_trace.csv",
                  ["t", "norm_Mp1", "norm_FL1", "linf", "blowup_flag"],
                  list(trace.rows()))
    horizon = detect_by if detect_by is not None else 2.0 * hyp.horizon
    rec.verdict("blowup_detected", float(trace.blowup_detected), 1.0,
                passed=trace.blowup_detected, direction=">=")
    rec.verdict("detection_time", trace.t_detect if trace.t_detect is not None
                else math.inf, horizon)

    rec.write_csv("blowup_witness.csv", ["i", "term", "partial_sum"],
                  [(i + 1, t, s) for i, (t, s) in
                   enumerate(zip(wit.terms, wit.partial_sums))])
    rec.verdict("witness_ratio", wit.ratio, 1.0, direction=">=",
                passed=wit.divergent)


def cmd_picard(cfg, seed, rec):
    grid, beta, k, u0 = _parse_problem(cfg)
    depth, t_max, t_points = cfg["depth"], cfg["t_max"], cfg["t_points"]
    # picard_terms' terms: depth stacks of t_points slices
    _bounded(depth * t_points * grid.size, "'t_points' and 'depth'")
    # a subnormal spacing cannot be told uniform, nor weigh the quadrature
    spacing = t_max / (t_points - 1)
    if not spacing >= sys.float_info.min:
        raise ConfigError(f"config fields 't_max' and 't_points' give a time "
                          f"spacing of {spacing:.4g}, below the smallest "
                          f"normal float {sys.float_info.min:.4g}")
    # the time of the series: every product is formed on the fine lattice
    fine_size = fine_grid(grid, k).size
    products = picard_product_count(depth, k, MAX_LATTICE_VALUES / fine_size)
    if products * fine_size > MAX_LATTICE_VALUES:
        raise ConfigError(f"config field 'depth' gives {products:.4g} "
                          f"products of {k} factors on a lattice of "
                          f"{fine_size} values, above the bound "
                          f"{MAX_LATTICE_VALUES}")
    spec = _parse_norm(cfg)
    converge_by, expect = cfg["converge_by"], cfg["expect"]
    # a verdict needs a ratio of terms from converge_by on: the depth-th
    # term is the last, and ratios start at the second
    if expect != "none" and depth < max(converge_by, 2):
        raise ConfigError("config fields 'depth' and 'converge_by' need "
                          f"depth >= max(converge_by, 2) for expect "
                          f"{expect!r}, got {depth} and {converge_by}")
    dominated = cfg["domination"] is not None
    if dominated:
        hyp = BlowupHypothesis(cfg["domination.gamma"], cfg["domination.r"],
                               beta, k, grid.dim)

    partition = UniformPartition(grid)
    problem = HeatProblem(beta, k, grid, u0, spec)
    t_grid = np.linspace(0.0, t_max, t_points)
    # terms or norms beyond the float range are named below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            res = picard_terms(problem, depth, t_grid, partition)
        except ValueError as exc:
            raise ConfigError(
                "config fields 'data', problem.'k', 'depth' and 't_max' give "
                f"Picard terms beyond the float range ({exc})") from exc
    if not (res.sup_norms[0] > 0 and all(map(math.isfinite, res.sup_norms))):
        raise ConfigError("config fields 'data' and 'norm' give a term norm "
                          "of 0 or beyond the float range")
    if not all(sup > 0 for sup in res.sup_norms):
        zero = res.term_indices[res.sup_norms.index(0.0)]
        raise ConfigError("config fields 't_max', 'data' and 'depth' give a "
                          f"norm of 0 for term {zero}, so its ratio is "
                          "undefined")
    # the slices each term's sup runs over, those the engine evaluated, and
    # the engine calls that evaluated every term's slices
    terms = [{"term_index": idx, "slices": t_points - (i > 0),
              "exact_evaluations": res.exact_evaluations[i]}
             for i, idx in enumerate(res.term_indices)]
    rec.diagnostics["picard"] = {
        "slices": sum(t["slices"] for t in terms),
        "exact_evaluations": sum(res.exact_evaluations),
        "engine_calls": res.engine_calls, "terms": terms}
    rows = [(idx, res.sup_norms[i],
             res.ratios[i - 1] if i >= 1 else float("nan"))
            for i, idx in enumerate(res.term_indices)]
    rec.write_csv("picard_norms.csv", ["term_index", "sup_norm", "ratio"], rows)
    late = [r for i, r in enumerate(res.ratios) if i + 2 >= converge_by]
    if expect == "summable":
        rec.verdict("ratio_below_one", max(late), 1.0)
    elif expect == "growing":
        rec.verdict("ratio_at_least_one", min(late), 1.0, direction=">=")

    if dominated:
        try:
            ratios = domination_ratios(hyp, res)
        except OverflowError as exc:
            raise ConfigError(
                "config fields 'domination', problem.'beta' and problem.'k' "
                "give a lower envelope beyond the float range") from exc
        rec.write_csv("picard_domination.csv", ["term_index", "min_ratio"],
                      list(zip(res.term_indices, ratios)))
        rec.verdict("domination_with_slack",
                    min(ratios) * constants.PICARD_DOMINATION_SLACK, 1.0,
                    direction=">=")


def cmd_modnorm(cfg, seed, rec):
    grid = _parse_grid(cfg)
    count, max_mode = cfg["corpus_size"], cfg["max_mode"]
    # the STFT estimator's refine-2 pass takes every function on a box of
    # (2N)^d values
    _bounded(count * 2 ** grid.dim * grid.size, "'corpus_size' and 'grid'")
    if max_mode >= grid.points_per_axis // 2:
        raise ConfigError("config field 'max_mode' must be below half of "
                          "grid.'points_per_axis'")
    algebra_p = cfg["algebra_p"]
    specs = []
    for i, entry in enumerate(cfg["specs"]):
        try:
            if len(entry) != 3:
                raise ValueError("need [p, q, s]")
            specs.append(ModNormSpec(*entry))
        except ValueError as exc:
            raise ConfigError(f"invalid norm spec 'specs[{i}]': {exc}") from exc

    partition = UniformPartition(grid)
    plan = STFTPlan(grid)
    corpus = np.stack([band_limited(grid, max_mode, seed=seed + i)
                       for i in range(count)])

    hats = forward_values(grid, corpus)
    # (function, spec) tables; norms of 0 or beyond the float range are
    # named below
    with np.errstate(over="ignore", invalid="ignore"):
        decomp = mod_norms_from_frequency(hats, specs, partition).T
        coarse = mod_norms_stft(corpus, plan, specs).T
        fine = mod_norms_stft(corpus, plan, specs, 2).T
    for i in range(len(specs)):
        norms = np.array([decomp[:, i], coarse[:, i], fine[:, i]])
        if not (np.all(norms > 0) and np.isfinite(norms).all()):
            raise ConfigError(f"config field 'specs[{i}]' gives a norm of 0 "
                              "or beyond the float range")
    flags = stft_resolution_ok(coarse, fine).tolist()
    decomp, coarse = decomp.tolist(), coarse.tolist()
    json_rows = []
    csv_rows = []
    cross = []
    for fi in range(count):
        for spec, dval, sval, flag in zip(specs, decomp[fi], coarse[fi],
                                          flags[fi]):
            for est, val in (("decomp", dval), ("stft", sval)):
                json_rows.append({"norm_id": f"f{fi}_p{spec.p}q{spec.q}s{spec.s}",
                                  "p": spec.p, "q": spec.q, "s": spec.s,
                                  "value": val, "estimator": est,
                                  "resolution_flags": [] if flag else
                                  ["stft_refinement_moved_norm"]})
                csv_rows.append((fi, spec.p, spec.q, spec.s, est, val))
            cross.append(sval / dval)
    rec.write_csv("modnorm_values.csv",
                  ["func_id", "p", "q", "s", "estimator", "value"], csv_rows)
    rec.write_json("modnorm_report.json", json_rows)

    # a pair with a zero-norm factor has no defect
    defects = [(i, d) for i, d in enumerate(
        algebra_defect(hats, algebra_p, partition).tolist())
        if not math.isnan(d)]
    rec.write_csv("modnorm_algebra.csv", ["pair", "defect"], defects)

    c = constants.CROSS_ESTIMATOR_CONST
    rec.verdict("cross_estimator_hi", max(cross), c)
    rec.verdict("cross_estimator_lo", min(cross), 1.0 / c, direction=">=")
    if defects:
        rec.verdict("algebra_defect_finite",
                    max(d for _, d in defects), math.inf)


def cmd_hermite(cfg, seed, rec):
    grid = _parse_grid(cfg)
    dim = grid.dim
    betas, ps = cfg["betas"], cfg["ps"]
    lo, hi = cfg["t_profile.lo"], cfg["t_profile.hi"]
    pts = cfg["t_profile.points"]
    if not lo < hi:
        raise ConfigError("config field 't_profile' needs lo < hi")
    # the data and its flow at every t of the profile, as one stack
    cap = _parse_degree_cap(cfg, grid, pts + pts // 2 + 3, "t_profile")
    levels, window = cfg["coeff_levels"], cfg["slope_window"]
    if len(window) != 2 or not window[0] < window[1]:
        raise ConfigError("config field 'slope_window' must be [lo, hi] "
                          "with lo < hi")
    slope_tol = cfg["slope_tolerance"]

    brk = 2.5  # t spacing: geometric below, to resolve t -> 0; linear above
    if lo >= brk:
        t_grid = np.linspace(lo, hi, pts)
    else:
        t_grid = np.geomspace(lo, min(hi, brk), pts)
        if hi > max(window[0], brk):
            lin = np.linspace(max(window[0], brk), hi, pts // 2 + 2)
            # both parts hold the break when the window starts at or below it
            t_grid = np.concatenate([t_grid, lin[lin > t_grid[-1]]])
    # the slope verdict fits a line through the profile inside the window
    if np.count_nonzero((t_grid >= window[0]) & (t_grid <= window[1])) < 2:
        raise ConfigError("config fields 'slope_window' and 't_profile' "
                          "give fewer than two profile times inside the "
                          "slope window")

    tensor = hermite_coeff_family(dim, cap, 1, seed, levels)[0]
    partition = UniformPartition(grid)

    rows = []
    sup_ratio = 0.0
    slope_err = 0.0
    for beta in betas:
        try:
            profiles = decay_profile(tensor, beta, ps, t_grid, partition)
        except OverflowError as exc:
            raise ConfigError("config fields 'betas' and 't_profile' give a "
                              "decay profile beyond the float range") from exc
        except ZeroNormError as exc:
            fields = ("config fields 'ps', 'betas' and 't_profile'"
                      if exc.of_flow else "config field 'ps'")
            raise ConfigError(f"{fields}: {exc}") from exc
        for p, prof_rows in zip(ps, profiles):
            for t, val, ratio in prof_rows:
                rows.append((dim, beta, p, t, val, ratio))
            sup_ratio = max(sup_ratio, max(r for _, _, r in prof_rows))
            ts, ns = np.array([(t, v) for t, v, _ in prof_rows
                               if window[0] <= t <= window[1]]).T
            slope = np.polyfit(ts, np.log(ns), 1)[0]
            target = -float(dim) ** beta
            slope_err = max(slope_err, abs(slope - target) / abs(target))
    rec.write_csv("hermite_decay.csv",
                  ["d", "beta", "p", "t", "value", "ratio"], rows)
    rec.verdict("decay_profile_const", sup_ratio, constants.DECAY_PROFILE_CONST)
    rec.verdict("decay_log_slope_err", slope_err, slope_tol)

    if cfg["eigen_lattice"] is not None:
        erows = []
        try:
            # a term or bound beyond the float range is named below
            with np.errstate(over="ignore"):
                for d, beta, t in product(cfg["eigen_lattice.ds"],
                                          cfg["eigen_lattice.betas"],
                                          cfg["eigen_lattice.ts"]):
                    s = eigen_sum(d, beta, t)
                    b = eigen_sum_bound(d, beta, t)
                    erows.append((d, beta, t, s, b, int(s <= b)))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"config field 'eigen_lattice': {exc}") from exc
        all_ok = all(row[-1] for row in erows)
        rec.write_csv("hermite_eigen.csv",
                      ["d", "beta", "t", "value", "bound", "pass"], erows)
        rec.verdict("eigen_sum_bound_lattice", float(all_ok), 1.0,
                    passed=all_ok, direction=">=")


def cmd_transfer(cfg, seed, rec):
    grid = _parse_grid(cfg)
    dim = grid.dim
    beta, t, ps = cfg["beta"], cfg["t"], cfg["ps"]
    modes, trials = cfg["modes_per_axis"], cfg["trials"]
    try:
        # the torus [0, 2pi)^d as the periodized box [-pi, pi)^d
        torus = SpectralGrid(dim, modes, math.pi)
    except ValueError as exc:
        raise ConfigError(f"config field 'modes_per_axis': {exc}") from exc
    # the symbol's level indices (dim (modes / 2)^dim) and
    # operator_norm_lower's trials of modes^dim each
    _bounded(max(dim, trials) * modes ** dim, "'modes_per_axis' and 'trials'")
    fam_size = cfg["family_size"]
    # the family and its flow, as one stack
    cap = _parse_degree_cap(cfg, grid, 2 * fam_size, "family_size")

    partition = UniformPartition(grid)
    family = hermite_coeff_family(dim, cap, fam_size, seed)
    try:
        with np.errstate(over="ignore"):
            report = transference_check(t, beta, ps, family, partition,
                                        torus, slack=constants.TRANSFER_SLACK)
    except OverflowError as exc:
        raise ConfigError("config fields 'beta' and 't' give a symbol beyond "
                          "the float range") from exc
    except ZeroNormError as exc:
        raise ConfigError(f"config field 'ps': {exc}") from exc
    except ValueError as exc:
        raise ConfigError("config fields 't', 'beta' and 'modes_per_axis': "
                          f"{exc}") from exc
    sym = report.symbol
    sup = float(np.abs(sym).max())
    if sup == 0.0:
        raise ConfigError("config fields 'beta' and 't' give a symbol that "
                          "underflows to 0")
    lowers, ratios = operator_norm_lower(sym, ps, trials, torus, seed=seed)
    # per p, the trials whose ratio beats the single-mode bound, and the
    # best trial: whether the random trials move `lower` at all
    rec.diagnostics["operator_norm_lower"] = {
        "trials": trials, "sup": sup,
        "per_p": [{"p": p, "trials_above_sup": int(np.sum(row > sup)),
                   "best_trial_ratio": float(row.max())}
                  for p, row in zip(ps, ratios)]}
    brows = [(dim, beta, t, p, lower, report.young_upper,
              report.parseval_upper, int(lower <= report.young_upper + 1e-8))
             for p, lower in zip(ps, lowers)]
    rrows = [(p, f"rand{i}", row.ratio, row.bound, int(row.passed))
             for p, p_rows in zip(ps, report.rows)
             for i, row in enumerate(p_rows)]
    rec.write_csv("transfer_bounds.csv",
                  ["d", "beta", "t", "p", "lower", "young_upper",
                   "parseval_upper", "pass"], brows)
    rec.write_csv("transfer_ratios.csv",
                  ["p", "label", "ratio", "bound", "pass"], rrows)
    ok_sandwich = all(row[-1] for row in brows)
    rec.verdict("sandwich", float(ok_sandwich), 1.0, passed=ok_sandwich,
                direction=">=")
    if 2.0 in ps:
        p2_err = abs(lowers[ps.index(2.0)] - sup) / sup
        rec.verdict("p2_parseval_match", p2_err, 0.01)
    rec.verdict("transference_bound", float(report.all_passed), 1.0,
                passed=report.all_passed, direction=">=")


_COMMANDS = {name: globals()[f"cmd_{name}"] for name in TABLES}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="modheat",
        description="spectral experiments for fractional heat flows")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed")
    parser.add_argument("--gnuplot", action="store_true",
                        help="emit companion gnuplot scripts")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seeded = cfg if args.seed is None else dict(cfg, seed=args.seed)
        params = _parse(seeded, TABLES[args.command])
        out_dir = args.out or params["output_dir"] or "."
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory: {exc}") from exc
        rec = RunRecord(args.command, seeded, {  # every field but sections
            path: params[path] for path, typ, *_ in TABLES[args.command]
            if typ is not dict}, out_dir)
        _COMMANDS[args.command](params, params["seed"], rec)
    except (ConfigError, ValueError) as exc:
        # a ValueError is an invalid parameterization surfaced by the
        # numerics (zero-norm data)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    record = rec.finalize(gnuplot=args.gnuplot)
    for v in record["verdicts"]:
        status = "PASS" if v["pass"] else "FAIL"
        print(f"[{status}] {v['name']}: value={v['value']:.6g} "
              f"bound={v['bound']:.6g} margin={v['margin']:.6g}")
    if not record["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
