"""Experiment runner: configure, run, persist, and summarize the checks.

Usage:

    modheat <subcommand> --config cfg.json [--out DIR] [--seed N] [--gnuplot]

Subcommands: propagate, blowup, picard, modnorm, hermite, transfer.

Configs are versioned JSON; unknown keys are rejected by name.  Results are
written as CSV tables plus a run_record.json that echoes the config, the
code version, and one (value, bound, margin, pass) row per asserted
inequality.  With a fixed config and seed the CSV outputs are byte
identical across reruns.  Exit codes: 0 all verdicts pass, 1 some verdict
failed, 2 configuration error.
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
                   SolverConfig, check_lattice,
                   certify_hypothesis, divergence_witness,
                   lower_bound_envelope, picard_product_count, picard_terms,
                   plateau_data, solve)
from .hermite import (HermiteBasis, HermiteCoeffs, decay_profile, eigen_sum,
                      eigen_sum_bound)
from .modnorm import (ModNormSpec, STFTPlan, UniformPartition, algebra_defect,
                      mod_norm_decomp, mod_norms_from_frequency,
                      mod_norms_stft, stft_resolution_ok)
from .spectral import (GridFunction, SpectralGrid, boundary_tail_ratio,
                       fine_grid, forward_values, heat_symbol,
                       load_grid_function)
from .torus import TorusGrid, operator_norm_lower, transference_check


class ConfigError(Exception):
    pass


# -- config validation -----------------------------------------------------------


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown config field {path}{key!r}")


def _require(obj, key, typ, path, default=None, required=True):
    if key not in obj:
        if required:
            raise ConfigError(f"missing config field {path}{key!r}")
        return default
    return _typed(obj[key], typ, f"{path}{key!r}")


def _typed(val, typ, name):
    """val checked against typ; an int passes as a float, a bool as neither."""
    if typ is float and type(val) is int:
        val = float(val)
    if not isinstance(val, typ) or isinstance(val, bool):
        raise ConfigError(f"config field {name} has wrong type "
                          f"(expected {getattr(typ, '__name__', typ)})")
    return val


def _finite(obj, key, path, default=None, required=True):
    """A float field that must be finite."""
    val = _require(obj, key, float, path, default=default, required=required)
    if not math.isfinite(val):
        raise ConfigError(f"config field {path}{key!r} must be finite")
    return val


def _require_list(obj, key, typ, path, default=None, required=True):
    """A list field whose entries all have type typ."""
    vals = _require(obj, key, list, path, default=default, required=required)
    if vals is None:
        return None
    return [_typed(v, typ, f"{path}{key!r}[{i}]") for i, v in enumerate(vals)]


def _positive(val, name):
    """val, which must be finite and > 0; else a ConfigError naming it."""
    if not (val > 0 and math.isfinite(val)):
        raise ConfigError(f"config field {name} must be positive and finite")
    return val


def _bounded(values, fields):
    """ConfigError naming fields if they give an array of more than
    MAX_LATTICE_VALUES values."""
    if values > MAX_LATTICE_VALUES:
        raise ConfigError(f"config fields {fields} give an array of "
                          f"{values:.4g} values, above the bound "
                          f"{MAX_LATTICE_VALUES}")


def _parse_grid(cfg, path="grid."):
    _check_keys(cfg, {"dim", "points_per_axis", "half_width"}, path)
    dim = _require(cfg, "dim", int, path)
    n = _require(cfg, "points_per_axis", int, path)
    half = _require(cfg, "half_width", float, path)
    try:
        grid = SpectralGrid(dim, n, half)
    except ValueError as exc:
        raise ConfigError(f"invalid config field 'grid': {exc}") from exc
    if not dim * half * half < math.inf:
        raise ConfigError(f"config field {path}'half_width' is too large: "
                          "|x|^2 overflows on the grid")
    # the partition holds 2 k_max + 1 rows of N values, k_max ~ pi N / 2L
    _bounded(max(grid.size, (2.0 * grid.max_freq_component + 3.0) * n),
             "'grid'")
    return grid


def _parse_norm(cfg, path="norm."):
    _check_keys(cfg, {"p", "q", "s"}, path)
    p = _require(cfg, "p", float, path, default=2.0, required=False)
    q = _require(cfg, "q", float, path, default=1.0, required=False)
    s = _require(cfg, "s", float, path, default=0.0, required=False)
    try:
        return ModNormSpec(p, q, s)
    except ValueError as exc:
        raise ConfigError(f"invalid config field {path[:-1]!r}: {exc}") \
            from exc


def _parse_k(prob_cfg, grid):
    """problem.k: >= 2, and within the dealiasing-lattice bound on grid
    (checked before anything is allocated)."""
    k = _require(prob_cfg, "k", int, "problem.")
    if k < 2:
        raise ConfigError("config field problem.'k' must be >= 2")
    try:
        check_lattice(grid, k)
    except ValueError as exc:
        raise ConfigError(f"config field problem.'k': {exc}") from exc
    return k


def _parse_degree_cap(cfg, dim, stack, stack_field):
    """'degree_cap': >= 0, with the quadrature's companion matrix, the level
    mesh and `stack` coefficient tensors (sized by stack_field) bounded."""
    cap = _require(cfg, "degree_cap", int, "", default=16, required=False)
    if cap < 0:
        raise ConfigError("config field 'degree_cap' must be >= 0")
    _bounded(max((cap + 8) ** 2, max(stack, dim) * (cap + 1) ** dim),
             f"'degree_cap' and {stack_field!r}")
    return cap


def _parse_data(cfg, grid, path="data."):
    _check_keys(cfg, {"kind", "amplitude", "exponent", "gamma", "r", "path",
                      "scale"}, path)
    kind = _require(cfg, "kind", str, path)
    scale = _finite(cfg, "scale", path, default=1.0, required=False)
    # overflow shows as a non-finite sample, rejected below by name
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "gaussian":
            amp = _finite(cfg, "amplitude", path)
            expo = _finite(cfg, "exponent", path, default=2 * math.pi,
                           required=False)
            sq = np.sum(grid.x_mesh ** 2, axis=-1)
            f = GridFunction(grid, scale * amp * np.exp(-expo * sq))
        elif kind == "plateau":
            gam = _finite(cfg, "gamma", path)
            r = _finite(cfg, "r", path, default=1.0, required=False)
            f = GridFunction(grid, scale * plateau_data(grid, gam, r).values)
        elif kind == "csv":
            base = _require(cfg, "path", str, path)
            f = load_grid_function(base)
            if f.grid != grid:
                raise ConfigError(f"data file {path}path grid mismatch")
            f = GridFunction(grid, scale * f.values, f.side)
        else:
            raise ConfigError(
                f"config field {path}kind has unknown value {kind!r}")
    if not np.all(np.isfinite(f.values)):
        raise ConfigError(f"config field {path[:-1]!r} gives non-finite "
                          "samples")
    return f


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if version != 1:
        raise ConfigError("config field 'schema_version' must be 1")
    return cfg


# -- run records -----------------------------------------------------------------


class RunRecord:
    """Collects result rows and verdicts, then persists them deterministically."""

    def __init__(self, command, config, out_dir):
        self.command = command
        self.config = config
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
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        self.csv_files.append(name)
        return path

    def write_json(self, name, payload):
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def finalize(self, gnuplot=False):
        if gnuplot:
            for name in self.csv_files:
                _emit_gnuplot(self.out_dir, name)
        record = {
            "command": self.command,
            "code_version": __version__,
            "config": self.config,
            "csv_files": sorted(self.csv_files),
            "diagnostics": self.diagnostics,
            "notes": self.notes,
            "verdicts": self.verdicts,
            "all_passed": all(v["pass"] for v in self.verdicts),
            "wall_time_s": time.monotonic() - self.t0,
        }
        self.write_json("run_record.json", record)
        return record


def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


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
    _check_keys(cfg, {"schema_version", "seed", "output_dir", "grid", "beta",
                      "times", "corpus_size", "norm", "stability_tolerance"}, "")
    grid = _parse_grid(_require(cfg, "grid", dict, ""))
    beta = _require(cfg, "beta", float, "")
    times = _require_list(cfg, "times", float, "")
    count = _require(cfg, "corpus_size", int, "")
    spec = _parse_norm(_require(cfg, "norm", dict, "", default={}, required=False) or {})
    tol = _positive(_require(cfg, "stability_tolerance", float, "",
                             default=0.05, required=False),
                    "'stability_tolerance'")
    if count < 1:
        raise ConfigError("config field 'corpus_size' must be >= 1")
    _positive(beta, "'beta'")
    if not times:
        raise ConfigError("config field 'times' must not be empty")
    for i, t in enumerate(times):
        if not (t >= 0 and math.isfinite(t)):
            raise ConfigError(f"config field 'times[{i}]' must be finite "
                              "and >= 0")
    _bounded(count * len(times) * grid.size, "'corpus_size' and 'times'")

    partition = UniformPartition(grid)
    corpus = propagation_corpus(grid, count, seed)
    hats = forward_values(grid, np.stack([f.values for f in corpus]))
    # the flow is a frequency-side multiplier: one stack of every (t, f);
    # norms of 0 or beyond the float range are named below
    with np.errstate(over="ignore", invalid="ignore"):
        base = mod_norms_from_frequency(hats, spec, partition)
        results = mod_norms_from_frequency(
            heat_symbol(grid, times, beta)[:, None] * hats, spec, partition)
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


def cmd_blowup(cfg, seed, rec):
    _check_keys(cfg, {"schema_version", "seed", "output_dir", "grid", "problem",
                      "data", "hypothesis", "solver", "detect_by",
                      "witness_terms", "norm"}, "")
    grid = _parse_grid(_require(cfg, "grid", dict, ""))
    prob_cfg = _require(cfg, "problem", dict, "")
    _check_keys(prob_cfg, {"beta", "k"}, "problem.")
    beta = _positive(_require(prob_cfg, "beta", float, "problem."),
                     "problem.'beta'")
    k = _parse_k(prob_cfg, grid)
    u0 = _parse_data(_require(cfg, "data", dict, ""), grid)
    hyp_cfg = _require(cfg, "hypothesis", dict, "")
    _check_keys(hyp_cfg, {"gamma", "r"}, "hypothesis.")
    gamma, r = (_positive(_require(hyp_cfg, key, float, "hypothesis."),
                          f"hypothesis.{key!r}") for key in ("gamma", "r"))
    hyp = BlowupHypothesis(gamma, r, beta, k, grid.dim)
    sol_cfg = _require(cfg, "solver", dict, "")
    _check_keys(sol_cfg, {"dt", "t_max", "threshold_factor", "scheme"}, "solver.")
    factor = _require(sol_cfg, "threshold_factor", float, "solver.",
                      default=1e6, required=False)
    if not (factor > 1 and math.isfinite(factor)):
        raise ConfigError("config field solver.'threshold_factor' must be "
                          "finite and > 1")
    spec = _parse_norm(_require(cfg, "norm", dict, "", default={}, required=False) or {})
    detect_by = _require(cfg, "detect_by", float, "", default=None, required=False)
    if detect_by is not None:
        _positive(detect_by, "'detect_by'")
    witness_terms = _require(cfg, "witness_terms", int, "", default=12,
                             required=False)
    if witness_terms < 1:
        raise ConfigError("config field 'witness_terms' must be >= 1")

    if spec.p > 2:
        rec.note(f"norm exponent p={spec.p} is outside the certified blow-up "
                 "range 1 <= p <= 2; trace emitted for exploration only")
    partition = UniformPartition(grid)
    # an overflowed norm is named below
    with np.errstate(over="ignore", invalid="ignore"):
        init_norm = mod_norm_decomp(u0, spec, partition)
    if not factor * init_norm > init_norm:
        raise ConfigError(f"config fields 'data' and 'norm' give initial "
                          f"norm {init_norm:g}: no blow-up threshold "
                          "exceeds it")
    try:
        cert = certify_hypothesis(hyp, u0)
        wit = divergence_witness(hyp, cert.horizon, witness_terms)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(
            "config fields problem.'beta', problem.'k', 'hypothesis' and "
            "'witness_terms' give a certificate or witness term beyond the "
            "float range"
        ) from exc
    rec.write_csv("blowup_certificate.csv",
                  ["condition", "value", "bound", "margin", "pass"],
                  [(c.name, c.value, c.bound, c.margin, int(c.passed))
                   for c in cert.conditions])
    for c in cert.conditions:
        rec.verdict(f"certificate_{c.name}", c.value, c.bound, passed=c.passed,
                    direction=">=")

    problem = HeatProblem(beta, k, u0, spec)
    try:
        config = SolverConfig(
            dt=_require(sol_cfg, "dt", float, "solver."),
            t_max=_require(sol_cfg, "t_max", float, "solver."),
            blowup_threshold=factor * init_norm,
            scheme=_require(sol_cfg, "scheme", str, "solver.", default="ETD1",
                            required=False))
    except ValueError as exc:
        raise ConfigError(f"invalid config field 'solver': {exc}") from exc
    trace = solve(problem, config, partition)
    rec.diagnostics["data"] = {"boundary_tail_ratio": boundary_tail_ratio(u0)}
    rec.diagnostics["solver"] = {"stop_reason": trace.stop_reason,
                                 "steps": len(trace.times) - 1,
                                 "steps_discarded": trace.steps_discarded}
    rec.write_csv("blowup_trace.csv",
                  ["t", "norm_Mp1", "norm_FL1", "linf", "blowup_flag"],
                  list(trace.rows()))
    horizon = detect_by if detect_by is not None else 2.0 * cert.horizon
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
    _check_keys(cfg, {"schema_version", "seed", "output_dir", "grid", "problem",
                      "data", "depth", "t_max", "t_points", "domination",
                      "norm", "converge_by", "expect"}, "")
    grid = _parse_grid(_require(cfg, "grid", dict, ""))
    prob_cfg = _require(cfg, "problem", dict, "")
    _check_keys(prob_cfg, {"beta", "k"}, "problem.")
    beta = _positive(_require(prob_cfg, "beta", float, "problem."),
                     "problem.'beta'")
    k = _parse_k(prob_cfg, grid)
    u0 = _parse_data(_require(cfg, "data", dict, ""), grid)
    depth = _require(cfg, "depth", int, "")
    t_max = _positive(_require(cfg, "t_max", float, ""), "'t_max'")
    t_points = _require(cfg, "t_points", int, "", default=33, required=False)
    if depth < 1:
        raise ConfigError("config field 'depth' must be >= 1")
    if t_points < 2:
        raise ConfigError("config field 't_points' must be >= 2")
    # picard_terms' terms and its (t_points, t_points) quadrature weights
    _bounded(max(depth * t_points * grid.size, t_points * t_points),
             "'t_points' and 'depth'")
    # the time of the series: every product is formed on the fine lattice
    fine_size = fine_grid(grid, k).size
    products = picard_product_count(depth, k, MAX_LATTICE_VALUES / fine_size)
    if products * fine_size > MAX_LATTICE_VALUES:
        raise ConfigError(f"config field 'depth' gives {products:.4g} "
                          f"products of {k} factors on a lattice of "
                          f"{fine_size} values, above the bound "
                          f"{MAX_LATTICE_VALUES}")
    spec = _parse_norm(_require(cfg, "norm", dict, "", default={}, required=False) or {})
    converge_by = _require(cfg, "converge_by", int, "", default=3, required=False)
    expect = _require(cfg, "expect", str, "", default="summable", required=False)
    if expect not in ("summable", "growing", "none"):
        raise ConfigError("config field 'expect' must be one of "
                          "'summable', 'growing', 'none'")

    dom_cfg = _require(cfg, "domination", dict, "", default=None, required=False)
    if dom_cfg is not None:
        _check_keys(dom_cfg, {"gamma", "r"}, "domination.")
        gamma, r = (_positive(_require(dom_cfg, key, float, "domination."),
                              f"domination.{key!r}") for key in ("gamma", "r"))
        hyp = BlowupHypothesis(gamma, r, beta, k, grid.dim)

    partition = UniformPartition(grid)
    problem = HeatProblem(beta, k, u0, spec)
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
    # the slices each term's sup runs over, those the engine evaluated and
    # the neighbour bounds taken to prune the others
    terms = [{"term_index": idx, "slices": t_points - (i > 0),
              "exact_evaluations": res.exact_evaluations[i],
              "difference_bounds": res.difference_bounds[i]}
             for i, idx in enumerate(res.term_indices)]
    rec.diagnostics["picard"] = {
        "slices": sum(t["slices"] for t in terms),
        "exact_evaluations": sum(res.exact_evaluations),
        "difference_bounds": sum(res.difference_bounds), "terms": terms}
    rows = [(idx, res.sup_norms[i],
             res.ratios[i - 1] if i >= 1 else float("nan"))
            for i, idx in enumerate(res.term_indices)]
    rec.write_csv("picard_norms.csv", ["term_index", "sup_norm", "ratio"], rows)
    late = [r for i, r in enumerate(res.ratios) if i + 2 >= converge_by]
    if expect == "summable":
        rec.verdict("ratio_below_one", max(late) if late else math.inf, 1.0)
    elif expect == "growing":
        rec.verdict("ratio_at_least_one", min(late) if late else 0.0, 1.0,
                    direction=">=")

    if dom_cfg is not None:
        ball = grid.freq_magnitude <= hyp.r
        dom_rows = []
        worst = math.inf
        try:
            # an envelope beyond the float range is named below; one that
            # underflows to 0 bounds nothing (ratio inf, or nan where
            # uhat = 0: that slice's minimum is nan, which fmin skips)
            with np.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                for pos, idx in enumerate(res.term_indices):
                    env = lower_bound_envelope(hyp, idx, t_grid[1:],
                                               grid)[:, ball]
                    if not np.all(np.isfinite(env)):
                        raise OverflowError("non-finite envelope")
                    mins = (res.spectra[pos][1:].real[:, ball] / env).min(
                        axis=1)
                    m = float(np.fmin.reduce(mins, initial=math.inf))
                    dom_rows.append((idx, m))
                    worst = min(worst, m)
        except OverflowError as exc:
            raise ConfigError(
                "config fields 'domination', problem.'beta' and problem.'k' "
                "give a lower envelope beyond the float range") from exc
        rec.write_csv("picard_domination.csv", ["term_index", "min_ratio"],
                      dom_rows)
        rec.verdict("domination_with_slack",
                    worst * constants.PICARD_DOMINATION_SLACK, 1.0,
                    direction=">=")


def cmd_modnorm(cfg, seed, rec):
    _check_keys(cfg, {"schema_version", "seed", "output_dir", "grid",
                      "corpus_size", "max_mode", "specs", "algebra_p"}, "")
    grid = _parse_grid(_require(cfg, "grid", dict, ""))
    count = _require(cfg, "corpus_size", int, "")
    if count < 1:
        raise ConfigError("config field 'corpus_size' must be >= 1 "
                          "(empty corpus)")
    _bounded(count * grid.size, "'corpus_size' and 'grid'")
    max_mode = _require(cfg, "max_mode", int, "", default=6, required=False)
    if not 0 <= max_mode < grid.points_per_axis // 2:
        raise ConfigError("config field 'max_mode' must be >= 0 and below "
                          "half of grid.'points_per_axis'")
    raw_specs = _require(cfg, "specs", list, "")
    if not raw_specs:
        raise ConfigError("config field 'specs' must not be empty")
    algebra_p = _require(cfg, "algebra_p", float, "", default=2.0,
                         required=False)
    if not algebra_p >= 1:
        raise ConfigError("config field 'algebra_p' must be >= 1")
    specs = []
    for i, entry in enumerate(raw_specs):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ConfigError(f"config field 'specs[{i}]' must be [p, q, s]")
        try:
            specs.append(ModNormSpec(*(_typed(v, float, f"'specs[{i}]'")
                                       for v in entry)))
        except ValueError as exc:
            raise ConfigError(f"invalid norm spec 'specs[{i}]': {exc}") from exc

    partition = UniformPartition(grid)
    plan = STFTPlan(grid)
    corpus = [band_limited(grid, max_mode, seed=seed + i) for i in range(count)]

    hats = forward_values(grid, np.stack([f.values for f in corpus]))
    decomp = np.stack([mod_norms_from_frequency(hats, spec, partition)
                       for spec in specs], axis=1).tolist()
    json_rows = []
    csv_rows = []
    cross = []
    for fi, f in enumerate(corpus):
        coarse = mod_norms_stft(f, plan, specs)
        flags = stft_resolution_ok(coarse, mod_norms_stft(f, plan, specs, 2))
        for spec, dval, sval, flag in zip(specs, decomp[fi], coarse, flags):
            for est, val in (("decomp", dval), ("stft", sval)):
                json_rows.append({"norm_id": f"f{fi}_p{spec.p}q{spec.q}s{spec.s}",
                                  "p": spec.p, "q": spec.q, "s": spec.s,
                                  "value": val, "estimator": est,
                                  "resolution_flags": [] if flag else
                                  ["stft_refinement_moved_norm"]})
                csv_rows.append((fi, spec.p, spec.q, spec.s, est, val))
            if dval > 0:
                cross.append(sval / dval)
    rec.write_csv("modnorm_values.csv",
                  ["func_id", "p", "q", "s", "estimator", "value"], csv_rows)
    rec.write_json("modnorm_report.json", json_rows)

    defects = []
    for i in range(len(corpus) - 1):
        try:
            defects.append((i, algebra_defect(corpus[i], corpus[i + 1],
                                              algebra_p, partition)))
        except ValueError:
            continue
    rec.write_csv("modnorm_algebra.csv", ["pair", "defect"], defects)

    if cross:
        c = constants.CROSS_ESTIMATOR_CONST
        rec.verdict("cross_estimator_hi", max(cross), c)
        rec.verdict("cross_estimator_lo", min(cross), 1.0 / c, direction=">=")
    if defects:
        rec.verdict("algebra_defect_finite",
                    max(d for _, d in defects), math.inf)


def cmd_hermite(cfg, seed, rec):
    _check_keys(cfg, {"schema_version", "seed", "output_dir", "grid", "dim",
                      "degree_cap", "betas", "ps", "t_profile",
                      "eigen_lattice", "coeff_levels", "slope_window",
                      "slope_tolerance"}, "")
    grid = _parse_grid(_require(cfg, "grid", dict, ""))
    dim = _require(cfg, "dim", int, "", default=1, required=False)
    if dim != grid.dim:
        raise ConfigError("config field 'dim' must equal grid.'dim'")
    betas = _require_list(cfg, "betas", float, "")
    ps = _require_list(cfg, "ps", float, "")
    if not (betas and ps and all(0 < b < math.inf for b in betas)
            and all(p >= 1 for p in ps)):
        raise ConfigError("config fields 'betas' and 'ps' must hold positive "
                          "finite values and exponents >= 1, and not be empty")
    prof = _require(cfg, "t_profile", dict, "")
    _check_keys(prof, {"lo", "hi", "points"}, "t_profile.")
    lo, hi = (_finite(prof, key, "t_profile.") for key in ("lo", "hi"))
    pts = _require(prof, "points", int, "t_profile.")
    if not 0 < lo < hi:
        raise ConfigError("config field 't_profile' needs 0 < lo < hi")
    if pts < 1:
        raise ConfigError("config field t_profile.'points' must be >= 1")
    # the data and its flow at every t of the profile, as one stack
    cap = _parse_degree_cap(cfg, dim, pts + pts // 2 + 3, "t_profile")
    levels = _require(cfg, "coeff_levels", int, "", default=11, required=False)
    if levels < 1:
        raise ConfigError("config field 'coeff_levels' must be >= 1")
    window = _require_list(cfg, "slope_window", float, "",
                           default=[3.0, 5.0], required=False)
    if len(window) != 2 or not window[0] < window[1]:
        raise ConfigError("config field 'slope_window' must be [lo, hi] "
                          "with lo < hi")
    slope_tol = _positive(_require(cfg, "slope_tolerance", float, "",
                                   default=0.02, required=False),
                          "'slope_tolerance'")

    basis = HermiteBasis(dim, cap)
    rng = np.random.default_rng(seed)
    tensor = np.zeros(basis.coeff_shape, dtype=complex)
    mask = basis.level_mesh < levels
    tensor[mask] = rng.standard_normal(int(mask.sum()))
    coeffs = HermiteCoeffs(basis, tensor)
    partition = UniformPartition(grid)

    brk = 2.5  # t spacing: geometric below, to resolve t -> 0; linear above
    if lo >= brk:
        t_grid = np.linspace(lo, hi, pts)
    else:
        t_grid = np.geomspace(lo, min(hi, brk), pts)
        if hi > max(window[0], brk):
            lin = np.linspace(max(window[0], brk), hi, pts // 2 + 2)
            # both parts hold the break when the window starts at or below it
            t_grid = np.concatenate([t_grid, lin[lin > t_grid[-1]]])

    rows = []
    sup_ratio = 0.0
    slope_err = 0.0
    for beta in betas:
        try:
            profiles = decay_profile(coeffs, beta, ps, t_grid, grid,
                                     partition)
        except OverflowError as exc:
            raise ConfigError("config fields 'betas' and 't_profile' give a "
                              "decay profile beyond the float range") from exc
        for p, prof_rows in zip(ps, profiles):
            for t, val, ratio in prof_rows:
                rows.append((dim, beta, p, t, val, ratio))
            sup_ratio = max(sup_ratio, max(r for _, _, r in prof_rows))
            in_window = [(t, v) for t, v, _ in prof_rows
                         if window[0] <= t <= window[1]]
            if len(in_window) >= 2:
                ts, ns = np.array(in_window).T
                slope = np.polyfit(ts, np.log(ns), 1)[0]
                target = -float(dim) ** beta
                slope_err = max(slope_err, abs(slope - target) / abs(target))
    rec.write_csv("hermite_decay.csv",
                  ["d", "beta", "p", "t", "value", "ratio"], rows)
    rec.verdict("decay_profile_const", sup_ratio, constants.DECAY_PROFILE_CONST)
    rec.verdict("decay_log_slope_err", slope_err, slope_tol)

    lat = _require(cfg, "eigen_lattice", dict, "", default=None, required=False)
    if lat is not None:
        path = "eigen_lattice."
        _check_keys(lat, {"ds", "betas", "ts"}, path)
        ds = _require_list(lat, "ds", int, path)
        if any(d < 1 for d in ds):
            raise ConfigError("config field eigen_lattice.'ds' must hold "
                              "dimensions >= 1")
        lat_betas, lat_ts = (
            [_positive(v, f"{path}{key!r}[{i}]")
             for i, v in enumerate(_require_list(lat, key, float, path))]
            for key in ("betas", "ts"))
        erows = []
        try:
            # a term or bound beyond the float range is named below
            with np.errstate(over="ignore"):
                for d, beta, t in product(ds, lat_betas, lat_ts):
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
    _check_keys(cfg, {"schema_version", "seed", "output_dir", "grid", "dim",
                      "beta", "t", "ps", "modes_per_axis", "family_size",
                      "degree_cap", "trials"}, "")
    grid = _parse_grid(_require(cfg, "grid", dict, ""))
    dim = _require(cfg, "dim", int, "", default=1, required=False)
    if dim != grid.dim:
        raise ConfigError("config field 'dim' must equal grid.'dim'")
    beta = _positive(_require(cfg, "beta", float, ""), "'beta'")
    t = _positive(_require(cfg, "t", float, ""), "'t'")
    ps = _require_list(cfg, "ps", float, "")
    if not (ps and all(1 <= p < math.inf for p in ps)):
        raise ConfigError("config field 'ps' must hold exponents "
                          "1 <= p < inf and not be empty")
    modes = _require(cfg, "modes_per_axis", int, "", default=64, required=False)
    if modes < 4 or modes % 2:
        raise ConfigError("config field 'modes_per_axis' must be even and "
                          ">= 4")
    _bounded(dim * modes ** dim, "'modes_per_axis'")  # TorusGrid.mode_mesh
    fam_size = _require(cfg, "family_size", int, "", default=8, required=False)
    if fam_size < 1:
        raise ConfigError("config field 'family_size' must be >= 1")
    # the family and its flow, as one stack
    cap = _parse_degree_cap(cfg, dim, 2 * fam_size, "family_size")
    trials = _require(cfg, "trials", int, "", default=20, required=False)
    if trials < 1:
        raise ConfigError("config field 'trials' must be >= 1")

    tg = TorusGrid(dim, modes)
    basis = HermiteBasis(dim, cap)
    partition = UniformPartition(grid)
    family = hermite_coeff_family(basis, fam_size, seed=seed, max_level=10)
    try:
        with np.errstate(over="ignore"):
            report = transference_check(t, beta, ps, family, grid, partition,
                                        tg, slack=constants.TRANSFER_SLACK)
    except OverflowError as exc:
        raise ConfigError("config fields 'beta' and 't' give a symbol beyond "
                          "the float range") from exc
    except ValueError as exc:
        raise ConfigError("config fields 't', 'beta' and 'modes_per_axis': "
                          f"{exc}") from exc
    sym = report.symbol
    if sym.sup() == 0.0:
        raise ConfigError("config fields 'beta' and 't' give a symbol that "
                          "underflows to 0")
    lowers = operator_norm_lower(sym, ps, trials, tg, seed=seed)
    brows = [(dim, beta, t, p, lower, report.young_upper,
              report.parseval_upper, int(lower <= report.young_upper + 1e-8))
             for p, lower in zip(ps, lowers)]
    rrows = [(p, row.label, row.ratio, row.bound, int(row.passed))
             for p, p_rows in zip(ps, report.rows) for row in p_rows]
    rec.write_csv("transfer_bounds.csv",
                  ["d", "beta", "t", "p", "lower", "young_upper",
                   "parseval_upper", "pass"], brows)
    rec.write_csv("transfer_ratios.csv",
                  ["p", "label", "ratio", "bound", "pass"], rrows)
    ok_sandwich = all(row[-1] for row in brows)
    rec.verdict("sandwich", float(ok_sandwich), 1.0, passed=ok_sandwich,
                direction=">=")
    if 2.0 in ps:
        p2_err = abs(lowers[ps.index(2.0)] - sym.sup()) / sym.sup()
        rec.verdict("p2_parseval_match", p2_err, 0.01)
    rec.verdict("transference_bound", float(report.all_passed), 1.0,
                passed=report.all_passed, direction=">=")


_COMMANDS = {
    "propagate": cmd_propagate,
    "blowup": cmd_blowup,
    "picard": cmd_picard,
    "modnorm": cmd_modnorm,
    "hermite": cmd_hermite,
    "transfer": cmd_transfer,
}


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
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError("config field 'seed' must be an integer")
        out_dir = args.out or cfg.get("output_dir") or "."
        os.makedirs(out_dir, exist_ok=True)
        rec = RunRecord(args.command, cfg, out_dir)
        _COMMANDS[args.command](cfg, seed, rec)
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
