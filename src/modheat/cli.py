"""Experiment runner: configure, run, persist, and summarize the checks.

Usage:

    modheat <subcommand> --config cfg.json [--out DIR] [--seed N] [--gnuplot]

Subcommands: propagate, blowup, picard, modnorm, hermite, transfer.

Configs are versioned JSON; unknown keys are rejected by name.  Results are
written as CSV tables plus a run_record.json that echoes the config, the
code version, and one (value, bound, margin, pass) row per asserted
inequality.  With a fixed config and seed the CSV outputs are byte
identical across reruns.  Exit codes: 0 all verdicts pass, 1 some verdict
failed, 2 configuration error.  MODHEAT_THREADS caps the worker pool used
for parameter sweeps (results are ordered by parameter index regardless).
"""

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, constants
from .corpus import band_limited, hermite_coeff_family, propagation_corpus
from .heat import (BlowupHypothesis, HeatProblem, SolverConfig, certify_hypothesis,
                   divergence_witness, lower_bound_envelope, picard_terms,
                   plateau_data, solve)
from .hermite import (HermiteBasis, HermiteCoeffs, decay_profile, eigen_sum,
                      eigen_sum_bound)
from .modnorm import (ModNormSpec, STFTPlan, UniformPartition, algebra_defect,
                      mod_norm_decomp, mod_norms_from_frequency,
                      mod_norms_stft, stft_resolution_ok)
from .spectral import (GridFunction, SpectralGrid, forward_values,
                       heat_symbol, load_grid_function)
from .torus import TorusGrid, operator_norm_lower, oscillator_heat_symbol, \
    transference_check


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


def _parse_grid(cfg, path="grid."):
    _check_keys(cfg, {"dim", "points_per_axis", "half_width"}, path)
    dim = _require(cfg, "dim", int, path)
    n = _require(cfg, "points_per_axis", int, path)
    half = _require(cfg, "half_width", float, path)
    try:
        return SpectralGrid(dim, n, half)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


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


def _pool_map(fn, items):
    workers = int(os.environ.get("MODHEAT_THREADS", "1"))
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# -- subcommands -----------------------------------------------------------------


def cmd_propagate(cfg, seed, rec):
    _check_keys(cfg, {"schema_version", "seed", "output_dir", "grid", "beta",
                      "times", "corpus_size", "norm", "stability_tolerance"}, "")
    grid = _parse_grid(_require(cfg, "grid", dict, ""))
    beta = _require(cfg, "beta", float, "")
    times = _require_list(cfg, "times", float, "")
    count = _require(cfg, "corpus_size", int, "")
    spec = _parse_norm(_require(cfg, "norm", dict, "", default={}, required=False) or {})
    tol = _require(cfg, "stability_tolerance", float, "", default=0.05,
                   required=False)
    if count < 1:
        raise ConfigError("config field 'corpus_size' must be >= 1")
    _positive(beta, "'beta'")
    if not times:
        raise ConfigError("config field 'times' must not be empty")
    for i, t in enumerate(times):
        if not (t >= 0 and math.isfinite(t)):
            raise ConfigError(f"config field 'times[{i}]' must be finite "
                              "and >= 0")

    partition = UniformPartition(grid)
    corpus = propagation_corpus(grid, count, seed)
    hats = forward_values(grid, np.stack([f.values for f in corpus]))
    base = mod_norms_from_frequency(hats, spec, partition).tolist()
    # the flow is a frequency-side multiplier: one stack of every (t, f)
    flows = np.stack([heat_symbol(grid, t, beta) for t in times])[:, None]
    results = mod_norms_from_frequency(flows * hats, spec,
                                       partition).tolist()
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
    k = _require(prob_cfg, "k", int, "problem.")
    if k < 2:
        raise ConfigError("config field problem.'k' must be >= 2")
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
    beta = _require(prob_cfg, "beta", float, "problem.")
    k = _require(prob_cfg, "k", int, "problem.")
    u0 = _parse_data(_require(cfg, "data", dict, ""), grid)
    depth = _require(cfg, "depth", int, "")
    t_max = _require(cfg, "t_max", float, "")
    t_points = _require(cfg, "t_points", int, "", default=33, required=False)
    if depth < 1:
        raise ConfigError("config field 'depth' must be >= 1")
    if t_points < 2:
        raise ConfigError("config field 't_points' must be >= 2")
    spec = _parse_norm(_require(cfg, "norm", dict, "", default={}, required=False) or {})
    converge_by = _require(cfg, "converge_by", int, "", default=3, required=False)
    expect = _require(cfg, "expect", str, "", default="summable", required=False)
    if expect not in ("summable", "growing", "none"):
        raise ConfigError("config field 'expect' must be one of "
                          "'summable', 'growing', 'none'")

    partition = UniformPartition(grid)
    problem = HeatProblem(beta, k, u0, spec)
    t_grid = np.linspace(0.0, t_max, t_points)
    res = picard_terms(problem, depth, t_grid, partition)
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

    dom_cfg = _require(cfg, "domination", dict, "", default=None, required=False)
    if dom_cfg is not None:
        _check_keys(dom_cfg, {"gamma", "r"}, "domination.")
        hyp = BlowupHypothesis(_require(dom_cfg, "gamma", float, "domination."),
                               _require(dom_cfg, "r", float, "domination."),
                               beta, k, grid.dim)
        ball = grid.freq_magnitude <= hyp.r
        dom_rows = []
        worst = math.inf
        for pos, idx in enumerate(res.term_indices):
            m = math.inf
            for ti in range(1, len(t_grid)):
                uhat = res.spectra[pos][ti]
                env = lower_bound_envelope(hyp, idx, t_grid[ti], grid)
                m = min(m, float((uhat.real[ball] / env[ball]).min()))
            dom_rows.append((idx, m))
            worst = min(worst, m)
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
    max_mode = _require(cfg, "max_mode", int, "", default=6, required=False)
    raw_specs = _require(cfg, "specs", list, "")
    algebra_p = _require(cfg, "algebra_p", float, "", default=2.0,
                         required=False)
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
    cap = _require(cfg, "degree_cap", int, "", default=16, required=False)
    betas = _require_list(cfg, "betas", float, "")
    ps = _require_list(cfg, "ps", float, "")
    prof = _require(cfg, "t_profile", dict, "")
    _check_keys(prof, {"lo", "hi", "points"}, "t_profile.")
    levels = _require(cfg, "coeff_levels", int, "", default=11, required=False)
    window = _require_list(cfg, "slope_window", float, "",
                           default=[3.0, 5.0], required=False)
    if len(window) != 2 or not window[0] < window[1]:
        raise ConfigError("config field 'slope_window' must be [lo, hi] "
                          "with lo < hi")
    slope_tol = _require(cfg, "slope_tolerance", float, "", default=0.02,
                         required=False)

    basis = HermiteBasis(dim, cap)
    rng = np.random.default_rng(seed)
    tensor = np.zeros(basis.coeff_shape, dtype=complex)
    mask = basis.level_mesh < levels
    tensor[mask] = rng.standard_normal(int(mask.sum()))
    coeffs = HermiteCoeffs(basis, tensor)
    partition = UniformPartition(grid)

    lo, hi = _require(prof, "lo", float, "t_profile."), _require(
        prof, "hi", float, "t_profile.")
    pts = _require(prof, "points", int, "t_profile.")
    if not 0 < lo < hi:
        raise ConfigError("config field 't_profile' needs 0 < lo < hi")
    if pts < 1:
        raise ConfigError("config field 't_profile.points' must be >= 1")
    brk = 2.5  # t spacing: geometric below, to resolve t -> 0; linear above
    if lo >= brk:
        t_grid = np.linspace(lo, hi, pts)
    else:
        t_grid = np.geomspace(lo, min(hi, brk), pts)
        if hi > max(window[0], brk):
            lin = np.linspace(max(window[0], brk), hi, pts // 2 + 2)
            # both parts hold the break when the window starts at or below it
            t_grid = np.concatenate([t_grid, lin[lin > t_grid[-1]]])

    def profile(args):
        beta, p = args
        return decay_profile(coeffs, beta, p, t_grid, grid, partition)

    combos = [(b, p) for b in betas for p in ps]
    profiles = _pool_map(profile, combos)
    rows = []
    sup_ratio = 0.0
    slope_err = 0.0
    for (beta, p), prof_rows in zip(combos, profiles):
        for t, val, ratio in prof_rows:
            rows.append((dim, beta, p, t, val, ratio))
        sup_ratio = max(sup_ratio, max(r for _, _, r in prof_rows))
        ts = np.array([t for t, _, _ in prof_rows if window[0] <= t <= window[1]])
        ns = np.array([v for t, v, _ in prof_rows if window[0] <= t <= window[1]])
        if len(ts) >= 2:
            slope = np.polyfit(ts, np.log(ns), 1)[0]
            target = -float(dim) ** beta
            slope_err = max(slope_err, abs(slope - target) / abs(target))
    rec.write_csv("hermite_decay.csv",
                  ["d", "beta", "p", "t", "value", "ratio"], rows)
    rec.verdict("decay_profile_const", sup_ratio, constants.DECAY_PROFILE_CONST)
    rec.verdict("decay_log_slope_err", slope_err, slope_tol)

    lat = _require(cfg, "eigen_lattice", dict, "", default=None, required=False)
    if lat is not None:
        _check_keys(lat, {"ds", "betas", "ts"}, "eigen_lattice.")
        ds = _require_list(lat, "ds", int, "eigen_lattice.")
        if any(d < 1 for d in ds):
            raise ConfigError("config field 'eigen_lattice.ds' must hold "
                              "dimensions >= 1")
        lat_betas = _require_list(lat, "betas", float, "eigen_lattice.")
        lat_ts = _require_list(lat, "ts", float, "eigen_lattice.")
        erows = []
        all_ok = True
        for d in ds:
            for beta in lat_betas:
                for t in lat_ts:
                    s = eigen_sum(d, beta, t)
                    b = eigen_sum_bound(d, beta, t)
                    ok = s <= b
                    all_ok = all_ok and ok
                    erows.append((d, beta, t, s, b, int(ok)))
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
    beta = _require(cfg, "beta", float, "")
    t = _require(cfg, "t", float, "")
    ps = _require_list(cfg, "ps", float, "")
    modes = _require(cfg, "modes_per_axis", int, "", default=64, required=False)
    fam_size = _require(cfg, "family_size", int, "", default=8, required=False)
    if fam_size < 1:
        raise ConfigError("config field 'family_size' must be >= 1")
    cap = _require(cfg, "degree_cap", int, "", default=16, required=False)
    trials = _require(cfg, "trials", int, "", default=20, required=False)

    tg = TorusGrid(dim, modes)
    basis = HermiteBasis(dim, cap)
    partition = UniformPartition(grid)
    family = hermite_coeff_family(basis, fam_size, seed=seed, max_level=10)
    sym = oscillator_heat_symbol(tg, t, beta)

    def bounds_for(p):
        lower = operator_norm_lower(sym, p, trials, tg, seed=seed)
        report = transference_check(t, beta, p, family, grid, partition, tg,
                                    slack=constants.TRANSFER_SLACK)
        return lower, report

    results = _pool_map(bounds_for, ps)
    brows = []
    rrows = []
    ok_sandwich = True
    ok_transfer = True
    p2_err = 0.0
    for p, (lower, report) in zip(ps, results):
        ok = lower <= report.young_upper + 1e-8
        ok_sandwich = ok_sandwich and ok
        brows.append((dim, beta, t, p, lower, report.young_upper,
                      report.parseval_upper, int(ok)))
        if p == 2.0:
            p2_err = abs(lower - sym.sup()) / sym.sup()
        for row in report.rows:
            rrows.append((p, row.label, row.ratio, row.bound, int(row.passed)))
            ok_transfer = ok_transfer and row.passed
    rec.write_csv("transfer_bounds.csv",
                  ["d", "beta", "t", "p", "lower", "young_upper",
                   "parseval_upper", "pass"], brows)
    rec.write_csv("transfer_ratios.csv",
                  ["p", "label", "ratio", "bound", "pass"], rrows)
    rec.verdict("sandwich", float(ok_sandwich), 1.0, passed=ok_sandwich,
                direction=">=")
    if 2.0 in ps:
        rec.verdict("p2_parseval_match", p2_err, 0.01)
    rec.verdict("transference_bound", float(ok_transfer), 1.0,
                passed=ok_transfer, direction=">=")


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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # invalid parameterization surfaced by the numerics (bad grids,
        # truncation remainders, zero-norm data)
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
