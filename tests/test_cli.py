import copy
import csv
import json
import math
import warnings

import numpy as np
import pytest

from modheat import cli, heat
from modheat.cli import main
from modheat.corpus import band_limited, propagation_corpus
from modheat.modnorm import (ModNormSpec, STFTPlan, UniformPartition,
                             mod_norms_stft)
from modheat.spectral import SpectralGrid, forward_values
from test_heat import linear_flow
from test_modnorm import mod_norm_decomp
from test_spectral import save_grid_function

GRID = {"dim": 1, "points_per_axis": 256, "half_width": 16.0}
SMALL_GRID = {"dim": 1, "points_per_axis": 128, "half_width": 12.0}


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return str(path)


def run(tmp_path, command, payload, *extra):
    cfg = write_config(tmp_path / f"{command}.json", payload)
    out = tmp_path / f"out_{command}"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


def blowup_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "grid": GRID,
        "problem": {"beta": 2.0, "k": 2},
        "data": {"kind": "gaussian", "amplitude": 41.0},
        "hypothesis": {"gamma": 11.0, "r": 1.0},
        "solver": {"dt": 2e-4, "t_max": 0.5},
        "witness_terms": 12,
    }
    cfg.update(overrides)
    return cfg


def with_field(cfg, path, value):
    """A copy of cfg with the dotted config field path set to value."""
    cfg = copy.deepcopy(cfg)
    *sections, key = path.split(".")
    obj = cfg
    for name in sections:
        obj = obj.setdefault(name, {})
    obj[key] = value
    return cfg


class TestBlowupCommand:
    def test_remark_gaussian_run(self, tmp_path):
        code, out = run(tmp_path, "blowup", blowup_config())
        assert code == 0
        record = json.load(open(out / "run_record.json"))
        assert record["all_passed"]
        names = {v["name"]: v for v in record["verdicts"]}
        assert names["blowup_detected"]["pass"]
        assert names["detection_time"]["value"] < 0.5
        assert (out / "blowup_trace.csv").exists()
        assert (out / "blowup_witness.csv").exists()

    def test_plateau_data_run(self, tmp_path):
        # spectral plateau data representing the sin(x)/x example, with the
        # amplitude frozen so the certificate passes under this transform
        # normalization (the marginal level times a small safety factor)
        gamma = 4 * math.e * (1 + 1e-6)
        cfg = blowup_config(
            data={"kind": "plateau", "gamma": gamma, "r": 1.0},
            hypothesis={"gamma": gamma, "r": 1.0},
            solver={"dt": 2e-4, "t_max": 0.5},
        )
        code, out = run(tmp_path, "blowup", cfg)
        assert code == 0
        record = json.load(open(out / "run_record.json"))
        names = {v["name"]: v for v in record["verdicts"]}
        assert all(v["pass"] for n, v in names.items()
                   if n.startswith("certificate"))
        assert names["blowup_detected"]["pass"]
        assert names["witness_ratio"]["value"] >= 1.0

    def test_run_record_reports_solver_stop(self, tmp_path):
        code, out = run(tmp_path, "blowup", blowup_config())
        assert code == 0
        record = json.load(open(out / "run_record.json"))
        rows = (out / "blowup_trace.csv").read_text().splitlines()
        solver = record["diagnostics"]["solver"]
        assert solver["stop_reason"] == "threshold"
        assert solver["steps"] == len(rows) - 2  # header and t = 0
        chunk = heat.SOLVE_BATCH_VALUES // GRID["points_per_axis"]
        assert 0 <= solver["steps_discarded"] < chunk
        # data too small to blow up runs to t_max: exit 1, nothing discarded
        code, out = run(tmp_path, "blowup", blowup_config(
            data={"kind": "gaussian", "amplitude": 0.1},
            solver={"dt": 0.01, "t_max": 0.5}))
        assert code == 1
        solver = json.load(open(out / "run_record.json"))["diagnostics"][
            "solver"]
        shares = {name: solver.pop(name)
                  for name in ("nyquist_share", "imaginary_share")}
        assert solver == {"stop_reason": "t_max", "steps": 50,
                          "steps_discarded": 0}
        assert all(0.0 <= v <= 1.0 for v in shares.values())

    def test_run_record_reports_final_state_resolution(self, tmp_path):
        # at detection the -N/2 slot carries a large share of the state's
        # transform, and its unpaired mode makes the real flow complex
        code, out = run(tmp_path, "blowup", blowup_config())
        assert code == 0
        solver = json.load(open(out / "run_record.json"))["diagnostics"][
            "solver"]
        assert 0.1 < solver["nyquist_share"] < 1.0
        assert 1e-4 < solver["imaginary_share"] < 0.1

    def test_resolution_shares_oracle(self):
        g = SpectralGrid(1, 64, 8.0)
        gauss = np.exp(-g.x_axis ** 2)
        wave = np.exp(-1j * g.max_freq_component * g.x_axis)  # mode -N/2
        f = gauss + 0.5 * wave
        shares = cli._resolution_shares(g, f)
        hat = np.abs(forward_values(g, f))
        assert shares["nyquist_share"] == hat[32] / hat.max()
        assert shares["imaginary_share"] == \
            np.abs(f.imag).max() / np.abs(f).max()
        assert cli._resolution_shares(g, gauss)["imaginary_share"] == 0.0
        assert cli._resolution_shares(g, 0.0 * gauss) == {
            "nyquist_share": 0.0, "imaginary_share": 0.0}

    @pytest.mark.parametrize("kind,tail", [("gaussian", 0.0),
                                           ("plateau", 0.0909)])
    def test_run_record_reports_data_tail(self, tmp_path, kind, tail):
        # the plateau's sin(r x)/x tail is still alive at the box edge
        gamma = 4 * math.e * (1 + 1e-6)
        data = {"gaussian": {"kind": "gaussian", "amplitude": 41.0},
                "plateau": {"kind": "plateau", "gamma": gamma, "r": 1.0}}
        code, out = run(tmp_path, "blowup", blowup_config(
            data=data[kind], solver={"dt": 2e-4, "t_max": 0.002}))
        assert code == 1  # too short a run to detect the blow-up
        record = json.load(open(out / "run_record.json"))
        assert record["diagnostics"]["data"]["boundary_tail_ratio"] == \
            pytest.approx(tail, abs=1e-4)

    @pytest.mark.parametrize("runs", [1, 2])
    def test_blowup_emits_no_runtime_warning(self, tmp_path, runs):
        # A second run in the same process starts from warm caches.
        gamma = 4 * math.e * (1 + 1e-6)
        cfg = blowup_config(data={"kind": "plateau", "gamma": gamma, "r": 1.0},
                            hypothesis={"gamma": gamma, "r": 1.0})
        for i in range(runs):
            run_dir = tmp_path / str(i)
            run_dir.mkdir()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _ = run(run_dir, "blowup", cfg)
            assert code == 0

    def test_failed_certificate_gives_exit_one(self, tmp_path):
        cfg = blowup_config(hypothesis={"gamma": 10.0, "r": 1.0})
        code, out = run(tmp_path, "blowup", cfg)
        assert code == 1
        record = json.load(open(out / "run_record.json"))
        assert not record["all_passed"]

    def test_large_p_trace_labeled_out_of_scope(self, tmp_path):
        cfg = blowup_config(norm={"p": 4.0, "q": 1.0, "s": 0.0})
        code, out = run(tmp_path, "blowup", cfg)
        assert code == 0
        record = json.load(open(out / "run_record.json"))
        assert any("outside the certified blow-up range" in n
                   for n in record["notes"])


class TestModnormCommand:
    def test_values_match_per_function_estimators(self, tmp_path):
        cfg = modnorm_config()
        code, out = run(tmp_path, "modnorm", cfg)
        assert code == 0
        grid = SpectralGrid(1, 256, 16.0)
        part = UniformPartition(grid)
        plan = STFTPlan(grid)
        want = {}
        flags = {}
        for i in range(cfg["corpus_size"]):
            f = band_limited(grid, cfg["max_mode"], seed=cfg["seed"] + i)
            for p, q, s in cfg["specs"]:
                spec = ModNormSpec(float(p), float(q), float(s))
                coarse = mod_norms_stft(f, plan, [spec])[0]
                fine = mod_norms_stft(f, plan, [spec], refine=2)[0]
                want[i, spec, "decomp"] = mod_norm_decomp(f, spec, part)
                want[i, spec, "stft"] = coarse
                flags[f"f{i}_p{spec.p}q{spec.q}s{spec.s}"] = \
                    abs(coarse - fine) / fine < 0.01
        lines = (out / "modnorm_values.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(want)
        for line in lines[1:]:
            fi, p, q, s, est, val = line.split(",")
            ref = want[int(fi), ModNormSpec(float(p), float(q), float(s)),
                       est]
            if est == "stft":
                assert float(val) == ref
            else:
                assert float(val) == pytest.approx(ref, rel=1e-13, abs=0)
        for row in json.load(open(out / "modnorm_report.json")):
            assert (row["resolution_flags"] == []) == flags[row["norm_id"]]

    def config(self):
        return {
            "schema_version": 1,
            "seed": 7,
            "grid": GRID,
            "corpus_size": 3,
            "max_mode": 6,
            "specs": [[2, 1, 0], [2, 2, 0]],
        }

    def test_runs_and_reports(self, tmp_path):
        code, out = run(tmp_path, "modnorm", self.config())
        assert code == 0
        rows = json.load(open(out / "modnorm_report.json"))
        assert all({"norm_id", "p", "q", "s", "value", "estimator",
                    "resolution_flags"} <= set(r) for r in rows)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = self.config()
        _, out1 = run(tmp_path, "modnorm", cfg)
        cfg_path = write_config(tmp_path / "again.json", cfg)
        out2 = tmp_path / "out_again"
        assert main(["modnorm", "--config", cfg_path, "--out", str(out2)]) == 0
        for name in ("modnorm_values.csv", "modnorm_algebra.csv"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b

    def test_empty_corpus_is_config_error(self, tmp_path):
        cfg = self.config()
        cfg["corpus_size"] = 0
        code, _ = run(tmp_path, "modnorm", cfg)
        assert code == 2

    @pytest.mark.parametrize("count", [5, 6])
    def test_corpus_bounded_on_the_refined_box(self, tmp_path, capsys,
                                               monkeypatch, count):
        # 32 points, refined to 64 for the STFT's second pass: 5 functions
        # hold 320 values there; the grid's own check needs 297
        monkeypatch.setattr(cli, "MAX_LATTICE_VALUES", 320)
        cfg = dict(self.config(), corpus_size=count, max_mode=3,
                   grid={"dim": 1, "points_per_axis": 32, "half_width": 16.0})
        code, _ = run(tmp_path, "modnorm", cfg)
        err = capsys.readouterr().err
        if count == 5:
            assert code == 0, err
        else:
            assert code == 2
            assert "'corpus_size'" in err and "above the bound 320" in err

    def test_gnuplot_companions(self, tmp_path):
        code, out = run(tmp_path, "modnorm", self.config(), "--gnuplot")
        assert code == 0
        assert (out / "modnorm_values.gp").exists()


def picard_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "grid": GRID,
        "problem": {"beta": 2.0, "k": 2},
        "data": {"kind": "gaussian", "amplitude": 0.01, "exponent": 0.5},
        "depth": 5,
        "t_max": 0.5,
        "t_points": 17,
    }
    cfg.update(overrides)
    return cfg


def dominated_picard_config():
    gamma = 4 * math.e * (1 + 1e-6)
    return picard_config(data={"kind": "plateau", "gamma": gamma, "r": 1.0},
                         depth=6, t_max=0.25, t_points=33,
                         domination={"gamma": gamma, "r": 1.0},
                         expect="growing")


class TestPicardCommand:
    def test_small_data_summability(self, tmp_path):
        code, out = run(tmp_path, "picard", picard_config())
        assert code == 0
        lines = (out / "picard_norms.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 terms

    def test_run_record_counts_exact_evaluations(self, tmp_path):
        # at p = 1 the Parseval bounds spare slices of every term, the
        # linear term (index 1) included
        cfg = picard_config(norm={"p": 1.0, "q": 1.0, "s": 0.0})
        code, out = run(tmp_path, "picard", cfg)
        assert code == 0
        record = json.loads((out / "run_record.json").read_text())
        diag = record["diagnostics"]["picard"]
        terms = diag["terms"]
        assert [t["term_index"] for t in terms] == [1, 2, 3, 4, 5]
        assert [t["slices"] for t in terms] == [17, 16, 16, 16, 16]
        assert all(1 <= t["exact_evaluations"] <= t["slices"] for t in terms)
        assert terms[0]["exact_evaluations"] < terms[0]["slices"]
        assert diag["slices"] == 81
        assert diag["exact_evaluations"] == sum(
            t["exact_evaluations"] for t in terms) < 81

    # the benchmark's three `series` configs, at p = 1, with the pruning
    # they take: per term (slices, exact evaluations), and the engine calls
    # of the lockstep rounds
    SERIES_PRUNING = {
        "picard_domination": (
            dominated_picard_config(),
            [(33, 10)] + [(32, 2)] * 5, 5),
        "picard_small": (
            picard_config(),
            [(17, 4)] + [(16, 2)] * 4, 2),
        "picard_k3": (
            picard_config(problem={"beta": 2.0, "k": 3}, depth=6,
                          t_points=33),
            [(33, 6), (32, 4)] + [(32, 2)] * 4, 3),
    }

    @pytest.mark.parametrize("name", sorted(SERIES_PRUNING))
    def test_series_pruning_is_pinned(self, tmp_path, name):
        # 50 of the 467 slices evaluated: a change to one pruning decision
        # moves these counts
        cfg, terms, engine_calls = self.SERIES_PRUNING[name]
        code, out = run(tmp_path, "picard",
                        dict(cfg, norm={"p": 1.0, "q": 1.0, "s": 0.0}))
        assert code == 0
        record = json.loads((out / "run_record.json").read_text())
        diag = record["diagnostics"]["picard"]
        assert [(t["slices"], t["exact_evaluations"])
                for t in diag["terms"]] == terms
        assert diag["engine_calls"] == engine_calls

    def test_certified_data_grows_and_dominates(self, tmp_path):
        code, out = run(tmp_path, "picard", dominated_picard_config())
        assert code == 0
        assert (out / "picard_domination.csv").exists()

    @pytest.mark.parametrize("overrides", [
        {"depth": 4, "converge_by": 50},
        {"depth": 4, "converge_by": 50, "expect": "growing"},
        {"depth": 1}])
    def test_verdict_without_a_ratio_is_config_error(self, tmp_path, capsys,
                                                     overrides):
        # no ratio of terms from converge_by on: no verdict to judge
        code, out = run(tmp_path, "picard", picard_config(**overrides))
        err = capsys.readouterr().err
        assert code == 2
        assert "'depth'" in err and "'converge_by'" in err
        assert not (out / "picard_norms.csv").exists()

    @pytest.mark.parametrize("p,zero", [(1.0, 3), (2.0, 3)])
    def test_underflowed_term_is_config_error(self, tmp_path, capsys, p,
                                              zero):
        # at t_max 1e-300 terms 3-5 underflow to 0 at every p (the norms
        # take each term at a power-of-two scale, so at p = 2 term 2, about
        # 1e-304, no longer reads 0): their ratios, 0 / 0, read 0 and inf,
        # and once gave a FAIL verdict of inf
        cfg = picard_config(t_max=1e-300, norm={"p": p, "q": 1.0, "s": 0.0})
        code, out = run(tmp_path, "picard", cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert "'t_max', 'data' and 'depth'" in err
        assert f"norm of 0 for term {zero}," in err
        assert "ratio is undefined" in err
        assert not (out / "picard_norms.csv").exists()

    @pytest.mark.parametrize("t_max,t_points", [(1e-320, 17), (1e-308, 17),
                                                (1e-307, 1000)])
    def test_subnormal_spacing_is_config_error(self, tmp_path, capsys, t_max,
                                               t_points):
        # t_max / (t_points - 1) is subnormal; the uniformity check it then
        # fails once blamed terms beyond the float range
        code, _ = run(tmp_path, "picard",
                      picard_config(t_max=t_max, t_points=t_points))
        err = capsys.readouterr().err
        assert code == 2
        assert "'t_max' and 't_points'" in err and "time spacing" in err
        assert "float range" not in err


def hermite_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 11,
        "grid": {"dim": 1, "points_per_axis": 192, "half_width": 12.0},
        "betas": [1.0, 2.0],
        "ps": [2.0],
        "t_profile": {"lo": 0.05, "hi": 5.0, "points": 10},
        "eigen_lattice": {"ds": [1, 2], "betas": [1.0], "ts": [0.5, 1.0]},
    }
    cfg.update(overrides)
    return cfg


def modnorm_config():
    return {
        "schema_version": 1,
        "seed": 7,
        "grid": GRID,
        "corpus_size": 3,
        "max_mode": 6,
        "specs": [[2, 1, 0], [1, 2, 1.5], [2, 2, 0], [4, 1, 0]],
    }


def transfer_config():
    return {
        "schema_version": 1,
        "seed": 42,
        "grid": {"dim": 1, "points_per_axis": 192, "half_width": 12.0},
        "beta": 1.0,
        "t": 1.0,
        "ps": [2.0, 4.0],
        "modes_per_axis": 64,
        "family_size": 4,
        "degree_cap": 16,
        "trials": 5,
    }


class TestHermiteCommand:
    def test_decay_and_eigen_table(self, tmp_path):
        code, out = run(tmp_path, "hermite", hermite_config())
        assert code == 0
        eigen = (out / "hermite_eigen.csv").read_text().strip().splitlines()
        assert eigen[0] == "d,beta,t,value,bound,pass"
        assert all(line.endswith(",1") for line in eigen[1:])

    @pytest.mark.parametrize("profile,window", [
        ({"lo": 3.0, "hi": 5.0, "points": 6}, [3.0, 5.0]),
        ({"lo": 2.5, "hi": 5.0, "points": 6}, [3.0, 5.0]),
        ({"lo": 0.05, "hi": 5.0, "points": 10}, [2.0, 5.0]),
        ({"lo": 0.05, "hi": 2.0, "points": 5}, [0.5, 2.0])])
    def test_t_grid_increasing_inside_profile(self, tmp_path, profile,
                                              window):
        # a profile starting past the geometric break used to run backwards
        # below lo, and a window starting at the break repeated t = 2.5
        cfg = hermite_config(t_profile=profile, slope_window=window)
        cfg.pop("eigen_lattice")
        code, out = run(tmp_path, "hermite", cfg)
        assert code in (0, 1)
        lines = (out / "hermite_decay.csv").read_text().strip().splitlines()
        for beta in cfg["betas"]:
            ts = [float(line.split(",")[3]) for line in lines[1:]
                  if float(line.split(",")[1]) == beta]
            assert len(ts) >= profile["points"]
            assert all(a < b for a, b in zip(ts, ts[1:]))
            assert profile["lo"] <= ts[0] and ts[-1] <= profile["hi"]


    def test_slope_window_without_two_profile_times(self, tmp_path, capsys):
        # a profile ending below the window leaves the slope nothing to fit
        cfg = hermite_config(t_profile={"lo": 0.05, "hi": 2.0, "points": 5})
        code, _ = run(tmp_path, "hermite", cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert "'slope_window'" in err and "'t_profile'" in err


class TestTransferCommand:
    def test_bound_table(self, tmp_path):
        code, out = run(tmp_path, "transfer", transfer_config())
        assert code == 0
        header = (out / "transfer_bounds.csv").read_text().splitlines()[0]
        assert header == "d,beta,t,p,lower,young_upper,parseval_upper,pass"

    def test_trial_diagnostics(self, tmp_path):
        # the lower column is the single-mode bound or the best trial,
        # whichever is larger; on the heat symbol no trial beats the sup
        cfg = transfer_config()
        code, out = run(tmp_path, "transfer", cfg)
        assert code == 0
        record = json.loads((out / "run_record.json").read_text())
        diag = record["diagnostics"]["operator_norm_lower"]
        assert diag["trials"] == cfg["trials"]
        lines = (out / "transfer_bounds.csv").read_text().splitlines()[1:]
        assert [entry["p"] for entry in diag["per_p"]] == cfg["ps"]
        for line, entry in zip(lines, diag["per_p"]):
            assert entry["trials_above_sup"] == 0
            assert 0.0 < entry["best_trial_ratio"] < diag["sup"]
            assert float(line.split(",")[4]) == max(diag["sup"],
                                                    entry["best_trial_ratio"])


# every config of this module that exits 0 or 1, by name: (command, config)
RECORD_CONFIGS = {
    "blowup": ("blowup", blowup_config),
    "picard": ("picard", picard_config),
    "picard_dominated": ("picard", dominated_picard_config),
    "hermite": ("hermite", hermite_config),
    "hermite_2d": ("hermite",
                   lambda: TestEstimatorDimension().configs()["hermite"]),
    "modnorm": ("modnorm", modnorm_config),
    "propagate": ("propagate", lambda: propagate_config()),
    "transfer": ("transfer", transfer_config),
    "transfer_2d": ("transfer",
                    lambda: TestEstimatorDimension().configs()["transfer"]),
}


class TestRunRecord:
    @pytest.mark.parametrize("name", sorted(RECORD_CONFIGS))
    def test_record_names_the_seed_that_ran(self, tmp_path, name):
        # the record holds the seeded config and every field as parsed,
        # defaults filled in: a rerun from its config, with no --seed,
        # writes the same record but for the wall time, and every CSV byte
        # for byte
        command, config = RECORD_CONFIGS[name]
        cfg = config()
        assert cfg["seed"] != 3
        runs = {}
        for label, payload, extra in (("seeded", cfg, ("--seed", "3")),
                                      ("config", cfg, ())):
            (tmp_path / label).mkdir()
            runs[label] = run(tmp_path / label, command, payload, *extra)
        record = json.loads((runs["seeded"][1] / "run_record.json")
                            .read_text())
        assert record["config"] == dict(cfg, seed=3)
        assert record["parameters"]["seed"] == 3
        assert set(record["parameters"]) == {
            path for path, typ, *_ in cli.TABLES[command] if typ is not dict}
        (tmp_path / "rerun").mkdir()
        runs["rerun"] = run(tmp_path / "rerun", command, record["config"])
        records, tables = {}, {}
        for label, (_, out) in runs.items():
            records[label] = json.loads((out / "run_record.json").read_text())
            del records[label]["wall_time_s"]
            tables[label] = {p.name: p.read_bytes()
                             for p in sorted(out.glob("*.csv"))}
        assert runs["rerun"][0] == runs["seeded"][0] in (0, 1)
        assert records["rerun"] == records["seeded"]
        assert tables["seeded"] and tables["rerun"] == tables["seeded"]
        # where the seed reaches the outputs, the config's seed would not do
        if name in ("hermite", "hermite_2d", "modnorm"):
            assert tables["config"] != tables["seeded"]

    def test_csv_cells_formatted_as_the_line_writer(self, tmp_path):
        rows = [(1.5, np.float64(0.1), 3, "name"),
                (math.nan, np.float64(-math.inf), math.inf, -0.0),
                (np.float64(-0.0), np.float64(math.nan), True, np.int64(7)),
                (1e-310, np.float64(2.0 ** 70), -12, "")]
        rec = cli.RunRecord("test", {}, {}, str(tmp_path))
        rec.write_csv("cells.csv", ["a", "b", "c", "d"], rows)
        rec.write_csv("empty.csv", ["a", "b"], [])
        # the former writer, one line at a time through repr(float(v))
        want = "a,b,c,d\n" + "".join(
            ",".join(repr(float(v)) if isinstance(v, float) else str(v)
                     for v in row) + "\n" for row in rows)
        assert (tmp_path / "cells.csv").read_bytes() == want.encode()
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"
        assert rec.csv_files == ["cells.csv", "empty.csv"]


class TestEstimatorDimension:
    """hermite and transfer take their dimension from grid.dim."""

    TWO_DIM = {"dim": 2, "points_per_axis": 32, "half_width": 8.0}

    def configs(self):
        return {
            "hermite": hermite_config(
                grid=self.TWO_DIM, betas=[1.0], degree_cap=8,
                eigen_lattice={"ds": [2], "betas": [1.0], "ts": [1.0]}),
            "transfer": dict(transfer_config(), grid=self.TWO_DIM,
                             modes_per_axis=32, family_size=2, degree_cap=8,
                             trials=3),
        }

    @pytest.mark.parametrize("command", ["hermite", "transfer"])
    def test_two_dim_grid_runs(self, tmp_path, command):
        code, out = run(tmp_path, command, self.configs()[command])
        assert code == 0
        table = {"hermite": "hermite_decay.csv",
                 "transfer": "transfer_bounds.csv"}[command]
        rows = (out / table).read_text().splitlines()[1:]
        assert rows and all(row.split(",")[0] == "2" for row in rows)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("command", ["hermite", "transfer"])
    def test_dim_field_is_unknown(self, tmp_path, capsys, command, dim):
        cfg = dict(self.configs()[command], dim=dim)
        code, _ = run(tmp_path, command, cfg)
        assert code == 2
        assert "unknown config field 'dim'" in capsys.readouterr().err


def propagate_config(**overrides):
    cfg = {"schema_version": 1, "seed": 1, "grid": SMALL_GRID, "beta": 2.0,
           "times": [0.1, 1.0], "corpus_size": 2}
    cfg.update(overrides)
    return cfg


class TestPropagateCommand:
    def test_uniform_sweep(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "seed": 1234,
            "grid": {"dim": 1, "points_per_axis": 1024, "half_width": 160.0},
            "beta": 2.0,
            "times": [0.01, 0.1, 1.0, 10.0],
            "corpus_size": 6,
            "stability_tolerance": 0.05,
        }
        code, out = run(tmp_path, "propagate", cfg)
        assert code == 0
        record = json.load(open(out / "run_record.json"))
        assert record["all_passed"]

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_stacked_norms_match_per_pair_oracle(self, tmp_path, p):
        cfg = {"schema_version": 1, "seed": 5, "grid": SMALL_GRID,
               "beta": 1.5, "times": [0.0, 0.1, 1.0], "corpus_size": 4,
               "norm": {"p": p, "q": 1.0, "s": 0.0},
               "stability_tolerance": 0.5}
        code, out = run(tmp_path, "propagate", cfg)
        assert code in (0, 1)
        grid = SpectralGrid(**SMALL_GRID)
        part = UniformPartition(grid)
        spec = ModNormSpec(p, 1.0, 0.0)
        corpus = propagation_corpus(grid, 4, 5)
        with open(out / "propagate_ratios.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 4
        for row, (t, f) in zip(rows, [(t, f) for t in cfg["times"]
                                      for f in range(4)]):
            assert (int(row["func_id"]), float(row["t"])) == (f, t)
            base = mod_norm_decomp(corpus[f], spec, part)
            flow = mod_norm_decomp(linear_flow(grid, corpus[f], t, 1.5),
                                   spec, part)
            assert float(row["norm_0"]) == pytest.approx(base, rel=1e-13)
            assert float(row["norm_t"]) == pytest.approx(flow, rel=1e-13)
            assert float(row["ratio"]) == pytest.approx(flow / base,
                                                        rel=1e-13)


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        code, _ = run(tmp_path, "modnorm",
                      {"schema_version": 1, "grid": GRID, "corpus_size": 2,
                       "specs": [[2, 1, 0]], "extra_field": True})
        assert code == 2

    def test_missing_required_key(self, tmp_path):
        code, _ = run(tmp_path, "blowup", {"schema_version": 1, "grid": GRID})
        assert code == 2

    def test_wrong_schema_version(self, tmp_path):
        code, _ = run(tmp_path, "modnorm", {"schema_version": 2})
        assert code == 2

    def test_wrong_type_named(self, tmp_path, capsys):
        code, _ = run(tmp_path, "modnorm",
                      {"schema_version": 1, "grid": GRID,
                       "corpus_size": "many", "specs": [[2, 1, 0]]})
        assert code == 2
        assert "corpus_size" in capsys.readouterr().err

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        code, _ = run(tmp_path, "modnorm",
                      {"schema_version": 1, "grid": GRID,
                       "corpus_size": True, "specs": [[2, 1, 0]]})
        assert code == 2
        assert "corpus_size" in capsys.readouterr().err

    def test_flow_underflow_named(self, tmp_path, capsys):
        # at t = 800 the flow's factors e^{-t (2k + 1)^beta} are 0 in
        # floats, and so is its norm (at t = 667, ~1e-290, it is not); the
        # window holds two profile times (3 and 135.8), so the slope rule
        # passes
        cfg = hermite_config(t_profile={"lo": 0.05, "hi": 800.0, "points": 10},
                             slope_window=[3.0, 150.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "hermite", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "'ps', 'betas' and 't_profile'" in err and "t = 800" in err

    def test_large_hermite_p_computes(self, tmp_path):
        # p = 200: the norms take each function at a power-of-two scale,
        # so its 200th powers no longer underflow to a norm of 0
        code, out = run(tmp_path, "hermite", hermite_config(ps=[200.0]))
        assert code in (0, 1)
        values = [float(row.split(",")[4]) for row in
                  (out / "hermite_decay.csv").read_text().splitlines()[1:]]
        assert values and all(0.0 < v < math.inf for v in values)

    def test_eigen_lattice_lists_checked(self, tmp_path, capsys):
        lattice = {"ds": 3, "betas": [1.0], "ts": [0.5]}
        code, _ = run(tmp_path, "hermite",
                      hermite_config(eigen_lattice=lattice))
        assert code == 2
        assert "ds" in capsys.readouterr().err

    def test_slope_window_needs_two_increasing_entries(self, tmp_path,
                                                        capsys):
        for window in ([3.0], [5.0, 3.0], [3.0, 4.0, 5.0]):
            code, _ = run(tmp_path, "hermite",
                          hermite_config(slope_window=window))
            assert code == 2
            assert "slope_window" in capsys.readouterr().err

    def test_bad_spec_entry_named(self, tmp_path, capsys):
        code, _ = run(tmp_path, "modnorm",
                      {"schema_version": 1, "grid": GRID, "corpus_size": 2,
                       "specs": [[2, 1, 0], [0.5, 1, 0]]})
        assert code == 2
        assert "specs[1]" in capsys.readouterr().err

    def test_picard_depth_and_t_points_named(self, tmp_path, capsys):
        for field, value in (("depth", 0), ("t_points", 1)):
            code, _ = run(tmp_path, "picard", picard_config(**{field: value}))
            assert code == 2
            assert f"'{field}'" in capsys.readouterr().err

    def test_t_max_not_multiple_of_dt_named(self, tmp_path, capsys):
        code, _ = run(tmp_path, "blowup", blowup_config(
            solver={"dt": 2e-4, "t_max": 0.50003}))
        assert code == 2
        err = capsys.readouterr().err
        assert "'solver'" in err and "t_max" in err

    def test_empty_transfer_family_named(self, tmp_path, capsys):
        cfg = transfer_config()
        cfg["family_size"] = 0
        code, _ = run(tmp_path, "transfer", cfg)
        assert code == 2
        assert "family_size" in capsys.readouterr().err

    def test_witness_terms_must_be_positive(self, tmp_path, capsys):
        code, _ = run(tmp_path, "blowup", blowup_config(witness_terms=0))
        assert code == 2
        assert "witness_terms" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value,named", [
        ("witness_terms", 100000, "'witness_terms'"),
        ("problem.k", 60, "'k'"),
        ("problem.k", 1, "'k'"),
        ("problem.beta", 0.0, "'beta'"),
        ("hypothesis.r", 0.0, "'r'"),
        ("solver.threshold_factor", math.nan, "'threshold_factor'"),
        ("solver.threshold_factor", 0.5, "'threshold_factor'"),
        ("solver.threshold_factor", -1.0, "'threshold_factor'"),
        ("detect_by", -1.0, "'detect_by'"),
        ("data.amplitude", 0.0, "'data'"),
        ("data.amplitude", math.inf, "'amplitude'"),
        ("hypothesis.gamma", -1.0, "'gamma'"),
    ])
    def test_blowup_bad_field_named(self, tmp_path, capsys, path, value,
                                    named):
        cfg = with_field(blowup_config(grid=SMALL_GRID), path, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "blowup", cfg)
        assert code == 2
        assert named in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path):
        out = tmp_path / "out"
        code = main(["modnorm", "--config", str(tmp_path / "missing.json"),
                     "--out", str(out)])
        assert code == 2

    def test_nan_norm_exponent_is_config_error(self, tmp_path, capsys):
        # json reads the NaN literal; it must not reach the numerics
        cfg = tmp_path / "propagate.json"
        cfg.write_text(
            '{"schema_version": 1, "grid": {"dim": 1, "points_per_axis": 128,'
            ' "half_width": 12.0}, "beta": 2.0, "times": [0.1],'
            ' "corpus_size": 2, "norm": {"p": NaN}}')
        code = main(["propagate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "norm" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf])
    def test_propagate_beta_named(self, tmp_path, capsys, beta):
        code, _ = run(tmp_path, "propagate", propagate_config(beta=beta))
        assert code == 2
        assert "'beta'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["blowup", "picard"])
    def test_k_beyond_lattice_bound_named(self, tmp_path, capsys, command):
        # fine_grid(64^2 grid, 1000) has 1.03e9 points per array
        config = blowup_config if command == "blowup" else picard_config
        cfg = config(grid={"dim": 2, "points_per_axis": 64, "half_width": 8.0},
                     problem={"beta": 2.0, "k": 1000})
        code, _ = run(tmp_path, command, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "problem.'k'" in err and "dealiasing lattice" in err

    def test_picard_large_k_completes(self, tmp_path):
        # its products come from the partitions of j - 1, not from j^k tuples
        code, out = run(tmp_path, "picard", picard_config(
            problem={"beta": 2.0, "k": 14}, depth=6))
        assert code in (0, 1)
        rows = (out / "picard_norms.csv").read_text().strip().splitlines()
        assert len(rows) == 7

    @pytest.mark.parametrize("command", ["picard", "propagate"])
    def test_overflowing_beta_gives_a_verdict(self, tmp_path, command):
        if command == "picard":
            cfg = picard_config(problem={"beta": 1e300, "k": 2})
        else:
            cfg = propagate_config(beta=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, command, cfg)
        assert code in (0, 1)

    @pytest.mark.parametrize("path,value,named", [
        ("problem.beta", 0.0, "'beta'"),
        ("problem.k", 1, "'k'"),
        ("t_max", 0.0, "'t_max'"),
        ("t_max", math.nan, "'t_max'"),
        ("domination.gamma", -1.0, "'gamma'"),
        ("domination.r", math.inf, "'r'"),
        ("domination.gamma", 1e300, "'domination'"),
        ("t_max", 1e300, "'t_max'"),
        ("norm.p", 1e300, "'norm'"),
    ])
    def test_picard_bad_field_named(self, tmp_path, capsys, path, value,
                                    named):
        cfg = with_field(dict(dominated_picard_config(), grid=SMALL_GRID,
                              depth=3, t_points=5), path, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "picard", cfg)
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command,path,value,named", [
        ("transfer", "t", 0.0, "'t'"),
        ("transfer", "t", -1.0, "'t'"),
        ("transfer", "t", math.nan, "'t'"),
        ("transfer", "beta", -1.0, "'beta'"),
        ("transfer", "beta", math.inf, "'beta'"),
        ("transfer", "ps", [], "'ps'"),
        ("transfer", "ps", [math.inf], "'ps'"),
        ("modnorm", "algebra_p", 0.5, "'algebra_p'"),
        ("modnorm", "algebra_p", math.nan, "'algebra_p'"),
        ("modnorm", "max_mode", -1, "'max_mode'"),
        ("modnorm", "max_mode", 1000, "'max_mode'"),
        ("modnorm", "specs", [], "'specs'"),
        ("hermite", "betas", [-1.0], "'betas'"),
        ("hermite", "betas", [], "'betas'"),
        ("hermite", "ps", [], "'ps'"),
        ("hermite", "slope_tolerance", math.nan, "'slope_tolerance'"),
        ("hermite", "dim", 2, "'dim'"),
        ("propagate", "stability_tolerance", -1.0, "'stability_tolerance'"),
        ("propagate", "stability_tolerance", math.nan,
         "'stability_tolerance'"),
        ("propagate", "norm.p", 1e300, "'norm'"),
        ("propagate", "norm.s", 1e300, "'norm'"),
        ("propagate", "grid.half_width", 1e-300, "'grid'"),
        ("propagate", "grid.half_width", 1e300, "'half_width'"),
        ("picard", "t_points", 100000, "'t_points' and 'depth'"),
        ("transfer", "modes_per_axis", 3, "'modes_per_axis'"),
        ("transfer", "modes_per_axis", 1 << 23, "'modes_per_axis'"),
        ("transfer", "trials", 0, "'trials'"),
        ("transfer", "degree_cap", -1, "'degree_cap'"),
        ("transfer", "degree_cap", 100000, "'degree_cap'"),
        ("transfer", "family_size", 1 << 20, "'family_size'"),
        ("hermite", "degree_cap", -1, "'degree_cap'"),
        ("hermite", "degree_cap", 100000, "'degree_cap'"),
        ("hermite", "coeff_levels", -1, "'coeff_levels'"),
        ("hermite", "t_profile.hi", math.inf, "'hi'"),
        ("hermite", "t_profile.points", 1 << 20, "'t_profile'"),
        ("hermite", "eigen_lattice.ts", [0.0], "'ts'"),
        ("hermite", "eigen_lattice.betas", [0.001], "'eigen_lattice'"),
        ("hermite", "eigen_lattice.ds", [200], "'eigen_lattice'"),
        ("propagate", "output_dir", 5, "'output_dir'"),
        ("propagate", "output_dir", ["a"], "'output_dir'"),
        ("propagate", "seed", -1, "'seed'"),
        ("picard", "data", {"kind": "csv", "path": "no_such_grid_function"},
         "'path'"),
        ("picard", "data.kind", "plateau", "'kind'"),
        ("picard", "expect", "sometimes", "'expect'"),
        ("hermite", "eigen_lattice.ds", [0], "'ds'"),
        ("modnorm", "schema_version", 2, "'schema_version'"),
        ("picard", "data.kind", "sphere", "data.'kind' must be one of"),
        ("picard", "data.exponent", math.nan, "'exponent'"),
        ("picard", "data.scale", math.inf, "'scale'"),
        ("picard", "data.gamma", math.nan, "'gamma'"),
        ("picard", "data.r", -math.inf, "'r'"),
        ("picard", "depth", -1, "config field 'depth' must lie in"),
        ("picard", "t_max", -1.0, "config field 't_max' must lie in"),
        ("hermite", "ps", [0.5], "'ps'"),
        ("hermite", "t_profile.lo", 0.0, "'lo'"),
        ("hermite", "eigen_lattice.betas", [-1.0], "'betas'"),
        ("modnorm", "specs", [[1]], "'specs[0]'"),
        ("modnorm", "specs", [[2, 1, 0], [1, 1, 0, 5]], "'specs[1]'"),
        ("modnorm", "specs", [[1, 1, 1e6]], "'specs[0]'"),
        ("modnorm", "specs", [[2, 1, 0], [1, 1e300, 0]], "'specs[1]'"),
        ("transfer", "ps", [2.0, 1e300], "'ps'"),
        ("hermite", "ps", [2.0, 1e300], "'ps'"),
        ("hermite", "ps", [math.nan], "'ps'"),
        ("modnorm", "specs", [[2, 1, 0], [1e300, 1, 0]], "'specs[1]'"),
        # d passes over a 4096-shell block once took minutes to overflow
        ("hermite", "eigen_lattice.ds", [10000000], "'eigen_lattice'"),
    ])
    def test_bad_field_named(self, tmp_path, capsys, command, path, value,
                             named):
        config = {"transfer": transfer_config, "modnorm": modnorm_config,
                  "hermite": hermite_config, "propagate": propagate_config,
                  "picard": picard_config}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, command, with_field(config(), path, value))
        assert code == 2
        assert named in capsys.readouterr().err

    def test_negative_seed_option_named(self, tmp_path, capsys):
        code, _ = run(tmp_path, "propagate", propagate_config(), "--seed",
                      "-1")
        assert code == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["", "header", "row", "grid",
                                        "duplicate", "out_of_range"])
    def test_csv_data_file(self, tmp_path, capsys, damage):
        # a damaged file exits 2 naming data.'path', never a traceback; the
        # index column must be a permutation of 0 .. N^d - 1
        cfg = picard_config()
        grid = SpectralGrid(**cfg["grid"])
        base = str(tmp_path / "u0")
        values = np.exp(-grid.x_mesh[..., 0] ** 2)
        save_grid_function(grid, values, base)
        with open(base + ".json") as fh:
            header = json.load(fh)
        if damage == "header":
            del header["points_per_axis"]
        elif damage == "grid":
            header["half_width"] = 2 * header["half_width"]
        elif damage == "row":
            with open(base + ".csv", "a") as fh:
                fh.write("3,x,0.0\n")
        elif damage in ("duplicate", "out_of_range"):
            with open(base + ".csv") as fh:
                lines = fh.readlines()
            index = "0" if damage == "duplicate" else str(grid.size)
            lines[2] = index + lines[2][lines[2].index(","):]
            with open(base + ".csv", "w") as fh:
                fh.writelines(lines)
        with open(base + ".json", "w") as fh:
            json.dump(header, fh)
        cfg["data"] = {"kind": "csv", "path": base}
        code, _ = run(tmp_path, "picard", cfg)
        if damage:
            assert code == 2
            assert "data.'path'" in capsys.readouterr().err
        else:
            assert code == 0

    @pytest.mark.parametrize("command", ["picard", "blowup"])
    def test_csv_frequency_side(self, tmp_path, command):
        # the same Gaussian written as its transform: the file is
        # inverse-transformed when read, so the runs agree to roundoff
        cfg = {"picard": picard_config(),
               "blowup": blowup_config(solver={"dt": 2e-4,
                                               "t_max": 0.002})}[command]
        grid = SpectralGrid(**cfg["grid"])
        values = np.exp(-grid.x_mesh[..., 0] ** 2)
        tables = {}
        for side, samples in (("physical", values),
                              ("frequency", forward_values(grid, values))):
            (tmp_path / side).mkdir()
            base = str(tmp_path / side / "u0")
            save_grid_function(grid, samples, base, side)
            cfg["data"] = {"kind": "csv", "path": base}
            code, out = run(tmp_path / side, command, cfg)
            assert code != 2, side
            table = {"picard": "picard_norms.csv",
                     "blowup": "blowup_trace.csv"}[command]
            with open(out / table) as fh:
                tables[side] = (code, list(csv.reader(fh)))
        (code, want), (got_code, got) = tables["physical"], tables["frequency"]
        assert got_code == code
        assert code == 0 or command == "blowup"
        assert got[0] == want[0] and len(got) == len(want)
        for row, ref in zip(got[1:], want[1:]):
            np.testing.assert_allclose(np.array(row, float),
                                       np.array(ref, float), rtol=1e-12)

    @pytest.mark.parametrize("command", ["hermite", "transfer"])
    def test_hermite_table_bounded(self, tmp_path, capsys, command):
        # degree_cap 300 on 16384 points: a table of 301 x 16384 values,
        # above MAX_LATTICE_VALUES, though the tensors and the grid are not
        grid = {"dim": 1, "points_per_axis": 16384, "half_width": 256.0}
        assert 301 * 16384 > heat.MAX_LATTICE_VALUES
        config = {"hermite": hermite_config,
                  "transfer": transfer_config}[command]()
        config = with_field(with_field(config, "grid", grid), "degree_cap",
                            300)
        code, _ = run(tmp_path, command, config)
        assert code == 2
        assert "'degree_cap'" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", [1e300, 1e-300])
    def test_extreme_hermite_beta(self, tmp_path, capsys, beta):
        # 1e300: every level above the ground one decays at once; 1e-300:
        # the compensator t^(d/beta) leaves the float range, named
        cfg = hermite_config(betas=[beta])
        cfg.pop("eigen_lattice")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "hermite", cfg)
        if beta > 1:
            assert code in (0, 1)
        else:
            assert code == 2
            assert "'betas'" in capsys.readouterr().err

    @pytest.mark.parametrize("times", [[], [-0.1, 1.0], [math.inf],
                                       [math.nan]])
    def test_propagate_times_named(self, tmp_path, capsys, times):
        code, _ = run(tmp_path, "propagate", propagate_config(times=times))
        assert code == 2
        assert "'times" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["propagate", "hermite", "transfer",
                                         "picard"])
    def test_rerun_byte_identical(self, tmp_path, command):
        # every CSV of a rerun with the same config and seed is the same
        # file; propagate at p = 2 and p = 1 takes both block-norm paths
        configs = {
            "propagate": [propagate_config(corpus_size=3,
                                           stability_tolerance=0.5,
                                           norm={"p": p, "q": 1.0, "s": 0.0})
                          for p in (2.0, 1.0)],
            "hermite": [hermite_config()],
            "transfer": [transfer_config()],
            "picard": [picard_config(), dominated_picard_config()],
        }[command]
        names = set()
        for i, cfg in enumerate(configs):
            tables = []
            for rerun in ("a", "b"):
                run_dir = tmp_path / f"{i}{rerun}"
                run_dir.mkdir()
                code, out = run(run_dir, command, cfg)
                assert code == 0
                tables.append({p.name: p.read_bytes()
                               for p in sorted(out.glob("*.csv"))})
            assert tables[0] == tables[1]
            names |= set(tables[0])
        assert len(names) == (1 if command == "propagate" else 2)
