"""The benchmark's workloads: fixed CLI configs, one list of invocations each.

An invocation is one `modheat <command> --config ... --seed ...` call; it
receives the benchmark seed unless it names a fixed one.  The outputs of an
invocation whose input does not depend on the seed it receives (`seed_free`,
or a fixed seed) are compared with the committed reference values at every
seed, the others only at the default seed.  Every invocation is expected to
exit 0 with all verdicts passing.
"""

import json
import math
import os
from dataclasses import dataclass

DEFAULT_SEED = 0

# -- configs shared with tests/test_cli.py ---------------------------------------

_GRID = {"dim": 1, "points_per_axis": 256, "half_width": 16.0}
_HGRID = {"dim": 1, "points_per_axis": 192, "half_width": 12.0}
# marginal plateau level times a small safety factor, as in tests/test_cli.py
_PLATEAU_GAMMA = 4 * math.e * (1 + 1e-6)
# p = 1 is inside the certified range 1 <= p <= 2 and takes the block engine's
# general (non-Parseval) path.
_P1 = {"p": 1.0, "q": 1.0, "s": 0.0}


def _blowup(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "grid": _GRID,
        "problem": {"beta": 2.0, "k": 2},
        "data": {"kind": "gaussian", "amplitude": 41.0},
        "hypothesis": {"gamma": 11.0, "r": 1.0},
        "solver": {"dt": 2e-4, "t_max": 0.5},
        "witness_terms": 12,
    }
    cfg.update(overrides)
    return cfg


def _picard(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 0,
        "grid": _GRID,
        "problem": {"beta": 2.0, "k": 2},
        "data": {"kind": "gaussian", "amplitude": 0.01, "exponent": 0.5},
        "depth": 5,
        "t_max": 0.5,
        "t_points": 17,
        "norm": _P1,
    }
    cfg.update(overrides)
    return cfg


@dataclass(frozen=True)
class Invocation:
    name: str
    command: str
    config: dict
    seed_free: bool = False  # the command ignores --seed
    fixed_seed: int = None
    expected_exit: int = 0

    @property
    def outputs_depend_on_seed(self):
        return not self.seed_free and self.fixed_seed is None


# TEMPORARY: the hermite invocation keeps its config seed 11.  At seed-commit
# code its decay_profile_const verdict (DECAY_PROFILE_CONST, measured on one
# frozen Hermite family) fails for 35 of the CLI seeds 0..39 -- a program
# defect left standing for ROADMAP item 5 (preconditions as verdicts).  The
# change that makes that verdict hold for random coefficient tensors drops
# `fixed_seed` here so the benchmark seed reaches it.  Pin nothing else.
WORKLOADS = {
    # the solver at p = 2: the block-norm engine and its per-block inverse
    # transforms do ~90 % of the work
    "flow": [
        Invocation("blowup_gaussian", "blowup", _blowup(), seed_free=True),
        Invocation("blowup_plateau", "blowup", _blowup(
            data={"kind": "plateau", "gamma": _PLATEAU_GAMMA, "r": 1.0},
            hypothesis={"gamma": _PLATEAU_GAMMA, "r": 1.0}), seed_free=True),
        Invocation("blowup_d2", "blowup", _blowup(
            grid={"dim": 2, "points_per_axis": 64, "half_width": 8.0},
            data={"kind": "gaussian", "amplitude": 220.0},
            hypothesis={"gamma": 16.0, "r": 1.2},
            solver={"dt": 5e-4, "t_max": 0.5}), seed_free=True),
        Invocation("propagate", "propagate", {
            "schema_version": 1,
            "seed": 1234,
            "grid": {"dim": 1, "points_per_axis": 1024, "half_width": 160.0},
            "beta": 2.0,
            "times": [0.01, 0.1, 1.0, 10.0],
            "corpus_size": 6,
            "stability_tolerance": 0.05,
        }),
    ],
    # the Picard series at p = 1: the block engine's general path plus the
    # dealiased multi-products and the domination re-FFTs
    "series": [
        Invocation("picard_domination", "picard", _picard(
            data={"kind": "plateau", "gamma": _PLATEAU_GAMMA, "r": 1.0},
            depth=6, t_max=0.25, t_points=33,
            domination={"gamma": _PLATEAU_GAMMA, "r": 1.0},
            expect="growing"), seed_free=True),
        Invocation("picard_small", "picard", _picard(), seed_free=True),
        Invocation("picard_k3", "picard", _picard(
            problem={"beta": 2.0, "k": 3}, depth=6, t_points=33),
            seed_free=True),
    ],
    # the non-solver layers: STFT estimator, Hermite synthesis, torus loops
    "estimators": [
        Invocation("modnorm", "modnorm", {
            "schema_version": 1,
            "seed": 7,
            "grid": _GRID,
            "corpus_size": 8,
            "max_mode": 6,
            "specs": [[2, 1, 0], [2, 2, 0], [1, 1, 0], [4, 2, 1.5]],
        }),
        Invocation("hermite", "hermite", {
            "schema_version": 1,
            "seed": 11,
            "grid": _HGRID,
            "betas": [1.0, 2.0],
            "ps": [1.0, 2.0, 4.0],
            "t_profile": {"lo": 0.05, "hi": 5.0, "points": 10},
            "eigen_lattice": {"ds": [1, 2, 3], "betas": [1.0],
                              "ts": [0.5, 1.0]},
        }, fixed_seed=11),
        Invocation("transfer", "transfer", {
            "schema_version": 1,
            "seed": 42,
            "grid": _HGRID,
            "beta": 1.0,
            "t": 1.0,
            "ps": [1.0, 2.0, 4.0],
            "modes_per_axis": 256,
            "family_size": 8,
            "degree_cap": 16,
            "trials": 20,
        }),
    ],
}


def write_configs(workload, directory):
    """Write one JSON config per invocation; returns {name: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for inv in WORKLOADS[workload]:
        path = os.path.join(directory, f"{inv.name}.json")
        with open(path, "w") as fh:
            json.dump(inv.config, fh, indent=1)
        paths[inv.name] = path
    return paths


def argv(inv, config_path, out_dir, seed):
    """CLI arguments of one invocation."""
    if inv.fixed_seed is not None:
        seed = inv.fixed_seed
    return [inv.command, "--config", config_path, "--out", out_dir,
            "--seed", str(seed)]
