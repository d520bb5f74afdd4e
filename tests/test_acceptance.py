"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
from itertools import product

import numpy as np
import pytest

from modheat import constants
from modheat.cli import main as cli_main
from modheat.corpus import hermite_coeff_family, propagation_corpus
from modheat.heat import (BlowupHypothesis, HeatProblem, SolverConfig,
                          certify_hypothesis, divergence_witness,
                          lower_bound_envelope, picard_terms, solve)
from modheat.hermite import decay_profile, eigen_sum, eigen_sum_bound
from modheat.modnorm import ModNormSpec, UniformPartition
from modheat.spectral import SpectralGrid, forward_values, inverse_values
from modheat.torus import (kernel_l1_norm, operator_norm_lower,
                           oscillator_heat_symbol, transference_check)
from test_heat import linear_flow, million_fold, physical_terms
from test_hermite import gram_matrix, oscillator_heat, quadrature, synthesize
from test_modnorm import (block_project, mod_norm_decomp, partition_keys,
                          partition_symbol)
from test_spectral import frequency_lp_norm, physical_lp_norm

REMARK_AMPLITUDE = 41.0   # just above the certifiable level for gamma = 11
REMARK_GAMMA = 11.0


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_spectral_correctness(grid1):
    rng = np.random.default_rng(101)
    worst_round = 0.0
    worst_pars = 0.0
    for _ in range(100):
        f = (rng.standard_normal(grid1.shape)
             + 1j * rng.standard_normal(grid1.shape))
        F = forward_values(grid1, f)
        back = inverse_values(grid1, F)
        worst_round = max(worst_round,
                          np.max(np.abs(back - f)) / np.max(np.abs(f)))
        a = physical_lp_norm(grid1, f, 2)
        b = frequency_lp_norm(grid1, F, 2)
        worst_pars = max(worst_pars, abs(a - b) / a)
    assert worst_round <= 1e-12
    assert worst_pars <= 1e-12

    worst_oracle = 0.0
    for dim, n in ((1, 8), (1, 16), (2, 8)):
        g = SpectralGrid(dim, n, 3.0)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        F = forward_values(g, f)
        x = g.x_mesh.reshape(-1, dim)
        xi = g.freq_mesh.reshape(-1, dim)
        brute = ((2 * np.pi) ** (-dim / 2) * g.spacing ** dim
                 * np.exp(-1j * xi @ x.T) @ f.reshape(-1))
        err = np.max(np.abs(F.reshape(-1) - brute)) \
            / np.max(np.abs(brute))
        worst_oracle = max(worst_oracle, err)
    assert worst_oracle <= 1e-12
    report(1, f"roundtrip {worst_round:.2e}, oracle {worst_oracle:.2e}, "
              f"parseval {worst_pars:.2e}")


def test_criterion_02_partition_machinery(grid1, part1, grid2, part2):
    worst_sum = 0.0
    for grid, part in ((grid1, part1), (grid2, part2)):
        total = np.zeros(grid.shape)
        for k in partition_keys(part):
            total += partition_symbol(part, k)
        worst_sum = max(worst_sum, float(np.max(np.abs(total - 1.0))))
    assert worst_sum <= 1e-12

    for k in ((0,), (7,), (-13,)):
        sym = partition_symbol(part1, k)
        assert np.max(np.abs(sym[np.abs(grid1.freq_axis - k[0]) > 1.0])) == 0.0

    worst_orth = 0.0
    f1 = np.exp(-grid1.x_axis ** 2 / 2)
    for k in ((0,), (4,), (-9,)):
        base = block_project(f1, k, part1)
        total = np.zeros(grid1.shape, dtype=complex)
        for ell in (-1, 0, 1):
            total += block_project(base, (k[0] + ell,), part1)
        worst_orth = max(worst_orth, float(np.max(np.abs(total - base))))
    rng = np.random.default_rng(2)
    f2 = rng.standard_normal(grid2.shape)
    base = block_project(f2, (1, -2), part2)
    total = np.zeros(grid2.shape, dtype=complex)
    for ex, ey in product((-1, 0, 1), repeat=2):
        total += block_project(base, (1 + ex, -2 + ey), part2)
    worst_orth = max(worst_orth, float(np.max(np.abs(total - base))))
    assert worst_orth <= 1e-10
    report(2, f"partition sum {worst_sum:.2e}, almost-orth {worst_orth:.2e}")


def test_criterion_03_semigroup_and_closed_forms(grid1, gauss1):
    rng = np.random.default_rng(3)
    worst_semi = 0.0
    for _ in range(20):
        t1, t2 = rng.uniform(0.01, 2.0, size=2)
        beta = rng.choice([0.5, 1.0, 2.0])
        a = linear_flow(grid1, linear_flow(grid1, gauss1, t1, beta), t2, beta)
        b = linear_flow(grid1, gauss1, t1 + t2, beta)
        worst_semi = max(worst_semi, float(np.max(np.abs(a - b))))
    assert worst_semi <= 1e-12

    t = 0.5
    out = linear_flow(grid1, gauss1, t, 2.0)
    ref = (1 + 2 * t) ** -0.5 * np.exp(-grid1.x_axis ** 2 / (2 * (1 + 2 * t)))
    gauss_err = float(np.max(np.abs(out - ref)))
    assert gauss_err <= 1e-8

    grid = SpectralGrid(1, 2048, 160.0)
    part = UniformPartition(grid)
    spec = ModNormSpec(2, 1, 0)
    corpus = propagation_corpus(grid, 10, seed=1234)
    base = [mod_norm_decomp(f, spec, part) for f in corpus]
    cs = []
    for tt in (0.01, 0.1, 1.0, 10.0):
        cs.append(max(mod_norm_decomp(linear_flow(grid, f, tt, 2.0), spec,
                                      part)
                      / b for f, b in zip(corpus, base)))
    stability = max(cs) / min(cs)
    assert stability <= 1.05
    assert max(cs) <= constants.PROPAGATOR_UNIFORM_CONST
    report(3, f"semigroup {worst_semi:.2e}, gaussian {gauss_err:.2e}, "
              f"uniform constant in [{min(cs):.4f}, {max(cs):.4f}]")


def test_criterion_04_blowup_reproduction(grid1, part1):
    u0 = REMARK_AMPLITUDE * np.exp(-2 * np.pi * grid1.x_axis ** 2)
    hyp = BlowupHypothesis(gamma=REMARK_GAMMA, r=1.0, beta=2.0, k=2, d=1)
    assert all(c.passed for c in certify_hypothesis(hyp, grid1, u0))
    assert hyp.horizon == pytest.approx(0.25)

    prob = HeatProblem(2.0, 2, grid1, u0)
    trace = solve(prob, SolverConfig(
        dt=2e-4, t_max=0.5, blowup_threshold=million_fold(prob, part1)),
        part1)
    assert trace.blowup_detected
    assert trace.t_detect < 0.5
    assert trace.norms[-1] > 1e6 * trace.norms[0]

    small = 1e-3 * u0
    sprob = HeatProblem(2.0, 2, grid1, small)
    strace = solve(sprob, SolverConfig(
        dt=2e-3, t_max=1.0, blowup_threshold=million_fold(sprob, part1)),
        part1)
    assert not strace.blowup_detected
    assert max(strace.norms) <= 2.0 * strace.norms[0]

    sres = picard_terms(HeatProblem(2.0, 2, grid1, small), 5,
                        np.linspace(0.0, 0.5, 17), part1)
    assert all(r < 1.0 for r in sres.ratios[1:])
    report(4, f"detection at t={trace.t_detect:.4f} with ratio "
              f"{trace.norms[-1] / trace.norms[0]:.2e}; scaled max/initial "
              f"{max(strace.norms) / strace.norms[0]:.3f}; "
              f"series ratios {['%.2e' % r for r in sres.ratios]}")


def test_criterion_05_lower_bound_witness(grid1, part1):
    marg = BlowupHypothesis(gamma=4 * math.e, r=1.0, beta=2.0, k=2, d=1)
    wit = divergence_witness(marg, 12)
    assert abs(wit.ratio - 1.0) <= 1e-9

    gamma = 4 * math.e * (1 + 1e-6)
    hyp = BlowupHypothesis(gamma=gamma, r=1.0, beta=2.0, k=2, d=1)
    from modheat.heat import plateau_data

    u0 = plateau_data(grid1, gamma, 1.0)
    res = picard_terms(HeatProblem(2.0, 2, grid1, u0), 6,
                       np.linspace(0.0, 0.25, 33), part1)
    ball = grid1.freq_magnitude <= hyp.r
    slack = constants.PICARD_DOMINATION_SLACK
    worst = math.inf
    trajectories = physical_terms(res)
    for pos, idx in enumerate(res.term_indices):
        for ti in range(1, 33):
            uhat = forward_values(grid1, trajectories[pos][ti])
            env = lower_bound_envelope(hyp, idx, res.t_grid[ti], grid1)
            worst = min(worst, float((uhat.real[ball] * slack
                                      / env[ball]).min()))
    assert worst >= 1.0
    report(5, f"marginal ratio deviation {abs(wit.ratio - 1.0):.2e}, "
              f"domination slack margin {worst:.3f}")


def test_criterion_06_hermite_suite():
    gram_err = float(np.max(np.abs(gram_matrix(1, 60) - np.eye(61))))
    assert gram_err <= 1e-10

    phi0 = quadrature(1, 60).table[0]
    for beta, t in ((1.0, 0.7), (2.0, 0.3)):
        out = oscillator_heat(phi0, t, beta, 1, 60)
        err = float(np.max(np.abs(out - math.exp(-t * 1.0 ** beta) * phi0)))
        assert err <= 1e-10

    rng = np.random.default_rng(6)
    tensor = np.zeros(61, dtype=complex)
    tensor[:20] = rng.standard_normal(20)
    vals = synthesize(tensor)
    a = oscillator_heat(oscillator_heat(vals, 0.4, 1.5, 1, 60), 0.6, 1.5,
                        1, 60)
    b = oscillator_heat(vals, 1.0, 1.5, 1, 60)
    semi_err = float(np.max(np.abs(a - b)))
    assert semi_err <= 1e-10
    report(6, f"gram {gram_err:.2e}, propagator semigroup {semi_err:.2e}")


def test_criterion_07_eigenvalue_sum_numbers():
    s = eigen_sum(1, 1.0, 1.0)
    b = eigen_sum_bound(1, 1.0, 1.0)
    closed = math.exp(-2) / (1 - math.exp(-4))
    assert s == pytest.approx(closed, abs=1e-12)
    assert abs(s - 0.1378607) <= 1e-6
    assert abs(b - 0.1839397) <= 1e-6
    assert s <= b
    for d, beta, t in product((1, 2, 3), (0.5, 1.0, 2.0), (0.1, 0.5, 1.0, 2.0)):
        assert eigen_sum(d, beta, t) <= eigen_sum_bound(d, beta, t)
    report(7, f"sum {s:.7f} <= bound {b:.7f}; inequality on all 36 "
              "lattice points")


def test_criterion_08_decay_profile(hpart):
    rng = np.random.default_rng(11)
    coeffs = np.zeros(17, dtype=complex)
    coeffs[:11] = rng.standard_normal(11)
    t_grid = np.concatenate([np.geomspace(0.05, 2.5, 12),
                             np.linspace(3.0, 5.0, 9)])
    sup_all = 0.0
    worst_slope = 0.0
    for beta in (1.0, 2.0):
        for rows in decay_profile(coeffs, beta, [1.0, 2.0, 4.0], t_grid,
                                  hpart):
            sup_all = max(sup_all, max(r for _, _, r in rows))
            ts = np.array([t for t, _, _ in rows if 3.0 <= t <= 5.0])
            ns = np.array([v for t, v, _ in rows if 3.0 <= t <= 5.0])
            slope = np.polyfit(ts, np.log(ns), 1)[0]
            target = -1.0  # d^beta with d = 1
            worst_slope = max(worst_slope, abs(slope - target))
            assert abs(slope - target) <= 0.02
    assert sup_all <= constants.DECAY_PROFILE_CONST
    report(8, f"empirical constant {sup_all:.4f} <= "
              f"{constants.DECAY_PROFILE_CONST}, slope deviation "
              f"{worst_slope:.4f} <= 0.02")


def test_criterion_09_transference_sandwich(hpart):
    # the ground state, then six random members
    family = np.concatenate([np.zeros((1, 17), dtype=complex),
                             hermite_coeff_family(1, 16, 6, seed=42)])
    family[0, 0] = 1.0
    tg = SpectralGrid(1, 64, math.pi)  # the torus [0, 2pi)
    suite = [(1.0, 1.0), (2.0, 0.5), (1.0, 0.5)]
    worst_gap = math.inf
    p2_err = None
    ps = [1.0, 2.0, 4.0]
    for beta, t in suite:
        sym = oscillator_heat_symbol(tg, t, beta)
        young = kernel_l1_norm(sym, tg)
        lowers, _ = operator_norm_lower(sym, ps, 20, tg, seed=9)
        for p, lower in zip(ps, lowers):
            assert lower <= young + 1e-8
            worst_gap = min(worst_gap, young + 1e-8 - lower)
            if p == 2.0:
                sup = np.abs(sym).max()
                err = abs(lower - sup) / sup
                assert err <= 0.01
                p2_err = err if p2_err is None else max(p2_err, err)
        rep = transference_check(t, beta, ps, family, hpart, tg,
                                 slack=constants.TRANSFER_SLACK)
        assert rep.young_upper == young
        assert rep.all_passed
        assert rep.max_ratio <= rep.young_upper * constants.TRANSFER_SLACK
    report(9, f"sandwich min gap {worst_gap:.2e}, p=2 sup error "
              f"{p2_err:.2e}, transference bound held on suite")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "seed": 7,
        "grid": {"dim": 1, "points_per_axis": 256, "half_width": 16.0},
        "corpus_size": 3,
        "max_mode": 6,
        "specs": [[2, 1, 0], [2, 2, 0]],
    }
    outs = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"cfg_{tag}.json"
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        out = tmp_path / f"out_{tag}"
        assert cli_main(["modnorm", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        outs.append(out)
    names = ("modnorm_values.csv", "modnorm_algebra.csv")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(10, f"byte-identical CSV outputs across reruns: {', '.join(names)}")
