#!/usr/bin/env python3
"""Re-measure the frozen regression constants on their frozen corpora.

Run from the repository root:

    python tools/measure_constants.py

Prints one line per constant in src/modheat/constants.py together with the
raw measured range, so drift can be inspected before refreezing.
"""

import math

import numpy as np

from modheat.corpus import (band_limited, hermite_coeff_family, mixed_family,
                            propagation_corpus)
from modheat.heat import (BlowupHypothesis, HeatProblem, linear_propagate,
                          lower_bound_envelope, picard_terms, plateau_data)
from modheat.hermite import HermiteBasis, HermiteCoeffs, decay_profile
from modheat.modnorm import (ModNormSpec, STFTPlan, UniformPartition,
                             algebra_defect, fourier_lebesgue_norm,
                             mod_norm_decomp, mod_norm_stft)
from modheat.spectral import GridFunction, SpectralGrid, physical_lp_norm
from modheat.torus import TorusGrid, transference_check


def main():
    g = SpectralGrid(1, 256, 16.0)
    part = UniformPartition(g)
    plan = STFTPlan(g)

    ratios = []
    for i in range(20):
        f = band_limited(g, 6, seed=1000 + i)
        ratios.append(mod_norm_stft(f, plan, ModNormSpec(2, 1, 0))
                      / mod_norm_decomp(f, ModNormSpec(2, 1, 0), part))
    print(f"CROSS_ESTIMATOR ratios: [{min(ratios):.4f}, {max(ratios):.4f}]")

    m22 = [mod_norm_decomp(f, ModNormSpec(2, 2, 0), part) / physical_lp_norm(f, 2)
           for f in mixed_family(g, 12, seed=77)]
    print(f"M22_OVER_L2 range: [{min(m22):.4f}, {max(m22):.4f}]")

    gauss = GridFunction(g, np.exp(-g.x_axis ** 2 / 2))
    print(f"ALGEBRA_DEFECT gaussian pair: {algebra_defect(gauss, gauss, 2.0, part):.4f}")

    fl1 = [fourier_lebesgue_norm(f, 1) / mod_norm_decomp(f, ModNormSpec(2, 1, 0), part)
           for f in mixed_family(g, 12, seed=99)]
    print(f"FL1_EMBEDDING range: [{min(fl1):.4f}, {max(fl1):.4f}]")

    g2 = SpectralGrid(1, 2048, 160.0)
    part2 = UniformPartition(g2)
    corpus = propagation_corpus(g2, 10, seed=1234)
    spec = ModNormSpec(2, 1, 0)
    cs = []
    for t in (0.01, 0.1, 1.0, 10.0):
        cs.append(max(mod_norm_decomp(linear_propagate(f, t, 2.0), spec, part2)
                      / mod_norm_decomp(f, spec, part2) for f in corpus))
    print(f"PROPAGATOR_UNIFORM C(t): [{min(cs):.5f}, {max(cs):.5f}]")

    gam = 4 * math.e * (1 + 1e-6)
    h = BlowupHypothesis(gamma=gam, r=1.0, beta=2.0, k=2, d=1)
    pr = HeatProblem(2.0, 2, plateau_data(g, gam, 1.0))
    tg = np.linspace(0, 0.25, 33)
    res = picard_terms(pr, 6, tg, part)
    ball = g.freq_magnitude <= 1.0
    worst = math.inf
    for pos, idx in enumerate(res.term_indices):
        for ti in range(1, len(tg)):
            uhat = res.spectra[pos][ti]
            env = lower_bound_envelope(h, idx, tg[ti], g)
            worst = min(worst, float((uhat.real[ball] / env[ball]).min()))
    print(f"PICARD_DOMINATION worst ratio: {worst:.4f} (S >= {1 / worst:.3f})")

    grid = SpectralGrid(1, 192, 12.0)
    partg = UniformPartition(grid)
    basis = HermiteBasis(1, 16)
    fam = hermite_coeff_family(basis, 8, seed=42, max_level=10)
    torus = TorusGrid(1, 64)
    need = 0.0
    for beta, t in [(1.0, 1.0), (2.0, 0.5)]:
        for p in (1.0, 2.0, 4.0):
            rep = transference_check(t, beta, p, fam, grid, partg, torus, slack=2.0)
            need = max(need, rep.max_ratio / rep.young_upper)
    print(f"TRANSFER max ratio/young: {need:.5f}")

    rng = np.random.default_rng(11)
    tensor = np.zeros(basis.coeff_shape, dtype=complex)
    tensor[:11] = rng.standard_normal(11)
    f = HermiteCoeffs(basis, tensor)
    tgrid = np.concatenate([np.geomspace(0.05, 2.5, 12), np.linspace(3, 5, 9)])
    sup_all = 0.0
    for beta in (1.0, 2.0):
        for p in (1.0, 2.0, 4.0):
            rows = decay_profile(f, beta, p, tgrid, grid, partg)
            sup_all = max(sup_all, max(r[2] for r in rows))
    print(f"DECAY_PROFILE sup ratio: {sup_all:.4f}")


if __name__ == "__main__":
    main()
