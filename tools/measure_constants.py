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
from modheat.heat import (BlowupHypothesis, HeatProblem, domination_ratios,
                          picard_terms, plateau_data)
from modheat.hermite import decay_profile
from modheat.modnorm import (ModNormSpec, STFTPlan, UniformPartition,
                             algebra_defect, mod_norms_from_frequency,
                             mod_norms_stft)
from modheat.spectral import (SpectralGrid, forward_values, heat_symbol,
                              lp_norm)
from modheat.torus import transference_check


def main():
    g = SpectralGrid(1, 256, 16.0)
    part = UniformPartition(g)
    plan = STFTPlan(g)
    spec = ModNormSpec(2, 1, 0)

    corpus = np.stack([band_limited(g, 6, seed=1000 + i) for i in range(20)])
    decomp = mod_norms_from_frequency(forward_values(g, corpus), [spec],
                                      part)[0]
    ratios = mod_norms_stft(corpus, plan, [spec])[0] / decomp
    print(f"CROSS_ESTIMATOR ratios: [{min(ratios):.4f}, {max(ratios):.4f}]")

    corpus = mixed_family(g, 12, seed=77)
    m22 = (mod_norms_from_frequency(forward_values(g, corpus),
                                    [ModNormSpec(2, 2, 0)], part)[0]
           / lp_norm(corpus, g.spacing, 2, 1))
    print(f"M22_OVER_L2 range: [{min(m22):.4f}, {max(m22):.4f}]")

    gauss = np.exp(-g.x_axis ** 2 / 2)
    pair = forward_values(g, np.stack([gauss, gauss]))
    print(f"ALGEBRA_DEFECT gaussian pair: "
          f"{algebra_defect(pair, 2.0, part)[0]:.4f}")

    hats = forward_values(g, mixed_family(g, 12, seed=99))
    fl1 = (lp_norm(hats, g.freq_spacing, 1, 1)
           / mod_norms_from_frequency(hats, [spec], part)[0])
    print(f"FL1_EMBEDDING range: [{min(fl1):.4f}, {max(fl1):.4f}]")

    g2 = SpectralGrid(1, 2048, 160.0)
    part2 = UniformPartition(g2)
    hats = forward_values(g2, propagation_corpus(g2, 10, seed=1234))
    base = mod_norms_from_frequency(hats, [spec], part2)[0]
    cs = []
    for t in (0.01, 0.1, 1.0, 10.0):
        flow = hats * heat_symbol(g2, t, 2.0)
        cs.append(max(mod_norms_from_frequency(flow, [spec], part2)[0] / base))
    print(f"PROPAGATOR_UNIFORM C(t): [{min(cs):.5f}, {max(cs):.5f}]")

    gam = 4 * math.e * (1 + 1e-6)
    h = BlowupHypothesis(gamma=gam, r=1.0, beta=2.0, k=2, d=1)
    pr = HeatProblem(2.0, 2, g, plateau_data(g, gam, 1.0))
    tg = np.linspace(0, 0.25, 33)
    worst = min(domination_ratios(h, picard_terms(pr, 6, tg, part)))
    print(f"PICARD_DOMINATION worst ratio: {worst:.4f} (S >= {1 / worst:.3f})")

    grid = SpectralGrid(1, 192, 12.0)
    partg = UniformPartition(grid)
    fam = hermite_coeff_family(1, 16, 8, seed=42)
    torus = SpectralGrid(1, 64, math.pi)
    need = 0.0
    for beta, t in [(1.0, 1.0), (2.0, 0.5)]:
        rep = transference_check(t, beta, [1.0, 2.0, 4.0], fam, partg, torus,
                                 slack=2.0)
        need = max(need, rep.max_ratio / rep.young_upper)
    print(f"TRANSFER max ratio/young: {need:.5f}")

    rng = np.random.default_rng(11)
    tensor = np.zeros(17, dtype=complex)
    tensor[:11] = rng.standard_normal(11)
    tgrid = np.concatenate([np.geomspace(0.05, 2.5, 12), np.linspace(3, 5, 9)])
    sup_all = 0.0
    for beta in (1.0, 2.0):
        for rows in decay_profile(tensor, beta, [1.0, 2.0, 4.0], tgrid, partg):
            sup_all = max(sup_all, max(r[2] for r in rows))
    print(f"DECAY_PROFILE sup ratio: {sup_all:.4f}")


if __name__ == "__main__":
    main()
