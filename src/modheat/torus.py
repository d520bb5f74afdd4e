"""Fourier multipliers on the 2-pi torus with operator-norm bracketing.

The torus [0, 2pi)^d is the periodized box [-pi, pi)^d: SpectralGrid(d, M,
pi), whose dual lattice is the integer modes -M/2 <= xi_j < M/2 and whose
transform pair (spectral.forward_values, inverse_values) is the unitary
one.  A symbol is an array on that lattice, in the FFT's slot order of
every frequency array (grid.freq_axis gives each slot's mode).  The
convolution kernel of the multiplier m is

    K = (2pi)^{-d} sum_xi m(xi) exp(i xi.x) = (2pi)^{-d/2} inverse_values(m),

so that F(f * K) = (2pi)^{d/2} Ff . FK = Ff . m, and the single-mode
projector has a kernel of L^1 norm exactly one.

The operator norm of T_m on L^p is bracketed between an empirical lower
bound (single modes plus random trigonometric polynomials) and the Young
upper bound, the L^1 norm of the kernel.  The oscillator heat symbol
restricted to nonnegative modes ties this module to the Hermite flow: its
multiplier bound on the torus transfers to a bound on the modulation-norm
decay of the oscillator semigroup, up to one frozen slack constant
absorbing norm-equivalence factors.  A Hermite expansion is the ndarray
of its coefficients, so the family is one stack of coefficient tensors; it
and its flow are measured as one stack (hermite.expansion_mod_norms), at
every exponent of a sweep.
"""

from dataclasses import dataclass
import math

import numpy as np

from .hermite import (ZeroNormError, eigen_sum, expansion_mod_norms,
                      heat_coeff_factors, level_mesh, multiplier_tail)
from .spectral import inverse_values, lp_norm


def oscillator_heat_symbol(grid, t, beta):
    """exp(-t (2|alpha| + d)^beta) on the nonnegative modes alpha of grid
    (a SpectralGrid with half_width pi), zero elsewhere.

    A ValueError if the band truncation drops more than 1e-10 of the
    symbol's l^1 mass: the retained lattice cannot represent the symbol
    faithfully; enlarge the grid.
    """
    half = grid.points_per_axis // 2
    # modes dropped by the band truncation have |alpha| >= M/2
    rem = multiplier_tail(grid.dim, t, beta, half)
    if rem > 1e-10:
        raise ValueError(f"symbol truncation remainder {rem:.3e} exceeds "
                         "tolerance; enlarge modes_per_axis")
    sym = np.zeros(grid.shape)
    # slots 0 .. M/2 - 1 of each axis hold the modes 0 .. M/2 - 1
    sym[(slice(0, half),) * grid.dim] = heat_coeff_factors(
        level_mesh(grid.dim, half - 1), t, beta)
    return sym


def kernel_l1_norm(sym, grid):
    """Quadrature L^1 norm of the convolution kernel of the symbol: the
    Young upper bound for the L^p -> L^p operator norm at every p."""
    kernel = inverse_values(grid, sym)
    return ((2.0 * np.pi) ** (-grid.dim / 2.0)
            * lp_norm(kernel, grid.spacing ** grid.dim, 1, grid.dim))


# Working-set cap of operator_norm_lower: complex values in one stack of
# random trials (256 KiB); trials * modes^d may reach MAX_LATTICE_VALUES.
TRIAL_BATCH_VALUES = 1 << 14


def operator_norm_lower(sym, ps, trials, grid, seed):
    """Empirical lower bound at every p in ps: max ratio over single modes
    and random polynomials, each trial drawn and filtered once.

    Returns (lowers, ratios): lowers[i] is the bound at ps[i], and ratios
    (len(ps), trials) the ratio ||T f||_p / ||f||_p of every trial, 0 where
    ||f||_p = 0.  The trials are drawn, filtered and measured as stacks of
    at most TRIAL_BATCH_VALUES values, from one random stream in trial
    order: real then imaginary part of each trial's coefficients, each
    lattice from mode -M/2 up on every axis.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    batch = max(1, TRIAL_BATCH_VALUES // grid.size)
    vol = grid.spacing ** grid.dim
    ratios = np.zeros((len(ps), trials))
    for start in range(0, trials, batch):
        z = rng.standard_normal((min(batch, trials - start), 2) + grid.shape)
        # the draws fill each lattice from mode -M/2 up, so a seed keeps
        # its trials whatever the library's frequency order; ifftshift
        # moves them to slot order
        coeffs = np.fft.ifftshift(z[:, 0] + 1j * z[:, 1],
                                  axes=tuple(range(1, grid.dim + 1)))
        f = inverse_values(grid, coeffs)
        g = inverse_values(grid, sym * coeffs)
        for row, p in zip(ratios, ps):
            denom = lp_norm(f, vol, p, grid.dim)
            np.divide(lp_norm(g, vol, p, grid.dim), denom,
                      out=row[start:start + len(z)], where=denom != 0.0)
    # a pure mode is an eigenfunction with eigenvalue m(xi) and |f| = 1, so
    # its ratio is |m(xi)| at every p: the best pure mode gives the sup
    sup = float(np.abs(sym).max())
    lowers = [max([sup] + row) for row in ratios.tolist()]
    return lowers, ratios


# -- transference cross-check ------------------------------------------------------


@dataclass
class TransferenceRow:
    base_norm: float
    heated_norm: float
    ratio: float
    bound: float
    passed: bool


@dataclass
class TransferenceReport:
    """The family's rows at each p of the sweep (rows[i] at ps[i], in family
    order) and the p-independent symbol and upper bounds."""

    rows: list
    young_upper: float
    parseval_upper: float
    symbol: np.ndarray

    @property
    def max_ratio(self):
        return max(r.ratio for rows in self.rows for r in rows)

    @property
    def all_passed(self):
        return all(r.passed for rows in self.rows for r in rows)


def transference_check(t, beta, ps, family, partition, torus, slack):
    """Compare oscillator-heat modulation-norm ratios with the torus Young bound.

    `family` is a non-empty stack of coefficient tensors, one expansion
    each; each is pushed through exp(-t H^beta), resampled on the uniform
    grid partition.grid, and measured in the (p, p) modulation norm at
    every p in ps, all members and their flows as one stack.  Every ratio
    must stay below the Young upper bound times the frozen slack constant.
    The symbol, its bounds and the synthesized stack do not depend on p:
    each is built once.  `torus` is the symbol's SpectralGrid(d, M, pi).
    ZeroNormError if a member's norm at some p is 0.
    """
    if any(math.isinf(p) for p in ps):
        raise ValueError("transference check requires p < infinity")

    sym = oscillator_heat_symbol(torus, t, beta)
    young = kernel_l1_norm(sym, torus)
    parseval = (2.0 * np.pi) ** (torus.dim / 2.0) * math.sqrt(
        eigen_sum(torus.dim, beta, t))
    factors = heat_coeff_factors(
        level_mesh(family.ndim - 1, family.shape[1] - 1), t, beta)
    bound = young * slack
    rows = []
    for p, norms in zip(ps, expansion_mod_norms(
            np.concatenate([family, factors * family]), ps,
            partition).tolist()):
        p_rows = []
        for i, (base_norm, heated) in enumerate(zip(norms[:len(family)],
                                                    norms[len(family):])):
            if base_norm == 0.0:
                raise ZeroNormError(f"(p, p, 0) norm of family member {i} "
                                    f"is 0 at p = {p}")
            ratio = heated / base_norm
            p_rows.append(TransferenceRow(base_norm, heated, ratio, bound,
                                          ratio <= bound))
        rows.append(p_rows)
    return TransferenceReport(rows, young, parseval, sym)
