"""Fourier multipliers on the 2-pi torus with operator-norm bracketing.

Conventions are fixed so that the single-mode projector has convolution
kernel of L^1 norm exactly one:

    F_T f(xi)   = integral_{[0,2pi)^d} f(theta) exp(-i xi.theta) dtheta
    F_T^{-1} g  = (2pi)^{-d} sum_xi g(xi) exp(i xi.theta)

The operator norm of T_m on L^p is bracketed between an empirical lower
bound (single modes plus random trigonometric polynomials) and the Young
upper bound, the L^1 norm of the inverse transform of the symbol.  The
oscillator heat symbol restricted to nonnegative modes ties this module to
the Hermite flow: its multiplier bound on the torus transfers to a bound on
the modulation-norm decay of the oscillator semigroup, up to one frozen
slack constant absorbing norm-equivalence factors.  The family and its
flow are measured as one stack (hermite.expansion_mod_norms).
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .hermite import (eigen_sum, expansion_mod_norms, heat_coeff_factors,
                      multiplier_tail)


@dataclass(frozen=True)
class TorusGrid:
    """Sampling of [0, 2pi)^d at M points per axis; modes |xi_j| < M/2 retained."""

    dim: int
    modes_per_axis: int

    def __post_init__(self):
        if self.dim < 1 or self.modes_per_axis < 4 or self.modes_per_axis % 2:
            raise ValueError("need even modes_per_axis >= 4 and dim >= 1")

    @property
    def shape(self):
        return (self.modes_per_axis,) * self.dim

    @cached_property
    def mode_axis(self):
        m = self.modes_per_axis
        return np.arange(-m // 2, m // 2)

    @cached_property
    def mode_mesh(self):
        axes = np.meshgrid(*([self.mode_axis] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    @property
    def cell_volume(self):
        return (2.0 * np.pi / self.modes_per_axis) ** self.dim


def torus_forward(values, tg):
    values = np.asarray(values, dtype=complex).reshape(tg.shape)
    return np.fft.fftshift(np.fft.fftn(values)) * tg.cell_volume


def torus_inverse(coeffs, tg):
    coeffs = np.asarray(coeffs, dtype=complex).reshape(tg.shape)
    raw = np.fft.ifftn(np.fft.ifftshift(coeffs)) * tg.modes_per_axis ** tg.dim
    return raw * (2.0 * np.pi) ** (-tg.dim)


class MultiplierSpec:
    """Bounded symbol sampled on the retained mode lattice.

    `truncation_remainder` bounds the l^1 mass of the symbol outside the
    retained band (zero for finitely supported or user-sampled symbols).
    """

    def __init__(self, values, truncation_remainder=0.0):
        self.values = np.asarray(values, dtype=complex)
        self.truncation_remainder = float(truncation_remainder)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("multiplier is unbounded on the retained modes")

    def sup(self):
        return float(np.max(np.abs(self.values)))


def oscillator_heat_symbol(tg, t, beta):
    """exp(-t (2|alpha| + d)^beta) on nonnegative modes, zero elsewhere."""
    mesh = tg.mode_mesh
    level = np.maximum(np.sum(mesh, axis=-1), 0)  # clamp: masked out below
    nonneg = np.all(mesh >= 0, axis=-1)
    vals = np.where(nonneg, np.exp(-t * (2.0 * level + tg.dim) ** beta), 0.0)
    # modes dropped by the band truncation have |alpha| >= M/2
    rem = multiplier_tail(tg.dim, t, beta, tg.modes_per_axis // 2)
    return MultiplierSpec(vals, truncation_remainder=rem)


def torus_apply(values, spec, tg):
    """F_T^{-1} (m . F_T f) on the sample lattice."""
    coeffs = torus_forward(values, tg)
    return torus_inverse(spec.values * coeffs, tg)


def torus_lp_norm(values, tg, p):
    a = np.abs(np.asarray(values))
    if np.isinf(p):
        return float(a.max())
    return float((tg.cell_volume * np.sum(a ** p)) ** (1.0 / p))


def kernel_l1_norm(spec, tg):
    """Quadrature L^1 norm of the convolution kernel of the symbol.

    This is the Young upper bound for the L^p -> L^p operator norm at every
    p.  A band-truncation remainder above 1e-10 means the retained lattice
    cannot represent the symbol faithfully; enlarge the grid.
    """
    if spec.truncation_remainder > 1e-10:
        raise ValueError(
            f"symbol truncation remainder {spec.truncation_remainder:.3e} "
            "exceeds tolerance; enlarge modes_per_axis")
    kernel = torus_inverse(spec.values, tg)
    return torus_lp_norm(kernel, tg, 1)


def operator_norm_lower(spec, p, trials, tg, seed=0):
    """Empirical lower bound: max ratio over single modes and random polynomials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # a pure mode is an eigenfunction with eigenvalue m(xi) and |f| = 1, so
    # its ratio is |m(xi)| at every p: the best pure mode gives the sup
    best = spec.sup()
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeffs = (rng.standard_normal(tg.shape)
                  + 1j * rng.standard_normal(tg.shape))
        f = torus_inverse(coeffs, tg)
        best = max(best, _ratio(f, spec, tg, p))
    return best


def _ratio(f, spec, tg, p):
    denom = torus_lp_norm(f, tg, p)
    if denom == 0.0:
        return 0.0
    return torus_lp_norm(torus_apply(f, spec, tg), tg, p) / denom


# -- transference cross-check ------------------------------------------------------


@dataclass
class TransferenceRow:
    label: str
    base_norm: float
    heated_norm: float
    ratio: float
    bound: float
    passed: bool


@dataclass
class TransferenceReport:
    rows: list
    young_upper: float
    parseval_upper: float

    @property
    def max_ratio(self):
        return max(r.ratio for r in self.rows)

    @property
    def all_passed(self):
        return all(r.passed for r in self.rows)


def transference_check(t, beta, p, family, grid, partition, tg, slack):
    """Compare oscillator-heat modulation-norm ratios with the torus Young bound.

    `family` is a non-empty list of (label, HermiteCoeffs) on one basis;
    each function is pushed through exp(-t H^beta), resampled on the uniform
    grid, and measured in the (p, p) modulation norm, all members and their
    flows as one stack.  Every ratio must stay below the Young upper bound
    times the frozen slack constant.
    """
    if math.isinf(p):
        raise ValueError("transference check requires p < infinity")

    spec = oscillator_heat_symbol(tg, t, beta)
    young = kernel_l1_norm(spec, tg)
    parseval = (2.0 * np.pi) ** (tg.dim / 2.0) * math.sqrt(
        eigen_sum(tg.dim, beta, t))
    base = np.stack([coeffs.tensor for _, coeffs in family])
    factors = heat_coeff_factors(family[0][1].basis, t, beta)
    norms = expansion_mod_norms(np.concatenate([base, factors * base]),
                                grid, p, partition).tolist()

    rows = []
    bound = young * slack
    for (label, _), base_norm, heated in zip(family, norms, norms[len(family):]):
        if base_norm == 0.0:
            raise ValueError(f"zero-norm test function {label!r}")
        ratio = heated / base_norm
        rows.append(TransferenceRow(label, base_norm, heated, ratio, bound,
                                    ratio <= bound))
    return TransferenceReport(rows, young, parseval)
