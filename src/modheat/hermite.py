"""Hermite functions, coefficient tensors, and the oscillator heat flow.

Normalized Hermite functions are generated by the stable recurrence

    h_0(x) = pi^{-1/4} e^{-x^2/2}
    h_{k+1}(x) = x sqrt(2/(k+1)) h_k(x) - sqrt(k/(k+1)) h_{k-1}(x)

and tensorized to d dimensions.  The oscillator H = -Delta + |x|^2 acts on
the level-k eigenspace with eigenvalue 2k + d, so any bounded spectral
multiplier, in particular exp(-t (2k+d)^beta), is diagonal in the
coefficient tensor, and the flow is taken there.  A Hermite expansion is
the ndarray of its coefficients: a (degree_cap + 1,) * d tensor indexed by
the per-axis degrees, 0 above total degree degree_cap (level_mesh gives
every entry's total degree), and a stack of expansions is one array with a
leading axis.  Expansions are synthesized on a uniform grid from a table of
the Hermite functions at its points, one contraction per axis.  Decay
profiles synthesize the data and its flow at every t as one stack, at most
NORM_BATCH_VALUES values at a time, and take one stacked norm call for
every exponent p of the sweep on each synthesized chunk, which forms the
chunk's blocks once.
"""

import math
import sys

import numpy as np

from .modnorm import NORM_BATCH_VALUES, ModNormSpec, mod_norms_from_frequency
from .spectral import forward_values


def hermite_table(k_max, x):
    """h_0 .. h_{k_max} evaluated at x; shape (k_max + 1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((k_max + 1, x.size))
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if k_max >= 1:
        out[1] = x * math.sqrt(2.0) * out[0]
    for k in range(1, k_max):
        out[k + 1] = (x * math.sqrt(2.0 / (k + 1)) * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


class ZeroNormError(ValueError):
    """A measured (p, p, 0) norm of the data or its flow is 0, which the
    norms' scale rule (spectral.binary_scale) leaves to samples that are 0
    in floats; of_flow is true when only a flow's norm is 0."""

    def __init__(self, message, of_flow=False):
        super().__init__(message)
        self.of_flow = of_flow


def level_mesh(dim, degree_cap):
    """Total degree |alpha| of every entry of a (degree_cap + 1,) * dim
    coefficient tensor."""
    return sum(np.indices((degree_cap + 1,) * dim))


def heat_coeff_factors(levels, t, beta):
    """exp(-t (2|alpha|+d)^beta) on a level mesh of dimension d, one per
    entry of t."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("negative time")
    # a level whose (2k+d)^beta overflows decays to 0 at every t > 0
    with np.errstate(over="ignore"):
        return np.exp(-np.multiply.outer(
            t, (2.0 * levels + levels.ndim) ** beta))


# -- eigenvalue sums and their closed-form bound ----------------------------------


def _shell_terms(d, c, beta, n_lo, n_hi):
    """Terms multiplicity(n) * exp(-c (2n+d)^beta) for shells n_lo..n_hi-1."""
    n = np.arange(n_lo, n_hi, dtype=float)
    if d == 1:
        mult = np.ones_like(n)
    elif d == 2:
        mult = n + 1.0
    elif d == 3:
        mult = (n + 1.0) * (n + 2.0) / 2.0
    else:
        # C(n + d - 1, d - 1) through C(n + i, i) = C(n + i - 1, i - 1)
        # (n + i) / i, i = 1 .. d - 1: each product is the integer
        # i C(n + i, i), so a multiplicity is exact while d - 1 times it is
        # below 2^53 (as at d = 3), within 2 (d - 1) roundings beyond, and inf
        # beyond the float range
        mult = np.ones_like(n)
        with np.errstate(over="ignore"):
            for i in range(1, d):
                mult = mult * (n + i) / i
        if not np.all(np.isfinite(mult)):
            raise OverflowError("shell multiplicity too large to convert "
                                "to float")
    return mult * np.exp(-c * (2.0 * n + d) ** beta)


def _log_shell_tail_bound(d, c, beta, n_star):
    """Log of a rigorous bound on sum_{n > n_star} multiplicity(n)
    e^{-c (2n+d)^beta}; inf while n_star is too small for the bound.

    Uses multiplicity(n) <= (n+d)^{d-1}/(d-1)! and the substitution
    u = (2x+d)^beta, under which the integrand is dominated by a decaying
    exponential once u_star >= 2(d/beta - 1)/c.  From there on the bound
    decreases in n_star.
    """
    y_star = 2.0 * n_star + d
    u_star = y_star ** beta
    a = d / beta
    if u_star < 2.0 * max(a - 1.0, 0.0) / c or y_star < d:
        return math.inf  # caller must push n_star further out
    return ((a - 1.0) * math.log(u_star) - c * u_star
            + math.log(2.0 / c) - math.log(2.0 * beta)
            - math.lgamma(float(d)))


def _shell_tail_bound(d, c, beta, n_star):
    log_tail = _log_shell_tail_bound(d, c, beta, n_star)
    return math.inf if log_tail == math.inf else math.exp(log_tail)


def eigen_sum(d, beta, t):
    """sum over alpha in N^d of exp(-2 t (2|alpha|+d)^beta) by direct summation.

    The shell sum is extended until a rigorous remainder bound drops below
    1e-14 times the accumulated value.
    """
    if t <= 0 or beta <= 0:
        raise ValueError("t and beta must be positive")
    c = 2.0 * t
    give_up = 50_000_000
    # The loop below checks the remainder at shells up to `last` at most.
    # There the bound is smallest, and the sum is at most comb(last + d, d)
    # terms of at most e^{-c d^beta}: if even that cannot certify, no shell
    # can, so fail before summing.
    last = 2 * give_up + 4095
    log_most = (math.lgamma(last + d + 1.0) - math.lgamma(last + 1.0)
                - math.lgamma(d + 1.0) - c * d ** beta)
    if _log_shell_tail_bound(d, c, beta, last) > math.log(1e-14) + log_most:
        raise ValueError("eigenvalue sum cannot certify its remainder within "
                         f"{last} shells; beta or t too small")
    n_lo, block = 0, 4096
    # the first block's largest multiplicity C(block + d - 2, d - 1) in logs:
    # clearly beyond the float range, d passes over the block would only
    # overflow (_shell_terms' own check keeps the borderline d)
    if (math.lgamma(block - 1.0 + d) - math.lgamma(float(block))
            - math.lgamma(d) > math.log(sys.float_info.max) + 1.0):
        raise OverflowError("shell multiplicity too large to convert to "
                            "float")
    total = 0.0
    while True:
        terms = _shell_terms(d, c, beta, n_lo, n_lo + block)
        total += float(np.sum(terms))
        n_star = n_lo + block - 1
        tail = _shell_tail_bound(d, c, beta, n_star)
        if tail <= 1e-14 * total:
            return total
        n_lo += block
        block *= 2
        if n_lo > give_up:
            raise ValueError("eigenvalue sum failed to certify its remainder "
                             f"within {give_up} shells; parameters too "
                             "extreme")


def eigen_sum_bound(d, beta, t):
    """Closed-form majorant e^{-t d^beta} d^{d/beta} Gamma(1+1/beta)^d / (2^d t^{d/beta})."""
    if t <= 0 or beta <= 0:
        raise ValueError("t and beta must be positive")
    return (math.exp(-t * d ** beta) * d ** (d / beta)
            / (2.0 ** d * t ** (d / beta)) * math.gamma(1.0 + 1.0 / beta) ** d)


def multiplier_tail(d, t, beta, n_from):
    """Bound on sum over shells n >= n_from of multiplicity(n) e^{-t (2n+d)^beta}."""
    direct = _shell_terms(d, t, beta, n_from, n_from + 4096)
    tail = _shell_tail_bound(d, t, beta, n_from + 4095)
    return float(np.sum(direct)) + tail


# -- decay profile ----------------------------------------------------------------


def expansion_mod_norms(tensors, ps, partition):
    """(p, p, 0) decomposition norms on partition.grid of the expansions
    stacked along the first axis of tensors, one row per p in ps:
    NORM_BATCH_VALUES synthesized values at a time, each chunk one
    contraction per axis and one transform, then one norm call for every
    p, which forms the chunk's blocks once.
    """
    grid = partition.grid
    if tensors.ndim - 1 != grid.dim:
        raise ValueError("Hermite expansion and grid dimensions differ")
    table = hermite_table(tensors.shape[1] - 1, grid.x_axis)
    specs = [ModNormSpec(p, p, 0.0) for p in ps]
    batch = max(1, NORM_BATCH_VALUES // grid.size)
    norms = []
    for i in range(0, len(tensors), batch):
        vals = tensors[i:i + batch]
        for _ in range(grid.dim):
            # not tensordot: its first BLAS gemm call adds ~0.5 MB peak RSS
            vals = np.einsum("bk...,kn->b...n", vals, table)
        hats = forward_values(grid, vals)
        norms.append(mod_norms_from_frequency(hats, specs, partition))
    return np.concatenate(norms, axis=1)


def decay_profile(tensor, beta, ps, t_grid, partition):
    """One table of (t, norm of the heat flow, compensated ratio) per p in ps.

    The ratio multiplies the measured (p, p, 0) decomposition norm by
    e^{t d^beta} t^{d/beta} and divides by the initial norm; its supremum
    over the grid is the empirical decay constant.  The initial data and
    the flow at every t are synthesized as one stack and measured at every
    p; ZeroNormError if a norm at some p is 0: the flow of nonzero data is
    nonzero at every t, but its coefficients fall like
    e^{-t (2k + d)^beta}, and its samples are 0 in floats at large t.
    """
    d = tensor.ndim
    t_grid = [float(t) for t in t_grid]
    heated = heat_coeff_factors(level_mesh(d, tensor.shape[0] - 1), t_grid,
                                beta) * tensor
    profiles = []
    for p, norms in zip(ps, expansion_mod_norms(
            np.concatenate([tensor[None], heated]), ps,
            partition).tolist()):
        base = norms[0]
        if base == 0.0:
            raise ZeroNormError(f"(p, p, 0) norm of the data is 0 at p = {p}")
        if min(norms) == 0.0:
            t = t_grid[norms.index(0.0) - 1]
            raise ZeroNormError("(p, p, 0) norm of the flow underflows to 0 "
                                f"at p = {p}, t = {t:g}", of_flow=True)
        profiles.append([(t, nrm, nrm * math.exp(t * d ** beta)
                          * t ** (d / beta) / base)
                         for t, nrm in zip(t_grid, norms[1:])])
    return profiles
