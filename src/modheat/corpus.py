"""Deterministic test-function families shared by the tests and the CLI.

Every family is a pure function of its arguments and seed, so runs that
echo their seed are reproducible bit for bit.  A function is the array of
its physical samples on the grid, and a Hermite expansion is the ndarray of
its coefficients: a float array for a real function or real coefficients,
complex otherwise.  A family is one stack of either, with a leading axis of
length count.
"""

import numpy as np

from .hermite import level_mesh
from .spectral import inverse_values


def gaussian(grid, amplitude, width, modulation=None):
    """amplitude * exp(-|x|^2 / (2 width^2)), optionally modulated: float
    samples, complex ones when modulated."""
    sq = np.sum(grid.x_mesh ** 2, axis=-1)
    vals = amplitude * np.exp(-0.5 * sq / width ** 2)
    if modulation is not None:
        vals = vals * np.exp(1j * np.tensordot(
            grid.x_mesh, np.asarray(modulation, dtype=float), axes=([-1], [0])))
    return vals


def band_limited(grid, max_mode, seed):
    """Float samples of a random real function whose transform is
    supported on |m_j| <= max_mode (before the real part is taken);
    max_mode must be below N/2."""
    n = grid.points_per_axis
    if not 0 <= max_mode < n // 2:
        raise ValueError(f"max_mode must lie in [0, {n // 2}), got {max_mode}")
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex)
    # the draws run over the modes from -max_mode up; mode m is in slot m % n
    slots = np.arange(-max_mode, max_mode + 1) % n
    size = (2 * max_mode + 1,) * grid.dim
    coeffs[np.ix_(*[slots] * grid.dim)] = (rng.standard_normal(size)
                                           + 1j * rng.standard_normal(size))
    return np.ascontiguousarray(inverse_values(grid, coeffs).real)


def mixed_family(grid, count, seed):
    """Gaussians of widths 0.5, 1 and 2, modulated Gaussians, and random
    band-limited functions (|m_j| <= 6), as one complex stack."""
    rng = np.random.default_rng(seed)
    out = np.empty((count,) + grid.shape, dtype=complex)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            out[i] = gaussian(grid, 1.0, (0.5, 1.0, 2.0)[i // 3 % 3])
        elif kind == 1:
            mod = [float(1 + (i % 4))] * grid.dim
            out[i] = gaussian(grid, 1.0, 1.0, modulation=mod)
        else:
            out[i] = band_limited(grid, 6, int(rng.integers(2 ** 31)))
    return out


def propagation_corpus(grid, count, seed):
    """Family for semigroup-boundedness sweeps.

    Includes one very wide Gaussian so the near-identity ratio at tiny
    frequencies anchors the uniform constant.
    """
    wide = gaussian(grid, 1.0, grid.half_width / 8.5)
    return np.concatenate([wide[None], mixed_family(grid, count - 1, seed)])


def hermite_coeff_family(dim, degree_cap, count, seed, levels=11):
    """Random real coefficient tensors of degree cap degree_cap in
    dimension dim, a (count, degree_cap + 1, ...) float stack: standard
    normal draws on total degrees below levels, one tensor after another,
    then 0 above the cap."""
    mesh = level_mesh(dim, degree_cap)
    drawn = mesh < levels
    rng = np.random.default_rng(seed)
    out = np.zeros((count,) + mesh.shape)
    for tensor in out:
        tensor[drawn] = rng.standard_normal(int(drawn.sum()))
    out[:, mesh > degree_cap] = 0.0
    return out
