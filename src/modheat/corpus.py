"""Deterministic test-function families shared by the tests and the CLI.

Every family is a pure function of (grid, count, seed), so runs that echo
their seed are reproducible bit for bit.
"""

import numpy as np

from .spectral import FREQUENCY, PHYSICAL, GridFunction, inverse_transform


def gaussian(grid, amplitude=1.0, width=1.0, modulation=None):
    """amplitude * exp(-|x|^2 / (2 width^2)), optionally modulated."""
    sq = np.sum(grid.x_mesh ** 2, axis=-1)
    vals = amplitude * np.exp(-0.5 * sq / width ** 2)
    if modulation is not None:
        vals = vals * np.exp(1j * np.tensordot(
            grid.x_mesh, np.asarray(modulation, dtype=float), axes=([-1], [0])))
    return GridFunction(grid, vals, PHYSICAL)


def band_limited(grid, max_mode, seed):
    """Random real function whose transform is supported on |m_j| <= max_mode
    (before the real part is taken)."""
    rng = np.random.default_rng(seed)
    n = grid.points_per_axis
    coeffs = np.zeros(grid.shape, dtype=complex)
    lo = n // 2 - max_mode
    hi = n // 2 + max_mode + 1
    block = tuple(slice(lo, hi) for _ in range(grid.dim))
    size = (2 * max_mode + 1,) * grid.dim
    coeffs[block] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    f = inverse_transform(GridFunction(grid, coeffs, FREQUENCY))
    return GridFunction(grid, f.values.real.astype(complex), PHYSICAL)


def mixed_family(grid, count, seed):
    """Gaussians of widths 0.5, 1 and 2, modulated Gaussians, and random
    band-limited functions (|m_j| <= 6)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            out.append(gaussian(grid, 1.0, (0.5, 1.0, 2.0)[i // 3 % 3]))
        elif kind == 1:
            mod = [float(1 + (i % 4))] * grid.dim
            out.append(gaussian(grid, 1.0, 1.0, modulation=mod))
        else:
            out.append(band_limited(grid, 6, int(rng.integers(2 ** 31))))
    return out


def propagation_corpus(grid, count, seed):
    """Family for semigroup-boundedness sweeps.

    Includes one very wide Gaussian so the near-identity ratio at tiny
    frequencies anchors the uniform constant.
    """
    wide_width = grid.half_width / 8.5
    out = [gaussian(grid, 1.0, wide_width)]
    out.extend(mixed_family(grid, count - 1, seed))
    return out[:count]


def hermite_coeff_family(basis, count, seed, max_level=None):
    """Random coefficient tensors supported on low total degrees."""
    from .hermite import HermiteCoeffs

    if max_level is None:
        max_level = min(10, basis.degree_cap)
    rng = np.random.default_rng(seed)
    fams = []
    for i in range(count):
        tensor = np.zeros(basis.coeff_shape, dtype=complex)
        mask = basis.level_mesh <= max_level
        vals = rng.standard_normal(int(mask.sum()))
        tensor[mask] = vals
        fams.append((f"rand{i}", HermiteCoeffs(basis, tensor)))
    return fams
