import functools
import math
import warnings
from itertools import product

import numpy as np
import pytest

from modheat import constants
from modheat.corpus import band_limited, mixed_family
from modheat import modnorm
from modheat.modnorm import (ModNormSpec, STFTPlan, UniformPartition,
                             _block_lp_norms, _stft_transforms,
                             algebra_defect, bump_profile,
                             max_mod_norm, mod_norms_from_frequency,
                             mod_norms_stft, stft_resolution_ok)
from modheat.spectral import (SpectralGrid, binary_scale, fine_grid,
                              forward_values, inverse_values, lp_norm)
from test_spectral import (dealiased_product, frequency_lp_norm,
                           physical_lp_norm)


# -- oracles: the partition's symbols and blocks one at a time, and the
# -- decomposition norm of one function; also used by other test modules


def partition_keys(partition):
    """Every block center k with |k_j| <= k_max, active or not."""
    rng = range(-partition.k_max, partition.k_max + 1)
    return product(rng, repeat=partition.grid.dim)


def partition_symbol(partition, k):
    """sigma_k sampled on the full frequency lattice, rebuilt from the bump
    profile: the normalized row of each center, one outer product per axis."""
    k = tuple(int(c) for c in k)
    if not all(abs(c) <= partition.k_max for c in k):
        raise ValueError(f"block center {k} outside k_max {partition.k_max}")
    centers = np.arange(-partition.k_max, partition.k_max + 1)
    profile = bump_profile(partition.grid.freq_axis[None, :]
                           - centers[:, None])
    rows = profile / profile.sum(axis=0)[None, :]
    out = rows[k[0] + partition.k_max]
    for c in k[1:]:
        out = np.multiply.outer(out, rows[c + partition.k_max])
    return out


def block_project(f, k, partition):
    """Frequency-uniform block of physical samples f on partition.grid:
    inverse transform of sigma_k times F f."""
    g = partition.grid
    sym = partition_symbol(partition, k)
    return inverse_values(g, sym * forward_values(g, f))


def mod_norm_decomp(f, spec, partition):
    """Decomposition norm of one function's physical samples on
    partition.grid: a stack of one."""
    return float(mod_norms_from_frequency(
        forward_values(partition.grid, f), [spec], partition)[0])


def stft(f, plan, x, y):
    """Quadrature value of the windowed transform at one phase-space point:
    the pointwise oracle of the batched estimator.

    x is snapped to the physical lattice (the window is only known there);
    y may be any frequency within the sampled band; f holds physical
    samples on plan.grid.
    """
    g = plan.grid
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.size != g.dim or y.size != g.dim:
        raise ValueError("x and y must be d-vectors")
    if np.any(np.abs(x) > g.half_width) or np.any(np.abs(y) > g.max_freq_component):
        raise ValueError("phase-space point outside the sampled range")
    shifts = [int(round(c / g.spacing)) for c in x]
    win = np.roll(np.conj(plan.window), shifts, axis=tuple(range(g.dim)))
    phase = np.exp(-1j * np.tensordot(g.x_mesh, y, axes=([-1], [0])))
    integrand = f * win * phase
    return complex((2.0 * np.pi) ** (-g.dim / 2.0)
                   * g.spacing ** g.dim * np.sum(integrand))


class TestBumpProfile:
    def test_plateau_and_support(self):
        u = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
        v = bump_profile(u)
        assert v[0] == v[1] == v[2] == 1.0
        assert 0.0 < v[3] < 1.0
        assert v[4] == v[5] == 0.0

    def test_even(self):
        u = np.linspace(0, 1.2, 25)
        np.testing.assert_array_equal(bump_profile(u), bump_profile(-u))


class TestPartition:
    def test_sums_to_one_everywhere(self, grid1, part1):
        total = np.zeros(grid1.shape)
        for k in partition_keys(part1):
            total += partition_symbol(part1, k)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_sums_to_one_2d(self, grid2, part2):
        total = np.zeros(grid2.shape)
        for k in partition_keys(part2):
            total += partition_symbol(part2, k)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    @pytest.mark.parametrize("k", [(0,), (4,), (-9,)])
    def test_support_confined_to_unit_cube(self, grid1, part1, k):
        sym = partition_symbol(part1, k)
        outside = np.abs(grid1.freq_axis - k[0]) > 1.0
        assert np.max(np.abs(sym[outside])) == 0.0

    def test_unity_at_isolated_centers(self):
        # integer centers land on the lattice when half_width is 8 pi
        g = SpectralGrid(1, 128, 8 * np.pi)
        part = UniformPartition(g)
        idx = np.argmin(np.abs(g.freq_axis - 3.0))
        assert g.freq_axis[idx] == pytest.approx(3.0, abs=1e-14)
        assert partition_symbol(part, (3,))[idx] == pytest.approx(1.0,
                                                                  abs=1e-14)
        assert partition_symbol(part, (2,))[idx] == 0.0
        assert partition_symbol(part, (4,))[idx] == 0.0

    def test_block_center_out_of_range(self, grid1, part1, gauss1):
        with pytest.raises(ValueError):
            block_project(gauss1, (part1.k_max + 1,), part1)


class TestBlockProjection:
    def test_blocks_reconstruct(self, grid1, part1, gauss1):
        total = np.zeros(grid1.shape, dtype=complex)
        for k in part1.active_keys():
            total += block_project(gauss1, k, part1)
        assert np.max(np.abs(total - gauss1)) <= 1e-10

    def test_reconstruction_band_limited_2d(self, grid2, part2):
        f = band_limited(grid2, 3, seed=8)
        total = np.zeros(grid2.shape, dtype=complex)
        for k in part2.active_keys():
            total += block_project(f, k, part2)
        assert np.max(np.abs(total - f)) <= 1e-10

    @pytest.mark.parametrize("k", [(0,), (5,), (-11,)])
    def test_almost_orthogonality(self, grid1, part1, gauss1, k):
        base = block_project(gauss1, k, part1)
        total = np.zeros(grid1.shape, dtype=complex)
        for ell in (-1, 0, 1):
            total += block_project(base, (k[0] + ell,), part1)
        assert np.max(np.abs(total - base)) <= 1e-10

    def test_almost_orthogonality_2d(self, grid2, part2):
        f = band_limited(grid2, 3, seed=3)
        k = (1, -2)
        base = block_project(f, k, part2)
        total = np.zeros(grid2.shape, dtype=complex)
        for ex in (-1, 0, 1):
            for ey in (-1, 0, 1):
                total += block_project(base, (k[0] + ex, k[1] + ey),
                                       part2)
        assert np.max(np.abs(total - base)) <= 1e-10

    def test_single_cell_data_reproduced(self, grid1, part1):
        # transform supported strictly inside one unit cell: the cell block
        # plus its neighbors reproduce f, and non-adjacent blocks vanish
        coeffs = np.zeros(grid1.shape, dtype=complex)
        sel = np.abs(grid1.freq_axis - 5.0) <= 0.4
        coeffs[sel] = 1.0
        fp = inverse_values(grid1, coeffs)
        total = np.zeros(grid1.shape, dtype=complex)
        for ell in (-1, 0, 1):
            total += block_project(fp, (5 + ell,), part1)
        np.testing.assert_allclose(total, fp, atol=1e-12)
        far = block_project(fp, (8,), part1)
        assert np.max(np.abs(far)) <= 1e-12

    def test_center_supported_data_is_one_block(self, part1):
        # data whose transform sits exactly at an integer center belongs to
        # that block alone (sigma_k = 1 there)
        g = SpectralGrid(1, 128, 8 * np.pi)
        part = UniformPartition(g)
        coeffs = np.zeros(g.shape, dtype=complex)
        coeffs[np.argmin(np.abs(g.freq_axis - 3.0))] = 1.0
        fp = inverse_values(g, coeffs)
        blk = block_project(fp, (3,), part)
        np.testing.assert_allclose(blk, fp, atol=1e-13)
        for other in ((2,), (4,), (0,)):
            assert np.max(np.abs(block_project(fp, other, part))) <= 1e-13


class TestDecompositionNorm:
    def test_zero(self, grid1, part1):
        z = np.zeros(grid1.shape)
        assert mod_norm_decomp(z, ModNormSpec(2, 1, 0), part1) == 0.0

    def test_homogeneity(self, grid1, part1, gauss1):
        c = 3.7
        spec = ModNormSpec(2, 1, 0)
        a = mod_norm_decomp(c * gauss1, spec, part1)
        b = mod_norm_decomp(gauss1, spec, part1)
        assert a == pytest.approx(c * b, rel=1e-12)

    def test_l2_equivalence_bracket(self, grid1, part1, gauss1):
        ratio = mod_norm_decomp(gauss1, ModNormSpec(2, 2, 0), part1) \
            / physical_lp_norm(grid1, gauss1, 2)
        assert constants.M22_OVER_L2_LO <= ratio <= constants.M22_OVER_L2_HI

    def test_nestedness_in_q(self, grid1, part1):
        for i in range(20):
            f = band_limited(grid1, 6, seed=500 + i)
            n1 = mod_norm_decomp(f, ModNormSpec(2, 1, 0), part1)
            n2 = mod_norm_decomp(f, ModNormSpec(2, 2, 0), part1)
            ninf = mod_norm_decomp(f, ModNormSpec(2, np.inf, 0), part1)
            assert 1.01 * n1 >= n2
            assert 1.01 * n2 >= ninf

    def test_weight_increases_norm(self, grid1, part1, gauss1):
        n0 = mod_norm_decomp(gauss1, ModNormSpec(2, 1, 0), part1)
        n1 = mod_norm_decomp(gauss1, ModNormSpec(2, 1, 1.0), part1)
        assert n1 > n0

    def test_sup_exponent_dominates_peak(self, grid1, part1, gauss1):
        # (inf, 1) norm: triangle inequality forces it above the sup of f
        n = mod_norm_decomp(gauss1, ModNormSpec(np.inf, 1, 0), part1)
        assert n >= np.max(np.abs(gauss1)) - 1e-12

    def test_lp_sandwich_via_frozen_constants(self, grid1, part1):
        # L^2 sits between the (2,1) and (2,inf) norms up to the frozen
        # equivalence constants
        for i in range(10):
            f = band_limited(grid1, 6, seed=700 + i)
            l2 = physical_lp_norm(grid1, f, 2)
            n21 = mod_norm_decomp(f, ModNormSpec(2, 1, 0), part1)
            ninf = mod_norm_decomp(f, ModNormSpec(2, np.inf, 0), part1)
            assert l2 <= n21 / constants.M22_OVER_L2_LO * 1.01
            assert ninf <= constants.M22_OVER_L2_HI * l2 * 1.01

    def test_fourier_transform_is_isomorphism(self, grid1, part1):
        # (p,p) norms of f and of its transform (measured on the dual grid)
        # agree up to a frozen constant
        dual = SpectralGrid(1, grid1.points_per_axis, grid1.max_freq_component)
        dual_part = UniformPartition(dual)
        spec = ModNormSpec(2, 2, 0)
        for f in mixed_family(grid1, 8, seed=21):
            F = forward_values(grid1, f)
            ratio = mod_norm_decomp(F, spec, dual_part) \
                / mod_norm_decomp(f, spec, part1)
            assert constants.FOURIER_ISO_LO <= ratio <= constants.FOURIER_ISO_HI

    def test_rejects_bad_exponents(self):
        for p, q, s in [(0.5, 1, 0), (2, 0.5, 0), (np.nan, 1, 0),
                        (2, np.nan, 0), (2, 1, np.nan), (2, 1, np.inf),
                        (2, 1, -np.inf), (-np.inf, 1, 0)]:
            with pytest.raises(ValueError):
                ModNormSpec(p, q, s)


# -- block-norm engine against the per-block transform oracle -------------------

EQUIV_GRIDS = {1: SpectralGrid(1, 256, 16.0), 2: SpectralGrid(2, 32, 8.0),
               3: SpectralGrid(3, 16, 8.0)}
EQUIV_RTOL = 1e-12


@functools.lru_cache(maxsize=None)
def _equiv_case(dim):
    """Partition and random complex data; no symmetry, so axis swaps show."""
    g = EQUIV_GRIDS[dim]
    rng = np.random.default_rng(40 + dim)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return UniformPartition(g), f


@functools.lru_cache(maxsize=None)
def _oracle_block_norms(dim, p):
    part, f = _equiv_case(dim)
    vol = part.grid.spacing ** dim
    return [(k, lp_norm(block_project(f, k, part), vol, p, dim))
            for k in sorted(part.active_keys())]


def scaled_stack(F, dim):
    """(2^-e F, e) of a stack of functions, samples in the last dim axes:
    max(|Re f|, |Im f|) = m 2^e with 1/2 <= m < 1, e = 0 for the zero
    function.  The oracles' own scale rule, as the norms have it."""
    F = np.asarray(F, dtype=complex)
    axes = tuple(range(F.ndim - dim, F.ndim))
    top = np.maximum(np.abs(F.real), np.abs(F.imag)).max(axis=axes)
    e = np.frexp(top)[1]
    shift = -e.reshape(e.shape + (1,) * dim)
    return np.ldexp(F.real, shift) + 1j * np.ldexp(F.imag, shift), e


def _engine_block_norms(F, part, p):
    """The engine's block table of a stack at one p, taken as the norms
    take it: on 2^-e F, rescaled by 2^e."""
    F, e = scaled_stack(F, part.grid.dim)
    table = (np.sqrt(modnorm._block_energies(F, part)) if p == 2
             else _block_lp_norms(F, part, [p], None)[0])
    return np.ldexp(table, e[:, None])


def _assert_blocks_match(dim, p):
    part, f = _equiv_case(dim)
    got = _engine_block_norms(forward_values(part.grid, f)[None], part,
                              p)[0]
    want = _oracle_block_norms(dim, p)
    assert list(part.active_keys()) == [k for k, _ in want]
    np.testing.assert_allclose(got, [n for _, n in want],
                               rtol=EQUIV_RTOL, atol=0.0)


class TestBlockNormEngine:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_block_norms_match_oracle(self, dim, p):
        _assert_blocks_match(dim, p)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_three_dim_axis_order(self, p):
        _assert_blocks_match(3, p)

    @pytest.mark.parametrize("s", [0.0, 1.5])
    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_decomp_norm_matches_oracle(self, dim, p, q, s):
        part, f = _equiv_case(dim)
        terms = [(1.0 + math.sqrt(sum(c * c for c in k))) ** s * n
                 for k, n in _oracle_block_norms(dim, p)]
        want = max(terms) if np.isinf(q) else \
            sum(t ** q for t in terms) ** (1.0 / q)
        got = mod_norm_decomp(f, ModNormSpec(p, q, s), part)
        assert got == pytest.approx(want, rel=EQUIV_RTOL, abs=0.0)

    @pytest.mark.parametrize("amplitude", [1e-160, 1e-80, 1e-70, 1e70, 1e80,
                                           1e160])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_p4_float_range(self, kind, amplitude):
        # p = 4 takes two squarings, the oracle pow, both on scaled data:
        # the spectrum falls by 1e-6 across the blocks, whose fourth powers
        # unscaled would overflow at 1e80 in some blocks and read 0 at
        # 1e-80 in others; scaled, every block reads the oracle's value.
        # The real kind is exactly Hermitian at every amplitude, so its
        # copied blocks stay within roundoff of their own size
        part, f = _equiv_case(1)
        g = part.grid
        F = (_exactly_hermitian(part, 8) if kind == "real"
             else forward_values(g, f))
        F = amplitude * F * np.exp(-0.5 * (g.freq_axis / 4.75) ** 2)
        assert _hermitian(F[None], part) == [kind == "real"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _engine_block_norms(F[None], part, 4.0)[0]
            # block_project on these frequency samples, then lp_norm
            want = np.array([lp_norm(inverse_values(
                g, partition_symbol(part, k) * F), g.spacing, 4.0, 1)
                for k in part.active_keys()])
        assert np.all((want > 0.0) & (want < np.inf))
        assert want.min() < 1e-6 * want.max()
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestStackedNorms:
    @pytest.mark.parametrize("s", [0.0, 1.5])
    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_slice(self, dim, p, q, s, monkeypatch):
        # three functions in batches of two: the last batch is a partial one
        part, _ = _equiv_case(dim)
        g = part.grid
        rng = np.random.default_rng(7 + dim)
        stack = rng.standard_normal((3,) + g.shape) \
            + 1j * rng.standard_normal((3,) + g.shape)
        spec = ModNormSpec(p, q, s)
        want = [mod_norms_from_frequency(F, [spec], part)[0] for F in stack]
        # the rows the engine holds per function: one at p = 2
        rows = 1 if p == 2 else len(part._active_centers)
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES", 2 * rows * g.size)
        got = mod_norms_from_frequency(stack, [spec], part)[0]
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
    def test_real_dtype_matches_complex_cast(self, p):
        # float64 samples (a real, even spectrum: the mirrored path at
        # p != 2) give the bits of the same samples cast to complex, in the
        # norms and in the pruned max
        g = SpectralGrid(1, 256, 16.0)
        part = UniformPartition(g)
        F = np.exp(-g.freq_axis ** 2)
        stack = np.stack([F, 0.5 * F, np.roll(F, 3)])
        spec = ModNormSpec(p, 1.0, 0.0)
        real = mod_norms_from_frequency(stack, [spec], part)
        cast = mod_norms_from_frequency(stack.astype(complex), [spec], part)
        assert real.tobytes() == cast.tobytes()
        [(top, evaluated)], calls = max_mod_norm([stack], spec, part)
        assert max_mod_norm([stack.astype(complex)], spec, part) \
            == ([(top, evaluated)], calls)
        assert np.float64(top).tobytes() == real.max().tobytes()

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_stack(self, dim, p):
        # no functions, one empty row per spec, behind any stack axes
        part, _ = _equiv_case(dim)
        specs = [ModNormSpec(p, 1.0, 0.0), ModNormSpec(p, 2.0, 1.5)]
        for lead in [(0,), (3, 0)]:
            empty = np.zeros(lead + part.grid.shape, complex)
            got = mod_norms_from_frequency(empty, specs, part)
            assert got.shape == (len(specs),) + lead


def per_p_block_norms(F, partition, p):
    """The block engine at a single p, one pass over the blocks per p: the
    oracle of the multi-p engine, bit for bit.  The norms give it 2^-e f
    (scaled_stack)."""
    g = partition.grid
    d = g.dim
    if p == 2:
        acc = np.abs(F) ** 2
        for _ in range(d):
            acc = np.tensordot(acc, partition._sq_rows, axes=([1], [1]))
        return np.sqrt(g.freq_spacing ** d * acc).reshape(len(F), -1)
    rows = partition._folded_rows
    nrows, n = rows.shape
    last = rows.reshape((nrows,) + (1,) * (d - 1) + (n,))
    block_axes = tuple(range(2, d + 2))
    vol = g.spacing ** d
    chunks = []
    for lead in product(range(nrows), repeat=d - 1):
        partial = F
        for j in range(d - 1):
            shape = [1] * (d + 1)
            shape[j + 1] = n
            partial = np.fft.ifft(
                partial * rows[lead[j]].reshape(shape), axis=j + 1)
        blocks = partial[:, None] * last
        a = np.abs(np.fft.ifft(blocks, axis=-1, out=blocks))
        if np.isinf(p):
            chunks.append(a.max(axis=block_axes))
            continue
        if p == 4:
            # the engine's rule: two squarings, not pow
            np.square(a, out=a)
            np.square(a, out=a)
        elif p != 1:
            a **= p
        chunks.append((vol * np.sum(a, axis=block_axes)) ** (1.0 / p))
    return np.concatenate(chunks, axis=1)


def per_spec_norms(values, spec, partition, batch=None):
    """mod_norms_from_frequency at a single spec, on per_p_block_norms of
    each function's 2^-e f, rescaled by 2^e: the oracle of the list form,
    bit for bit."""
    g = partition.grid
    stack, e = scaled_stack(values.reshape((-1,) + g.shape), g.dim)
    if batch is None:
        rows = 1 if spec.p == 2 else len(partition._active_centers)
        batch = max(1, modnorm.NORM_BATCH_VALUES // (rows * g.size))
    norms = np.concatenate([per_p_block_norms(stack[i:i + batch], partition,
                                              spec.p)
                            for i in range(0, len(stack), batch)])
    terms = norms * (1.0 + partition._key_radii) ** spec.s
    if np.isinf(spec.q):
        out = terms.max(axis=-1)
    else:
        out = np.cumsum(terms ** spec.q, axis=-1)[:, -1] ** (1.0 / spec.q)
    return np.ldexp(out, e).reshape(values.shape[:values.ndim - g.dim])


# spec lists that mix p, repeat a spec and come in different orders; two
# or more p outside {1, 2, inf} take a power into a fresh array
MIXED_SPECS = {
    "mixed": [(1, 1, 0), (4, 2, 1.5), (2, 1, 0), (np.inf, 1, 0), (3, 2, 0),
              (4, 2, 1.5)],
    "reversed": [(4, 2, 1.5), (3, 2, 0), (np.inf, 1, 0), (2, 1, 0),
                 (4, 2, 1.5), (1, 1, 0)],
    "powers_only": [(3, 1, 0), (1.5, np.inf, -1.0), (4, 1, 0)],
    "p2_only": [(2, 2, 0), (2, 1, 1.5), (2, 2, 0)],
    "one_and_inf": [(np.inf, 2, 0), (1, 1, 0)],
}


@functools.lru_cache(maxsize=None)
def _multi_case(dim):
    """Partition and a stack of three random complex functions."""
    part, _ = _equiv_case(dim)
    g = part.grid
    rng = np.random.default_rng(11 + dim)
    stack = rng.standard_normal((3,) + g.shape) \
        + 1j * rng.standard_normal((3,) + g.shape)
    return part, stack


@functools.lru_cache(maxsize=None)
def _single_spec_norms(dim, spec, batch):
    """(one single-spec call, the per-p oracle) on _multi_case(dim)."""
    part, stack = _multi_case(dim)
    spec = ModNormSpec(*spec)
    return (mod_norms_from_frequency(stack, [spec], part, batch=batch)[0],
            per_spec_norms(stack, spec, part, batch=batch))


class TestMultiSpecEngine:
    """One list call against one single-spec call per spec and against the
    per-p oracle, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 1 << 30])
    @pytest.mark.parametrize("specs", sorted(MIXED_SPECS))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_list_matches_single_specs(self, dim, specs, batch):
        part, stack = _multi_case(dim)
        got = mod_norms_from_frequency(
            stack, [ModNormSpec(*t) for t in MIXED_SPECS[specs]], part,
            batch=batch)
        assert got.shape == (len(MIXED_SPECS[specs]), 3)
        for row, spec in zip(got, MIXED_SPECS[specs]):
            alone, want = _single_spec_norms(dim, spec, batch)
            np.testing.assert_array_equal(row, alone)
            np.testing.assert_array_equal(row, want)

    def test_batch_shape_and_partial_batches(self, monkeypatch):
        # five functions in engine batches of two at p != 2 (and of 2K at
        # p = 2): the last batch is a partial one on both paths
        part, _ = _equiv_case(1)
        g = part.grid
        rng = np.random.default_rng(3)
        values = rng.standard_normal((5, 1) + g.shape) + 0j
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES",
                            2 * len(part._active_centers) * g.size)
        specs = [ModNormSpec(*t) for t in MIXED_SPECS["mixed"]]
        got = mod_norms_from_frequency(values, specs, part)
        assert got.shape == (len(specs), 5, 1)
        for row, spec in zip(got, specs):
            np.testing.assert_array_equal(row,
                                          per_spec_norms(values, spec, part))

    def test_reduction_order_keeps_magnitudes(self):
        # p = 3 powers into a fresh array, p = 4 in place, and p = 1 and
        # inf read the magnitudes before either: each p's block table is
        # the per-p oracle's
        part, f = _equiv_case(2)
        F = forward_values(part.grid, f)[None]
        ps = [3.0, 1.0, 4.0, np.inf, 1.5]
        tables = _block_lp_norms(F, part, ps, None)
        for p, table in zip(ps, tables):
            np.testing.assert_array_equal(table,
                                          per_p_block_norms(F, part, p))


# -- the mirrored path: real data takes the blocks at or above 0 --------------

# grids of d = 1, 2, 3; on the side-2 pi box the lattice is the integers and
# the center -k_max sits on the -N/2 slot itself
MIRROR_GRIDS = {"d1": SpectralGrid(1, 256, 16.0),
                "d1_integers": SpectralGrid(1, 64, math.pi),
                "d2": SpectralGrid(2, 32, 8.0),
                "d3": SpectralGrid(3, 16, 8.0)}
MIRROR_PS = [1.0, 1.5, 4.0, np.inf]


@functools.lru_cache(maxsize=None)
def _real_case(name):
    """Partition and the transforms of two real random functions: every
    block is far above roundoff, so block tables compare elementwise."""
    g = MIRROR_GRIDS[name]
    rng = np.random.default_rng(90 + g.dim)
    F = forward_values(g, rng.standard_normal((2,) + g.shape))
    return UniformPartition(g), F


def _complex_tables(F, part, ps):
    """The engine's full schedule, every block transformed: the oracle of
    the mirrored one."""
    return modnorm._block_lp_tables(F, part, ps, False)


def _hermitian(F, part):
    """The engine's decision per function at d = 1: exactly Hermitian off
    -N/2, on the 2^-e f it is given."""
    F = scaled_stack(F, part.grid.dim)[0]
    return list(modnorm._hermitian(F, part))


def _exactly_hermitian(part, seed):
    """Frequency samples with F(-xi) = conj F(xi) exactly off -N/2."""
    g = part.grid
    rng = np.random.default_rng(seed)
    G = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    axes = tuple(range(g.dim))
    return 0.5 * (G + np.conj(np.roll(np.flip(G, axes), 1, axes)))


class TestMirroredEngine:
    @pytest.mark.parametrize("name", sorted(MIRROR_GRIDS))
    def test_rows_mirror_off_the_nyquist_slot(self, name):
        # the exact symmetry the copies rest on: row_{-c}(xi) = row_c(-xi)
        # on every slot but -N/2 for the rows the engine transforms, and
        # some row is nonzero on -N/2
        part, _ = _real_case(name)
        n = part.grid.points_per_axis
        rows = part._folded_rows
        centers = list(part._active_centers)
        off = np.arange(n) != n // 2
        mirror = -np.arange(n) % n
        for i, c in enumerate(centers):
            if -c in centers:
                np.testing.assert_array_equal(
                    rows[centers.index(-c)][off], rows[i][mirror][off])
        assert part._sq_rows[:, n // 2].any()

    @pytest.mark.parametrize("name", sorted(MIRROR_GRIDS))
    def test_real_data_matches_complex_path_and_oracle(self, name):
        # at d = 1 the transformed columns have the full schedule's bits and
        # the copied ones match it to roundoff: a copy is its source
        # block's norm, which differs from the copied block's exact norm
        # by that block's FFT roundoff, far below 1e-13; at d >= 2 every
        # column is transformed
        part, F = _real_case(name)
        assert all(_hermitian(F, part))
        got = _block_lp_norms(F, part, MIRROR_PS, None)
        full = _complex_tables(F, part, MIRROR_PS)
        for p, table in zip(MIRROR_PS, got):
            np.testing.assert_allclose(table, per_p_block_norms(F, part, p),
                                       rtol=1e-13, atol=0.0)
        if part.grid.dim > 1:
            for table, want in zip(got, full):
                np.testing.assert_array_equal(table, want)
            return
        _, taken, copied, _ = modnorm._mirror_rows(part)
        assert copied.size
        for table, want in zip(got, full):
            np.testing.assert_allclose(table, want, rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(table[:, taken], want[:, taken])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_norms_match_complex_path(self, dim):
        part, F = _real_case({1: "d1", 2: "d2", 3: "d3"}[dim])
        specs = [ModNormSpec(*t) for t in MIXED_SPECS["mixed"]]
        got = mod_norms_from_frequency(F, specs, part)
        for row, spec in zip(got, specs):
            np.testing.assert_allclose(row, per_spec_norms(F, spec, part),
                                       rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mixed_stack_keeps_each_functions_bits(self, dim):
        # real and complex functions interleaved, in one engine batch and
        # one at a time: every norm is the one of a call on it alone
        part, real = _real_case({1: "d1", 2: "d2", 3: "d3"}[dim])
        _, complex_ = _multi_case(dim)
        stack = np.stack([real[0], complex_[0], real[1], complex_[1]])
        assert _hermitian(stack, part) == [True, False, True, False]
        # p != 2: the Parseval path's last bit depends on the batch
        specs = [ModNormSpec(*t) for t in MIXED_SPECS["mixed"] if t[0] != 2]
        alone = np.stack([mod_norms_from_frequency(F, specs, part)
                          for F in stack], axis=1)
        for batch in (None, 1, 3):
            np.testing.assert_array_equal(
                mod_norms_from_frequency(stack, specs, part, batch=batch),
                alone)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_ulp_off_takes_the_full_schedule(self, dim):
        # an exactly Hermitian spectrum takes the mirrored schedule at
        # d = 1, whose copied columns differ from the full schedule's in
        # the last bits; moved by one ulp in one slot it is not Hermitian,
        # and every column is the full schedule's; at d >= 2 both take
        # every block
        part, _ = _equiv_case(dim)
        ps = [1.0, 4.0]
        F = _exactly_hermitian(part, 5)[None]
        off = F.copy()
        slot = (0,) + (3,) * dim
        off[slot] = np.nextafter(off[slot].real, np.inf) + 1j * off[slot].imag
        for G, hermitian in ((F, True), (off, False)):
            assert _hermitian(G, part) == [hermitian]
            got = _block_lp_norms(G, part, ps, None)
            for table, want in zip(got, _complex_tables(G, part, ps)):
                if hermitian and dim == 1:
                    assert not np.array_equal(table, want)
                    np.testing.assert_allclose(table, want, rtol=1e-13,
                                               atol=0.0)
                else:
                    np.testing.assert_array_equal(table, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_nyquist_rows_do_not_count_in_the_defect(self, dim):
        # complex -N/2 rows on every axis (the solver's unpaired mode) leave
        # a function Hermitian to the engine's test: only keys clear of
        # -N/2 are copied
        part, _ = _equiv_case(dim)
        F = _exactly_hermitian(part, 6)
        half = part.grid.points_per_axis // 2
        for axis in range(dim):
            F[(slice(None),) * axis + (half,)] *= 1.0 + (axis + 1.0) * 0.5j
        assert _hermitian(F[None], part) == [True]
        got = _block_lp_norms(F[None], part, MIRROR_PS, None)
        for table, want in zip(got, _complex_tables(F[None], part,
                                                    MIRROR_PS)):
            np.testing.assert_allclose(table, want, rtol=1e-13, atol=0.0)

    def test_heavy_weights_take_the_mirrored_path(self):
        # a copy's error is its source block's roundoff whatever the
        # weights: at s = 100 the norms match the full schedule's to
        # roundoff, and a lighter spec of the same p shares the block table
        # in one call with the bits each spec has alone
        part, F = _real_case("d1")
        heavy, light = ModNormSpec(1.0, 1.0, 100.0), ModNormSpec(1.0, 1.0, 0.0)
        both = mod_norms_from_frequency(F, [heavy, light], part)
        for row, spec in zip(both, (heavy, light)):
            np.testing.assert_array_equal(
                row, mod_norms_from_frequency(F, [spec], part)[0])
            np.testing.assert_allclose(row, per_spec_norms(F, spec, part),
                                       rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("amplitude", [1e-160, 1e-120, 1e120, 1e160])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_float_range(self, p, amplitude):
        # a power of two keeps a spectrum Hermitian, so a real function
        # takes the mirrored path at every amplitude, and matches the
        # complex path to roundoff
        part, F = _real_case("d1")
        F = amplitude * F
        spec = ModNormSpec(p, 1.0, 0.0)
        got = mod_norms_from_frequency(F, [spec], part)[0]
        want = per_spec_norms(F, spec, part)
        assert _hermitian(F, part) == [True, True]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# -- the engine's working set: batches sized by the schedule that runs -------

# a stack's functions ("r" real, "c" complex), its grid and its specs; the
# real functions take the mirrored rows at d = 1 at every spec, the s = 100
# one included
WORKING_SET_CASES = {
    "real": ("r" * 9, "d1", [(1, 1, 0), (4, 2, 1.5), (np.inf, 1, 0)]),
    "complex": ("c" * 5, "d1", [(1, 1, 0), (4, 2, 1.5)]),
    "mixed": ("rcrrcrrcrr", "d1", [(1.5, 1, 0), (4, 2, 1.5)]),
    "d2": ("rcrr", "d2", [(1, 1, 0), (4, 2, 1.5)]),
    "heavy": ("r" * 9, "d1", [(1, 1, 0), (1, 1, 100), (4, 2, 1.5)]),
}


@functools.lru_cache(maxsize=None)
def _working_set_case(name):
    """Partition, frequency samples of the stack and its specs: each real
    function transformed as a float array, so its spectrum is Hermitian."""
    kinds, grid, specs = WORKING_SET_CASES[name]
    part, _ = _real_case(grid)
    g = part.grid
    rng = np.random.default_rng(len(kinds))
    f = list(rng.standard_normal((len(kinds),) + g.shape))
    for i, kind in enumerate(kinds):
        if kind == "c":
            f[i] = f[i] + 1j * rng.standard_normal(g.shape)
    return (part, np.stack([forward_values(g, v) for v in f]),
            [ModNormSpec(*t) for t in specs])


def _engine_passes(monkeypatch, name):
    """(functions, rows transformed) of every engine pass of one call on
    _working_set_case(name), and the call's norms."""
    part, F, specs = _working_set_case(name)
    engine, passes = modnorm._block_lp_tables, []

    def spy(F, partition, ps, hermitian):
        rows = (modnorm._mirror_rows(partition)[1].size if hermitian
                else len(partition._active_centers))
        passes.append((len(F), rows))
        return engine(F, partition, ps, hermitian)

    monkeypatch.setattr(modnorm, "_block_lp_tables", spy)
    return passes, mod_norms_from_frequency(F, specs, part)


class TestEngineWorkingSet:
    @pytest.mark.parametrize("name", sorted(WORKING_SET_CASES))
    def test_passes_stay_within_the_cap(self, monkeypatch, name):
        part, F, specs = _working_set_case(name)
        passes, got = _engine_passes(monkeypatch, name)
        kinds = WORKING_SET_CASES[name][0]
        size = part.grid.size
        for functions, rows in passes:
            assert (functions == 1 or functions * rows * size
                    <= modnorm.NORM_BATCH_VALUES)
        # every function passes once through each schedule it takes
        full = len(part._active_centers)
        mirrored = sum(n for n, rows in passes if rows < full)
        real = kinds.count("r") if part.grid.dim == 1 else 0
        assert mirrored == real
        assert sum(n for n, rows in passes if rows == full) == (
            len(kinds) - real)
        for row, spec in zip(got, specs):
            np.testing.assert_allclose(row, per_spec_norms(F, spec, part),
                                       rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", ["real", "complex", "mixed"])
    def test_batches_fill_the_cap(self, monkeypatch, name):
        # a group's batches hold as many functions as its schedule's rows
        # allow: the mirrored rows' for a real group, all rows otherwise
        part, _, _ = _working_set_case(name)
        kinds = WORKING_SET_CASES[name][0]
        passes, _ = _engine_passes(monkeypatch, name)
        for kind in "rc":
            rows = (modnorm._mirror_rows(part)[1].size if kind == "r"
                    else len(part._active_centers))
            step = modnorm._engine_batch(rows, part.grid)
            count = kinds.count(kind)
            want = [min(step, count - i) for i in range(0, count, step)]
            assert [n for n, r in passes if r == rows] == want


class TestMaxModNorm:
    """max_mod_norm against mod_norms_from_frequency(...).max(), bit for bit;
    tests/test_modnorm_bound.py checks the bound itself over random stacks."""

    @staticmethod
    def _flow(part, times):
        """Heat-flow slices of random data: the norm is largest at t = 0."""
        g = part.grid
        rng = np.random.default_rng(5)
        F0 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        decay = np.exp(-np.multiply.outer(times, g.freq_magnitude ** 2))
        return decay * F0

    @pytest.mark.parametrize("p", [1.0, 4.0, np.inf])
    def test_max_at_first_slice_is_pruned_to(self, part1, p):
        # the linear term of a Picard series: the t = 0 slice wins, and
        # slices that have decayed below it are never evaluated exactly
        stack = self._flow(part1, np.linspace(0.0, 2.0, 17))
        spec = ModNormSpec(p, 1.0, 0.0)
        want = mod_norms_from_frequency(stack, [spec], part1)[0]
        assert want.argmax() == 0
        [(got, evaluated)], _ = max_mod_norm([stack], spec, part1)
        assert got == want.max()
        assert evaluated < len(stack)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_plane_wave_attains_the_bound(self, dim, p):
        # on a box of side 2 pi the lattice is the integers, where one row
        # is exactly 1: a single mode is one block of constant modulus, for
        # which Hoelder is an equality, so only the roundoff slack separates
        # the norm from its bound
        g = SpectralGrid(dim, 8, math.pi)
        part = UniformPartition(g)
        F = np.zeros(g.shape, complex)
        F[(3,) * dim] = 1.0
        spec = ModNormSpec(p, 1.0, 1.5)
        exact = mod_norms_from_frequency(F, [spec], part)[0]
        scale = modnorm._bound_scale(spec, part)
        bound = modnorm._parseval_bounds(*binary_scale(F[None], dim), spec,
                                         part, scale)[0]
        assert exact <= bound <= exact * (1.0 + 2.0 * modnorm.BOUND_ROUNDOFF)
        # the block has no lag products (W = A): lam = 0, Hoelder's bound
        energy = modnorm._block_energies(F[None], part)
        with np.errstate(divide="ignore", invalid="ignore"):
            factors = modnorm._carlson_factors(F[None], energy, p, part)
        assert np.all(factors == 1.0)
        assert bound == scale * mod_norms_from_frequency(
            F, [ModNormSpec(2.0, 1.0, 1.5)], part)[0]

    def test_max_found_after_a_larger_bound(self, monkeypatch):
        # one function per engine batch.  The noise has the largest bound
        # but not the largest norm: its norm sits further below its bound
        # than the plane wave's (a mode at an integer frequency, one block),
        # which must still be evaluated after it
        g = SpectralGrid(1, 64, 4.0 * math.pi)
        part = UniformPartition(g)
        spec = ModNormSpec(1.0, 1.0, 0.0)
        rng = np.random.default_rng(3)
        # the draws run from mode -32 up: ifftshift moves them to slot order
        noise = np.fft.ifftshift(rng.standard_normal(g.shape)
                                 + 1j * rng.standard_normal(g.shape)) \
            * np.exp(-g.freq_axis ** 2 / 8)
        wave = np.zeros(g.shape, complex)
        wave[16] = 1.0  # mode 16: frequency 4
        stack = np.array([wave, noise, wave])
        norms = mod_norms_from_frequency(stack, [spec], part)[0]
        stack[1] *= 0.97 * norms[0] / norms[1]
        stack[2] *= 0.1
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES",
                            len(part._active_centers) * g.size)
        want = mod_norms_from_frequency(stack, [spec], part)[0]
        bounds = modnorm._parseval_bounds(
            *binary_scale(stack, 1), spec, part,
            modnorm._bound_scale(spec, part))
        assert bounds.argmax() == 1 and want.argmax() == 0
        # the first engine call takes the noise, the second the wave
        assert max_mod_norm([stack], spec, part) == ([(want.max(), 2)], 2)

    def test_p2_evaluates_every_function(self, part1):
        stack = self._flow(part1, np.linspace(0.0, 2.0, 5))
        spec = ModNormSpec(2.0, 2.0, 1.5)
        [(got, evaluated)], _ = max_mod_norm([stack], spec, part1)
        assert got == mod_norms_from_frequency(stack, [spec], part1)[0].max()
        assert evaluated == len(stack)

    def test_overflowing_square_is_evaluated(self, part1):
        # |F|^2 overflows for the 1e160 function, so its bound is inf (or
        # NaN where a zero row meets it); it must be evaluated, not pruned
        stack = self._flow(part1, np.linspace(0.0, 1.0, 6))
        stack[3] *= 1e160
        spec = ModNormSpec(1.0, 1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(got, _)], _ = max_mod_norm([stack], spec, part1)
        want = mod_norms_from_frequency(stack, [spec], part1)[0]
        assert np.isfinite(want.max()) and want.argmax() == 3
        assert got == want.max()

    def test_overflowing_powers_are_evaluated(self, monkeypatch):
        # scaled, the 1e80 mode's fourth powers no longer overflow: both
        # norms are finite.  Unweighted, the bounds prune the 1e60 mode.
        # At s = 100 the weights (~1e108 on the high mode) could lift a
        # tiny block's subnormal fourth powers beyond the bound's slack, so
        # every function is evaluated, one call per stack
        g = SpectralGrid(1, 64, 8.0)
        part = UniformPartition(g)
        stack = np.zeros((2,) + g.shape, complex)
        stack[0, 0] = 1e80  # frequency 0, weight 1
        stack[1, 28] = 1e60  # mode 28: frequency 11
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES",
                            len(part._active_centers) * g.size)
        for s, evaluated in ((0.0, 1), (100.0, 2)):
            spec = ModNormSpec(4.0, 1.0, s)
            assert modnorm._prunable(spec, part) == (evaluated == 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                want = mod_norms_from_frequency(stack, [spec], part)[0]
                got = max_mod_norm([stack], spec, part)
            assert np.all(np.isfinite(want))
            assert got == ([(want.max(), evaluated)], 1)

    def test_underflowing_weights_warn_nothing(self, part1):
        # (1 + |k|)^-400 underflows to 0 away from k = 0, so no bound can
        # cover the subnormal roundings relatively: the spec is not
        # prunable, every function is evaluated, and nothing warns
        stack = self._flow(part1, np.linspace(0.0, 1.0, 4))
        spec = ModNormSpec(1.0, 1.0, -400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(got, evaluated)], _ = max_mod_norm([stack], spec, part1)
        assert got == mod_norms_from_frequency(stack, [spec], part1)[0].max()
        assert evaluated == len(stack)

    def test_nan_norm_propagates(self, part1):
        # weights (1 + |k|)^s overflow to inf, and inf times an empty block
        # is NaN in the exact norms
        stack = self._flow(part1, np.linspace(0.0, 1.0, 4))
        stack[:, np.abs(part1.grid.freq_axis) > 3.0] = 0.0
        spec = ModNormSpec(1.0, 1.0, 400.0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = mod_norms_from_frequency(stack, [spec], part1)[0].max()
            [(got, evaluated)], _ = max_mod_norm([stack], spec, part1)
        assert np.isnan(want) and np.isnan(got)
        # the spec is not prunable: every function is evaluated
        assert not modnorm._prunable(spec, part1)
        assert evaluated == len(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, part1, bad):
        stack = self._flow(part1, np.linspace(0.0, 1.0, 4))
        stack[2, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            max_mod_norm([stack], ModNormSpec(1.0, 1.0, 0.0), part1)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_empty_stack_named(self, part1, p):
        # as ndarray.max: an empty stack has no maximum
        stack = self._flow(part1, np.linspace(0.0, 1.0, 4))
        with pytest.raises(ValueError, match="stack 1 is empty"):
            max_mod_norm([stack, stack[:0], stack], ModNormSpec(p, 1.0, 0.0),
                         part1)


# -- max_mod_norm's merged calls against the two-call rule on one stack --


def per_stack_max(values, spec, partition):
    """(max, evaluations) of one stack by max_mod_norm's two-call rule run
    on that stack alone: at a spec _prunable admits, the function of
    largest bound U, then every other function whose U exceeds its norm;
    every function otherwise.  The oracle of the merged call and of its
    evaluation counts."""
    if spec.p == 2 or not modnorm._prunable(spec, partition):
        norms = mod_norms_from_frequency(values, [spec], partition)[0]
        return norms.max(), norms.size
    bounds = modnorm._parseval_bounds(
        *binary_scale(values, partition.grid.dim), spec, partition,
        modnorm._bound_scale(spec, partition)).ravel()
    stack = np.asarray(values).reshape((-1,) + partition.grid.shape)
    top = int(np.argmax(bounds))
    first = mod_norms_from_frequency(stack[top], [spec], partition)[0]
    taken = [top] + [i for i in range(len(stack))
                     if i != top and not bounds[i] <= first]
    norms = mod_norms_from_frequency(stack[taken], [spec], partition)[0]
    return norms.max(), len(taken)


LOCKSTEP_PARTS = {1: UniformPartition(SpectralGrid(1, 64, 8.0)),
                  2: UniformPartition(SpectralGrid(2, 16, 4.0))}


def _lockstep_case(dim, p, seed):
    """A spec at p and 1 .. 5 Picard-like stacks of 1 .. 19 slices
    t^m e^{-t |xi|^beta} F0: real (Hermitian) or complex F0, some with a
    slice whose |F|^2 overflows, some with norms NaN or inf (s = 400,
    whose weights overflow, on band-limited F0)."""
    part = LOCKSTEP_PARTS[dim]
    g = part.grid
    rng = np.random.default_rng(seed)
    heavy = rng.random() < 0.15
    spec = ModNormSpec(p, rng.choice([1.0, 2.0, np.inf]),
                       400.0 if heavy else rng.choice([0.0, 1.5]))
    stacks = []
    for _ in range(rng.integers(1, 6)):
        n = rng.integers(1, 20)
        t = np.linspace(0.0, rng.uniform(0.01, 1.0), n) \
            + rng.integers(0, 2) * 0.01
        f0 = rng.standard_normal(g.shape)
        if rng.random() < 0.5:
            f0 = f0 + 1j * rng.standard_normal(g.shape)
        F0 = forward_values(g, f0) * np.exp(-0.3 * g.freq_magnitude ** 2)
        if heavy and rng.random() < 0.5:
            F0[g.freq_magnitude > 3.0] = 0.0
        lags = np.exp(-np.multiply.outer(t, g.freq_magnitude
                                         ** rng.choice([1.0, 2.0])))
        stack = (t ** rng.integers(0, 3)).reshape((n,) + (1,) * dim) \
            * lags * F0
        if rng.random() < 0.1:
            stack[rng.integers(n)] *= 1e160
        stacks.append(stack)
    return part, spec, stacks


def _assert_lockstep(part, spec, stacks):
    with np.errstate(over="ignore", invalid="ignore"):
        want = [per_stack_max(stack, spec, part) for stack in stacks]
        got, _ = max_mod_norm(stacks, spec, part)
    assert len(got) == len(stacks)
    for (top, evaluated), (want_top, want_evaluated) in zip(got, want):
        assert np.float64(top).tobytes() == np.float64(want_top).tobytes()
        assert evaluated == want_evaluated


def spy_merged_spans(monkeypatch):
    """A list that gets, for every _merged_spans call, [rows taken from
    each stack, number of evaluate calls]: the first of a pruned
    max_mod_norm call takes the bounds, the others go to the engine."""
    spans, calls = modnorm._merged_spans, []

    def spy(pieces, evaluate, grid):
        record = [[rows for _, rows in pieces], 0]
        calls.append(record)

        def counted(F):
            record[1] += 1
            return evaluate(F)

        return spans(pieces, counted, grid)

    monkeypatch.setattr(modnorm, "_merged_spans", spy)
    return calls


class TestLockstepMax:
    """max_mod_norm on several stacks against the two-call rule on each
    stack alone (per_stack_max), and the invariant that makes it exact."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, np.inf])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_the_per_stack_loop(self, dim, p):
        # bit for bit: each stack's maximum, and the decisions that give
        # its evaluations
        for seed in range(15):
            _assert_lockstep(*_lockstep_case(dim, p, seed))

    @pytest.mark.parametrize("functions", [1, 3])
    def test_matches_with_small_batches(self, monkeypatch, functions):
        # engine batches of 1 and 3 functions: merged calls split across
        # several buffers
        part = LOCKSTEP_PARTS[1]
        monkeypatch.setattr(
            modnorm, "NORM_BATCH_VALUES",
            functions * len(part._active_centers) * part.grid.size)
        for seed in range(10):
            _assert_lockstep(*_lockstep_case(1, 1.0, 100 + seed))

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, np.inf])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_unevaluated_slices_are_bounded_by_the_max(self, monkeypatch,
                                                       dim, p):
        # no oracle: every slice the engine never took has U <= the
        # returned maximum, the full one bit for bit, and each slice it
        # took counts once
        calls = spy_merged_spans(monkeypatch)
        checked = 0
        for seed in range(15):
            part, spec, stacks = _lockstep_case(dim, p, seed)
            if not modnorm._prunable(spec, part):
                continue
            calls.clear()
            got, _ = max_mod_norm(stacks, spec, part)
            _, *engine = calls
            for i, (stack, (top, evaluated)) in enumerate(zip(stacks, got)):
                seen = np.concatenate([rows[i] for rows, _ in engine])
                assert evaluated == len(np.unique(seen)) == len(seen)
                bounds = modnorm._parseval_bounds(
                    *binary_scale(stack, dim), spec, part,
                    modnorm._bound_scale(spec, part))
                assert np.all(np.delete(bounds, seen) <= top)
                exact = mod_norms_from_frequency(stack, [spec], part)[0]
                assert np.float64(top).tobytes() == exact.max().tobytes()
                checked += len(stack) - len(seen)
        assert checked > 0

    @pytest.mark.parametrize("functions", [1, 3, None])
    def test_two_engine_calls_when_each_fits_a_buffer(self, monkeypatch,
                                                      functions):
        # each merged engine call takes ceil(slices / buffer) engine calls,
        # so two in all whenever both fit one buffer (_engine_batch(2)
        # functions); engine batches of 1 and 3 functions, and the default
        part = LOCKSTEP_PARTS[1]
        g = part.grid
        if functions is not None:
            monkeypatch.setattr(
                modnorm, "NORM_BATCH_VALUES",
                functions * len(part._active_centers) * g.size)
        size = modnorm._engine_batch(2, g)
        calls = spy_merged_spans(monkeypatch)
        fitted = 0
        for seed in range(20):
            part, spec, stacks = _lockstep_case(1, 1.0, 200 + seed)
            if not modnorm._prunable(spec, part):
                continue
            calls.clear()
            _, engine_calls = max_mod_norm(stacks, spec, part)
            slices = [sum(map(len, rows)) for rows, _ in calls[1:]]
            assert engine_calls == sum(n for _, n in calls[1:]) \
                == sum(-(-n // size) for n in slices)
            if all(n <= size for n in slices):
                assert engine_calls <= 2
                fitted += 1
        assert fitted > 0

    def test_one_scaling_per_evaluation(self, monkeypatch):
        # a pruned call on one stack at p = 1: the bounds scale each buffer
        # in place and the engine takes one scaled copy, so each evaluate
        # call of _merged_spans scales its functions once
        scale, scalings = modnorm.binary_scale, []

        def spy_scale(values, dim, out=None):
            scalings.append(len(values))
            return scale(values, dim, out)

        monkeypatch.setattr(modnorm, "binary_scale", spy_scale)
        calls = spy_merged_spans(monkeypatch)
        checked = 0
        for seed in range(20):
            part, spec, stacks = _lockstep_case(1, 1.0, seed)
            if not modnorm._prunable(spec, part):
                continue
            scalings.clear()
            calls.clear()
            max_mod_norm(stacks[:1], spec, part)
            evaluations = sum(count for _, count in calls)
            assert evaluations >= 2
            assert len(scalings) == evaluations
            checked += 1
        assert checked > 0

    def test_p2_one_call_per_stack(self):
        part, _, stacks = _lockstep_case(1, 2.0, 7)
        spec = ModNormSpec(2.0, 2.0, 1.5)
        got, calls = max_mod_norm(stacks, spec, part)
        assert calls == len(stacks)
        for (top, evaluated), stack in zip(got, stacks):
            norms = mod_norms_from_frequency(stack, [spec], part)[0]
            assert (top, evaluated) == (norms.max(), len(norms))

    @pytest.mark.parametrize("cap", ["several", "below_one"])
    def test_merged_calls_stay_within_the_cap(self, monkeypatch, cap):
        # every call max_mod_norm makes, Parseval or engine, holds at most
        # NORM_BATCH_VALUES values, or one function where one exceeds them
        part = LOCKSTEP_PARTS[2]
        g = part.grid
        _, _, stacks = _lockstep_case(2, 1.0, 3)
        spec = ModNormSpec(1.0, 1.0, 0.0)
        # three functions a merged stack, or one over the cap
        values = 6 * g.size if cap == "several" else g.size // 2
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES", values)
        want = [per_stack_max(stack, spec, part) for stack in stacks]
        norms, bounds = modnorm.mod_norms_from_frequency, \
            modnorm._parseval_bounds
        energies, calls, lags = modnorm._block_energies, [], []

        def spy(stack, specs, partition, batch=None):
            calls.append((len(stack), specs[0].p))
            return norms(stack, specs, partition, batch)

        def parseval_spy(stack, *args):
            calls.append((len(stack), 2.0))
            return bounds(stack, *args)

        def lag_spy(F, partition, lag=None):
            if lag is not None:
                lags.append(len(F))
            return energies(F, partition, lag)

        monkeypatch.setattr(modnorm, "mod_norms_from_frequency", spy)
        monkeypatch.setattr(modnorm, "_parseval_bounds", parseval_spy)
        monkeypatch.setattr(modnorm, "_block_energies", lag_spy)
        got, engine_calls = max_mod_norm(stacks, spec, part)
        assert [(float(top), n) for top, n in got] \
            == [(float(top), n) for top, n in want]
        assert sum(len(stack) for stack in stacks) > 1
        for functions, _ in calls:
            assert functions * g.size <= values or functions == 1
        # the lag products, beside a Parseval call's buffer: an eighth
        assert lags and all(8 * n * g.size <= values or n == 1 for n in lags)
        assert engine_calls == sum(p == spec.p for _, p in calls)
        if cap == "several":
            assert max(functions for functions, _ in calls) == 3


class TestSTFT:
    def test_gaussian_pair_closed_form(self, grid1, gauss1):
        plan = STFTPlan(grid1, window_values=np.exp(-grid1.x_axis ** 2 / 2),
                        normalize=False)
        v = stft(gauss1, plan, [0.0], [0.0])
        assert v.real == pytest.approx(2 ** -0.5, abs=1e-10)
        assert abs(v.imag) <= 1e-12

    def test_matches_independent_quadrature(self, grid1, gauss1):
        plan = STFTPlan(grid1, window_values=np.exp(-grid1.x_axis ** 2 / 2),
                        normalize=False)
        x0, y0 = 1.0, 2.0
        got = stft(gauss1, plan, [x0], [y0])
        t = np.linspace(-16, 16, 20001)
        integrand = np.exp(-t ** 2 / 2) * np.exp(-(t - x0) ** 2 / 2) \
            * np.exp(-1j * y0 * t)
        want = (2 * np.pi) ** -0.5 * np.trapezoid(integrand, t)
        assert abs(got - want) <= 1e-8

    def test_zero_function(self, grid1, plan1):
        z = np.zeros(grid1.shape)
        assert stft(z, plan1, [0.5], [1.5]) == 0

    def test_cauchy_schwarz_bound(self, grid1, plan1, gauss1):
        bound = (2 * np.pi) ** -0.5 * physical_lp_norm(grid1, gauss1, 2) * 1.0
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.uniform(-8, 8)
            y = rng.uniform(-10, 10)
            assert abs(stft(gauss1, plan1, [x], [y])) <= bound + 1e-12

    def test_out_of_range_rejected(self, grid1, plan1, gauss1):
        with pytest.raises(ValueError):
            stft(gauss1, plan1, [17.0], [0.0])
        with pytest.raises(ValueError):
            stft(gauss1, plan1, [0.0], [100.0])


class TestSTFTNorm:
    def test_zero(self, grid1, plan1):
        z = np.zeros(grid1.shape, complex)
        assert mod_norms_stft(z, plan1, [ModNormSpec(2, 2, 0)])[0] == 0.0

    def test_orthogonality_identity(self, grid1, plan1, gauss1):
        # (2,2,0) norm equals ||f||_2 ||g||_2 with the normalized window
        got = mod_norms_stft(gauss1, plan1, [ModNormSpec(2, 2, 0)])[0]
        want = physical_lp_norm(grid1, gauss1, 2)
        assert got == pytest.approx(want, rel=0.01)

    def test_homogeneity(self, grid1, plan1, gauss1):
        spec = ModNormSpec(2, 1, 0)
        a = mod_norms_stft(2.5 * gauss1, plan1, [spec])[0]
        b = mod_norms_stft(gauss1, plan1, [spec])[0]
        assert a == pytest.approx(2.5 * b, rel=1e-12)

    def test_cross_estimator_bracket(self, grid1, part1, plan1):
        c = constants.CROSS_ESTIMATOR_CONST
        spec = ModNormSpec(2, 1, 0)
        for i in range(20):
            f = band_limited(grid1, 6, seed=1000 + i)
            ratio = mod_norms_stft(f, plan1, [spec])[0] \
                / mod_norm_decomp(f, spec, part1)
            assert 1.0 / c <= ratio <= c

    def test_resolution_flag(self, grid1, plan1, gauss1):
        spec = ModNormSpec(2, 1, 0)
        coarse = mod_norms_stft(gauss1, plan1, [spec])[0]
        fine = mod_norms_stft(gauss1, plan1, [spec], refine=2)[0]
        assert stft_resolution_ok(coarse, fine)

    def test_resolution_flag_elementwise(self):
        coarse = [1.0, 1.0, 1.0, 0.0, 1.0]
        fine = [1.0, 1.005, 1.5, 0.0, 0.0]
        assert stft_resolution_ok(coarse, fine).tolist() == [
            True, True, False, True, False]

    def test_default_window_is_normalized(self, grid1, plan1):
        assert physical_lp_norm(grid1, plan1.window, 2) == pytest.approx(
            1.0, abs=1e-12)


# -- batched STFT estimator against the per-shift loop ---------------------------

# N = 240 with x_stride 7: the stride steps down to 6 (3 when refined) to
# divide the axis; the other plans use the default stride.
STFT_CASES = {"d1": (SpectralGrid(1, 256, 16.0), None),
              "d1_stride": (SpectralGrid(1, 240, 15.0), 7),
              "d2": (SpectralGrid(2, 16, 2.0), None),
              "d3": (SpectralGrid(3, 8, 1.0), None)}


@functools.lru_cache(maxsize=None)
def _stft_case(name, kind="complex"):
    """Random data and a random, non-symmetric window: both complex, or
    (kind "real") real values stored as complex, as the corpus stores
    them, and a real window.  "one_imag" is the real case with one
    imaginary sample added to f, "complex_window" real f with a complex
    window: both take the complex path."""
    g, x_stride = STFT_CASES[name]
    rng = np.random.default_rng(len(name) + g.dim)
    if kind == "complex":
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        window = (rng.standard_normal(g.shape)
                  + 1j * rng.standard_normal(g.shape))
    else:
        f = rng.standard_normal(g.shape).astype(complex)
        window = rng.standard_normal(g.shape)
        if kind == "one_imag":
            f.flat[f.size // 3] += 0.5j
        elif kind == "complex_window":
            window = window * np.exp(1j * g.x_mesh[..., 0])
    return f, STFTPlan(g, window, x_stride=x_stride)


def _stride(plan, refine):
    stride = max(1, plan.x_stride // refine)
    while plan.grid.points_per_axis % stride != 0:
        stride -= 1
    return stride


def _shift_loop_rows(f, plan, refine):
    """The refined grid and V_g f per window shift: one np.roll and one
    forward_values each."""
    g = plan.grid
    n = g.points_per_axis
    big = SpectralGrid(g.dim, n * refine, g.half_width * refine)
    lo = (big.points_per_axis - n) // 2
    rows = []
    for pos in product(range(0, n, _stride(plan, refine)), repeat=g.dim):
        win = np.roll(np.conj(plan.window), pos, axis=tuple(range(g.dim)))
        pad = np.zeros(big.shape, dtype=complex)
        pad[tuple(slice(lo, lo + n) for _ in range(g.dim))] = f * win
        rows.append(forward_values(big, pad))
    return big, rows


def _shift_loop_inner(fine, rows, p):
    """Sum over the window shifts of |V_g f|^p (max at p = inf), shift by
    shift."""
    inner = np.zeros(fine.shape)
    for row in rows:
        a = np.abs(row)
        if np.isinf(p):
            np.maximum(inner, a, out=inner)
        else:
            inner += a ** p
    return inner


def _shift_loop_norm(plan, refine, fine, rows, spec):
    """One spec's STFT norm from the per-shift rows, summed in shift
    order."""
    inner = _shift_loop_inner(fine, rows, spec.p)
    if not np.isinf(spec.p):
        a_vol = (_stride(plan, refine) * plan.grid.spacing) ** plan.grid.dim
        inner = (a_vol * inner) ** (1.0 / spec.p)
    ysq = np.sum(fine.freq_mesh ** 2, axis=-1)
    weight = (1.0 + ysq) ** (spec.s / 2.0)
    return lp_norm(inner * weight, fine.freq_spacing ** plan.grid.dim,
                   spec.q, plan.grid.dim)


@functools.lru_cache(maxsize=None)
def _oracle_stft_rows(name, refine, kind="complex"):
    """_shift_loop_rows of _stft_case(name, kind)."""
    return _shift_loop_rows(*_stft_case(name, kind), refine)


def _oracle_stft_inner(name, p, refine, kind="complex"):
    """_shift_loop_inner of _stft_case(name, kind)."""
    return _shift_loop_inner(*_oracle_stft_rows(name, refine, kind), p)


def _oracle_stft_norm(name, spec, refine, kind="complex"):
    """One spec's STFT norm of _stft_case(name, kind) as a loop over window
    shifts."""
    _, plan = _stft_case(name, kind)
    return _shift_loop_norm(plan, refine,
                            *_oracle_stft_rows(name, refine, kind), spec)


def _batched_rows(name, refine):
    """_stft_transforms' stacks, each copied out of its buffer."""
    f, plan = _stft_case(name)
    fine, _ = _oracle_stft_rows(name, refine)
    return np.concatenate([v[0].copy() for v in _stft_transforms(
        f[None], plan, _stride(plan, refine), fine, False)])


class TestSTFTEngine:
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("s", [0.0, 1.5])
    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("name", ["d1", "d1_stride", "d2", "d3"])
    def test_norm_matches_shift_loop(self, name, p, q, s, refine):
        f, plan = _stft_case(name)
        spec = ModNormSpec(p, q, s)
        got = mod_norms_stft(f, plan, [spec], refine)[0]
        want = _oracle_stft_norm(name, spec, refine)
        if plan.grid.dim == 1:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1", "d2"])
    def test_many_specs_match_one_at_a_time(self, name, refine):
        # repeated p share one spectrogram sum; p = inf takes the max
        f, plan = _stft_case(name)
        specs = [ModNormSpec(*t) for t in (
            (2.0, 1.0, 0.0), (1.0, 2.0, 1.5), (np.inf, 1.0, 0.0),
            (2.0, np.inf, 1.5), (4.0, 2.0, 0.0), (1.0, 1.0, 0.0),
            (np.inf, 2.0, 1.5), (2.0, 2.0, -1.0))]
        want = [mod_norms_stft(f, plan, [spec], refine)[0] for spec in specs]
        assert mod_norms_stft(f, plan, specs, refine).tolist() == want

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1", "d2", "d3"])
    def test_rows_match_shift_loop(self, name, refine):
        _, rows = _oracle_stft_rows(name, refine)
        np.testing.assert_allclose(_batched_rows(name, refine), rows,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("cap", [1, 3 * 512, 1 << 30])
    def test_batch_size_does_not_change_result(self, monkeypatch, cap):
        # one shift per batch, three (the last of the 128 shifts' batches
        # holds two), and every shift in one batch
        f, plan = _stft_case("d1")
        spec = ModNormSpec(1.0, 2.0, 1.5)
        want = mod_norms_stft(f, plan, [spec], 2)[0]
        monkeypatch.setattr(modnorm, "STFT_BATCH_VALUES", cap)
        assert mod_norms_stft(f, plan, [spec], 2)[0] == want

    @pytest.mark.parametrize("refine", [1, 2])
    def test_partial_last_batch_matches_shift_loop(self, monkeypatch, refine):
        # three shifts a batch: 64 (refine 1) and 128 (refine 2) shifts
        # leave a last batch of one and of two
        f, plan = _stft_case("d1")
        fine, _ = _oracle_stft_rows("d1", refine)
        monkeypatch.setattr(modnorm, "STFT_BATCH_VALUES", 3 * fine.size)
        specs = [ModNormSpec(p, 2.0, 1.5) for p in (4.0, 1.0, np.inf, 2.0)]
        want = [_oracle_stft_norm("d1", spec, refine) for spec in specs]
        assert mod_norms_stft(f, plan, specs, refine).tolist() == want

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1_stride", "d2"])
    def test_rows_match_pointwise_stft(self, name, refine):
        f, plan = _stft_case(name)
        g = plan.grid
        n = g.points_per_axis
        fine, _ = _oracle_stft_rows(name, refine)
        rows = _batched_rows(name, refine).reshape((-1,) + fine.shape)
        positions = list(product(range(0, n, _stride(plan, refine)),
                                 repeat=g.dim))
        rng = np.random.default_rng(5)
        scale = np.max(np.abs(rows))
        for _ in range(6):
            k = int(rng.integers(len(positions)))
            m = tuple(int(i) for i in rng.integers(fine.points_per_axis,
                                                   size=g.dim))
            # shifts are periodic; stft takes x inside the box
            x = [(s if s < n // 2 else s - n) * g.spacing for s in positions[k]]
            y = [fine.freq_axis[i] for i in m]
            assert abs(rows[(k,) + m] - stft(f, plan, x, y)) <= 1e-12 * scale


# -- real data with a real window: the half spectrum, mirrored ----------------

MULTI_SPECS = [ModNormSpec(*t) for t in (
    (2.0, 1.0, 0.0), (1.0, 2.0, 1.5), (np.inf, 1.0, 0.0), (2.0, np.inf, 1.5),
    (4.0, 2.0, 0.0), (1.0, 1.0, 0.0), (np.inf, 2.0, 1.5), (3.0, 2.0, -1.0))]


class TestRealSTFT:
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("s", [0.0, 1.5])
    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("name", ["d1", "d1_stride", "d2", "d3"])
    def test_norm_matches_shift_loop(self, name, p, q, s, refine):
        f, plan = _stft_case(name, "real")
        spec = ModNormSpec(p, q, s)
        got = mod_norms_stft(f, plan, [spec], refine)[0]
        want = _oracle_stft_norm(name, spec, refine, "real")
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1", "d1_stride", "d2", "d3"])
    def test_mirrored_sums_match_shift_loop(self, name, refine):
        # every bin of the unfolded sums, not only the norms, which a
        # mirror that misplaces bins within an orbit of y -> -y keeps
        f, plan = _stft_case(name, "real")
        ps = (1.0, 2.0, 3.0, np.inf)
        fine, _ = _oracle_stft_rows(name, refine, "real")
        got = modnorm._stft_sums(f[None], plan, ps, _stride(plan, refine),
                                 fine, True)
        for p in ps:
            want = _oracle_stft_inner(name, p, refine, "real")
            np.testing.assert_allclose(got[p][0], want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1", "d2"])
    def test_many_specs_match_one_at_a_time(self, name, refine):
        f, plan = _stft_case(name, "real")
        want = [mod_norms_stft(f, plan, [spec], refine)[0]
                for spec in MULTI_SPECS]
        assert mod_norms_stft(f, plan, MULTI_SPECS, refine).tolist() == want

    @pytest.mark.parametrize("cap", [1, 3 * 512, 1 << 30])
    @pytest.mark.parametrize("name", ["d1", "d2"])
    def test_batch_size_does_not_change_result(self, monkeypatch, name, cap):
        # one shift per batch; three at d = 1 (the last of the 128 shifts'
        # batches holds two); every shift of a leading-axis tuple at once
        f, plan = _stft_case(name, "real")
        want = mod_norms_stft(f, plan, MULTI_SPECS, 2).tolist()
        monkeypatch.setattr(modnorm, "STFT_BATCH_VALUES", cap)
        assert mod_norms_stft(f, plan, MULTI_SPECS, 2).tolist() == want

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("kind", ["one_imag", "complex_window"])
    def test_complex_input_takes_complex_path(self, kind, refine):
        # bit for bit with the shift loop, as only the complex path is
        f, plan = _stft_case("d1", kind)
        specs = [ModNormSpec(p, 2.0, 1.5) for p in (4.0, 1.0, np.inf, 2.0)]
        want = [_oracle_stft_norm("d1", spec, refine, kind) for spec in specs]
        assert mod_norms_stft(f, plan, specs, refine).tolist() == want

    def test_real_dtype_input(self):
        f, plan = _stft_case("d2", "real")
        assert (mod_norms_stft(f.real, plan, MULTI_SPECS, 2).tolist()
                == mod_norms_stft(f, plan, MULTI_SPECS, 2).tolist())


# -- stacks of functions: one pass, the bits of one call per function -------

# kinds of a stack's functions ("r" real values stored as complex, "c"
# complex) and whether its window is complex; a complex function takes the
# complex path, a real one the real path unless the window is complex
STFT_STACKS = {"real": ("rrrr", False), "complex": ("cccc", True),
               "mixed": ("crrc", False)}


@functools.lru_cache(maxsize=None)
def _stft_stack(name, stack):
    """STFT_STACKS[stack]'s functions on STFT_CASES[name]'s grid, random,
    and its random window: every function of the stack shares the plan."""
    g, x_stride = STFT_CASES[name]
    kinds, complex_window = STFT_STACKS[stack]
    rng = np.random.default_rng([g.dim, len(name), len(stack)])
    window = rng.standard_normal(g.shape)
    if complex_window:
        window = window + 1j * rng.standard_normal(g.shape)
    fs = rng.standard_normal((len(kinds),) + g.shape).astype(complex)
    for f, kind in zip(fs, kinds):
        if kind == "c":
            f += 1j * rng.standard_normal(g.shape)
    return fs, STFTPlan(g, window, x_stride=x_stride)


def _stft_cap(cap, functions, fine):
    """STFT_BATCH_VALUES for a named case of a stack of `functions`."""
    return {"one": 1,
            # groups of 3 functions, the last one partial
            "three_functions": 3 * fine.size,
            # every function in one group, batches of 3 shifts, which
            # divides no shift count of STFT_CASES
            "three_shifts": 3 * functions * fine.size,
            "below_one_box": fine.size // 2,
            "huge": 1 << 30}[cap]


@functools.lru_cache(maxsize=None)
def _one_call_per_function(name, refine, stack):
    """mod_norms_stft of each function of _stft_stack(name, stack) alone,
    as a (spec, function) table of Python floats."""
    fs, plan = _stft_stack(name, stack)
    return np.stack([mod_norms_stft(f, plan, MULTI_SPECS, refine)
                     for f in fs], axis=1).tolist()


class TestSTFTStacks:
    @pytest.mark.parametrize("cap", ["one", "three_functions",
                                     "three_shifts", "below_one_box",
                                     "huge"])
    @pytest.mark.parametrize("stack", sorted(STFT_STACKS))
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1", "d2", "d3"])
    def test_stack_matches_one_call_per_function(self, monkeypatch, name,
                                                 refine, stack, cap):
        fs, plan = _stft_stack(name, stack)
        want = _one_call_per_function(name, refine, stack)
        fine, _ = _oracle_stft_rows(name, refine)
        monkeypatch.setattr(modnorm, "STFT_BATCH_VALUES",
                            _stft_cap(cap, len(fs), fine))
        got = mod_norms_stft(fs, plan, MULTI_SPECS, refine)
        assert got.shape == (len(MULTI_SPECS), len(fs))
        assert got.tolist() == want  # bit for bit

    @pytest.mark.parametrize("stack", ["real", "complex"])
    def test_specs_share_the_power_buffers(self, stack):
        # every p forms its power in the one spare buffer, reduced before
        # the next p's: sqrt, pow and square on the real path, pow and
        # square on the complex one, |V| itself at p = 1 (complex) and
        # p = 2 (real)
        fs, plan = _stft_stack("d1", stack)
        specs = [ModNormSpec(p, 2.0, s) for s in (0.0, 1.5)
                 for p in (1.0, 1.5, 2.0, 4.0, np.inf)]
        want = [mod_norms_stft(fs, plan, [spec])[0].tolist()
                for spec in specs]
        assert mod_norms_stft(fs, plan, specs).tolist() == want

    @pytest.mark.parametrize("stack", sorted(STFT_STACKS))
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1", "d2", "d3"])
    def test_every_function_matches_shift_loop(self, name, refine, stack):
        # the oracle takes each function at the estimator's scale
        fs, plan = _stft_stack(name, stack)
        got = mod_norms_stft(fs, plan, MULTI_SPECS, refine)
        kinds, complex_window = STFT_STACKS[stack]
        for f, e, kind, norms in zip(*scaled_stack(fs, plan.grid.dim), kinds,
                                     got.T):
            fine, rows = _shift_loop_rows(f, plan, refine)
            want = [np.ldexp(_shift_loop_norm(plan, refine, fine, rows, spec),
                             e) for spec in MULTI_SPECS]
            if plan.grid.dim == 1 and (kind == "c" or complex_window):
                assert norms.tolist() == want
            else:
                np.testing.assert_allclose(norms, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1", "d2", "d3"])
    def test_stack_shapes(self, name, refine):
        # a mixed (2, 3) stack, its rows one at a time, and one function
        fs, plan = _stft_stack(name, "mixed")
        six = np.concatenate([fs, fs[:2]]).reshape((2, 3) + plan.grid.shape)
        got = mod_norms_stft(six, plan, MULTI_SPECS, refine)
        assert got.shape == (len(MULTI_SPECS), 2, 3)
        for i in range(2):
            row = mod_norms_stft(six[i], plan, MULTI_SPECS, refine)
            assert got[:, i].tolist() == row.tolist()
        one = mod_norms_stft(six[1, 2], plan, MULTI_SPECS, refine)
        assert one.shape == (len(MULTI_SPECS),)
        assert one.tolist() == got[:, 1, 2].tolist()

    def test_empty_stack(self):
        fs, plan = _stft_stack("d1", "mixed")
        got = mod_norms_stft(fs[:0], plan, MULTI_SPECS)
        assert got.shape == (len(MULTI_SPECS), 0)

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("cap", [1, 3 * 512, 5 * 4 * 512, 1 << 30])
    def test_batches_stay_within_the_cap(self, monkeypatch, cap, refine):
        # every (function x shift) stack holds at most the cap, or one
        # function's box, and every group's sums at most the cap per p
        fs, plan = _stft_stack("d1", "real")
        stack = np.concatenate([fs] * 3)
        fine, _ = _oracle_stft_rows("d1", refine)
        monkeypatch.setattr(modnorm, "STFT_BATCH_VALUES", cap)
        sums, transforms = modnorm._stft_sums, modnorm._stft_transforms
        groups = []

        def spy_sums(values, *args):
            groups.append(values.copy())
            assert len(values) * fine.size <= max(cap, fine.size)
            return sums(values, *args)

        def spy_transforms(values, *args):
            for v in transforms(values, *args):
                assert v.shape[0] == len(values)
                assert v.shape[0] * v.shape[1] * fine.size <= max(cap,
                                                                 fine.size)
                yield v

        monkeypatch.setattr(modnorm, "_stft_sums", spy_sums)
        monkeypatch.setattr(modnorm, "_stft_transforms", spy_transforms)
        mod_norms_stft(stack, plan, MULTI_SPECS, refine)
        # the groups cover the stack, in order
        covered = np.concatenate(groups)
        assert covered.tolist() == binary_scale(stack, 1)[0].tolist()


class TestSTFTArguments:
    @pytest.mark.parametrize("stride", [0, -3, 1.5, 2.0, "2"])
    def test_bad_x_stride_rejected(self, grid1, stride):
        with pytest.raises(ValueError, match="x_stride"):
            STFTPlan(grid1, x_stride=stride)

    @pytest.mark.parametrize("refine", [0, -1, 1.5, 2.0, None])
    def test_bad_refine_rejected(self, grid1, plan1, gauss1, refine):
        with pytest.raises(ValueError, match="refine"):
            mod_norms_stft(gauss1, plan1, [ModNormSpec()], refine)

    @pytest.mark.parametrize("shape", [(1,), (128,), (256, 2), ()])
    def test_values_must_end_in_the_grid_shape(self, plan1, shape):
        with pytest.raises(ValueError, match=r"values of shape .* \(256,\)"):
            mod_norms_stft(np.ones(shape), plan1, [ModNormSpec()])

    def test_window_must_have_the_grid_shape(self, grid1):
        with pytest.raises(ValueError, match=r"window_values .*\(3,\).*"
                                             r"\(256,\)"):
            STFTPlan(grid1, window_values=np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, plan1, gauss1, bad):
        stack = np.stack([gauss1, gauss1])
        stack[1, 5] = bad
        with pytest.raises(ValueError, match="non-finite values in norm "
                                             "input"):
            mod_norms_stft(stack, plan1, [ModNormSpec()])
        with pytest.raises(ValueError, match="non-finite"):
            mod_norms_stft(np.full(256, np.nan), plan1, [ModNormSpec()])

    def test_stride_steps_down_to_a_divisor(self, grid1):
        assert STFTPlan(grid1, x_stride=np.int64(7)).x_stride == 4
        assert STFTPlan(grid1, x_stride=1000).x_stride == 256


def oracle_algebra_defect(f, g, p, partition):
    """algebra_defect of one pair, as it was before the pairs were stacked:
    each norm and the product on their own."""
    spec = ModNormSpec(p, 1.0, 0.0)
    nf = mod_norm_decomp(f, spec, partition)
    ng = mod_norm_decomp(g, spec, partition)
    if nf == 0.0 or ng == 0.0:
        raise ValueError("algebra defect undefined for zero-norm input")
    prod = dealiased_product(partition.grid, f, g)
    return mod_norm_decomp(prod, spec, partition) / (nf * ng)


def _hats(grid, *fs):
    return forward_values(grid, np.stack(fs))


class TestAlgebraDefect:
    def test_gaussian_pair_within_frozen_cap(self, grid1, part1, gauss1):
        d, = algebra_defect(_hats(grid1, gauss1, gauss1), 2.0, part1)
        assert 0.0 < d <= constants.ALGEBRA_DEFECT_CAP

    def test_flat_bump_factor_is_finite(self, grid1, part1, gauss1):
        plateau = bump_profile(grid1.x_axis / 10.0)
        d, = algebra_defect(_hats(grid1, gauss1, plateau), 2.0, part1)
        assert np.isfinite(d) and d > 0.0

    def test_zero_norm_rejected(self, grid1, part1, gauss1):
        # every pair with the zero function has no defect, the others do
        z = np.zeros(grid1.shape)
        with pytest.raises(ValueError):
            oracle_algebra_defect(gauss1, z, 2.0, part1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = algebra_defect(_hats(grid1, gauss1, z, gauss1, gauss1), 2.0,
                                 part1)
        assert np.isnan(got[:2]).all() and np.isfinite(got[2])

    @pytest.mark.parametrize("p", [2.0, 1.0, 4.0, np.inf])
    def test_stack_matches_pairwise(self, grid1, part1, p):
        # the modnorm command's corpus at seed 0; at p = 2 a stacked
        # engine batch moved the fourth pair's defect by one ulp
        corpus = [band_limited(grid1, 6, seed=i) for i in range(8)]
        got = algebra_defect(_hats(grid1, *corpus), p, part1)
        want = [oracle_algebra_defect(f, g, p, part1)
                for f, g in zip(corpus, corpus[1:])]
        assert got.tolist() == want  # bit for bit

    @pytest.mark.parametrize("functions", [2, 3, 5])
    def test_small_cap_matches_one_chunk(self, grid1, part1, monkeypatch,
                                         functions):
        # chunks of 1, 2 and 4 pairs: the last chunk of 7 pairs is partial
        # at 2 and 4, and every chunk overlaps the last by one function
        corpus = [band_limited(grid1, 6, seed=i) for i in range(8)]
        hats = _hats(grid1, *corpus)
        want = algebra_defect(hats, 2.0, part1)
        fine = fine_grid(grid1, 2)
        monkeypatch.setattr(modnorm, "ALGEBRA_BATCH_VALUES",
                            functions * fine.size)
        got = algebra_defect(hats, 2.0, part1)
        assert got.tolist() == want.tolist()  # bit for bit

    def test_fewer_than_two_functions(self, grid1, part1, gauss1):
        assert algebra_defect(_hats(grid1, gauss1), 2.0, part1).shape == (0,)


class TestFourierLebesgue:
    def test_zero(self, grid1):
        z = np.zeros(grid1.shape)
        assert frequency_lp_norm(grid1, forward_values(grid1, z), 1) == 0.0

    def test_gaussian_l1(self, grid1, gauss1):
        assert frequency_lp_norm(grid1, forward_values(grid1, gauss1), 1) \
            == pytest.approx(np.sqrt(2 * np.pi), rel=1e-10)

    def test_embedding_into_m21(self, grid1, part1):
        spec = ModNormSpec(2, 1, 0)
        for f in mixed_family(grid1, 12, seed=99):
            assert frequency_lp_norm(grid1, forward_values(grid1, f), 1) <= \
                constants.FL1_EMBEDDING_CONST * mod_norm_decomp(f, spec, part1)


# -- the scale rule: N(2^e f) = 2^e N(f), bit for bit -------------------------

SCALE_EXPONENTS = [-1000, -600, -300, 0, 300, 600, 1000]
SCALE_SPECS = [ModNormSpec(p, q, s) for p in (1.0, 1.5, 2.0, 4.0, np.inf)
               for q in (1.0, 2.0, np.inf) for s in (0.0, 1.5)]
SCALE_GRID = SpectralGrid(1, 64, 8.0)


@functools.lru_cache(maxsize=None)
def _scale_case(kind):
    """Partition and physical samples of three functions spread over
    decades: real ones take the mirrored engine and the real STFT path,
    complex ones every block and the complex path."""
    g = SCALE_GRID
    rng = np.random.default_rng(17)
    f = rng.standard_normal((3,) + g.shape) \
        * np.exp(-np.multiply.outer([0.2, 0.5, 2.0], g.x_axis ** 2))
    if kind == "complex":
        f = f * np.exp(1j * np.multiply.outer([1.0, -2.5, 4.0], g.x_axis))
    return UniformPartition(g), f * np.array([[1.0], [1e-3], [1e-7]])


def _assert_scales(norm, f, e):
    """norm(2^e f) == 2^e norm(f) bit for bit, f taken as 2^-e (2^e f): the
    samples that 2^e f keeps, the ones a stored 2^e f has lost to
    underflow set to 0."""
    scaled = np.ldexp(f.real, e) + 1j * np.ldexp(f.imag, e)
    assert np.all(np.isfinite(scaled))
    f = np.ldexp(scaled.real, -e) + 1j * np.ldexp(scaled.imag, -e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = np.ldexp(norm(f), e)
        got = norm(scaled)
    assert np.all(np.isfinite(want) & (want > 0.0))
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestScaleRule:
    @pytest.mark.parametrize("e", SCALE_EXPONENTS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_block_engine(self, kind, e):
        # the full engine (complex data), the mirrored one (real data) and
        # the Parseval table, every spec in one call
        part, f = _scale_case(kind)
        F = forward_values(part.grid, f)
        assert _hermitian(F, part) == [kind == "real"] * 3
        _assert_scales(
            lambda F: mod_norms_from_frequency(F, SCALE_SPECS, part), F, e)

    @pytest.mark.parametrize("e", SCALE_EXPONENTS)
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_parseval_bounds(self, kind, p, e):
        # the bounds of max_mod_norm, with the Carlson factors at p < 2
        part, f = _scale_case(kind)
        F = forward_values(part.grid, f)
        for q in (1.0, 2.0, np.inf):
            spec = ModNormSpec(p, q, 1.5)
            scale = modnorm._bound_scale(spec, part)
            _assert_scales(
                lambda F: modnorm._parseval_bounds(*binary_scale(F, 1), spec,
                                                   part, scale), F, e)

    @pytest.mark.parametrize("e", SCALE_EXPONENTS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_stft(self, kind, e):
        # real data and the default (real) window take the real path
        part, f = _scale_case(kind)
        plan = STFTPlan(part.grid)
        _assert_scales(lambda f: mod_norms_stft(
            f.real if kind == "real" else f, plan, SCALE_SPECS), f, e)

    @pytest.mark.parametrize("amplitude", [1e-300, 1.0, 1e300])
    def test_real_and_complex_stft_paths_agree(self, amplitude):
        # i f has |V_g (i f)| = |V_g f| exactly and takes the complex path
        part, f = _scale_case("real")
        plan = STFTPlan(part.grid)
        real = mod_norms_stft(amplitude * f, plan, SCALE_SPECS)
        complex_ = mod_norms_stft(1j * amplitude * f, plan, SCALE_SPECS)
        assert np.all(np.isfinite(real) & (real > 0.0))
        np.testing.assert_allclose(real, complex_, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("e", [-1000, -300, 0, 300, 1000])
    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, np.inf])
    def test_pruned_max(self, monkeypatch, p, e):
        # slices whose norms grow along the stack, one engine batch each:
        # the bounds must find the last slice first at every scale, and the
        # maximum and its evaluations do not depend on e
        part, f = _scale_case("complex")
        g = part.grid
        F0 = forward_values(g, f[0])
        times = np.linspace(1.0, 0.0, 6)
        stack = np.exp(-np.multiply.outer(times, g.freq_magnitude ** 2)) * F0
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES",
                            len(part._active_centers) * g.size)
        spec = ModNormSpec(p, 1.0, 0.0)
        [(top, evaluated)], _ = max_mod_norm([stack], spec, part)
        assert evaluated < len(stack)
        scaled = np.ldexp(stack.real, e) + 1j * np.ldexp(stack.imag, e)
        want = mod_norms_from_frequency(scaled, [spec], part)[0].max()
        got = max_mod_norm([scaled], spec, part)
        assert got == ([(want, evaluated)], evaluated)
        assert want == np.ldexp(top, e)


# -- non-finite input: binary_scale is every norm's one check ----------------

FINITE_GRID = SpectralGrid(1, 64, 8.0)
# (functions in the stack, the bad one); every engine batch and STFT group
# holds one function, so the last position is in a later batch
BAD_POSITIONS = {"alone": (1, 0), "in_stack": (3, 1), "later_batch": (5, 4)}
FINITE_SPECS = [ModNormSpec(1.0, 1.0, 0.0), ModNormSpec(2.0, 1.0, 0.0)]
ENTRY_POINTS = {
    "binary_scale": lambda F, part: binary_scale(F, 1),
    "lp_norm": lambda F, part: lp_norm(F, part.grid.spacing, 1.0, 1),
    "decomposition": lambda F, part: mod_norms_from_frequency(
        F, FINITE_SPECS, part),
    "max_mod_norm_p1": lambda F, part: max_mod_norm(
        [F[:1], F], FINITE_SPECS[0], part),
    "max_mod_norm_p2": lambda F, part: max_mod_norm(
        [F[:1], F], FINITE_SPECS[1], part),
    "stft": lambda F, part: mod_norms_stft(F, STFTPlan(part.grid),
                                           FINITE_SPECS),
}


def _with_bad_sample(F, index, bad):
    """F with sample 5 of function index given a NaN real part or an inf
    imaginary part."""
    F = F.copy()
    z = F[index, 5]
    F[index, 5] = (complex(math.nan, z.imag) if bad == "nan_real"
                   else complex(z.real, math.inf))
    return F


class TestNonFiniteInput:
    @pytest.mark.parametrize("position", sorted(BAD_POSITIONS))
    @pytest.mark.parametrize("bad", ["nan_real", "inf_imag"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejected(self, monkeypatch, entry, bad, position):
        g = FINITE_GRID
        part = UniformPartition(g)
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES",
                            len(part._active_centers) * g.size)
        monkeypatch.setattr(modnorm, "STFT_BATCH_VALUES", g.size)
        count, index = BAD_POSITIONS[position]
        rng = np.random.default_rng(6)
        F = (rng.standard_normal((count,) + g.shape)
             + 1j * rng.standard_normal((count,) + g.shape))
        with pytest.raises(ValueError,
                           match="non-finite values in norm input"):
            ENTRY_POINTS[entry](_with_bad_sample(F, index, bad), part)
        # the stack without the bad sample goes through
        ENTRY_POINTS[entry](F, part)

    def test_stft_weights_beyond_the_float_range(self):
        # <y>^s overflows at s = 1e6: the weighted samples are not finite,
        # which lp_norm rejects, so the norm reads inf; another spec of the
        # same call keeps the bits it has alone
        g = FINITE_GRID
        plan = STFTPlan(g)
        f = np.exp(-0.5 * g.x_axis ** 2) * np.array([[1.0], [1e-3]])
        heavy, light = ModNormSpec(1.0, 1.0, 1e6), ModNormSpec(1.0, 1.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            got = mod_norms_stft(f, plan, [heavy, light])
        assert np.all(got[0] == np.inf)
        np.testing.assert_array_equal(got[1],
                                      mod_norms_stft(f, plan, [light])[0])

    @pytest.mark.parametrize("bad", ["nan_real", "inf_imag"])
    def test_window_rejected(self, bad):
        # the plan normalizes its window by lp_norm
        g = FINITE_GRID
        window = np.exp(-0.5 * g.x_axis ** 2)[None] + 0j
        with pytest.raises(ValueError,
                           match="non-finite values in norm input"):
            STFTPlan(g, _with_bad_sample(window, 0, bad)[0])
