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
                             _block_lp_norms, _stft_batches, algebra_defect,
                             block_project, bump_profile,
                             fourier_lebesgue_norm, max_mod_norm,
                             mod_norm_decomp, mod_norm_from_frequency,
                             mod_norm_stft, mod_norms_from_frequency,
                             mod_norms_stft, stft_resolution_ok)
from modheat.spectral import (FREQUENCY, GridFunction, SpectralGrid,
                              forward_transform, lp_norm, physical_lp_norm)


def stft(f, plan, x, y):
    """Quadrature value of the windowed transform at one phase-space point:
    the pointwise oracle of the batched estimator.

    x is snapped to the physical lattice (the window is only known there);
    y may be any frequency within the sampled band.
    """
    g = f.grid
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.size != g.dim or y.size != g.dim:
        raise ValueError("x and y must be d-vectors")
    if np.any(np.abs(x) > g.half_width) or np.any(np.abs(y) > g.max_freq_component):
        raise ValueError("phase-space point outside the sampled range")
    shifts = [int(round(c / g.spacing)) for c in x]
    win = np.roll(np.conj(plan.window), shifts, axis=tuple(range(g.dim)))
    phase = np.exp(-1j * np.tensordot(g.x_mesh, y, axes=([-1], [0])))
    integrand = f.values * win * phase
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
        for k in part1.keys():
            total += part1.symbol(k)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_sums_to_one_2d(self, grid2, part2):
        total = np.zeros(grid2.shape)
        for k in part2.keys():
            total += part2.symbol(k)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    @pytest.mark.parametrize("k", [(0,), (4,), (-9,)])
    def test_support_confined_to_unit_cube(self, grid1, part1, k):
        sym = part1.symbol(k)
        outside = np.abs(grid1.freq_axis - k[0]) > 1.0
        assert np.max(np.abs(sym[outside])) == 0.0

    def test_unity_at_isolated_centers(self):
        # integer centers land on the lattice when half_width is 8 pi
        g = SpectralGrid(1, 128, 8 * np.pi)
        part = UniformPartition(g)
        idx = np.argmin(np.abs(g.freq_axis - 3.0))
        assert g.freq_axis[idx] == pytest.approx(3.0, abs=1e-14)
        assert part.symbol((3,))[idx] == pytest.approx(1.0, abs=1e-14)
        assert part.symbol((2,))[idx] == 0.0
        assert part.symbol((4,))[idx] == 0.0

    def test_block_center_out_of_range(self, grid1, part1, gauss1):
        with pytest.raises(ValueError):
            block_project(gauss1, (part1.k_max + 1,), part1)


class TestBlockProjection:
    def test_blocks_reconstruct(self, grid1, part1, gauss1):
        total = np.zeros(grid1.shape, dtype=complex)
        for k in part1.active_keys():
            total += block_project(gauss1, k, part1).values
        assert np.max(np.abs(total - gauss1.values)) <= 1e-10

    def test_reconstruction_band_limited_2d(self, grid2, part2):
        f = band_limited(grid2, 3, seed=8)
        total = np.zeros(grid2.shape, dtype=complex)
        for k in part2.active_keys():
            total += block_project(f, k, part2).values
        assert np.max(np.abs(total - f.values)) <= 1e-10

    @pytest.mark.parametrize("k", [(0,), (5,), (-11,)])
    def test_almost_orthogonality(self, grid1, part1, gauss1, k):
        base = block_project(gauss1, k, part1)
        total = np.zeros(grid1.shape, dtype=complex)
        for ell in (-1, 0, 1):
            total += block_project(base, (k[0] + ell,), part1).values
        assert np.max(np.abs(total - base.values)) <= 1e-10

    def test_almost_orthogonality_2d(self, grid2, part2):
        f = band_limited(grid2, 3, seed=3)
        k = (1, -2)
        base = block_project(f, k, part2)
        total = np.zeros(grid2.shape, dtype=complex)
        for ex in (-1, 0, 1):
            for ey in (-1, 0, 1):
                total += block_project(base, (k[0] + ex, k[1] + ey),
                                       part2).values
        assert np.max(np.abs(total - base.values)) <= 1e-10

    def test_single_cell_data_reproduced(self, grid1, part1):
        # transform supported strictly inside one unit cell: the cell block
        # plus its neighbors reproduce f, and non-adjacent blocks vanish
        from modheat.spectral import inverse_transform
        coeffs = np.zeros(grid1.shape, dtype=complex)
        sel = np.abs(grid1.freq_axis - 5.0) <= 0.4
        coeffs[sel] = 1.0
        fp = inverse_transform(GridFunction(grid1, coeffs, "frequency"))
        total = np.zeros(grid1.shape, dtype=complex)
        for ell in (-1, 0, 1):
            total += block_project(fp, (5 + ell,), part1).values
        np.testing.assert_allclose(total, fp.values, atol=1e-12)
        far = block_project(fp, (8,), part1)
        assert np.max(np.abs(far.values)) <= 1e-12

    def test_center_supported_data_is_one_block(self, part1):
        # data whose transform sits exactly at an integer center belongs to
        # that block alone (sigma_k = 1 there)
        from modheat.spectral import inverse_transform
        g = SpectralGrid(1, 128, 8 * np.pi)
        part = UniformPartition(g)
        coeffs = np.zeros(g.shape, dtype=complex)
        coeffs[np.argmin(np.abs(g.freq_axis - 3.0))] = 1.0
        fp = inverse_transform(GridFunction(g, coeffs, "frequency"))
        blk = block_project(fp, (3,), part)
        np.testing.assert_allclose(blk.values, fp.values, atol=1e-13)
        for other in ((2,), (4,), (0,)):
            assert np.max(np.abs(block_project(fp, other, part).values)) <= 1e-13


class TestDecompositionNorm:
    def test_zero(self, grid1, part1):
        z = GridFunction(grid1, np.zeros(grid1.shape))
        assert mod_norm_decomp(z, ModNormSpec(2, 1, 0), part1) == 0.0

    def test_homogeneity(self, grid1, part1, gauss1):
        c = 3.7
        spec = ModNormSpec(2, 1, 0)
        a = mod_norm_decomp(GridFunction(grid1, c * gauss1.values), spec, part1)
        b = mod_norm_decomp(gauss1, spec, part1)
        assert a == pytest.approx(c * b, rel=1e-12)

    def test_l2_equivalence_bracket(self, grid1, part1, gauss1):
        ratio = mod_norm_decomp(gauss1, ModNormSpec(2, 2, 0), part1) \
            / physical_lp_norm(gauss1, 2)
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
        assert n >= np.max(np.abs(gauss1.values)) - 1e-12

    def test_lp_sandwich_via_frozen_constants(self, grid1, part1):
        # L^2 sits between the (2,1) and (2,inf) norms up to the frozen
        # equivalence constants
        for i in range(10):
            f = band_limited(grid1, 6, seed=700 + i)
            l2 = physical_lp_norm(f, 2)
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
            F = forward_transform(f)
            ratio = mod_norm_decomp(GridFunction(dual, F.values), spec,
                                    dual_part) \
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
    f = GridFunction(g, rng.standard_normal(g.shape)
                     + 1j * rng.standard_normal(g.shape))
    return UniformPartition(g), f


@functools.lru_cache(maxsize=None)
def _oracle_block_norms(dim, p):
    part, f = _equiv_case(dim)
    vol = f.grid.spacing ** dim
    return [(k, lp_norm(block_project(f, k, part).values, vol, p))
            for k in sorted(part.active_keys())]


def _assert_blocks_match(dim, p):
    part, f = _equiv_case(dim)
    got = _block_lp_norms(forward_transform(f).values[None], part, p)[0]
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
        want = [mod_norm_from_frequency(GridFunction(g, F, FREQUENCY), spec,
                                        part) for F in stack]
        # the rows the engine holds per function: one at p = 2
        rows = 1 if p == 2 else len(part._active_centers)
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES", 2 * rows * g.size)
        got = mod_norms_from_frequency(stack, spec, part)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


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
        want = mod_norms_from_frequency(stack, spec, part1)
        assert want.argmax() == 0
        got, evaluated, _ = max_mod_norm(stack, spec, part1)
        assert got == want.max()
        assert evaluated < len(stack)

    def test_neighbour_bounds_counted_per_pair(self, part1, monkeypatch):
        # three functions per engine batch: the first is t = 0, 1e-4, 2e-4,
        # t = 0 sets the maximum, and each of the other two bounds every
        # later slice whose Parseval bound still exceeds it (all three here)
        stack = self._flow(part1, np.linspace(0.0, 5e-4, 6))
        spec = ModNormSpec(1.0, 1.0, 0.0)
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES",
                            3 * len(part1._active_centers) * part1.grid.size)
        norms = mod_norms_from_frequency(stack, spec, part1)
        bounds = modnorm._parseval_bounds(
            stack, spec, part1, *modnorm._bound_constants(spec, part1))
        assert np.all(np.diff(bounds) < 0) and norms.argmax() == 0
        targets = np.count_nonzero(bounds[3:] > norms[0])
        got, _, neighbours = max_mod_norm(stack, spec, part1)
        assert got == norms[0]
        assert targets == 3 and neighbours == 2 * targets

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
        exact = mod_norms_from_frequency(F, spec, part)
        scale, floor = modnorm._bound_constants(spec, part)
        bound = scale * mod_norms_from_frequency(
            F, ModNormSpec(2.0, 1.0, 1.5), part) + floor
        assert exact <= bound <= exact * (1.0 + 2.0 * modnorm.BOUND_ROUNDOFF)

    def test_max_found_after_a_larger_bound(self, monkeypatch):
        # one function per engine batch.  The noise has the largest bound
        # but not the largest norm: its norm sits further below its bound
        # than the plane wave's (a mode at an integer frequency, one block),
        # which must still be evaluated after it
        g = SpectralGrid(1, 64, 2.0 * math.pi)
        part = UniformPartition(g)
        spec = ModNormSpec(1.0, 1.0, 0.0)
        rng = np.random.default_rng(3)
        noise = (rng.standard_normal(g.shape)
                 + 1j * rng.standard_normal(g.shape)) \
            * np.exp(-g.freq_axis ** 2 / 8)
        wave = np.zeros(g.shape, complex)
        wave[40] = 1.0  # frequency 4
        stack = np.array([wave, noise, wave])
        norms = mod_norms_from_frequency(stack, spec, part)
        stack[1] *= 0.95 * norms[0] / norms[1]
        stack[2] *= 0.1
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES",
                            len(part._active_centers) * g.size)
        want = mod_norms_from_frequency(stack, spec, part)
        bounds = modnorm._bound_constants(spec, part)[0] \
            * mod_norms_from_frequency(stack, ModNormSpec(2.0, 1.0, 0.0), part)
        assert bounds.argmax() == 1 and want.argmax() == 0
        assert max_mod_norm(stack, spec, part) == (want.max(), 2, 0)

    def test_p2_evaluates_every_function(self, part1):
        stack = self._flow(part1, np.linspace(0.0, 2.0, 5))
        spec = ModNormSpec(2.0, 2.0, 1.5)
        got, evaluated, _ = max_mod_norm(stack, spec, part1)
        assert got == mod_norms_from_frequency(stack, spec, part1).max()
        assert evaluated == len(stack)

    def test_overflowing_square_is_evaluated(self, part1):
        # |F|^2 overflows for the 1e160 function, so its bound is inf (or
        # NaN where a zero row meets it); it must be evaluated, not pruned
        stack = self._flow(part1, np.linspace(0.0, 1.0, 6))
        stack[3] *= 1e160
        spec = ModNormSpec(1.0, 1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _, _ = max_mod_norm(stack, spec, part1)
        want = mod_norms_from_frequency(stack, spec, part1)
        assert np.isfinite(want.max()) and want.argmax() == 3
        assert got == want.max()

    def test_overflowing_powers_are_evaluated(self, monkeypatch):
        # at p = 4 the 1e80 mode's fourth powers overflow, so its norm is
        # inf, while its Parseval bound (from |F|^2 ~ 1e160) is finite and
        # below the norm of the heavily weighted high mode, whose bound is
        # larger: that bound must not prune it once the high mode is in
        g = SpectralGrid(1, 64, 8.0)
        part = UniformPartition(g)
        stack = np.zeros((2,) + g.shape, complex)
        stack[0, 32] = 1e80  # frequency 0, weight 1
        stack[1, 60] = 1e60  # frequency 11, weight ~1e108
        spec = ModNormSpec(4.0, 1.0, 100.0)
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES",
                            len(part._active_centers) * g.size)
        with np.errstate(over="ignore"):
            want = mod_norms_from_frequency(stack, spec, part)
            bounds = modnorm._parseval_bounds(
                stack, spec, part, *modnorm._bound_constants(spec, part))
            got, _, _ = max_mod_norm(stack, spec, part)
        assert np.isinf(want[0]) and np.isfinite(want[1])
        assert bounds[0] < want[1] < bounds[1]
        assert np.isinf(got)

    def test_underflowing_weights_warn_nothing(self, part1):
        # (1 + |k|)^-400 underflows to 0 away from k = 0, so the subnormal
        # allowance divides by a zero weight: an infinite bound, no warning
        stack = self._flow(part1, np.linspace(0.0, 1.0, 4))
        spec = ModNormSpec(1.0, 1.0, -400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, evaluated, _ = max_mod_norm(stack, spec, part1)
        assert got == mod_norms_from_frequency(stack, spec, part1).max()
        assert evaluated == len(stack)

    def test_nan_norm_propagates(self, part1):
        # weights (1 + |k|)^s overflow to inf, and inf times an empty block
        # is NaN, in the exact norms and in the bounds alike
        stack = self._flow(part1, np.linspace(0.0, 1.0, 4))
        stack[:, np.abs(part1.grid.freq_axis) > 3.0] = 0.0
        spec = ModNormSpec(1.0, 1.0, 400.0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = mod_norms_from_frequency(stack, spec, part1).max()
            got, evaluated, neighbours = max_mod_norm(stack, spec, part1)
        assert np.isnan(want) and np.isnan(got)
        # NaN bounds are all evaluated, and a NaN norm tightens nothing
        assert evaluated == len(stack) and neighbours == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, part1, bad):
        stack = self._flow(part1, np.linspace(0.0, 1.0, 4))
        stack[2, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            max_mod_norm(stack, ModNormSpec(1.0, 1.0, 0.0), part1)


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
        z = GridFunction(grid1, np.zeros(grid1.shape))
        assert stft(z, plan1, [0.5], [1.5]) == 0

    def test_cauchy_schwarz_bound(self, grid1, plan1, gauss1):
        bound = (2 * np.pi) ** -0.5 * physical_lp_norm(gauss1, 2) * 1.0
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
        z = GridFunction(grid1, np.zeros(grid1.shape))
        assert mod_norm_stft(z, plan1, ModNormSpec(2, 2, 0)) == 0.0

    def test_orthogonality_identity(self, grid1, plan1, gauss1):
        # (2,2,0) norm equals ||f||_2 ||g||_2 with the normalized window
        got = mod_norm_stft(gauss1, plan1, ModNormSpec(2, 2, 0))
        want = physical_lp_norm(gauss1, 2)
        assert got == pytest.approx(want, rel=0.01)

    def test_homogeneity(self, grid1, plan1, gauss1):
        spec = ModNormSpec(2, 1, 0)
        a = mod_norm_stft(GridFunction(grid1, 2.5 * gauss1.values), plan1, spec)
        b = mod_norm_stft(gauss1, plan1, spec)
        assert a == pytest.approx(2.5 * b, rel=1e-12)

    def test_cross_estimator_bracket(self, grid1, part1, plan1):
        c = constants.CROSS_ESTIMATOR_CONST
        spec = ModNormSpec(2, 1, 0)
        for i in range(20):
            f = band_limited(grid1, 6, seed=1000 + i)
            ratio = mod_norm_stft(f, plan1, spec) \
                / mod_norm_decomp(f, spec, part1)
            assert 1.0 / c <= ratio <= c

    def test_resolution_flag(self, grid1, plan1, gauss1):
        spec = ModNormSpec(2, 1, 0)
        coarse = mod_norm_stft(gauss1, plan1, spec)
        fine = mod_norm_stft(gauss1, plan1, spec, refine=2)
        assert stft_resolution_ok(coarse, fine)

    def test_resolution_flag_elementwise(self):
        coarse = [1.0, 1.0, 1.0, 0.0, 1.0]
        fine = [1.0, 1.005, 1.5, 0.0, 0.0]
        assert stft_resolution_ok(coarse, fine).tolist() == [
            True, True, False, True, False]

    def test_default_window_is_normalized(self, grid1, plan1):
        w = GridFunction(grid1, plan1.window)
        assert physical_lp_norm(w, 2) == pytest.approx(1.0, abs=1e-12)


# -- batched STFT estimator against the per-shift loop ---------------------------

# N = 240 with x_stride 7: the stride steps down to 6 (3 when refined) to
# divide the axis; the other plans use the default stride.
STFT_CASES = {"d1": (SpectralGrid(1, 256, 16.0), None),
              "d1_stride": (SpectralGrid(1, 240, 15.0), 7),
              "d2": (SpectralGrid(2, 16, 2.0), None),
              "d3": (SpectralGrid(3, 8, 1.0), None)}


@functools.lru_cache(maxsize=None)
def _stft_case(name):
    """Random complex data and a complex, non-symmetric window."""
    g, x_stride = STFT_CASES[name]
    rng = np.random.default_rng(len(name) + g.dim)
    f = GridFunction(g, rng.standard_normal(g.shape)
                     + 1j * rng.standard_normal(g.shape))
    window = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return f, STFTPlan(g, window, x_stride=x_stride)


def _stride(plan, refine):
    stride = max(1, plan.x_stride // refine)
    while plan.grid.points_per_axis % stride != 0:
        stride -= 1
    return stride


@functools.lru_cache(maxsize=None)
def _oracle_stft_rows(name, refine):
    """V_g f per window shift: one np.roll and one forward_transform each."""
    f, plan = _stft_case(name)
    g = f.grid
    n = g.points_per_axis
    big = SpectralGrid(g.dim, n * refine, g.half_width * refine)
    lo = (big.points_per_axis - n) // 2
    rows = []
    for pos in product(range(0, n, _stride(plan, refine)), repeat=g.dim):
        win = np.roll(np.conj(plan.window), pos, axis=tuple(range(g.dim)))
        pad = np.zeros(big.shape, dtype=complex)
        pad[tuple(slice(lo, lo + n) for _ in range(g.dim))] = f.values * win
        rows.append(forward_transform(GridFunction(big, pad)).values)
    return big, rows


def _oracle_stft_norm(name, spec, refine):
    """mod_norm_stft as a loop over window shifts, summed in shift order."""
    f, plan = _stft_case(name)
    fine, rows = _oracle_stft_rows(name, refine)
    inner = np.zeros(fine.shape)
    for row in rows:
        a = np.abs(row)
        if np.isinf(spec.p):
            np.maximum(inner, a, out=inner)
        else:
            inner += a ** spec.p
    if not np.isinf(spec.p):
        a_vol = (_stride(plan, refine) * f.grid.spacing) ** f.grid.dim
        inner = (a_vol * inner) ** (1.0 / spec.p)
    ysq = np.sum(fine.freq_mesh ** 2, axis=-1)
    weight = (1.0 + ysq) ** (spec.s / 2.0)
    return lp_norm(inner * weight, fine.freq_spacing ** f.grid.dim, spec.q)


def _batched_rows(name, refine):
    f, plan = _stft_case(name)
    fine, _ = _oracle_stft_rows(name, refine)
    return np.concatenate(list(_stft_batches(f, plan, _stride(plan, refine),
                                             fine)))


class TestSTFTEngine:
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("s", [0.0, 1.5])
    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("name", ["d1", "d1_stride", "d2", "d3"])
    def test_norm_matches_shift_loop(self, name, p, q, s, refine):
        f, plan = _stft_case(name)
        spec = ModNormSpec(p, q, s)
        got = mod_norm_stft(f, plan, spec, refine)
        want = _oracle_stft_norm(name, spec, refine)
        if f.grid.dim == 1:
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
        want = [mod_norm_stft(f, plan, spec, refine) for spec in specs]
        assert mod_norms_stft(f, plan, specs, refine) == want

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1", "d2", "d3"])
    def test_rows_match_shift_loop(self, name, refine):
        _, rows = _oracle_stft_rows(name, refine)
        np.testing.assert_allclose(_batched_rows(name, refine), rows,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("cap", [1, 1 << 30])
    def test_batch_size_does_not_change_result(self, monkeypatch, cap):
        # one shift per batch, and every shift in one batch
        f, plan = _stft_case("d1")
        spec = ModNormSpec(1.0, 2.0, 1.5)
        want = mod_norm_stft(f, plan, spec, 2)
        monkeypatch.setattr(modnorm, "STFT_BATCH_VALUES", cap)
        assert mod_norm_stft(f, plan, spec, 2) == want

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("name", ["d1_stride", "d2"])
    def test_rows_match_pointwise_stft(self, name, refine):
        f, plan = _stft_case(name)
        g = f.grid
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


class TestAlgebraDefect:
    def test_gaussian_pair_within_frozen_cap(self, grid1, part1, gauss1):
        d = algebra_defect(gauss1, gauss1, 2.0, part1)
        assert 0.0 < d <= constants.ALGEBRA_DEFECT_CAP

    def test_flat_bump_factor_is_finite(self, grid1, part1, gauss1):
        plateau = GridFunction(grid1, bump_profile(grid1.x_axis / 10.0))
        d = algebra_defect(gauss1, plateau, 2.0, part1)
        assert np.isfinite(d) and d > 0.0

    def test_zero_norm_rejected(self, grid1, part1, gauss1):
        z = GridFunction(grid1, np.zeros(grid1.shape))
        with pytest.raises(ValueError):
            algebra_defect(gauss1, z, 2.0, part1)


class TestFourierLebesgue:
    def test_zero(self, grid1):
        z = GridFunction(grid1, np.zeros(grid1.shape))
        assert fourier_lebesgue_norm(z, 1) == 0.0

    def test_gaussian_l1(self, gauss1):
        assert fourier_lebesgue_norm(gauss1, 1) == pytest.approx(
            np.sqrt(2 * np.pi), rel=1e-10)

    def test_embedding_into_m21(self, grid1, part1):
        spec = ModNormSpec(2, 1, 0)
        for f in mixed_family(grid1, 12, seed=99):
            assert fourier_lebesgue_norm(f, 1) <= \
                constants.FL1_EMBEDDING_CONST * mod_norm_decomp(f, spec, part1)
