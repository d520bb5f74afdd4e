import json
import warnings

import numpy as np
import pytest

from modheat.spectral import (FREQUENCY, PHYSICAL, GridFunction, SpectralGrid,
                              _band_slots, _factor_meshes, _per_axis,
                              apply_multiplier, boundary_tail_ratio,
                              cropped_forward, dft_order, fine_grid,
                              forward_transform, forward_values,
                              heat_symbol, inverse_transform, inverse_values,
                              load_grid_function, lp_norm, padded_inverse)


# -- oracles: quadrature norms of one function, the grid-function writer and
# -- the padded power of one function; also used by other test modules


def physical_lp_norm(f, p):
    """Quadrature L^p norm of a grid function's samples."""
    return lp_norm(f.values, f.grid.spacing ** f.grid.dim, p)


def frequency_lp_norm(F, p):
    """Quadrature L^p norm on the frequency lattice: the FL^p norm of a
    frequency-side grid function."""
    return lp_norm(F.values, F.grid.freq_spacing ** F.grid.dim, p)


def save_grid_function(f, path_base):
    """Write <base>.csv rows (index, re, im) plus a <base>.json grid header,
    the files load_grid_function reads."""
    with open(path_base + ".csv", "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(f.values.reshape(-1)):
            fh.write(f"{i},{float(v.real)!r},{float(v.imag)!r}\n")
    header = {"dim": f.grid.dim, "points_per_axis": f.grid.points_per_axis,
              "half_width": f.grid.half_width, "side": f.side}
    with open(path_base + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dealiased_power_hat(f, k):
    """Transform (our normalization) of f^k, alias-free in band; f may be
    given on either side."""
    g = f.grid
    hat = f.values if f.side == FREQUENCY else forward_values(g, f.values)
    fine = fine_grid(g, k)
    power = padded_inverse(g, hat, fine) ** k
    return GridFunction(g, cropped_forward(g, power, fine), FREQUENCY)


def dealiased_power(f, k):
    """Pointwise u^k with the band-limited (alias-free) projection."""
    return inverse_transform(dealiased_power_hat(f, k))


def dealiased_product(f, g):
    """Alias-free pointwise product of two physical-side grid functions."""
    gr = f.grid
    fine = fine_grid(gr, 2)
    hats = forward_values(gr, np.stack([f.values, g.values]))
    a, b = padded_inverse(gr, hats, fine)
    prod = cropped_forward(gr, a * b, fine)
    return GridFunction(gr, inverse_values(gr, prod), PHYSICAL)


def brute_force_forward(f):
    """O(N^2d) quadrature sum straight from the transform definition."""
    g = f.grid
    x = g.x_mesh.reshape(-1, g.dim)
    xi = g.freq_mesh.reshape(-1, g.dim)
    phase = np.exp(-1j * xi @ x.T)
    vals = (2 * np.pi) ** (-g.dim / 2) * g.spacing ** g.dim \
        * phase @ f.values.reshape(-1)
    return vals.reshape(g.shape)


def brute_force_inverse(F):
    g = F.grid
    x = g.x_mesh.reshape(-1, g.dim)
    xi = g.freq_mesh.reshape(-1, g.dim)
    phase = np.exp(1j * x @ xi.T)
    vals = (2 * np.pi) ** (-g.dim / 2) * g.freq_spacing ** g.dim \
        * phase @ F.values.reshape(-1)
    return vals.reshape(g.shape)


class TestGrid:
    def test_derived_quantities(self):
        g = SpectralGrid(1, 8, 2.0)
        assert g.spacing * g.points_per_axis == pytest.approx(2 * g.half_width)
        assert g.freq_spacing == pytest.approx(np.pi / 2.0)
        np.testing.assert_allclose(g.freq_axis,
                                   np.pi / 2.0 * np.arange(-4, 4))

    @pytest.mark.parametrize("n", [3, 5, 2])
    def test_rejects_bad_point_count(self, n):
        with pytest.raises(ValueError):
            SpectralGrid(1, n, 1.0)

    def test_rejects_wrong_value_count(self):
        g = SpectralGrid(1, 8, 2.0)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(7))


class TestTransforms:
    def test_zero_maps_to_zero(self, grid1):
        F = forward_transform(GridFunction(grid1, np.zeros(grid1.shape)))
        assert np.all(F.values == 0)

    def test_gaussian_is_self_dual(self, grid1, gauss1):
        F = forward_transform(gauss1)
        np.testing.assert_allclose(F.values, np.exp(-grid1.freq_axis ** 2 / 2),
                                   atol=1e-10)

    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 16), (2, 8)])
    def test_matches_brute_force_oracle(self, dim, n):
        g = SpectralGrid(dim, n, 3.0)
        rng = np.random.default_rng(dim * 100 + n)
        f = GridFunction(g, rng.standard_normal(g.shape)
                         + 1j * rng.standard_normal(g.shape))
        F = forward_transform(f)
        scale = np.max(np.abs(F.values))
        np.testing.assert_allclose(F.values, brute_force_forward(f),
                                   atol=1e-12 * scale)
        back = inverse_transform(F)
        np.testing.assert_allclose(back.values, brute_force_inverse(F),
                                   atol=1e-12 * np.max(np.abs(back.values)))

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)])
    def test_roundtrip(self, dim, n):
        g = SpectralGrid(dim, n, 5.0)
        rng = np.random.default_rng(7)
        f = GridFunction(g, rng.standard_normal(g.shape)
                         + 1j * rng.standard_normal(g.shape))
        back = inverse_transform(forward_transform(f))
        err = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert err <= 1e-12

    def test_dc_mode_gives_constant(self, grid1):
        coeffs = np.zeros(grid1.shape, dtype=complex)
        coeffs[grid1.points_per_axis // 2] = 1.0
        f = inverse_transform(GridFunction(grid1, coeffs, FREQUENCY))
        assert np.max(np.abs(f.values - f.values.reshape(-1)[0])) < 1e-14

    def test_parseval_on_random_batch(self, grid1):
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = GridFunction(grid1, rng.standard_normal(grid1.shape)
                             + 1j * rng.standard_normal(grid1.shape))
            a = physical_lp_norm(f, 2)
            b = frequency_lp_norm(forward_transform(f), 2)
            assert abs(a - b) <= 1e-12 * a

    def test_side_mismatch_rejected(self, grid1, gauss1):
        with pytest.raises(ValueError):
            inverse_transform(gauss1)
        with pytest.raises(ValueError):
            forward_transform(forward_transform(gauss1))


class TestPerAxisTransforms:
    """The per-axis paths against NumPy's n-d calls: equal bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_transforms_and_shifts_equal_nd(self, dim):
        rng = np.random.default_rng(dim)
        shape = (3,) + (8,) * dim
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(-dim, 0))
        want = np.fft.ifftn(a, axes=axes)
        assert np.array_equal(_per_axis(np.fft.ifft, a, dim), want)
        b = a.copy()
        assert _per_axis(np.fft.ifft, b, dim, out=b) is b
        assert np.array_equal(b, want)
        assert np.array_equal(_per_axis(np.fft.fft, a, dim),
                              np.fft.fftn(a, axes=axes))
        assert np.array_equal(dft_order(a, axes=axes),
                              np.fft.ifftshift(a, axes=axes))
        assert np.array_equal(dft_order(a), np.fft.ifftshift(a))
        assert np.array_equal(dft_order(a, axes=-1),
                              np.fft.ifftshift(a, axes=-1))

    def test_odd_length_shift(self):
        a = np.arange(35.0).reshape(5, 7)
        assert np.array_equal(dft_order(a), np.fft.ifftshift(a))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_spectral_helpers_equal_nd(self, dim):
        grid = SpectralGrid(dim, 8, 3.0)
        fine = fine_grid(grid, 2)
        rng = np.random.default_rng(10 + dim)
        shape = (3,) + grid.shape
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(-dim, 0))
        forward_mesh, inverse_mesh, forward_dft = _factor_meshes(grid)
        assert np.array_equal(forward_dft, dft_order(forward_mesh))
        want = np.fft.fftshift(np.fft.fftn(a, axes=axes), axes=axes)
        assert np.array_equal(forward_values(grid, a), want * forward_mesh)
        want = np.fft.ifftn(np.fft.ifftshift(a, axes=axes) * inverse_mesh,
                            axes=axes)
        assert np.array_equal(inverse_values(grid, a), want)
        index, factor = _band_slots(grid, fine)
        pad = np.zeros((3,) + fine.shape, complex)
        pad[index] = a * factor
        padded = padded_inverse(grid, a, fine)
        assert np.array_equal(padded, np.fft.ifftn(pad, axes=axes))
        assert np.array_equal(cropped_forward(grid, padded, fine),
                              np.fft.fftn(padded, axes=axes)[index] / factor)


class TestMultipliers:
    def test_identity(self, grid1, gauss1):
        out = apply_multiplier(gauss1, np.ones(grid1.shape))
        assert np.max(np.abs(out.values - gauss1.values)) <= 1e-12

    def test_gaussian_heat_closed_form(self, grid1, gauss1):
        t = 0.5
        out = apply_multiplier(gauss1, heat_symbol(grid1, t, 2.0))
        ref = (1 + 2 * t) ** -0.5 * np.exp(-grid1.x_axis ** 2 / (2 * (1 + 2 * t)))
        np.testing.assert_allclose(out.values, ref, atol=1e-8)

    def test_projector_idempotent(self, grid1, gauss1):
        proj = (np.abs(grid1.freq_axis) < 1e-12).astype(float)
        once = apply_multiplier(gauss1, proj)
        twice = apply_multiplier(once, proj)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-14)

    def test_multipliers_compose(self, grid1, gauss1):
        m1 = heat_symbol(grid1, 0.3, 1.5)
        m2 = heat_symbol(grid1, 0.9, 1.5)
        a = apply_multiplier(apply_multiplier(gauss1, m1), m2)
        b = apply_multiplier(gauss1, m1 * m2)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_semigroup_identity(self, grid1, gauss1):
        a = apply_multiplier(gauss1, heat_symbol(grid1, 0.4, 1.0))
        a = apply_multiplier(a, heat_symbol(grid1, 0.6, 1.0))
        b = apply_multiplier(gauss1, heat_symbol(grid1, 1.0, 1.0))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_heat_symbol_identity_at_zero(self, grid2):
        # also where |xi|^beta overflows, and without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(heat_symbol(grid2, 0.0, 1e300),
                                  np.ones(grid2.shape))
            big = heat_symbol(grid2, [0.0, 0.5], 1e300)
        assert np.array_equal(big[0], np.ones(grid2.shape))
        # |xi|^beta is 0 below |xi| = 1 (no lattice point has |xi| = 1)
        assert np.array_equal(big[1], 1.0 * (grid2.freq_magnitude < 1))

    def test_heat_symbol_stacks_times(self, grid2):
        times = [0.0, 0.1, 2.5]
        stack = heat_symbol(grid2, times, 1.5)
        for t, row in zip(times, stack):
            assert np.array_equal(row, heat_symbol(grid2, t, 1.5))
            assert np.array_equal(
                row, np.exp(-t * grid2.freq_magnitude ** 1.5))

    def test_rejects_nonfinite_symbol(self, grid1, gauss1):
        bad = np.ones(grid1.shape)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            apply_multiplier(gauss1, bad)

    def test_rejects_wrong_shape(self, grid1, gauss1):
        with pytest.raises(ValueError):
            apply_multiplier(gauss1, np.ones(7))


class TestDealiasing:
    def test_gaussian_square(self, grid1, gauss1):
        sq = dealiased_power(gauss1, 2)
        np.testing.assert_allclose(sq.values, np.exp(-grid1.x_axis ** 2),
                                   atol=1e-12)

    def test_band_limited_power_matches_spectral_convolution(self):
        # for band-limited data the retained modes of u^2 are the exact
        # discrete convolution of the coefficients
        g = SpectralGrid(1, 64, 8.0)
        rng = np.random.default_rng(5)
        coeffs = np.zeros(g.shape, dtype=complex)
        band = slice(32 - 6, 32 + 7)
        coeffs[band] = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        f = inverse_transform(GridFunction(g, coeffs, FREQUENCY))
        got = dealiased_power_hat(f, 2).values
        conv = np.convolve(coeffs, coeffs)[32:32 + 64]
        expected = (2 * np.pi) ** -0.5 * g.freq_spacing * conv
        np.testing.assert_allclose(got, expected, atol=1e-12 * np.max(np.abs(expected)))

    def test_product_consistent_with_power(self, grid1, gauss1):
        prod = dealiased_product(gauss1, gauss1)
        sq = dealiased_power(gauss1, 2)
        np.testing.assert_allclose(prod.values, sq.values, atol=1e-13)

    def test_cube_of_cosine(self):
        # cos^3 has closed-form harmonics: (3 cos x + cos 3x) / 4
        g = SpectralGrid(1, 64, np.pi)
        f = GridFunction(g, np.cos(g.x_axis))
        cube = dealiased_power(f, 3)
        ref = (3 * np.cos(g.x_axis) + np.cos(3 * g.x_axis)) / 4
        np.testing.assert_allclose(cube.values, ref, atol=1e-13)


class TestDiagnosticsAndIO:
    def test_tail_ratio_flags_wide_data(self):
        g = SpectralGrid(1, 64, 4.0)
        narrow = GridFunction(g, np.exp(-4 * g.x_axis ** 2))
        wide = GridFunction(g, np.exp(-0.01 * g.x_axis ** 2))
        assert boundary_tail_ratio(narrow) < 1e-14
        assert boundary_tail_ratio(wide) > 1e-2
        zero = GridFunction(g, np.zeros(g.shape))
        assert boundary_tail_ratio(zero) == 0.0

    def test_serialization_roundtrip(self, tmp_path):
        g = SpectralGrid(2, 8, 2.0)
        rng = np.random.default_rng(0)
        f = GridFunction(g, rng.standard_normal(g.shape)
                         + 1j * rng.standard_normal(g.shape), PHYSICAL)
        base = str(tmp_path / "field")
        save_grid_function(f, base)
        back = load_grid_function(base)
        assert back.grid == g
        assert back.side == PHYSICAL
        np.testing.assert_array_equal(back.values, f.values)
