import json
import warnings

import numpy as np
import pytest

from modheat.corpus import band_limited
from modheat.spectral import (SpectralGrid, _band_slots, _factor_meshes,
                              _per_axis, boundary_tail_ratio,
                              cropped_forward, fine_grid,
                              forward_values, heat_symbol, inverse_values,
                              load_grid_function, lp_norm, padded_inverse)


# -- oracles: quadrature norms of one function, the grid-function writer and
# -- the padded power of one function; also used by other test modules


def physical_lp_norm(g, f, p):
    """Quadrature L^p norm of one function's physical samples on grid g."""
    return lp_norm(f, g.spacing ** g.dim, p, g.dim)


def frequency_lp_norm(g, F, p):
    """Quadrature L^p norm on the frequency lattice of grid g: the FL^p
    norm of one function's frequency samples."""
    return lp_norm(F, g.freq_spacing ** g.dim, p, g.dim)


def save_grid_function(g, values, path_base, side="physical"):
    """Write <base>.csv rows (index, re, im) plus a <base>.json grid header,
    the files load_grid_function reads; values are one function's samples
    on grid g, on the given side.  The file orders frequency samples from
    mode -N/2 up on each axis, so they are moved out of slot order."""
    if side == "frequency":
        values = np.fft.fftshift(values)
    with open(path_base + ".csv", "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(np.reshape(values, -1)):
            fh.write(f"{i},{float(v.real)!r},{float(v.imag)!r}\n")
    header = {"dim": g.dim, "points_per_axis": g.points_per_axis,
              "half_width": g.half_width, "side": side}
    with open(path_base + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dealiased_power_hat(g, hat, k):
    """Transform (our normalization) of f^k, alias-free in band, from f's
    transform hat on grid g."""
    fine = fine_grid(g, k)
    power = padded_inverse(g, hat, fine) ** k
    return cropped_forward(g, power, fine)


def dealiased_power(g, f, k):
    """Pointwise f^k of physical samples f on grid g, with the band-limited
    (alias-free) projection."""
    return inverse_values(g, dealiased_power_hat(g, forward_values(g, f), k))


def dealiased_product(gr, f, g):
    """Alias-free pointwise product of physical samples f and g on grid
    gr."""
    fine = fine_grid(gr, 2)
    hats = forward_values(gr, np.stack([f, g]))
    a, b = padded_inverse(gr, hats, fine)
    prod = cropped_forward(gr, a * b, fine)
    return inverse_values(gr, prod)


def brute_force_forward(g, f):
    """O(N^2d) quadrature sum straight from the transform definition."""
    x = g.x_mesh.reshape(-1, g.dim)
    xi = g.freq_mesh.reshape(-1, g.dim)
    phase = np.exp(-1j * xi @ x.T)
    vals = (2 * np.pi) ** (-g.dim / 2) * g.spacing ** g.dim \
        * phase @ np.reshape(f, -1)
    return vals.reshape(g.shape)


def brute_force_inverse(g, F):
    x = g.x_mesh.reshape(-1, g.dim)
    xi = g.freq_mesh.reshape(-1, g.dim)
    phase = np.exp(1j * x @ xi.T)
    vals = (2 * np.pi) ** (-g.dim / 2) * g.freq_spacing ** g.dim \
        * phase @ np.reshape(F, -1)
    return vals.reshape(g.shape)


class TestGrid:
    def test_derived_quantities(self):
        g = SpectralGrid(1, 8, 2.0)
        assert g.spacing * g.points_per_axis == pytest.approx(2 * g.half_width)
        assert g.freq_spacing == pytest.approx(np.pi / 2.0)
        # the FFT's slot order: modes 0 .. 3, then -4 .. -1
        np.testing.assert_allclose(
            g.freq_axis, np.pi / 2.0 * np.array([0, 1, 2, 3, -4, -3, -2, -1]))

    @pytest.mark.parametrize("n", [3, 5, 2])
    def test_rejects_bad_point_count(self, n):
        with pytest.raises(ValueError):
            SpectralGrid(1, n, 1.0)

    def test_rejects_wrong_value_count(self, tmp_path):
        # a grid-function file needs one row per lattice point
        g = SpectralGrid(1, 8, 2.0)
        base = str(tmp_path / "short")
        save_grid_function(g, np.zeros(7), base)
        with pytest.raises(ValueError, match="expected 8 rows"):
            load_grid_function(base)
        save_grid_function(g, np.zeros(8), base)
        assert load_grid_function(base)[1].shape == g.shape


class TestTransforms:
    def test_zero_maps_to_zero(self, grid1):
        F = forward_values(grid1, np.zeros(grid1.shape, complex))
        assert np.all(F == 0)

    def test_gaussian_is_self_dual(self, grid1, gauss1):
        F = forward_values(grid1, gauss1)
        np.testing.assert_allclose(F, np.exp(-grid1.freq_axis ** 2 / 2),
                                   atol=1e-10)

    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 16), (2, 8)])
    def test_matches_brute_force_oracle(self, dim, n):
        g = SpectralGrid(dim, n, 3.0)
        rng = np.random.default_rng(dim * 100 + n)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        F = forward_values(g, f)
        scale = np.max(np.abs(F))
        np.testing.assert_allclose(F, brute_force_forward(g, f),
                                   atol=1e-12 * scale)
        back = inverse_values(g, F)
        np.testing.assert_allclose(back, brute_force_inverse(g, F),
                                   atol=1e-12 * np.max(np.abs(back)))

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)])
    def test_roundtrip(self, dim, n):
        g = SpectralGrid(dim, n, 5.0)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        back = inverse_values(g, forward_values(g, f))
        err = np.max(np.abs(back - f)) / np.max(np.abs(f))
        assert err <= 1e-12

    def test_dc_mode_gives_constant(self, grid1):
        coeffs = np.zeros(grid1.shape, dtype=complex)
        coeffs[0] = 1.0
        f = inverse_values(grid1, coeffs)
        assert np.max(np.abs(f - f.reshape(-1)[0])) < 1e-14

    def test_parseval_on_random_batch(self, grid1):
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = (rng.standard_normal(grid1.shape)
                 + 1j * rng.standard_normal(grid1.shape))
            a = physical_lp_norm(grid1, f, 2)
            b = frequency_lp_norm(grid1, forward_values(grid1, f), 2)
            assert abs(a - b) <= 1e-12 * a


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_spectral_helpers_equal_nd(self, dim):
        grid = SpectralGrid(dim, 8, 3.0)
        fine = fine_grid(grid, 2)
        rng = np.random.default_rng(10 + dim)
        shape = (3,) + grid.shape
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(-dim, 0))
        forward_mesh, inverse_mesh = _factor_meshes(grid)
        want = np.fft.fftn(a, axes=axes)
        assert np.array_equal(forward_values(grid, a), want * forward_mesh)
        want = np.fft.ifftn(a * inverse_mesh, axes=axes)
        assert np.array_equal(inverse_values(grid, a), want)
        index, factor = _band_slots(grid, fine)
        pad = np.zeros((3,) + fine.shape, complex)
        pad[index] = a * factor
        padded = padded_inverse(grid, a, fine)
        assert np.array_equal(padded, np.fft.ifftn(pad, axes=axes))
        assert np.array_equal(cropped_forward(grid, padded, fine),
                              np.fft.fftn(padded, axes=axes)[index] / factor)


def multiply(g, f, m):
    """F^{-1}(m F f) for physical samples f on grid g: a symbol m sampled
    on the frequency lattice times the transforms, as the CLI takes a
    flow."""
    return inverse_values(g, m * forward_values(g, f))


class TestMultipliers:
    def test_identity(self, grid1, gauss1):
        out = multiply(grid1, gauss1, np.ones(grid1.shape))
        assert np.max(np.abs(out - gauss1)) <= 1e-12

    def test_gaussian_heat_closed_form(self, grid1, gauss1):
        t = 0.5
        out = multiply(grid1, gauss1, heat_symbol(grid1, t, 2.0))
        ref = (1 + 2 * t) ** -0.5 * np.exp(-grid1.x_axis ** 2 / (2 * (1 + 2 * t)))
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_projector_idempotent(self, grid1, gauss1):
        proj = (np.abs(grid1.freq_axis) < 1e-12).astype(float)
        once = multiply(grid1, gauss1, proj)
        twice = multiply(grid1, once, proj)
        np.testing.assert_allclose(twice, once, atol=1e-14)

    def test_multipliers_compose(self, grid1, gauss1):
        m1 = heat_symbol(grid1, 0.3, 1.5)
        m2 = heat_symbol(grid1, 0.9, 1.5)
        a = multiply(grid1, multiply(grid1, gauss1, m1), m2)
        b = multiply(grid1, gauss1, m1 * m2)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_semigroup_identity(self, grid1, gauss1):
        a = multiply(grid1, gauss1, heat_symbol(grid1, 0.4, 1.0))
        a = multiply(grid1, a, heat_symbol(grid1, 0.6, 1.0))
        b = multiply(grid1, gauss1, heat_symbol(grid1, 1.0, 1.0))
        assert np.max(np.abs(a - b)) <= 1e-12

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


class TestDealiasing:
    def test_gaussian_square(self, grid1, gauss1):
        sq = dealiased_power(grid1, gauss1, 2)
        np.testing.assert_allclose(sq, np.exp(-grid1.x_axis ** 2),
                                   atol=1e-12)

    def test_band_limited_power_matches_spectral_convolution(self):
        # for band-limited data the retained modes of u^2 are the exact
        # discrete convolution of the coefficients
        g = SpectralGrid(1, 64, 8.0)
        rng = np.random.default_rng(5)
        draws = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        # modes -6 .. 6; mode m sits in slot m mod 64
        coeffs = np.zeros(g.shape, dtype=complex)
        coeffs[np.arange(-6, 7) % 64] = draws
        f = inverse_values(g, coeffs)
        got = dealiased_power_hat(g, forward_values(g, f), 2)
        conv = np.zeros(g.shape, dtype=complex)
        conv[np.arange(-12, 13) % 64] = np.convolve(draws, draws)
        expected = (2 * np.pi) ** -0.5 * g.freq_spacing * conv
        np.testing.assert_allclose(got, expected, atol=1e-12 * np.max(np.abs(expected)))

    def test_product_consistent_with_power(self, grid1, gauss1):
        prod = dealiased_product(grid1, gauss1, gauss1)
        sq = dealiased_power(grid1, gauss1, 2)
        np.testing.assert_allclose(prod, sq, atol=1e-13)

    def test_cube_of_cosine(self):
        # cos^3 has closed-form harmonics: (3 cos x + cos 3x) / 4
        g = SpectralGrid(1, 64, np.pi)
        cube = dealiased_power(g, np.cos(g.x_axis) + 0j, 3)
        ref = (3 * np.cos(g.x_axis) + np.cos(3 * g.x_axis)) / 4
        np.testing.assert_allclose(cube, ref, atol=1e-13)


class TestDiagnosticsAndIO:
    def test_tail_ratio_flags_wide_data(self):
        g = SpectralGrid(1, 64, 4.0)
        narrow = np.exp(-4 * g.x_axis ** 2)
        wide = np.exp(-0.01 * g.x_axis ** 2)
        assert boundary_tail_ratio(narrow) < 1e-14
        assert boundary_tail_ratio(wide) > 1e-2
        assert boundary_tail_ratio(np.zeros(g.shape)) == 0.0

    def test_serialization_roundtrip(self, tmp_path):
        g = SpectralGrid(2, 8, 2.0)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        base = str(tmp_path / "field")
        save_grid_function(g, f, base)
        back_grid, back = load_grid_function(base)
        assert back_grid == g
        np.testing.assert_array_equal(back, f)

    def test_frequency_side_read_as_physical(self, tmp_path):
        # a frequency-side file holds transform samples: they are
        # inverse-transformed when read; any other side is rejected
        g = SpectralGrid(2, 8, 2.0)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        base = str(tmp_path / "field")
        save_grid_function(g, forward_values(g, f), base, "frequency")
        back_grid, back = load_grid_function(base)
        assert back_grid == g
        np.testing.assert_allclose(back, f, rtol=0, atol=1e-14)
        save_grid_function(g, f, base, "momentum")
        with pytest.raises(ValueError, match="side"):
            load_grid_function(base)

    def test_frequency_file_rows_run_from_mode_minus_half(self, tmp_path):
        # a frequency-side file lists each axis's modes from -N/2 up; its
        # samples load to the inverse transform of that array moved to slot
        # order by ifftshift, bit for bit
        g = SpectralGrid(2, 8, 2.0)
        rng = np.random.default_rng(2)
        natural = (rng.standard_normal(g.shape)
                   + 1j * rng.standard_normal(g.shape))
        base = str(tmp_path / "field")
        save_grid_function(g, np.fft.ifftshift(natural), base, "frequency")
        with open(base + ".csv") as fh:
            rows = np.loadtxt(fh, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1] + 1j * rows[:, 2], natural.ravel())
        want = np.fft.ifftn(np.fft.ifftshift(natural) * _factor_meshes(g)[1])
        assert np.array_equal(load_grid_function(base)[1], want)
        # one row: the mode (1, -2) of natural row (1 + 4) * 8 + (-2 + 4)
        single = np.zeros(g.shape, complex)
        single[5, 2] = 1.0
        save_grid_function(g, np.fft.ifftshift(single), base, "frequency")
        wave = ((2 * np.pi) ** -1 * g.freq_spacing ** 2
                * np.exp(1j * g.x_mesh @ (g.freq_spacing * np.array([1, -2]))))
        np.testing.assert_allclose(load_grid_function(base)[1], wave,
                                   rtol=0, atol=1e-15)


def natural_band_limited(grid, max_mode, seed):
    """band_limited built from mode -N/2 up on every axis: the draws fill
    the lattice's centre block in that order, moved to slot order by
    ifftshift."""
    rng = np.random.default_rng(seed)
    n = grid.points_per_axis
    coeffs = np.zeros(grid.shape, dtype=complex)
    block = (slice(n // 2 - max_mode, n // 2 + max_mode + 1),) * grid.dim
    size = (2 * max_mode + 1,) * grid.dim
    coeffs[block] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return inverse_values(grid, np.fft.ifftshift(coeffs)).real.astype(complex)


class TestBandLimited:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_matches_natural_order_construction(self, dim, n):
        grid = SpectralGrid(dim, n, 4.0)
        for max_mode in (0, 2, n // 2 - 1):
            assert np.array_equal(band_limited(grid, max_mode, seed=5),
                                  natural_band_limited(grid, max_mode, 5))

    def test_rejects_modes_beyond_the_band(self):
        grid = SpectralGrid(1, 16, 4.0)
        for max_mode in (-1, 8):
            with pytest.raises(ValueError, match="max_mode"):
                band_limited(grid, max_mode, seed=0)


class TestLpNorm:
    def test_stack_norms_equal_single_norms(self):
        # a function's norm does not depend on the stack it comes in: the
        # root is taken one function at a time, bit for bit
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((2, 300, 16)) * rng.uniform(
            0.1, 10.0, (2, 300, 1))
        for p in (1.5, 3.0, 4.0, np.inf):
            norms = lp_norm(stack, 0.3, p, 1)
            assert norms.shape == (2, 300)
            assert norms.tolist() == [[lp_norm(f, 0.3, p, 1) for f in row]
                                      for row in stack]

    @pytest.mark.parametrize("e", [-1000, -600, -300, 0, 300, 600, 1000])
    def test_power_of_two_scale(self, e):
        # lp_norm(2^e f) == 2^e lp_norm(f) bit for bit, real and complex
        # samples over ten decades, f taken as 2^-e (2^e f)
        rng = np.random.default_rng(5)
        f = rng.standard_normal((2, 3, 40)) * 10.0 ** rng.uniform(
            -5.0, 5.0, (2, 3, 40))
        f = f + 1j * np.concatenate([np.zeros((1, 3, 40)), f[1:] / 3.0])
        scaled = np.ldexp(f.real, e) + 1j * np.ldexp(f.imag, e)
        f = np.ldexp(scaled.real, -e) + 1j * np.ldexp(scaled.imag, -e)
        for p in (1.0, 1.5, 2.0, 4.0, np.inf):
            want = np.ldexp(lp_norm(f, 0.3, p, 1), e)
            assert np.all(np.isfinite(want) & (want > 0.0))
            assert lp_norm(scaled, 0.3, p, 1).tobytes() == want.tobytes()

    def test_subnormal_samples_keep_the_scale(self):
        # complex samples below 2^-1022 lose bits in |f| unless scaled
        # first: 2^-1060 f reads 2^-1060 times the norm of f
        rng = np.random.default_rng(8)
        f = (rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50)))
        for p in (1.0, 2.0, 4.0, np.inf):
            tiny = np.ldexp(f.real, -1060) + 1j * np.ldexp(f.imag, -1060)
            want = np.ldexp(lp_norm(np.ldexp(tiny.real, 1060)
                                    + 1j * np.ldexp(tiny.imag, 1060),
                                    0.5, p, 1), -1060)
            assert lp_norm(tiny, 0.5, p, 1).tobytes() == want.tobytes()
