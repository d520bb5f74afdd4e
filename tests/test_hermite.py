import math

import numpy as np
import pytest

from modheat import constants, hermite
from modheat.corpus import hermite_coeff_family
from modheat.hermite import (HermiteBasis, HermiteCoeffs, _contract_all_axes,
                             analyze, decay_profile, eigen_sum,
                             eigen_sum_bound, heat_coeff_factors,
                             hermite_table, oscillator_heat,
                             oscillator_heat_coeffs, synthesize)
from modheat.modnorm import ModNormSpec, UniformPartition, mod_norm_decomp
from modheat.spectral import GridFunction, SpectralGrid


def synthesize_at(coeffs, axis_points):
    """Evaluate the expansion on the product mesh of arbitrary per-axis
    points: the per-function oracle of the stacked synthesis, also used by
    test_torus."""
    basis = coeffs.basis
    table = hermite_table(basis.degree_cap, np.asarray(axis_points, dtype=float))
    return _contract_all_axes(coeffs.tensor, table.T)


def coeff_unit(basis, *level_weights):
    """Coefficient tensor with prescribed (level, weight) entries (d = 1)."""
    tensor = np.zeros(basis.coeff_shape, dtype=complex)
    for level, weight in level_weights:
        tensor[level] = weight
    return HermiteCoeffs(basis, tensor)


class TestHermiteFunctions:
    def test_ground_state_value(self):
        assert hermite_table(0, 0.0)[0, 0] == pytest.approx(math.pi ** -0.25,
                                                            abs=1e-15)

    def test_first_function_is_odd(self):
        assert hermite_table(1, 0.0)[1, 0] == 0.0
        x = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(hermite_table(1, x)[1],
                                   -hermite_table(1, -x)[1], atol=1e-15)

    def test_second_function_closed_form(self):
        x = np.linspace(-5, 5, 41)
        ref = (2 * x ** 2 - 1) / (math.sqrt(2) * math.pi ** 0.25) \
            * np.exp(-x ** 2 / 2)
        np.testing.assert_allclose(hermite_table(2, x)[2], ref, atol=1e-14)

    @pytest.mark.parametrize("k", [0, 5, 20])
    def test_unit_norm_by_independent_quadrature(self, k):
        xs = np.linspace(-40.0, 40.0, 200001)
        vals = hermite_table(k, xs)[k]
        assert np.trapezoid(vals * vals, xs) == pytest.approx(1.0, abs=1e-10)

    def test_large_argument_decays_without_overflow(self):
        vals = hermite_table(500, np.array([40.0]))
        assert np.all(np.isfinite(vals))
        assert abs(vals[500, 0]) < 1e-100


class TestBasis:
    def test_orthonormality_d1_k60(self, basis60):
        gram = basis60.gram_matrix()
        assert np.max(np.abs(gram - np.eye(61))) <= 1e-10

    def test_orthonormality_d2_k20(self):
        basis = HermiteBasis(2, 20)
        gram = basis.gram_matrix()  # separable quadrature: per-axis suffices
        assert np.max(np.abs(gram - np.eye(21))) <= 1e-10

    def test_eigenvalues_and_level_dimensions(self):
        # level k of H in d = 2: eigenvalue 2k + 2, dimension k + 1
        basis = HermiteBasis(2, 6)
        factors = heat_coeff_factors(basis, 1.0, 1.0)
        for level in range(7):
            at_level = basis.level_mesh == level
            assert np.count_nonzero(at_level) == level + 1
            np.testing.assert_allclose(factors[at_level],
                                       math.exp(-(2 * level + 2)), rtol=1e-15)


class TestAnalyzeSynthesize:
    def test_ground_state_coefficients(self, basis16):
        vals = basis16.table[0]
        c = analyze(vals, basis16)
        assert c.tensor[0].real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(c.tensor.ravel()[1:])) <= 1e-10

    def test_two_mode_combination(self, basis16):
        vals = 3.0 * basis16.table[2] + 4.0 * basis16.table[5]
        c = analyze(vals, basis16)
        assert c.tensor[2].real == pytest.approx(3.0, abs=1e-10)
        assert c.tensor[5].real == pytest.approx(4.0, abs=1e-10)
        back = synthesize(c)
        np.testing.assert_allclose(back, vals, atol=1e-10)

    def test_polynomial_gaussian_roundtrip(self, basis16):
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(basis16.degree_cap - 1)
        poly = np.polynomial.polynomial.polyval(basis16.nodes, coeffs)
        vals = poly * np.exp(-basis16.nodes ** 2 / 2)
        back = synthesize(analyze(vals, basis16))
        scale = np.max(np.abs(vals))
        np.testing.assert_allclose(back, vals, atol=1e-8 * scale)

    def test_2d_separable_function(self):
        basis = HermiteBasis(2, 10)
        t1 = hermite_table(10, basis.nodes)
        vals = np.multiply.outer(t1[3], t1[2])
        c = analyze(vals, basis)
        assert c.tensor[3, 2].real == pytest.approx(1.0, abs=1e-10)
        assert np.sum(np.abs(c.tensor) > 1e-8) == 1

    def test_synthesize_at_matches_nodes(self, basis16):
        c = coeff_unit(basis16, (0, 1.0), (4, -2.0))
        at_nodes = synthesize_at(c, basis16.nodes)
        np.testing.assert_allclose(at_nodes, synthesize(c), atol=1e-12)


class TestOscillatorHeat:
    def test_ground_state_eigenvalue(self, basis16):
        out = oscillator_heat(basis16.table[0], 1.3, 2.0, basis16)
        np.testing.assert_allclose(out, math.exp(-1.3) * basis16.table[0],
                                   atol=1e-12)

    def test_time_zero_identity(self, basis16):
        vals = basis16.table[0] + 0.5 * basis16.table[3]
        np.testing.assert_allclose(oscillator_heat(vals, 0.0, 1.0, basis16),
                                   vals, atol=1e-12)

    def test_two_level_closed_form(self, basis16):
        vals = basis16.table[0] + basis16.table[1]
        out = oscillator_heat(vals, 1.0, 1.0, basis16)
        want = (math.exp(-1) * basis16.table[0]
                + math.exp(-3) * basis16.table[1])
        assert math.exp(-1) == pytest.approx(0.3678794, abs=1e-7)
        assert math.exp(-3) == pytest.approx(0.0497871, abs=1e-7)
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_semigroup(self, basis16):
        rng = np.random.default_rng(2)
        c = HermiteCoeffs(basis16, rng.standard_normal(basis16.coeff_shape)
                          * basis16.level_mask)
        vals = synthesize(c)
        a = oscillator_heat(oscillator_heat(vals, 0.4, 1.5, basis16), 0.6,
                            1.5, basis16)
        b = oscillator_heat(vals, 1.0, 1.5, basis16)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_l2_contraction_sharp_on_ground_state(self, basis16):
        c = coeff_unit(basis16, (0, 1.0), (5, 0.7))
        heated = oscillator_heat_coeffs(c, 0.8, 1.0)
        assert (np.linalg.norm(heated.tensor)
                <= math.exp(-0.8) * np.linalg.norm(c.tensor) + 1e-12)
        ground = coeff_unit(basis16, (0, 1.0))
        heated0 = oscillator_heat_coeffs(ground, 0.8, 1.0)
        assert np.linalg.norm(heated0.tensor) == pytest.approx(math.exp(-0.8),
                                                               rel=1e-12)

    def test_negative_time_rejected(self, basis16):
        with pytest.raises(ValueError):
            oscillator_heat(basis16.table[0], -0.1, 1.0, basis16)


class TestEigenSums:
    def test_d1_beta1_geometric_closed_form(self):
        s = eigen_sum(1, 1.0, 1.0)
        closed = math.exp(-2) / (1 - math.exp(-4))
        assert s == pytest.approx(closed, abs=1e-12)
        assert abs(s - 0.1378607) <= 1e-6

    def test_d1_beta1_bound_value(self):
        b = eigen_sum_bound(1, 1.0, 1.0)
        assert b == pytest.approx(math.exp(-1) * 0.5, rel=1e-13)
        assert abs(b - 0.1839397) <= 1e-6

    def test_d2_beta1_closed_form(self):
        s = eigen_sum(2, 1.0, 1.0)
        closed = math.exp(-4) / (1 - math.exp(-4)) ** 2
        assert s == pytest.approx(closed, abs=1e-12)
        assert s <= eigen_sum_bound(2, 1.0, 1.0)

    def test_beta2_matches_direct_summation(self):
        s = eigen_sum(1, 2.0, 0.1)
        direct = sum(math.exp(-0.2 * (2 * n + 1) ** 2) for n in range(200))
        assert s == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_bound_holds_on_lattice(self, d, beta, t):
        assert eigen_sum(d, beta, t) <= eigen_sum_bound(d, beta, t)

    @pytest.mark.parametrize("beta,t", [(0.001, 0.5), (1.0, 1e-300),
                                        (0.25, 0.1)])
    def test_uncertifiable_remainder_fails_before_summing(self, monkeypatch,
                                                         beta, t):
        # beta = 0.001: the remainder bound is infinite up to shell 1e3000;
        # t = 1e-300: it is finite, and e^690 at every shell summed; 0.25,
        # 0.1: finite from shell 4e5 on, still too large, where summing
        # took 2.5 s to give up
        def no_shells(*args):
            raise AssertionError("shells summed")

        monkeypatch.setattr(hermite, "_shell_terms", no_shells)
        with pytest.raises(ValueError, match="cannot certify"):
            eigen_sum(1, beta, t)

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_shell_multiplicities_match_comb(self, d):
        # c = 0: the terms are the multiplicities C(n + d - 1, d - 1)
        n_hi = 20000
        got = hermite._shell_terms(d, 0.0, 1.0, 0, n_hi)
        combs = [math.comb(n + d - 1, d - 1) for n in range(n_hi)]
        want = np.array([float(c) for c in combs])
        exact = np.array([(d - 1) * c < 2 ** 53 for c in combs])
        assert exact.any()
        np.testing.assert_array_equal(got[exact], want[exact])
        np.testing.assert_allclose(got, want, rtol=2 * (d - 1) * 2.0 ** -53,
                                   atol=0.0)

    def test_infinite_multiplicity_overflows(self):
        # C(n + 199, 199) passes the float range within the first shells
        with pytest.raises(OverflowError):
            eigen_sum(200, 1.0, 0.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eigen_sum(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            eigen_sum_bound(1, -1.0, 1.0)


def oracle_decay_profile(coeffs, beta, p, t_grid, grid, partition):
    """decay_profile as a loop over t: one synthesis and one norm per t."""
    spec = ModNormSpec(p, p, 0.0)

    def norm(c):
        vals = synthesize_at(c, grid.x_axis)
        return mod_norm_decomp(GridFunction(grid, vals), spec, partition)

    d = coeffs.basis.dim
    base = norm(coeffs)
    rows = []
    for t in t_grid:
        nrm = norm(oscillator_heat_coeffs(coeffs, float(t), beta))
        rows.append((float(t), nrm,
                     nrm * math.exp(t * d ** beta) * t ** (d / beta) / base))
    return rows


def sweep_order(first):
    """The exponents 1, 2 and 4, with `first` at the head of the sweep."""
    return [first] + [p for p in (1.0, 2.0, 4.0) if p != first]


class TestDecayProfile:
    @pytest.mark.parametrize("cap", [None, 1, 3])
    @pytest.mark.parametrize("first", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stack_matches_per_t_loop(self, monkeypatch, dim, first, cap):
        # one sweep over p = 1, 2, 4 against the per-(p, t) oracle; `first`
        # heads the sweep.  cap: slices per synthesized chunk (None: the
        # module's cap); 3 leaves a partial last chunk of the 1 + 7 slices
        if dim == 1:
            grid, degree = SpectralGrid(1, 192, 12.0), 16
        else:
            grid, degree = SpectralGrid(2, 24, 6.0), 6
        basis = HermiteBasis(dim, degree)
        (_, coeffs), = hermite_coeff_family(basis, 1, seed=3)
        part = UniformPartition(grid)
        t_grid = [0.05, 0.2, 0.7, 1.5, 2.5, 3.0, 4.5]
        if cap is not None:
            monkeypatch.setattr(hermite, "NORM_BATCH_VALUES", cap * grid.size)
        ps = sweep_order(first)
        profiles = decay_profile(coeffs, 1.5, ps, t_grid, grid, part)
        assert len(profiles) == len(ps)
        for p, got in zip(ps, profiles):
            want = oracle_decay_profile(coeffs, 1.5, p, t_grid, grid, part)
            assert [r[0] for r in got] == [r[0] for r in want]
            np.testing.assert_allclose([r[1:] for r in got],
                                       [r[1:] for r in want], rtol=1e-13,
                                       atol=0)

    def test_grid_dimension_must_match_basis(self, basis16):
        grid = SpectralGrid(2, 16, 4.0)
        with pytest.raises(ValueError):
            decay_profile(coeff_unit(basis16, (0, 1.0)), 1.0, [2.0], [0.5],
                          grid, UniformPartition(grid))

    def test_ground_state_ratio_is_power_law(self, basis16, hgrid, hpart):
        coeffs = coeff_unit(basis16, (0, 1.0))
        rows, = decay_profile(coeffs, 1.0, [2.0], [0.1, 1.0, 2.0], hgrid,
                              hpart)
        for t, _, ratio in rows:
            assert ratio == pytest.approx(t, rel=1e-8)

    def test_multi_level_bounded_and_slope(self, basis16, hgrid, hpart):
        rng = np.random.default_rng(11)
        tensor = np.zeros(basis16.coeff_shape, dtype=complex)
        tensor[:11] = rng.standard_normal(11)
        coeffs = HermiteCoeffs(basis16, tensor)
        t_grid = np.concatenate([np.geomspace(0.05, 2.5, 12),
                                 np.linspace(3.0, 5.0, 9)])
        for beta in (1.0, 2.0):
            for rows in decay_profile(coeffs, beta, [1.0, 2.0, 4.0], t_grid,
                                      hgrid, hpart):
                assert max(r for _, _, r in rows) <= constants.DECAY_PROFILE_CONST
                ts = np.array([t for t, _, _ in rows if t >= 3.0])
                ns = np.array([v for t, v, _ in rows if t >= 3.0])
                slope = np.polyfit(ts, np.log(ns), 1)[0]
                assert slope == pytest.approx(-1.0, rel=0.02)

    def test_negative_time_rejected(self, basis16, hgrid, hpart):
        with pytest.raises(ValueError):
            decay_profile(coeff_unit(basis16, (0, 1.0)), 1.0, [2.0],
                          [0.5, -0.1], hgrid, hpart)

    def test_zero_data_rejected(self, basis16, hgrid, hpart):
        coeffs = coeff_unit(basis16)
        with pytest.raises(ValueError):
            decay_profile(coeffs, 1.0, [2.0], [0.5], hgrid, hpart)


class TestCorpusHelpers:
    def test_family_is_deterministic(self, basis16):
        a = hermite_coeff_family(basis16, 3, seed=5)
        b = hermite_coeff_family(basis16, 3, seed=5)
        for (la, ca), (lb, cb) in zip(a, b):
            assert la == lb
            np.testing.assert_array_equal(ca.tensor, cb.tensor)
