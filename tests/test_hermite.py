import functools
import math
from typing import NamedTuple

import numpy as np
import pytest

from modheat import cli, constants, hermite
from modheat.corpus import hermite_coeff_family
from modheat.hermite import (ZeroNormError, decay_profile, eigen_sum,
                             eigen_sum_bound, heat_coeff_factors,
                             hermite_table, level_mesh)
from modheat.modnorm import ModNormSpec, UniformPartition
from modheat.spectral import SpectralGrid
from test_cli import hermite_config, write_config
from test_modnorm import mod_norm_decomp


# -- oracle: Gauss-Hermite quadrature analysis and synthesis, and the
# -- oscillator flow taken through them; also used by other test modules.
# -- An expansion is its coefficient tensor, of shape (degree_cap + 1,) * d.


class Quadrature(NamedTuple):
    """Gauss quadrature of the expansions of degree cap degree_cap in d
    dimensions, in the e^{-x^2} measure: nodes per axis, the Hermite table
    at them, (degree_cap + 1, nodes), the analysis matrix, the table times
    the weights converted out of the measure, and the (d-dimensional) level
    mesh."""

    nodes: np.ndarray
    table: np.ndarray
    analysis: np.ndarray
    levels: np.ndarray


@functools.lru_cache(maxsize=None)
def quadrature(dim, degree_cap):
    """degree_cap + 8 nodes per axis: the guard margin for products
    h_j h_k makes the analysis exact for polynomial-times-Gaussian
    integrands up to the degree cap."""
    nodes, weights = np.polynomial.hermite.hermgauss(degree_cap + 8)
    # in logs, so the far nodes neither underflow nor overflow
    with np.errstate(divide="ignore"):
        total_weights = np.exp(np.log(weights) + nodes ** 2)
    table = hermite_table(degree_cap, nodes)
    return Quadrature(nodes, table, table * total_weights[None, :],
                      level_mesh(dim, degree_cap))


def gram_matrix(dim, degree_cap):
    """Per-axis quadrature Gram matrix <h_j, h_k>; should be the identity."""
    q = quadrature(dim, degree_cap)
    return q.analysis @ q.table.T


def _contract_all_axes(values, matrix):
    """Apply `matrix` (new_idx, node) along every axis, keeping their order."""
    out = np.asarray(values, dtype=complex)
    for _ in range(out.ndim):
        out = np.tensordot(out, matrix, axes=([0], [1]))
    return out


def _degree_cap(tensor):
    return tensor.shape[0] - 1


def analyze(values, dim, degree_cap):
    """Hermite coefficients of samples given on the quadrature node mesh,
    0 above total degree degree_cap."""
    q = quadrature(dim, degree_cap)
    values = np.asarray(values, dtype=complex).reshape((len(q.nodes),) * dim)
    tensor = _contract_all_axes(values, q.analysis)
    return np.where(q.levels <= degree_cap, tensor, 0.0)


def synthesize(tensor):
    """Evaluate the coefficient tensor back on the quadrature node mesh."""
    q = quadrature(tensor.ndim, _degree_cap(tensor))
    return _contract_all_axes(tensor, q.table.T)


def oscillator_heat_coeffs(tensor, t, beta):
    """Heat flow of the fractional oscillator applied in coefficient space."""
    levels = level_mesh(tensor.ndim, _degree_cap(tensor))
    return heat_coeff_factors(levels, t, beta) * tensor


def oscillator_heat(values, t, beta, dim, degree_cap):
    """Level-by-level spectral multiplier exp(-t (2k+d)^beta) on node
    samples: analysis, the flow on the coefficients, synthesis."""
    return synthesize(oscillator_heat_coeffs(
        analyze(values, dim, degree_cap), t, beta))


def synthesize_at(tensor, axis_points):
    """Evaluate the expansion on the product mesh of arbitrary per-axis
    points: the per-function oracle of the stacked synthesis, also used by
    test_torus."""
    table = hermite_table(_degree_cap(tensor),
                          np.asarray(axis_points, dtype=float))
    return _contract_all_axes(tensor, table.T)


def coeff_unit(degree_cap, *level_weights):
    """Coefficient tensor with prescribed (level, weight) entries (d = 1)."""
    tensor = np.zeros(degree_cap + 1, dtype=complex)
    for level, weight in level_weights:
        tensor[level] = weight
    return tensor


def masked_draws(dim, degree_cap, count, seed, below):
    """The construction the coefficient stacks replaced: per tensor of the
    (degree_cap + 1)^dim cube, standard normal draws on the total degrees
    below `below`, one tensor after another from one stream, then every
    entry above total degree degree_cap set to 0; real, so float."""
    level = sum(np.indices((degree_cap + 1,) * dim))
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        tensor = np.zeros(level.shape)
        tensor[level < below] = rng.standard_normal(
            int(np.count_nonzero(level < below)))
        out.append(np.where(level <= degree_cap, tensor, 0.0))
    return np.stack(out)


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
    def test_orthonormality_d1_k60(self):
        gram = gram_matrix(1, 60)
        assert np.max(np.abs(gram - np.eye(61))) <= 1e-10

    def test_orthonormality_d2_k20(self):
        gram = gram_matrix(2, 20)  # separable quadrature: per-axis suffices
        assert np.max(np.abs(gram - np.eye(21))) <= 1e-10

    def test_eigenvalues_and_level_dimensions(self):
        # level k of H in d = 2: eigenvalue 2k + 2, dimension k + 1
        levels = level_mesh(2, 6)
        factors = heat_coeff_factors(levels, 1.0, 1.0)
        for level in range(7):
            at_level = levels == level
            assert np.count_nonzero(at_level) == level + 1
            np.testing.assert_allclose(factors[at_level],
                                       math.exp(-(2 * level + 2)), rtol=1e-15)


class TestAnalyzeSynthesize:
    def test_ground_state_coefficients(self):
        vals = quadrature(1, 16).table[0]
        c = analyze(vals, 1, 16)
        assert c[0].real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(c.ravel()[1:])) <= 1e-10

    def test_two_mode_combination(self):
        table = quadrature(1, 16).table
        vals = 3.0 * table[2] + 4.0 * table[5]
        c = analyze(vals, 1, 16)
        assert c[2].real == pytest.approx(3.0, abs=1e-10)
        assert c[5].real == pytest.approx(4.0, abs=1e-10)
        back = synthesize(c)
        np.testing.assert_allclose(back, vals, atol=1e-10)

    def test_polynomial_gaussian_roundtrip(self):
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(16 - 1)
        nodes = quadrature(1, 16).nodes
        poly = np.polynomial.polynomial.polyval(nodes, coeffs)
        vals = poly * np.exp(-nodes ** 2 / 2)
        back = synthesize(analyze(vals, 1, 16))
        scale = np.max(np.abs(vals))
        np.testing.assert_allclose(back, vals, atol=1e-8 * scale)

    def test_2d_separable_function(self):
        t1 = hermite_table(10, quadrature(2, 10).nodes)
        vals = np.multiply.outer(t1[3], t1[2])
        c = analyze(vals, 2, 10)
        assert c[3, 2].real == pytest.approx(1.0, abs=1e-10)
        assert np.sum(np.abs(c) > 1e-8) == 1

    def test_synthesize_at_matches_nodes(self):
        c = coeff_unit(16, (0, 1.0), (4, -2.0))
        at_nodes = synthesize_at(c, quadrature(1, 16).nodes)
        np.testing.assert_allclose(at_nodes, synthesize(c), atol=1e-12)


class TestOscillatorHeat:
    def test_ground_state_eigenvalue(self):
        ground = quadrature(1, 16).table[0]
        out = oscillator_heat(ground, 1.3, 2.0, 1, 16)
        np.testing.assert_allclose(out, math.exp(-1.3) * ground, atol=1e-12)

    def test_time_zero_identity(self):
        table = quadrature(1, 16).table
        vals = table[0] + 0.5 * table[3]
        np.testing.assert_allclose(oscillator_heat(vals, 0.0, 1.0, 1, 16),
                                   vals, atol=1e-12)

    def test_two_level_closed_form(self):
        table = quadrature(1, 16).table
        vals = table[0] + table[1]
        out = oscillator_heat(vals, 1.0, 1.0, 1, 16)
        want = math.exp(-1) * table[0] + math.exp(-3) * table[1]
        assert math.exp(-1) == pytest.approx(0.3678794, abs=1e-7)
        assert math.exp(-3) == pytest.approx(0.0497871, abs=1e-7)
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_semigroup(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal(17).astype(complex)
        vals = synthesize(c)
        a = oscillator_heat(oscillator_heat(vals, 0.4, 1.5, 1, 16), 0.6,
                            1.5, 1, 16)
        b = oscillator_heat(vals, 1.0, 1.5, 1, 16)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_l2_contraction_sharp_on_ground_state(self):
        c = coeff_unit(16, (0, 1.0), (5, 0.7))
        heated = oscillator_heat_coeffs(c, 0.8, 1.0)
        assert (np.linalg.norm(heated)
                <= math.exp(-0.8) * np.linalg.norm(c) + 1e-12)
        ground = coeff_unit(16, (0, 1.0))
        heated0 = oscillator_heat_coeffs(ground, 0.8, 1.0)
        assert np.linalg.norm(heated0) == pytest.approx(math.exp(-0.8),
                                                        rel=1e-12)

    def test_negative_time_rejected(self):
        # heat_coeff_factors rejects it
        with pytest.raises(ValueError):
            oscillator_heat(quadrature(1, 16).table[0], -0.1, 1.0, 1, 16)


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

    def test_huge_dimension_overflows_before_summing(self, monkeypatch):
        # C(4094 + d, d - 1) at d = 10^7 is far beyond the float range:
        # summing took d passes over the first block to find it
        def no_shells(*args):
            raise AssertionError("shells summed")

        monkeypatch.setattr(hermite, "_shell_terms", no_shells)
        with pytest.raises(OverflowError):
            eigen_sum(10 ** 7, 1.0, 1.0)

    @pytest.mark.parametrize("d", range(160, 200, 3))
    def test_early_overflow_only_where_the_block_overflows(self, monkeypatch,
                                                           d):
        # around the float range's edge (the first block overflows from
        # d = 170 on) the lgamma check must stay silent wherever the
        # block's multiplicities are finite, so every d that summed still
        # sums, through the same shells
        shell_terms = hermite._shell_terms
        calls = []

        def spy(*args):
            calls.append(args)
            return shell_terms(*args)

        monkeypatch.setattr(hermite, "_shell_terms", spy)
        try:
            eigen_sum(d, 1.0, 1.0)
        except OverflowError:
            if not calls:
                with pytest.raises(OverflowError):
                    shell_terms(d, 2.0, 1.0, 0, 4096)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eigen_sum(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            eigen_sum_bound(1, -1.0, 1.0)


def oracle_decay_profile(coeffs, beta, p, t_grid, partition):
    """decay_profile as a loop over t: one synthesis and one norm per t."""
    spec = ModNormSpec(p, p, 0.0)
    grid = partition.grid

    def norm(c):
        vals = synthesize_at(c, grid.x_axis)
        return mod_norm_decomp(vals, spec, partition)

    d = coeffs.ndim
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
        coeffs, = hermite_coeff_family(dim, degree, 1, seed=3)
        part = UniformPartition(grid)
        t_grid = [0.05, 0.2, 0.7, 1.5, 2.5, 3.0, 4.5]
        if cap is not None:
            monkeypatch.setattr(hermite, "NORM_BATCH_VALUES", cap * grid.size)
        ps = sweep_order(first)
        profiles = decay_profile(coeffs, 1.5, ps, t_grid, part)
        assert len(profiles) == len(ps)
        for p, got in zip(ps, profiles):
            want = oracle_decay_profile(coeffs, 1.5, p, t_grid, part)
            assert [r[0] for r in got] == [r[0] for r in want]
            np.testing.assert_allclose([r[1:] for r in got],
                                       [r[1:] for r in want], rtol=1e-13,
                                       atol=0)

    def test_grid_dimension_must_match_basis(self):
        grid = SpectralGrid(2, 16, 4.0)
        with pytest.raises(ValueError):
            decay_profile(coeff_unit(16, (0, 1.0)), 1.0, [2.0], [0.5],
                          UniformPartition(grid))

    def test_ground_state_ratio_is_power_law(self, hpart):
        coeffs = coeff_unit(16, (0, 1.0))
        rows, = decay_profile(coeffs, 1.0, [2.0], [0.1, 1.0, 2.0], hpart)
        for t, _, ratio in rows:
            assert ratio == pytest.approx(t, rel=1e-8)

    def test_multi_level_bounded_and_slope(self, hpart):
        rng = np.random.default_rng(11)
        coeffs = np.zeros(17, dtype=complex)
        coeffs[:11] = rng.standard_normal(11)
        t_grid = np.concatenate([np.geomspace(0.05, 2.5, 12),
                                 np.linspace(3.0, 5.0, 9)])
        for beta in (1.0, 2.0):
            for rows in decay_profile(coeffs, beta, [1.0, 2.0, 4.0], t_grid,
                                      hpart):
                assert max(r for _, _, r in rows) <= constants.DECAY_PROFILE_CONST
                ts = np.array([t for t, _, _ in rows if t >= 3.0])
                ns = np.array([v for t, v, _ in rows if t >= 3.0])
                slope = np.polyfit(ts, np.log(ns), 1)[0]
                assert slope == pytest.approx(-1.0, rel=0.02)

    def test_negative_time_rejected(self, hpart):
        with pytest.raises(ValueError):
            decay_profile(coeff_unit(16, (0, 1.0)), 1.0, [2.0],
                          [0.5, -0.1], hpart)

    def test_zero_data_rejected(self, hpart):
        coeffs = coeff_unit(16)
        with pytest.raises(ZeroNormError, match="p = 2.0"):
            decay_profile(coeffs, 1.0, [2.0], [0.5], hpart)


class Captured(Exception):
    """Raised by a stand-in to stop a CLI run at the captured call."""


class TestCorpusHelpers:
    def test_family_is_deterministic(self):
        a = hermite_coeff_family(1, 16, 3, seed=5)
        b = hermite_coeff_family(1, 16, 3, seed=5)
        assert a.shape == (3, 17)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("cap", [5, 16])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_family_matches_masked_draws(self, dim, cap):
        # draws on total degrees up to 10, then 0 above the cap, bit for bit
        got = hermite_coeff_family(dim, cap, 4, seed=42)
        want = masked_draws(dim, cap, 4, 42, 11)
        assert got.shape == (4,) + (cap + 1,) * dim
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("levels", [3, 11])
    @pytest.mark.parametrize("cap", [5, 16])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_cmd_hermite_data_matches_masked_draws(self, tmp_path,
                                                    monkeypatch, dim, cap,
                                                    levels):
        # the CLI's data: draws on total degrees below coeff_levels, then
        # 0 above degree_cap, bit for bit; the run stops at its first
        # decay profile
        tensors = []

        def capture(tensor, *args):
            tensors.append(tensor)
            raise Captured

        monkeypatch.setattr(cli, "decay_profile", capture)
        grid = {"dim": dim, "points_per_axis": 192 if dim == 1 else 24,
                "half_width": 12.0 if dim == 1 else 6.0}
        cfg = write_config(tmp_path / "hermite.json", hermite_config(
            seed=7, grid=grid, degree_cap=cap, coeff_levels=levels))
        with pytest.raises(Captured):
            cli.main(["hermite", "--config", cfg, "--out",
                      str(tmp_path / "out")])
        want = masked_draws(dim, cap, 1, 7, levels)[0]
        assert tensors[0].tobytes() == want.tobytes()
