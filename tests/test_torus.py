import math

import numpy as np
import pytest

from modheat import constants, hermite, torus
from modheat.corpus import hermite_coeff_family
from modheat.hermite import ZeroNormError, eigen_sum
from modheat.modnorm import ModNormSpec
from modheat.spectral import (SpectralGrid, forward_values, inverse_values,
                              lp_norm)
from modheat.torus import (kernel_l1_norm, operator_norm_lower,
                           oscillator_heat_symbol, transference_check)
from test_hermite import oscillator_heat_coeffs, sweep_order, synthesize_at
from test_modnorm import mod_norm_decomp


def torus_grid(dim, modes):
    """The torus [0, 2pi)^dim, sampled at modes points per axis."""
    return SpectralGrid(dim, modes, math.pi)


def theta_axis(grid):
    """The torus sample points 2 pi j / M along one axis."""
    return 2.0 * np.pi * np.arange(grid.points_per_axis) / grid.points_per_axis


def norm(values, grid, p):
    """Quadrature L^p norm on the torus, over the last grid.dim axes."""
    return lp_norm(values, grid.spacing ** grid.dim, p, grid.dim)


def apply_symbol(values, sym, grid):
    """The multiplier sym on physical samples, in the library's convention."""
    return inverse_values(grid, sym * forward_values(grid, values))


# -- the torus convention the library replaced, kept as the oracle ------------
#
#    F_T f(xi)   = integral_{[0,2pi)^d} f(theta) exp(-i xi.theta) dtheta
#    F_T^{-1} g  = (2pi)^{-d} sum_xi g(xi) exp(i xi.theta)
#
# on the samples theta_j = 2 pi j / M, with the cell volume (2 pi / M)^d as
# quadrature weight: the single-mode projector's kernel has L^1 mass one.
# Coefficients are in the FFT's slot order, as every frequency array is.


def cell_volume(grid):
    return (2.0 * np.pi / grid.points_per_axis) ** grid.dim


def oracle_forward(values, grid):
    axes = tuple(range(-grid.dim, 0))
    values = np.asarray(values, dtype=complex)
    return np.fft.fftn(values, axes=axes) * cell_volume(grid)


def oracle_inverse(coeffs, grid):
    axes = tuple(range(-grid.dim, 0))
    coeffs = np.asarray(coeffs, dtype=complex)
    raw = (np.fft.ifftn(coeffs, axes=axes)
           * grid.points_per_axis ** grid.dim)
    return raw * (2.0 * np.pi) ** (-grid.dim)


def oracle_apply(values, sym, grid):
    return oracle_inverse(sym * oracle_forward(values, grid), grid)


def oracle_kernel_l1_norm(sym, grid):
    kernel = oracle_inverse(sym, grid)
    return lp_norm(kernel, cell_volume(grid), 1, grid.dim)


def mode_mesh_symbol(grid, t, beta):
    """exp(-t (2|alpha| + d)^beta) on nonnegative modes, zero elsewhere,
    from the mesh of integer modes from -M/2 up, moved to slot order."""
    m = grid.points_per_axis
    axis = np.arange(-m // 2, m // 2)
    mesh = np.stack(np.meshgrid(*([axis] * grid.dim), indexing="ij"),
                    axis=-1)
    level = np.maximum(np.sum(mesh, axis=-1), 0)  # clamp: masked out below
    nonneg = np.all(mesh >= 0, axis=-1)
    return np.fft.ifftshift(np.where(
        nonneg, np.exp(-t * (2.0 * level + grid.dim) ** beta), 0.0))


def natural_trial(rng, grid):
    """One seeded trial's coefficients: the draws fill the lattice from mode
    -M/2 up on every axis, moved to slot order."""
    return np.fft.ifftshift(rng.standard_normal(grid.shape)
                            + 1j * rng.standard_normal(grid.shape))


def convention_trial_ratios(sym, p, trials, grid, seed=0):
    """The seeded trials' ratios at one p, one trial at a time, through the
    oracle convention."""
    ratios = []
    rng = np.random.default_rng(seed)
    vol = cell_volume(grid)
    for _ in range(trials):
        f = oracle_inverse(natural_trial(rng, grid), grid)
        denom = lp_norm(f, vol, p, grid.dim)
        g = oracle_apply(f, sym, grid)
        ratios.append(0.0 if denom == 0.0 else
                      lp_norm(g, vol, p, grid.dim) / denom)
    return ratios


@pytest.fixture(scope="module")
def tg():
    return torus_grid(1, 64)


@pytest.fixture(scope="module")
def heat_spec(tg):
    return oscillator_heat_symbol(tg, 1.0, 1.0)


def phase_symbol(grid, seed):
    """A random unimodular symbol: at p != 2 some trials beat its sup."""
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * rng.uniform(size=grid.shape))


def random_symbol(grid, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(grid.shape)
            + 1j * rng.standard_normal(grid.shape))


def symbol_case(kind, dim):
    """(grid, symbol) of one of the heat, phase and random symbols."""
    grid = torus_grid(dim, 64 if dim == 1 else 16)
    if kind == "heat":
        return grid, oscillator_heat_symbol(grid, 0.7, 1.5)
    if kind == "phase":
        return grid, phase_symbol(grid, 10)
    return grid, random_symbol(grid, 9)


def sup(sym):
    return float(np.abs(sym).max())


class TestToroidalTransform:
    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 16)])
    def test_roundtrip(self, dim, m):
        g = torus_grid(dim, m)
        rng = np.random.default_rng(dim)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        back = oracle_inverse(oracle_forward(f, g), g)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_single_mode_coefficient(self, tg):
        f = np.exp(3j * theta_axis(tg))
        F = oracle_forward(f, tg)
        idx = np.argmin(np.abs(tg.freq_axis - 3))
        assert F[idx] == pytest.approx(2 * np.pi, rel=1e-12)
        other = np.abs(F) > 1e-10
        assert other.sum() == 1

    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 16)])
    def test_kernel_is_oracle_kernel_shifted(self, dim, m):
        # inverse_values samples at x_j = theta_j - pi, half a period
        # round the torus: the oracle kernel rolled by M/2 on every axis
        g = torus_grid(dim, m)
        sym = random_symbol(g, dim)
        kernel = (2.0 * np.pi) ** (-dim / 2.0) * inverse_values(g, sym)
        want = np.roll(oracle_inverse(sym, g), m // 2, axis=range(dim))
        np.testing.assert_allclose(kernel, want, rtol=0,
                                   atol=1e-14 * np.abs(want).max())


class TestMultipliers:
    def test_identity(self, tg):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        sym = np.ones(tg.shape)
        assert np.max(np.abs(apply_symbol(f, sym, tg) - f)) <= 1e-12

    def test_mean_value_projection(self, tg):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        sym = (tg.freq_axis == 0).astype(float)
        once = apply_symbol(f, sym, tg)
        twice = apply_symbol(once, sym, tg)
        np.testing.assert_allclose(once, np.mean(f), atol=1e-12)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_oscillator_symbol_on_first_mode(self, tg):
        t, beta = 0.7, 1.5
        sym = oscillator_heat_symbol(tg, t, beta)
        f = np.exp(1j * theta_axis(tg))
        out = apply_symbol(f, sym, tg)
        np.testing.assert_allclose(out, math.exp(-t * 3.0 ** beta) * f,
                                   atol=1e-12)

    def test_negative_modes_annihilated(self, tg, heat_spec):
        f = np.exp(-2j * theta_axis(tg))
        out = apply_symbol(f, heat_spec, tg)
        assert np.max(np.abs(out)) <= 1e-12

    @pytest.mark.parametrize("dim,m,t,beta", [
        (1, 32, 1.0, 1.0), (1, 64, 0.7, 1.5), (1, 256, 1.0, 1.0),
        (1, 64, 0.5, 2.0), (2, 16, 0.5, 2.0), (2, 32, 0.7, 1.5),
        (2, 32, 1.0, 1.0), (3, 8, 1.0, 2.0), (3, 16, 0.5, 2.0)])
    def test_symbol_matches_mode_mesh_formula(self, dim, m, t, beta):
        g = torus_grid(dim, m)
        got = oscillator_heat_symbol(g, t, beta)
        assert np.array_equal(got, mode_mesh_symbol(g, t, beta))


class TestKernelBound:
    def test_single_mode_kernel_has_unit_mass(self, tg):
        sym = (tg.freq_axis == 0).astype(float)
        assert kernel_l1_norm(sym, tg) == pytest.approx(1.0, abs=1e-13)

    def test_full_band_kernel_has_unit_mass(self, tg):
        # the all-ones symbol is the identity: a lattice delta
        sym = np.ones(tg.shape)
        assert kernel_l1_norm(sym, tg) == pytest.approx(1.0, abs=1e-13)

    def test_dominates_symbol_sup(self, tg, heat_spec):
        assert kernel_l1_norm(heat_spec, tg) >= sup(heat_spec) - 1e-12
        assert sup(heat_spec) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_parseval_chain(self, tg, heat_spec):
        # L^1 of the kernel sits below the Cauchy-Schwarz/Parseval majorant
        kl1 = kernel_l1_norm(heat_spec, tg)
        upper = (2 * np.pi) ** 0.5 * math.sqrt(eigen_sum(1, 1.0, 1.0))
        assert kl1 <= upper + 1e-10

    def test_truncation_remainder_guard(self):
        with pytest.raises(ValueError, match="truncation remainder"):
            oscillator_heat_symbol(torus_grid(1, 16), 0.05, 1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["heat", "phase", "random"])
    def test_matches_oracle_convention(self, kind, dim):
        grid, sym = symbol_case(kind, dim)
        assert kernel_l1_norm(sym, grid) == pytest.approx(
            oracle_kernel_l1_norm(sym, grid), rel=1e-14, abs=0.0)


def oracle_trial_ratios(sym, p, trials, grid, seed=0):
    """The seeded trials' ratios at one p, one trial at a time, as before
    the trials were stacked: every p redraws the trials and filters each
    again."""
    ratios = []
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeffs = natural_trial(rng, grid)
        denom = norm(inverse_values(grid, coeffs), grid, p)
        ratios.append(0.0 if denom == 0.0 else
                      norm(inverse_values(grid, sym * coeffs), grid, p)
                      / denom)
    return ratios


def oracle_operator_norm_lower(sym, p, trials, grid, seed=0):
    """operator_norm_lower at one p from the per-trial loop."""
    best = sup(sym)
    for ratio in oracle_trial_ratios(sym, p, trials, grid, seed):
        best = max(best, ratio)
    return best


class TestOperatorNormBracket:
    @pytest.mark.parametrize("symbol", ["heat", "phase", "phase_2d"])
    def test_sweep_matches_per_p_loop(self, tg, heat_spec, symbol):
        # a random unimodular symbol: at p != 2 some trials beat its sup, so
        # the trials, not only the sup, decide the bound
        if symbol == "heat":
            grid, sym = tg, heat_spec
        else:
            grid = tg if symbol == "phase" else torus_grid(2, 8)
            sym = phase_symbol(grid, 10)
        ps = [4.0, 1.0, 2.0, np.inf, 3.0]
        got, _ = operator_norm_lower(sym, ps, 7, grid, seed=11)
        want = [oracle_operator_norm_lower(sym, p, 7, grid, seed=11)
                for p in ps]
        assert got == want  # bit for bit
        if symbol != "heat":
            assert sum(lower > sup(sym) for lower in got) >= 3

    @pytest.mark.parametrize("per_stack", [1, 4, 9])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_trials_match_trial_loop(self, monkeypatch, dim,
                                             per_stack):
        # one trial a stack, four (the last stack holds one) and all 9 in
        # one; the trials decide the bound
        grid = torus_grid(dim, 32 if dim == 1 else 8)
        sym = phase_symbol(grid, 12)
        monkeypatch.setattr(torus, "TRIAL_BATCH_VALUES",
                            per_stack * grid.size)
        ps = [1.0, 4.0, np.inf, 2.0]
        lowers, ratios = operator_norm_lower(sym, ps, 9, grid, seed=13)
        want = [oracle_trial_ratios(sym, p, 9, grid, seed=13) for p in ps]
        assert ratios.tolist() == want  # bit for bit
        assert lowers == [max([sup(sym)] + row) for row in ratios.tolist()]
        assert np.sum(ratios > sup(sym)) >= 3

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["heat", "phase", "random"])
    def test_trial_ratios_match_oracle_convention(self, kind, dim):
        grid, sym = symbol_case(kind, dim)
        ps = [1.0, 2.0, 4.0, np.inf]
        _, ratios = operator_norm_lower(sym, ps, 6, grid, seed=14)
        want = [convention_trial_ratios(sym, p, 6, grid, seed=14)
                for p in ps]
        np.testing.assert_allclose(ratios, want, rtol=1e-14, atol=0.0)

    def test_identity_symbol_brackets_to_one(self, tg):
        sym = np.ones(tg.shape)
        (lower,), _ = operator_norm_lower(sym, [3.0], 5, tg, seed=2)
        assert lower == pytest.approx(1.0, rel=1e-10)
        assert kernel_l1_norm(sym, tg) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_sandwich(self, tg, heat_spec, p):
        (lower,), _ = operator_norm_lower(heat_spec, [p], 20, tg, seed=3)
        assert lower <= kernel_l1_norm(heat_spec, tg) + 1e-8

    def test_p2_equals_symbol_sup(self, tg, heat_spec):
        (lower,), _ = operator_norm_lower(heat_spec, [2.0], 20, tg, seed=4)
        assert abs(lower - sup(heat_spec)) <= 0.01 * sup(heat_spec)

    def test_random_bounded_symbol_sandwich(self, tg):
        rng = np.random.default_rng(8)
        sym = (rng.uniform(-1, 1, tg.shape)
               + 1j * rng.uniform(-1, 1, tg.shape))
        lowers, _ = operator_norm_lower(sym, [1.0, 2.0, 4.0], 10, tg, seed=5)
        for lower in lowers:
            assert lower <= kernel_l1_norm(sym, tg) + 1e-8

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("symbol", ["heat", "random", "random_2d"])
    def test_pure_mode_loop_equals_symbol_sup(self, tg, heat_spec, symbol, p):
        # the per-mode loop the closed form replaced, kept as its oracle
        if symbol == "heat":
            grid, sym = tg, heat_spec
        else:
            grid = tg if symbol == "random" else torus_grid(2, 8)
            sym = random_symbol(grid, 9)
        best = 0.0
        for xi in grid.freq_mesh.reshape(-1, grid.dim):
            f = np.exp(1j * np.tensordot(grid.x_mesh, xi, axes=([-1], [0])))
            ratio = norm(apply_symbol(f, sym, grid), grid, p) \
                / norm(f, grid, p)
            best = max(best, ratio)
        assert best == pytest.approx(sup(sym), rel=1e-12, abs=0.0)
        (lower,), _ = operator_norm_lower(sym, [p], 1, grid, seed=6)
        assert lower >= sup(sym)

    def test_requires_positive_trials(self, tg, heat_spec):
        with pytest.raises(ValueError):
            operator_norm_lower(heat_spec, [2.0], 0, tg, seed=0)


@pytest.fixture(scope="module")
def setup(hgrid, hpart):
    # the ground state, then six random members
    family = np.concatenate([np.zeros((1, 17), dtype=complex),
                             hermite_coeff_family(1, 16, 6, seed=42)])
    family[0, 0] = 1.0
    return hgrid, hpart, family


def oracle_transfer_norms(t, beta, p, family, partition):
    """(base, heated, ratio) of every member, one member at a time."""
    spec = ModNormSpec(p, p, 0.0)
    grid = partition.grid

    def norm(c):
        vals = synthesize_at(c, grid.x_axis)
        return mod_norm_decomp(vals, spec, partition)

    rows = []
    for coeffs in family:
        base = norm(coeffs)
        heated = norm(oscillator_heat_coeffs(coeffs, t, beta))
        rows.append((base, heated, heated / base))
    return rows


class TestTransference:
    @pytest.mark.parametrize("cap", [None, 1, 3])
    @pytest.mark.parametrize("first", [1.0, 2.0, 4.0])
    def test_stack_matches_per_member_loop(self, setup, monkeypatch, first,
                                           cap):
        # one sweep over p = 1, 2, 4 against the per-(p, member) oracle;
        # `first` heads the sweep.  cap: slices per synthesized chunk; 3
        # splits the 2 x 7 slices unevenly and across the base/heated
        # boundary
        grid, part, family = setup
        if cap is not None:
            monkeypatch.setattr(hermite, "NORM_BATCH_VALUES", cap * grid.size)
        ps = sweep_order(first)
        tg = torus_grid(1, 64)
        rep = transference_check(0.7, 1.5, ps, family, part, tg,
                                 slack=1.0)
        assert len(rep.rows) == len(ps)
        assert rep.young_upper == kernel_l1_norm(rep.symbol, tg)
        for p, rows in zip(ps, rep.rows):
            want = oracle_transfer_norms(0.7, 1.5, p, family, part)
            np.testing.assert_allclose(
                [(r.base_norm, r.heated_norm, r.ratio) for r in rows],
                want, rtol=1e-13, atol=0)

    def test_empty_family_rejected(self, setup):
        _, part, _ = setup
        with pytest.raises(ValueError):
            transference_check(1.0, 1.0, [2.0], np.zeros((0, 17)), part,
                               torus_grid(1, 64), slack=1.5)

    def test_ground_state_ratio_matches_spectrum(self, setup):
        _, part, family = setup
        tg = torus_grid(1, 64)
        rep = transference_check(1.0, 1.0, [2.0], family[:1], part, tg,
                                 slack=constants.TRANSFER_SLACK)
        assert rep.rows[0][0].ratio == pytest.approx(math.exp(-1.0), rel=1e-6)
        assert rep.all_passed

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_family_respects_young_bound(self, setup, p):
        _, part, family = setup
        tg = torus_grid(1, 64)
        rep = transference_check(1.0, 1.0, [p], family, part, tg,
                                 slack=constants.TRANSFER_SLACK)
        assert rep.all_passed
        assert rep.max_ratio <= rep.young_upper * constants.TRANSFER_SLACK
        assert rep.young_upper <= rep.parseval_upper

    def test_twenty_function_sweep_beta2(self, hpart):
        family = hermite_coeff_family(1, 16, 20, seed=17)
        tg = torus_grid(1, 64)
        rep = transference_check(0.5, 2.0, [4.0], family, hpart, tg,
                                 slack=constants.TRANSFER_SLACK)
        assert len(rep.rows[0]) == 20
        assert rep.all_passed

    def test_p2_exact_spectral_bound(self, setup):
        _, part, family = setup
        tg = torus_grid(1, 64)
        rep = transference_check(1.0, 1.0, [2.0], family, part, tg,
                                 slack=constants.TRANSFER_SLACK)
        assert rep.max_ratio <= math.exp(-1.0) * 1.001
        assert rep.young_upper > math.exp(-1.0)

    def test_zero_norm_member_rejected(self, setup):
        _, part, family = setup
        tg = torus_grid(1, 64)
        family = family.copy()
        family[2] = 0.0
        with pytest.raises(ZeroNormError, match="member 2 is 0 at p = 2.0"):
            transference_check(1.0, 1.0, [2.0], family, part, tg, slack=1.5)

    def test_infinite_p_rejected(self, setup):
        _, part, family = setup
        with pytest.raises(ValueError):
            transference_check(1.0, 1.0, [2.0, np.inf], family, part,
                               torus_grid(1, 64), slack=1.5)


def test_lp_norm_rectangle_rule(tg):
    vals = np.ones(64)
    assert norm(vals, tg, 1) == pytest.approx(2 * np.pi, rel=1e-12)
    assert norm(vals, tg, np.inf) == 1.0
    # a stack: one norm per function, each that function's own
    stack = np.stack([vals, -2.0 * vals])
    for p in (1.0, 3.0, np.inf):
        assert norm(stack, tg, p).tolist() == [norm(f, tg, p) for f in stack]
