import math

import numpy as np
import pytest

from modheat import constants, hermite, torus
from modheat.corpus import hermite_coeff_family
from modheat.hermite import HermiteCoeffs, ZeroNormError, eigen_sum
from modheat.modnorm import ModNormSpec
from modheat.torus import (MultiplierSpec, TorusGrid, kernel_l1_norm,
                           operator_norm_lower, oscillator_heat_symbol,
                           torus_apply, torus_forward, torus_inverse,
                           torus_lp_norm, transference_check)
from test_hermite import oscillator_heat_coeffs, sweep_order, synthesize_at
from test_modnorm import mod_norm_decomp


def theta_axis(tg):
    """The torus sample points 2 pi j / M along one axis."""
    return 2.0 * np.pi * np.arange(tg.modes_per_axis) / tg.modes_per_axis


@pytest.fixture(scope="module")
def tg():
    return TorusGrid(1, 64)


@pytest.fixture(scope="module")
def heat_spec(tg):
    return oscillator_heat_symbol(tg, 1.0, 1.0)


class TestToroidalTransform:
    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 16)])
    def test_roundtrip(self, dim, m):
        g = TorusGrid(dim, m)
        rng = np.random.default_rng(dim)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        back = torus_inverse(torus_forward(f, g), g)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_single_mode_coefficient(self, tg):
        f = np.exp(3j * theta_axis(tg))
        F = torus_forward(f, tg)
        idx = np.argmin(np.abs(tg.mode_axis - 3))
        assert F[idx] == pytest.approx(2 * np.pi, rel=1e-12)
        other = np.abs(F) > 1e-10
        assert other.sum() == 1


class TestMultipliers:
    def test_identity(self, tg):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        spec = MultiplierSpec(np.ones(tg.shape))
        assert np.max(np.abs(torus_apply(f, spec, tg) - f)) <= 1e-12

    def test_mean_value_projection(self, tg):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        spec = MultiplierSpec((tg.mode_axis == 0).astype(complex))
        once = torus_apply(f, spec, tg)
        twice = torus_apply(once, spec, tg)
        np.testing.assert_allclose(once, np.mean(f), atol=1e-12)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_oscillator_symbol_on_first_mode(self, tg):
        t, beta = 0.7, 1.5
        spec = oscillator_heat_symbol(tg, t, beta)
        f = np.exp(1j * theta_axis(tg))
        out = torus_apply(f, spec, tg)
        np.testing.assert_allclose(out, math.exp(-t * 3.0 ** beta) * f,
                                   atol=1e-12)

    def test_negative_modes_annihilated(self, tg, heat_spec):
        f = np.exp(-2j * theta_axis(tg))
        out = torus_apply(f, heat_spec, tg)
        assert np.max(np.abs(out)) <= 1e-12

    def test_unbounded_symbol_rejected(self, tg):
        vals = np.ones(tg.shape)
        vals[5] = np.nan
        with pytest.raises(ValueError):
            MultiplierSpec(vals)


class TestKernelBound:
    def test_single_mode_kernel_has_unit_mass(self, tg):
        spec = MultiplierSpec((tg.mode_axis == 0).astype(complex))
        assert kernel_l1_norm(spec, tg) == pytest.approx(1.0, abs=1e-13)

    def test_full_band_kernel_has_unit_mass(self, tg):
        # the all-ones symbol is the identity: a lattice delta
        spec = MultiplierSpec(np.ones(tg.shape))
        assert kernel_l1_norm(spec, tg) == pytest.approx(1.0, abs=1e-13)

    def test_dominates_symbol_sup(self, tg, heat_spec):
        assert kernel_l1_norm(heat_spec, tg) >= heat_spec.sup() - 1e-12
        assert heat_spec.sup() == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_parseval_chain(self, tg, heat_spec):
        # L^1 of the kernel sits below the Cauchy-Schwarz/Parseval majorant
        kl1 = kernel_l1_norm(heat_spec, tg)
        upper = (2 * np.pi) ** 0.5 * math.sqrt(eigen_sum(1, 1.0, 1.0))
        assert kl1 <= upper + 1e-10

    def test_truncation_remainder_guard(self):
        small = TorusGrid(1, 16)
        spec = oscillator_heat_symbol(small, 0.05, 1.0)
        with pytest.raises(ValueError):
            kernel_l1_norm(spec, small)


def oracle_trial_ratios(spec, p, trials, tg, seed=0):
    """The seeded trials' ratios at one p, one trial at a time, as before
    the trials were stacked: every p redraws the trials and filters each
    again."""
    ratios = []
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeffs = (rng.standard_normal(tg.shape)
                  + 1j * rng.standard_normal(tg.shape))
        f = torus_inverse(coeffs, tg)
        denom = torus_lp_norm(f, tg, p)
        ratios.append(0.0 if denom == 0.0 else
                      torus_lp_norm(torus_apply(f, spec, tg), tg, p) / denom)
    return ratios


def oracle_operator_norm_lower(spec, p, trials, tg, seed=0):
    """operator_norm_lower at one p from the per-trial loop."""
    best = spec.sup()
    for ratio in oracle_trial_ratios(spec, p, trials, tg, seed):
        best = max(best, ratio)
    return best


def phase_symbol(grid, seed):
    """A random unimodular symbol: at p != 2 some trials beat its sup."""
    rng = np.random.default_rng(seed)
    return MultiplierSpec(np.exp(2j * np.pi * rng.uniform(size=grid.shape)))


class TestOperatorNormBracket:
    @pytest.mark.parametrize("symbol", ["heat", "phase", "phase_2d"])
    def test_sweep_matches_per_p_loop(self, tg, heat_spec, symbol):
        # a random unimodular symbol: at p != 2 some trials beat its sup, so
        # the trials, not only the sup, decide the bound
        if symbol == "heat":
            grid, spec = tg, heat_spec
        else:
            grid = tg if symbol == "phase" else TorusGrid(2, 8)
            spec = phase_symbol(grid, 10)
        ps = [4.0, 1.0, 2.0, np.inf, 3.0]
        got, _ = operator_norm_lower(spec, ps, 7, grid, seed=11)
        want = [oracle_operator_norm_lower(spec, p, 7, grid, seed=11)
                for p in ps]
        assert got == want  # bit for bit
        if symbol != "heat":
            assert sum(lower > spec.sup() for lower in got) >= 3

    @pytest.mark.parametrize("per_stack", [1, 4, 9])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_stacked_trials_match_trial_loop(self, monkeypatch, dim,
                                             per_stack):
        # one trial a stack, four (the last stack holds one) and all 9 in
        # one; the trials decide the bound
        grid = TorusGrid(dim, 32 if dim == 1 else 8)
        spec = phase_symbol(grid, 12)
        monkeypatch.setattr(torus, "TRIAL_BATCH_VALUES",
                            per_stack * grid.modes_per_axis ** dim)
        ps = [1.0, 4.0, np.inf, 2.0]
        lowers, ratios = operator_norm_lower(spec, ps, 9, grid, seed=13)
        want = [oracle_trial_ratios(spec, p, 9, grid, seed=13) for p in ps]
        if dim == 1:
            assert ratios.tolist() == want  # bit for bit
        else:
            np.testing.assert_allclose(ratios, want, rtol=1e-13, atol=0.0)
        assert lowers == [max([spec.sup()] + row) for row in ratios.tolist()]
        assert np.sum(ratios > spec.sup()) >= 3

    def test_identity_symbol_brackets_to_one(self, tg):
        spec = MultiplierSpec(np.ones(tg.shape))
        (lower,), _ = operator_norm_lower(spec, [3.0], 5, tg, seed=2)
        assert lower == pytest.approx(1.0, rel=1e-10)
        assert kernel_l1_norm(spec, tg) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_sandwich(self, tg, heat_spec, p):
        (lower,), _ = operator_norm_lower(heat_spec, [p], 20, tg, seed=3)
        assert lower <= kernel_l1_norm(heat_spec, tg) + 1e-8

    def test_p2_equals_symbol_sup(self, tg, heat_spec):
        (lower,), _ = operator_norm_lower(heat_spec, [2.0], 20, tg, seed=4)
        assert abs(lower - heat_spec.sup()) <= 0.01 * heat_spec.sup()

    def test_random_bounded_symbol_sandwich(self, tg):
        rng = np.random.default_rng(8)
        spec = MultiplierSpec(rng.uniform(-1, 1, tg.shape)
                              + 1j * rng.uniform(-1, 1, tg.shape))
        lowers, _ = operator_norm_lower(spec, [1.0, 2.0, 4.0], 10, tg, seed=5)
        for lower in lowers:
            assert lower <= kernel_l1_norm(spec, tg) + 1e-8

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    @pytest.mark.parametrize("symbol", ["heat", "random", "random_2d"])
    def test_pure_mode_loop_equals_symbol_sup(self, tg, heat_spec, symbol, p):
        # the per-mode loop the closed form replaced, kept as its oracle
        if symbol == "heat":
            grid, spec = tg, heat_spec
        else:
            grid = tg if symbol == "random" else TorusGrid(2, 8)
            rng = np.random.default_rng(9)
            spec = MultiplierSpec(rng.standard_normal(grid.shape)
                                  + 1j * rng.standard_normal(grid.shape))
        theta = np.stack(np.meshgrid(*([theta_axis(grid)] * grid.dim),
                                     indexing="ij"), axis=-1)
        best = 0.0
        for xi in grid.mode_mesh.reshape(-1, grid.dim):
            f = np.exp(1j * np.tensordot(theta, xi, axes=([-1], [0])))
            ratio = torus_lp_norm(torus_apply(f, spec, grid), grid, p) \
                / torus_lp_norm(f, grid, p)
            best = max(best, ratio)
        assert best == pytest.approx(spec.sup(), rel=1e-12, abs=0.0)
        (lower,), _ = operator_norm_lower(spec, [p], 1, grid, seed=6)
        assert lower >= spec.sup()

    def test_requires_positive_trials(self, tg, heat_spec):
        with pytest.raises(ValueError):
            operator_norm_lower(heat_spec, [2.0], 0, tg)


@pytest.fixture(scope="module")
def setup(hgrid, hpart, basis16):
    family = hermite_coeff_family(basis16, 6, seed=42, max_level=10)
    tensor = np.zeros(basis16.coeff_shape, dtype=complex)
    tensor[0] = 1.0
    family = [("ground", HermiteCoeffs(basis16, tensor))] + family
    return hgrid, hpart, family


def oracle_transfer_norms(t, beta, p, family, partition):
    """(label, base, heated, ratio) of every member, one member at a time."""
    spec = ModNormSpec(p, p, 0.0)
    grid = partition.grid

    def norm(c):
        vals = synthesize_at(c, grid.x_axis)
        return mod_norm_decomp(vals, spec, partition)

    rows = []
    for label, coeffs in family:
        base = norm(coeffs)
        heated = norm(oscillator_heat_coeffs(coeffs, t, beta))
        rows.append((label, base, heated, heated / base))
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
        tg = TorusGrid(1, 64)
        rep = transference_check(0.7, 1.5, ps, family, part, tg,
                                 slack=1.0)
        assert len(rep.rows) == len(ps)
        assert rep.young_upper == kernel_l1_norm(rep.symbol, tg)
        for p, rows in zip(ps, rep.rows):
            want = oracle_transfer_norms(0.7, 1.5, p, family, part)
            assert [r.label for r in rows] == [w[0] for w in want]
            np.testing.assert_allclose(
                [(r.base_norm, r.heated_norm, r.ratio) for r in rows],
                [w[1:] for w in want], rtol=1e-13, atol=0)

    def test_empty_family_rejected(self, setup):
        _, part, _ = setup
        with pytest.raises(ValueError):
            transference_check(1.0, 1.0, [2.0], [], part,
                               TorusGrid(1, 64), slack=1.5)

    def test_ground_state_ratio_matches_spectrum(self, setup):
        _, part, family = setup
        tg = TorusGrid(1, 64)
        rep = transference_check(1.0, 1.0, [2.0], family[:1], part, tg,
                                 slack=constants.TRANSFER_SLACK)
        assert rep.rows[0][0].ratio == pytest.approx(math.exp(-1.0), rel=1e-6)
        assert rep.all_passed

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_family_respects_young_bound(self, setup, p):
        _, part, family = setup
        tg = TorusGrid(1, 64)
        rep = transference_check(1.0, 1.0, [p], family, part, tg,
                                 slack=constants.TRANSFER_SLACK)
        assert rep.all_passed
        assert rep.max_ratio <= rep.young_upper * constants.TRANSFER_SLACK
        assert rep.young_upper <= rep.parseval_upper

    def test_twenty_function_sweep_beta2(self, hpart, basis16):
        family = hermite_coeff_family(basis16, 20, seed=17, max_level=10)
        tg = TorusGrid(1, 64)
        rep = transference_check(0.5, 2.0, [4.0], family, hpart, tg,
                                 slack=constants.TRANSFER_SLACK)
        assert len(rep.rows[0]) == 20
        assert rep.all_passed

    def test_p2_exact_spectral_bound(self, setup):
        _, part, family = setup
        tg = TorusGrid(1, 64)
        rep = transference_check(1.0, 1.0, [2.0], family, part, tg,
                                 slack=constants.TRANSFER_SLACK)
        assert rep.max_ratio <= math.exp(-1.0) * 1.001
        assert rep.young_upper > math.exp(-1.0)

    def test_zero_norm_member_rejected(self, setup, basis16):
        _, part, _ = setup
        tg = TorusGrid(1, 64)
        zero = HermiteCoeffs(basis16, np.zeros(basis16.coeff_shape))
        with pytest.raises(ZeroNormError, match="'zero' is 0 at p = 2.0"):
            transference_check(1.0, 1.0, [2.0], [("zero", zero)], part, tg,
                               slack=1.5)

    def test_infinite_p_rejected(self, setup):
        _, part, family = setup
        with pytest.raises(ValueError):
            transference_check(1.0, 1.0, [2.0, np.inf], family, part,
                               TorusGrid(1, 64), slack=1.5)


def test_lp_norm_rectangle_rule(tg):
    vals = np.ones(64)
    assert torus_lp_norm(vals, tg, 1) == pytest.approx(2 * np.pi, rel=1e-12)
    assert torus_lp_norm(vals, tg, np.inf) == 1.0
