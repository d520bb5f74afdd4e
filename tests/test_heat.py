import math
import warnings
from collections import Counter
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from modheat import constants
from modheat.heat import (BlowupHypothesis, HeatProblem, SolverConfig,
                          ball_indicator, certify_hypothesis,
                          divergence_witness,
                          lower_bound_envelope, picard_terms, plateau_data,
                          solve, term_index, unit_ball_volume)
from modheat import heat, modnorm
from modheat.corpus import propagation_corpus
from modheat.heat import _label_multisets, picard_product_count
from modheat.modnorm import (ModNormSpec, UniformPartition,
                             mod_norms_from_frequency)
from modheat.spectral import (SpectralGrid, cropped_forward, fine_grid,
                              forward_values, heat_symbol, inverse_values,
                              padded_inverse)
from test_modnorm import mod_norm_decomp
from test_spectral import dealiased_power_hat, frequency_lp_norm, multiply


def linear_flow(g, f, t, beta):
    """The heat flow e^{-t (-Delta)^{beta/2}} f of one function's physical
    samples f on grid g: the symbol times the transform, then back.  The
    per-pair reference of the propagate command's stacked flow."""
    return multiply(g, f, heat_symbol(g, t, beta))


def physical_terms(res):
    """Physical values of every term of a PicardResult, one row per time
    slice."""
    return [inverse_values(res.grid, F) for F in res.spectra]


def condition(conditions, name):
    """The report of the named condition among certify_hypothesis's."""
    return next(c for c in conditions if c.name == name)


def all_passed(conditions):
    return all(c.passed for c in conditions)


@pytest.fixture(scope="module")
def small_problem(grid1):
    u0 = 0.01 * np.exp(-grid1.x_axis ** 2 / 2)
    return HeatProblem(2.0, 2, grid1, u0)


@pytest.fixture(scope="module")
def certified_hypothesis():
    gamma = 4 * math.e * (1 + 1e-6)
    return BlowupHypothesis(gamma=gamma, r=1.0, beta=2.0, k=2, d=1)


class TestLinearPropagator:
    def test_time_zero_is_identity(self, grid1, gauss1):
        out = linear_flow(grid1, gauss1, 0.0, 1.3)
        assert np.max(np.abs(out - gauss1)) <= 1e-14

    def test_semigroup_property(self, grid1, gauss1):
        rng = np.random.default_rng(12)
        for _ in range(20):
            t1, t2 = rng.uniform(0.01, 2.0, size=2)
            beta = rng.choice([0.5, 1.0, 2.0])
            a = linear_flow(grid1, linear_flow(grid1, gauss1, t1, beta), t2,
                            beta)
            b = linear_flow(grid1, gauss1, t1 + t2, beta)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_gaussian_closed_form(self, grid1, gauss1):
        t = 0.5
        out = linear_flow(grid1, gauss1, t, 2.0)
        ref = (1 + 2 * t) ** -0.5 * np.exp(-grid1.x_axis ** 2 / (2 * (1 + 2 * t)))
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_uniform_modulation_bound(self):
        grid = SpectralGrid(1, 2048, 160.0)
        part = UniformPartition(grid)
        spec = ModNormSpec(2, 1, 0)
        corpus = propagation_corpus(grid, 10, seed=1234)
        base = [mod_norm_decomp(f, spec, part) for f in corpus]
        for t in (0.01, 0.1, 1.0, 10.0):
            for f, b in zip(corpus, base):
                ratio = mod_norm_decomp(linear_flow(grid, f, t, 2.0), spec,
                                        part) / b
                assert ratio <= constants.PROPAGATOR_UNIFORM_CONST


class TestSolver:
    def test_zero_data_stays_zero(self, grid1, part1):
        z = np.zeros(grid1.shape)
        tr = solve(HeatProblem(2.0, 2, grid1, z),
                   SolverConfig(dt=0.05, t_max=0.5), part1)
        assert max(tr.norms) == 0.0
        assert not tr.blowup_detected

    def test_small_data_bounded_and_resolution_stable(self, small_problem, part1):
        tr = solve(small_problem, SolverConfig(dt=0.002, t_max=1.0), part1)
        assert not tr.blowup_detected
        assert max(tr.norms) <= 2.0 * tr.norms[0]
        tr2 = solve(small_problem, SolverConfig(dt=0.001, t_max=1.0), part1)
        coarse = np.array(tr.norms)
        fine = np.array(tr2.norms[::2])
        assert np.max(np.abs(coarse - fine) / fine) <= 0.01

    def test_etd1_first_order_convergence(self, grid1, part1):
        u0 = 0.5 * np.exp(-grid1.x_axis ** 2 / 2)
        prob = HeatProblem(2.0, 2, grid1, u0)

        def final(dt):
            return solve(prob, SolverConfig(dt=dt, t_max=0.25),
                         part1).final_state

        ref = final(1 / 1024)
        e1 = np.max(np.abs(final(1 / 256) - ref))
        e2 = np.max(np.abs(final(1 / 512) - ref))
        assert e1 / e2 >= 1.8

    def test_etd2_beats_etd1(self, grid1, part1):
        u0 = 0.5 * np.exp(-grid1.x_axis ** 2 / 2)
        prob = HeatProblem(2.0, 2, grid1, u0)

        def final(scheme, dt):
            return solve(prob, SolverConfig(dt=dt, t_max=0.25, scheme=scheme),
                         part1).final_state

        ref = final("ETD2", 1 / 2048)
        e1 = np.max(np.abs(final("ETD1", 1 / 256) - ref))
        e2 = np.max(np.abs(final("ETD2", 1 / 256) - ref))
        assert e2 < e1 / 20

    def test_threshold_must_exceed_initial(self, small_problem, part1):
        cfg = SolverConfig(dt=0.01, t_max=0.1, blowup_threshold=1e-9)
        with pytest.raises(ValueError):
            solve(small_problem, cfg, part1)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.5, t_max=0.1)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.01, t_max=1.0, scheme="RK4")
        for threshold in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="threshold"):
                SolverConfig(dt=0.01, t_max=1.0, blowup_threshold=threshold)

    @pytest.mark.parametrize("dt,t_max", [(0.3, 1.0), (2e-4, 0.50001),
                                          (0.01, math.inf)])
    def test_t_max_must_be_whole_multiple_of_dt(self, dt, t_max):
        # solve used to round t_max / dt to a step count silently
        with pytest.raises(ValueError, match="t_max"):
            SolverConfig(dt=dt, t_max=t_max)
        SolverConfig(dt=1e-5, t_max=0.5)  # 49999.99999999999 steps: whole

    def test_data_must_fit_the_grid(self):
        # the samples take the grid's shape, and every one is finite
        grid = SpectralGrid(1, 16, 4.0)
        with pytest.raises(ValueError, match="shape"):
            HeatProblem(2.0, 2, grid, np.ones(15))
        with pytest.raises(ValueError, match="shape"):
            HeatProblem(2.0, 2, SpectralGrid(2, 4, 4.0), np.ones(16))
        with pytest.raises(ValueError, match="finite"):
            HeatProblem(2.0, 2, grid, np.full(16, np.nan))

    @pytest.mark.parametrize("sign", [0, 2, -3])
    def test_source_sign_must_be_unit(self, sign):
        grid = SpectralGrid(1, 16, 4.0)
        with pytest.raises(ValueError, match="source_sign"):
            HeatProblem(2.0, 2, grid, np.ones(16), source_sign=sign)

    def test_certified_data_blows_up_with_monotone_tail(self, grid1, part1):
        u0 = 41.0 * np.exp(-2 * np.pi * grid1.x_axis ** 2)
        tr = solve(HeatProblem(2.0, 2, grid1, u0),
                   SolverConfig(dt=2e-4, t_max=0.5), part1)
        assert tr.blowup_detected
        assert tr.t_detect < 0.5
        assert tr.norms[-1] > 1e6 * tr.norms[0]
        tail = np.array(tr.norms[len(tr.norms) // 5:])
        assert np.all(np.diff(tail) >= -1e-10 * tail[:-1])

    def test_loose_closed_form_constant_also_blows_up(self, grid1, part1):
        # amplitude above the closed-form sufficient level
        # (4 e r^beta (k-1))^(1/(k-1)) e^(2 pi r^beta) ~ 5823: detection is
        # near-immediate and well before twice the guaranteed horizon
        amp = (4 * math.e) * math.exp(2 * math.pi)
        u0 = 1.001 * amp * np.exp(-2 * np.pi * grid1.x_axis ** 2)
        hyp = BlowupHypothesis(gamma=11.0, r=1.0, beta=2.0, k=2, d=1)
        assert all_passed(certify_hypothesis(hyp, grid1, u0))
        tr = solve(HeatProblem(2.0, 2, grid1, u0),
                   SolverConfig(dt=1e-5, t_max=0.5), part1)
        assert tr.blowup_detected
        assert tr.t_detect < 0.5
        assert tr.norms[-1] > 1e6 * tr.norms[0]

    def test_sign_flag_changes_dynamics(self, grid1, part1):
        u0 = 0.5 * np.exp(-grid1.x_axis ** 2 / 2)
        grow = solve(HeatProblem(2.0, 2, grid1, u0, source_sign=1),
                     SolverConfig(dt=0.01, t_max=0.2), part1)
        damp = solve(HeatProblem(2.0, 2, grid1, u0, source_sign=-1),
                     SolverConfig(dt=0.01, t_max=0.2), part1)
        assert damp.norms[-1] < grow.norms[-1]


class TestHypothesisCertificate:
    def test_volume_condition_at_equality(self, grid1):
        u0 = 41.0 * np.exp(-2 * np.pi * grid1.x_axis ** 2)
        hyp = BlowupHypothesis(gamma=11.0, r=1.0, beta=2.0, k=2, d=1)
        cert = certify_hypothesis(hyp, grid1, u0)
        cond = condition(cert, "volume")
        assert cond.value == 2.0 and cond.bound == 2.0 and cond.passed

    def test_gamma_threshold_boundary(self, grid1):
        u0 = 41.0 * np.exp(-2 * np.pi * grid1.x_axis ** 2)
        ok = BlowupHypothesis(gamma=11.0, r=1.0, beta=2.0, k=2, d=1)
        bad = BlowupHypothesis(gamma=10.0, r=1.0, beta=2.0, k=2, d=1)
        assert 4 * math.e == pytest.approx(10.87312731, abs=1e-7)
        assert condition(certify_hypothesis(ok, grid1, u0),
                         "gamma_threshold").passed
        assert not condition(certify_hypothesis(bad, grid1, u0),
                             "gamma_threshold").passed

    def test_remark_gaussian_passes_all(self, grid1):
        u0 = 41.0 * np.exp(-2 * np.pi * grid1.x_axis ** 2)
        hyp = BlowupHypothesis(gamma=11.0, r=1.0, beta=2.0, k=2, d=1)
        assert all_passed(certify_hypothesis(hyp, grid1, u0))
        assert hyp.horizon == pytest.approx(0.25)

    def test_plateau_data_passes_at_marginal_gamma(self, grid1,
                                                   certified_hypothesis):
        h = certified_hypothesis
        u0 = plateau_data(grid1, h.gamma, h.r)
        assert all_passed(certify_hypothesis(h, grid1, u0))

    def test_plateau_transform_is_exact_box(self, grid1, certified_hypothesis):
        h = certified_hypothesis
        u0 = plateau_data(grid1, h.gamma, h.r)
        F = forward_values(grid1, u0)
        ball = ball_indicator(grid1, h.r)
        np.testing.assert_allclose(F.real, h.gamma * ball, atol=1e-10)

    def test_failed_conditions_reported_not_raised(self, grid1, gauss1):
        # plain Gaussian fails the plateau bound at gamma = 11 but certifies
        hyp = BlowupHypothesis(gamma=11.0, r=1.0, beta=2.0, k=2, d=1)
        cert = certify_hypothesis(hyp, grid1, gauss1)
        assert not condition(cert, "plateau_lower_bound").passed
        assert not all_passed(cert)

    def test_unit_ball_volume_from_gamma(self):
        assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2,
                                                    rel=1e-15)
        assert unit_ball_volume(5) == pytest.approx(8 * math.pi ** 2 / 15,
                                                    rel=1e-15)

    def test_dimension_mismatch_rejected(self, grid1, gauss1):
        hyp = BlowupHypothesis(gamma=11.0, r=1.0, beta=2.0, k=2, d=2)
        with pytest.raises(ValueError):
            certify_hypothesis(hyp, grid1, gauss1)


def lambda_index_set(j, k):
    """Admissible ordered k-tuples feeding the j-th term of the series: the
    oracle of heat._label_multisets.

    Entries are earlier term labels t(k-1)+1 with 0 <= t < j, and the labels
    in each tuple sum to the current label j(k-1)+1 = jk - (j-1).
    """
    if j < 1 or k < 2:
        raise ValueError("need j >= 1 and k >= 2")
    allowed = [term_index(t, k) for t in range(j)]
    target = term_index(j, k)
    return {tup for tup in product(allowed, repeat=k) if sum(tup) == target}


def _combination_walk(j, k):
    """heat._label_multisets as it was: every non-decreasing tuple of
    min(k, j - 1) term numbers below j, kept where they sum to j - 1.
    O(j^k) for small k; the oracle of the direct partition enumeration."""
    r = min(k, j - 1)
    combos = []
    for tail in combinations_with_replacement(range(j), r):
        if sum(tail) == j - 1:
            terms = (0,) * (k - r) + tail
            count = math.factorial(k)
            for m in Counter(terms).values():
                count //= math.factorial(m)
            combos.append((count, tuple(term_index(t, k) for t in terms)))
    return combos


class TestLambdaIndexSet:
    def test_first_term_forced(self):
        for k in (2, 3, 4):
            assert lambda_index_set(1, k) == {(1,) * k}

    @pytest.mark.parametrize("j,k", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3),
                                     (2, 4)])
    def test_brute_force_oracle(self, j, k):
        # independent enumeration over all tuples of admissible labels
        allowed = {t * k - (t - 1) for t in range(j)}
        target = j * k - (j - 1)
        oracle = {tup for tup in product(sorted(allowed), repeat=k)
                  if sum(tup) == target}
        assert lambda_index_set(j, k) == oracle

    def test_known_quadratic_patterns(self):
        # the fourth and fifth terms of the quadratic recursion
        assert lambda_index_set(3, 2) == {(1, 3), (3, 1), (2, 2)}
        assert lambda_index_set(4, 2) == {(1, 4), (4, 1), (2, 3), (3, 2)}

    def test_cubic_second_term_multiplicity(self):
        # k = 3: the combination u_1^2 u_3 enters with multiplicity 3
        tuples = lambda_index_set(2, 3)
        assert tuples == {(1, 1, 3), (1, 3, 1), (3, 1, 1)}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lambda_index_set(0, 2)
        with pytest.raises(ValueError):
            lambda_index_set(1, 1)


@pytest.fixture(scope="module")
def small_picard(grid1, part1):
    u0 = 0.01 * np.exp(-grid1.x_axis ** 2 / 2)
    prob = HeatProblem(2.0, 2, grid1, u0)
    t_grid = np.linspace(0.0, 0.5, 33)
    return prob, picard_terms(prob, 6, t_grid, part1)


class TestPicardSeries:
    def test_first_term_is_linear_flow(self, small_picard):
        prob, res = small_picard
        t = res.t_grid[17]
        lin = linear_flow(prob.grid, prob.u0, t, prob.beta)
        assert np.max(np.abs(physical_terms(res)[0][17] - lin)) == 0.0

    def test_ratios_fall_below_one_by_third_term(self, small_picard):
        _, res = small_picard
        assert all(r < 1.0 for r in res.ratios[1:])

    def test_partial_sum_matches_solver(self, small_picard, part1):
        prob, res = small_picard
        partial = sum(traj[-1] for traj in physical_terms(res)[:6])
        tr = solve(prob, SolverConfig(dt=1 / 512, t_max=0.5), part1)
        assert tr.times[-1] == pytest.approx(0.5)
        assert np.max(np.abs(partial - tr.final_state)) <= 1e-4

    def test_fourier_positivity_preserved(self, grid1, part1):
        # nonnegative-transform data: every term keeps a nonnegative,
        # real transform up to roundoff
        u0 = plateau_data(grid1, 0.1, 1.0)
        prob = HeatProblem(2.0, 2, grid1, u0)
        res = picard_terms(prob, 6, np.linspace(0.0, 0.25, 17), part1)
        for traj in physical_terms(res):
            for vals in traj:
                uhat = forward_values(grid1, vals)
                assert uhat.real.min() >= -1e-10
                assert np.max(np.abs(uhat.imag)) <= 1e-10

    def test_cubic_nonlinearity_runs(self, grid1, part1):
        u0 = 0.05 * np.exp(-grid1.x_axis ** 2 / 2)
        prob = HeatProblem(2.0, 3, grid1, u0)
        res = picard_terms(prob, 3, np.linspace(0.0, 0.3, 17), part1)
        assert res.term_indices == [1, 3, 5]
        assert res.sup_norms[2] < res.sup_norms[1] < res.sup_norms[0]

    def test_depth_validation(self, small_problem):
        with pytest.raises(ValueError):
            picard_terms(small_problem, 0, np.linspace(0, 1, 5))
        with pytest.raises(ValueError):
            picard_terms(small_problem, 2, np.linspace(0.5, 1, 5))


# -- the frequency-side, batched Picard path against the per-slice oracles ------


def _multi_product_hat_oracle(grid, factors):
    """Transform of a pointwise product of physical fields, one at a time:
    shift, pad and transform every factor, multiply, transform back, crop."""
    n = grid.points_per_axis
    d = grid.dim
    m = int(np.ceil((len(factors) + 1) * n / 2.0))
    m += m % 2
    lo = (m - n) // 2
    fine = np.ones((m,) * d, dtype=complex)
    for vals in factors:
        A = np.fft.fftshift(np.fft.fftn(vals))
        fine *= np.fft.ifftn(np.fft.ifftshift(np.pad(A, [(lo, lo)] * d))) \
            * (m / n) ** d
    C = np.fft.fftshift(np.fft.fftn(fine)) * (n / m) ** d
    coeffs = C[tuple(slice(lo, lo + n) for _ in range(d))]
    scale = (2.0 * np.pi) ** (-d / 2.0) * grid.spacing ** d
    alt = (-1.0) ** np.arange(-n // 2, n // 2)
    sign = alt
    for _ in range(d - 1):
        sign = np.multiply.outer(sign, alt)
    return scale * sign * coeffs


def _multiset_products(tuples):
    """Group ordered tuples by multiset; returns (count, sorted_tuple) pairs."""
    counts = Counter(tuple(sorted(t)) for t in tuples)
    return [(c, key) for key, c in sorted(counts.items())]


def _cumulative_weights(t_grid):
    """Quadrature weights over [0, t_i] for every i, row i of a
    (t_points, t_points) matrix: the rule picard_terms runs as a
    recurrence.

    Even panel counts use composite Simpson; odd counts splice a 3/8 block at
    the end; a single panel falls back to the trapezoid.
    """
    n = len(t_grid)
    tau = t_grid[1] - t_grid[0]
    W = np.zeros((n, n))
    for i in range(1, n):
        if i == 1:
            W[1, 0] = W[1, 1] = tau / 2.0
            continue
        w = np.zeros(i + 1)
        if i % 2 == 0:
            w[0] = w[i] = 1.0
            w[1:i:2] = 4.0
            w[2:i:2] = 2.0
            w *= tau / 3.0
        else:
            m = i - 3
            if m > 0:
                w[0] = 1.0
                w[1:m:2] = 4.0
                w[2:m:2] = 2.0
                w[m] = 1.0
                w[:m + 1] *= tau / 3.0
            w[m:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * tau / 8.0)
        W[i, :i + 1] = w
    return W


def _picard_oracle(problem, depth, t_grid, partition):
    """The per-slice series: physical trajectories, one product and one
    norm per time slice.  Returns (spectra, sup_norms, ratios)."""
    g = problem.grid
    k = problem.k
    n_t = len(t_grid)
    symbase = g.freq_magnitude ** problem.beta
    W = _cumulative_weights(t_grid)
    u0_hat = forward_values(g, problem.u0)
    freq = {1: np.array([np.exp(-t * symbase) * u0_hat for t in t_grid])}
    phys = {1: np.array([inverse_values(g, F) for F in freq[1]])}
    indices = [1]
    for j in range(1, depth):
        idx = term_index(j, k)
        combos = _multiset_products(lambda_index_set(j, k))
        prod_hat = np.zeros((n_t, *g.shape), dtype=complex)
        for s_i in range(n_t):
            for count, key in combos:
                factors = [phys[lab][s_i] for lab in key]
                prod_hat[s_i] += count * _multi_product_hat_oracle(g, factors)
        term_f = np.zeros((n_t, *g.shape), dtype=complex)
        for i in range(1, n_t):
            kernel = np.exp(-np.multiply.outer(t_grid[i] - t_grid[:i + 1],
                                               symbase))
            term_f[i] = np.tensordot(W[i, :i + 1],
                                     kernel * prod_hat[:i + 1], axes=(0, 0))
        freq[idx] = term_f
        phys[idx] = np.array([inverse_values(g, F) for F in term_f])
        indices.append(idx)
    sups = [max(float(mod_norms_from_frequency(F, [problem.norm_spec],
                                               partition)[0])
                for F in freq[idx]) for idx in indices]
    ratios = [sups[i + 1] / sups[i] for i in range(len(sups) - 1)]
    return [freq[i] for i in indices], sups, ratios


# relative to the largest value of each compared array
ORACLE_RTOL = 1e-13


class TestDealiasedKernel:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("grid", [SpectralGrid(1, 64, 8.0),
                                      SpectralGrid(2, 16, 4.0)],
                             ids=["d1", "d2"])
    def test_matches_multi_product_oracle(self, grid, k):
        rng = np.random.default_rng(10 * grid.dim + k)
        factors = rng.standard_normal((k,) + grid.shape) \
            + 1j * rng.standard_normal((k,) + grid.shape)
        fine = fine_grid(grid, k)
        prod = np.prod(padded_inverse(grid, forward_values(grid, factors),
                                      fine), axis=0)
        got = cropped_forward(grid, prod, fine)
        want = _multi_product_hat_oracle(grid, list(factors))
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=ORACLE_RTOL * np.abs(want).max())


PICARD_CASES = {
    "d1_k2": (SpectralGrid(1, 64, 8.0), 2, ModNormSpec(1.0, 1.0, 0.0)),
    "d1_k3": (SpectralGrid(1, 64, 8.0), 3, ModNormSpec(2.0, 1.0, 0.0)),
    "d2_k2": (SpectralGrid(2, 16, 4.0), 2, ModNormSpec(1.0, 2.0, 1.5)),
}


class TestBatchedPicard:
    @pytest.mark.parametrize("cap", [1, 1 << 30])
    @pytest.mark.parametrize("case", sorted(PICARD_CASES))
    def test_matches_per_slice_oracle(self, case, cap, monkeypatch):
        grid, k, spec = PICARD_CASES[case]
        sq = np.sum(grid.x_mesh ** 2, axis=-1)
        prob = HeatProblem(2.0, k, grid, 0.5 * np.exp(-sq), spec)
        part = UniformPartition(grid)
        t_grid = np.linspace(0.0, 0.3, 9)
        spectra, sups, ratios = _picard_oracle(prob, 4, t_grid, part)
        monkeypatch.setattr(heat, "PICARD_BATCH_VALUES", cap)
        monkeypatch.setattr(modnorm, "NORM_BATCH_VALUES", cap)
        res = picard_terms(prob, 4, t_grid, part)
        assert len(res.spectra) == len(spectra)
        for got, want in zip(res.spectra, spectra):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=ORACLE_RTOL * np.abs(want).max())
        np.testing.assert_allclose(res.sup_norms, sups, rtol=ORACLE_RTOL)
        np.testing.assert_allclose(res.ratios, ratios, rtol=ORACLE_RTOL)

    # (grid, k, depth, t_points, beta): an even and an odd t_points, depth 2
    # (its last term, never padded, is the first product term), k = 4,
    # t_points 2 to 7 (the trapezoid slice, the pure 3/8 slice, the first
    # Simpson-3/8 splice; at cap 1 the 3/8 panel's history crosses every
    # batch edge), and beta off 2
    STREAM_CASES = {
        "t8": (SpectralGrid(1, 64, 8.0), 2, 4, 8, 2.0),
        "t11": (SpectralGrid(1, 64, 8.0), 2, 4, 11, 2.0),
        "depth2": (SpectralGrid(1, 64, 8.0), 2, 2, 9, 2.0),
        "k4": (SpectralGrid(1, 32, 8.0), 4, 3, 9, 2.0),
        **{f"t{n}": (SpectralGrid(1, 32, 8.0), 2, 4, n, 2.0)
           for n in range(2, 8)},
        "beta0.5": (SpectralGrid(1, 64, 8.0), 2, 4, 10, 0.5),
        "beta1": (SpectralGrid(1, 64, 8.0), 3, 3, 11, 1.0),
        "beta3": (SpectralGrid(1, 64, 8.0), 2, 4, 10, 3.0),
    }

    @pytest.mark.parametrize("cap", [1, 1 << 30])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_streamed_series_matches_oracle(self, case, cap, monkeypatch):
        grid, k, depth, n_t, beta = self.STREAM_CASES[case]
        prob = HeatProblem(beta, k, grid, 0.5 * np.exp(-grid.x_axis ** 2),
                           ModNormSpec(1.0, 1.0, 0.0))
        part = UniformPartition(grid)
        t_grid = np.linspace(0.0, 0.3, n_t)
        spectra, sups, ratios = _picard_oracle(prob, depth, t_grid, part)
        monkeypatch.setattr(heat, "PICARD_BATCH_VALUES", cap)
        res = picard_terms(prob, depth, t_grid, part)
        assert len(res.spectra) == depth
        for got, want in zip(res.spectra, spectra):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=ORACLE_RTOL * np.abs(want).max())
        np.testing.assert_allclose(res.sup_norms, sups, rtol=ORACLE_RTOL)
        np.testing.assert_allclose(res.ratios, ratios, rtol=ORACLE_RTOL)

    @pytest.mark.parametrize("case", sorted(PICARD_CASES))
    def test_sup_norms_are_max_over_all_slices(self, case):
        # the t = 0 slice of terms j >= 1 is skipped: it is exactly 0
        grid, k, spec = PICARD_CASES[case]
        sq = np.sum(grid.x_mesh ** 2, axis=-1)
        prob = HeatProblem(2.0, k, grid, 0.5 * np.exp(-sq), spec)
        part = UniformPartition(grid)
        res = picard_terms(prob, 4, np.linspace(0.0, 0.3, 9), part)
        for j, F in enumerate(res.spectra):
            if j > 0:
                assert not np.any(F[0])
            assert res.sup_norms[j] == mod_norms_from_frequency(
                F, [spec], part)[0].max()

    @pytest.mark.parametrize("p", [1.0, 4.0, np.inf])
    @pytest.mark.parametrize("case", sorted(PICARD_CASES))
    def test_pruned_sup_norms_are_max_over_all_slices(self, case, p):
        # the case's grid and k at p != 2, where max_mod_norm prunes slices
        grid, k, spec = PICARD_CASES[case]
        spec = ModNormSpec(p, spec.q, spec.s)
        sq = np.sum(grid.x_mesh ** 2, axis=-1)
        prob = HeatProblem(2.0, k, grid, 0.5 * np.exp(-sq), spec)
        part = UniformPartition(grid)
        res = picard_terms(prob, 4, np.linspace(0.0, 0.3, 9), part)
        for j, F in enumerate(res.spectra):
            assert res.sup_norms[j] == mod_norms_from_frequency(
                F, [spec], part)[0].max()
            assert 1 <= res.exact_evaluations[j] <= len(F) - (j > 0)

    def test_non_uniform_grid_rejected(self, small_problem):
        t_grid = np.linspace(0.0, 0.5, 9)
        t_grid[4] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="uniform"):
            picard_terms(small_problem, 2, t_grid)
        with pytest.raises(ValueError, match="uniform"):
            picard_terms(small_problem, 2, -np.linspace(0.0, 0.5, 9))
        # roundoff of a uniform spacing passes
        t_grid = np.linspace(0.0, 0.5, 9)
        t_grid[4] *= 1.0 + 1e-12
        picard_terms(small_problem, 2, t_grid)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_label_multisets_match_tuple_oracle(self, k):
        for j in range(1, 6):
            assert _label_multisets(j, k) == _multiset_products(
                lambda_index_set(j, k))

    def test_label_multisets_match_combination_walk(self):
        # the enumeration the partition generator replaced, kept as oracle
        for k in range(2, 7):
            for j in range(1, 16):
                assert _label_multisets(j, k) == _combination_walk(j, k)

    def test_product_count_matches_enumeration(self):
        for k in range(2, 7):
            for depth in range(1, 17):
                assert picard_product_count(depth, k, math.inf) == sum(
                    len(_label_multisets(j, k)) for j in range(1, depth))

    def test_product_count_stops_above_limit(self):
        # depth 10^5 at k = 3 has ~10^13 products; counting stops early
        assert picard_product_count(10 ** 5, 3, 1000) > 1000
        assert picard_product_count(10 ** 5, 10 ** 6, 1000) > 1000

    def test_large_k_enumerates_partitions_only(self):
        # k = 14 and 2000: term 0 fills all but j - 1 slots
        for k in (14, 2000):
            combos = _label_multisets(5, k)
            assert len(combos) == 5  # the partitions of 4
            assert all(len(key) == k and sum(key) == term_index(5, k)
                       for _, key in combos)
            assert combos[0] == (k, (1,) * (k - 1) + (term_index(4, k),))

    def test_overflowing_beta_is_identity_at_zero(self, small_problem):
        prob = HeatProblem(1e300, 2, small_problem.grid, small_problem.u0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = picard_terms(prob, 3, np.linspace(0.0, 0.5, 5))
        u0_hat = forward_values(prob.grid, prob.u0)
        assert np.array_equal(res.spectra[0][0], u0_hat)
        assert all(np.all(np.isfinite(F)) for F in res.spectra)

    def test_lattice_bound(self, grid2):
        fine = fine_grid(grid2, 1000)
        assert fine.size > heat.MAX_LATTICE_VALUES
        u0 = np.exp(-np.sum(grid2.x_mesh ** 2, axis=-1))
        prob = HeatProblem(2.0, 1000, grid2, u0)
        with pytest.raises(ValueError, match="dealiasing lattice"):
            picard_terms(prob, 2, np.linspace(0.0, 0.1, 3))
        with pytest.raises(ValueError, match="dealiasing lattice"):
            solve(prob, SolverConfig(dt=0.01, t_max=0.1))


# -- constant data against the Taylor series of u' = u^k -------------------------


def _taylor_errors(grid, k, t_points, c=0.7, depth=8):
    """Largest error of each Picard term of the data u0 = c over the grid
    and the times, relative to the term's largest value, on [0, 0.9 T*]
    with T* = 1 / ((k-1) c^{k-1}).  The flow leaves a constant alone, so
    term j is the t^j coefficient of the solution c (1 - t / T*)^{-a} of
    u' = u^k, a = 1/(k-1): c (a)_j / j! (t / T*)^j."""
    rate = (k - 1) * c ** (k - 1)
    t_grid = np.linspace(0.0, 0.9 / rate, t_points)
    res = picard_terms(HeatProblem(2.0, k, grid, np.full(grid.shape, c)),
                       depth, t_grid)
    a = 1.0 / (k - 1)
    errors = []
    for j, values in enumerate(physical_terms(res)):
        exact = (c * math.prod(a + i for i in range(j)) / math.factorial(j)
                 * (rate * t_grid) ** j).reshape((-1,) + (1,) * grid.dim)
        errors.append(np.abs(values - exact).max() / np.abs(exact).max())
    return errors


class TestConstantDataTaylor:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("grid", [SpectralGrid(1, 32, 8.0),
                                      SpectralGrid(2, 16, 4.0)],
                             ids=["d1", "d2"])
    def test_terms_match_taylor_coefficients(self, grid, k):
        # term 0 is the data; terms 1-2 integrate polynomials of degree
        # <= 1, which every panel of the rule (trapezoid, Simpson, 3/8)
        # integrates exactly.  Term
        # 3's integrand is quadratic: only the one trapezoid panel at t_1
        # errs, O(tau^3); the later terms carry Simpson's O(tau^4).  A
        # quarter of the spacing (33 -> 129 points) must cut the error by
        # at least 4^(order - 1/2): measured 64x for term 3, 256-272x for
        # terms 4-7
        coarse = _taylor_errors(grid, k, 33)
        fine = _taylor_errors(grid, k, 129)
        assert max(coarse[:3] + fine[:3]) <= ORACLE_RTOL
        for j in range(3, 8):
            order = 3 if j == 3 else 4
            assert coarse[j] / fine[j] >= 4.0 ** (order - 0.5), j


# -- the chunked solver against the per-step loop --------------------------------


def _solve_oracle(problem, config, partition):
    """The per-step solver: every step takes its norm, FL^1 norm and inverse
    transform before the next one, and stops at the first detection."""
    g = problem.grid
    z = config.dt * g.freq_magnitude ** problem.beta
    decay = np.exp(-z)
    w1 = config.dt * heat.phi1(z)
    w2 = config.dt * heat.phi2(z) if config.scheme == "ETD2" else None
    u = problem.u0
    u_hat = forward_values(g, u)
    spec = problem.norm_spec
    init_norm = float(mod_norms_from_frequency(u_hat, [spec], partition)[0])
    threshold = config.blowup_threshold
    if threshold is None:
        threshold = 1e6 * init_norm if init_norm > 0 else 1e6
    times, norms = [0.0], [init_norm]
    fl1 = [frequency_lp_norm(g, u_hat, 1)]
    linf = [float(np.max(np.abs(u)))]
    detected, t_detect, stop = False, None, "t_max"
    n_steps = int(round(config.t_max / config.dt))
    t = 0.0
    for _ in range(n_steps):
        n_vals = problem.source_sign * dealiased_power_hat(g, u_hat,
                                                           problem.k)
        new_hat = decay * u_hat + w1 * n_vals
        if config.scheme == "ETD2":
            n_stage = problem.source_sign * dealiased_power_hat(
                g, new_hat, problem.k)
            new_hat = new_hat + w2 * (n_stage - n_vals)
        t += config.dt
        if not np.all(np.isfinite(new_hat)):
            detected, stop, t_detect = True, "overflow", times[-1]
            break
        u_hat = new_hat
        u = inverse_values(g, u_hat)
        nom = float(mod_norms_from_frequency(u_hat, [spec], partition)[0])
        times.append(t)
        norms.append(nom)
        fl1.append(frequency_lp_norm(g, u_hat, 1))
        linf.append(float(np.max(np.abs(u))))
        if not math.isfinite(nom) or nom > threshold:
            detected, t_detect, stop = True, t, "threshold"
            break
    return heat.SolutionTrace(times, norms, fl1, linf, detected, t_detect, u,
                              stop)


def _oracle(problem, config, partition):
    # the per-step loop warns on the overflow it detects
    with np.errstate(all="ignore"):
        return _solve_oracle(problem, config, partition)


SOLVE_CASES = {
    "d1_etd1": (SpectralGrid(1, 64, 8.0), "ETD1"),
    "d1_etd2": (SpectralGrid(1, 64, 8.0), "ETD2"),
    "d2_etd1": (SpectralGrid(2, 16, 4.0), "ETD1"),
    "d2_etd2": (SpectralGrid(2, 16, 4.0), "ETD2"),
}
SOLVE_DT = 1 / 512


def _growing_problem(grid, p=2.0):
    """Data whose flow overflows within ~50 steps of SOLVE_DT."""
    sq = np.sum(grid.x_mesh ** 2, axis=-1)
    return HeatProblem(2.0, 2, grid, 20.0 * np.exp(-2 * sq),
                       ModNormSpec(p, 1.0, 0.0))


def _solve_chunked(problem, config, chunk, monkeypatch):
    grid = problem.grid
    monkeypatch.setattr(heat, "SOLVE_BATCH_VALUES", chunk * grid.size)
    return solve(problem, config, UniformPartition(grid))


def _assert_matches_oracle(got, want):
    assert got.times == want.times
    assert ((got.blowup_detected, got.t_detect, got.stop_reason)
            == (want.blowup_detected, want.t_detect, want.stop_reason))
    for name in ("norms", "fl1_norms", "linf_norms"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=ORACLE_RTOL)
    np.testing.assert_allclose(got.final_state, want.final_state, rtol=0.0,
                               atol=ORACLE_RTOL
                               * np.abs(want.final_state).max())


# (k, source_sign, amplitude, p) of data in exp(-2|x|^2)
SIGN_AND_POWER = {
    # the source damps the flow: it runs to t_max
    "minus_sign": (2, -1, 20.0, 2.0),
    # k = 3 steps on M = 2N points and overflows within ~20 steps
    "cubic": (3, 1, 6.0, 1.0),
}


class TestChunkedSolver:
    @pytest.mark.parametrize("where", ["first", "middle", "last", "partial"])
    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_detection_matches_per_step_oracle(self, case, where,
                                               monkeypatch):
        grid, scheme = SOLVE_CASES[case]
        prob = _growing_problem(grid)
        part = UniformPartition(grid)
        threshold = 3.0 * mod_norm_decomp(prob.u0, prob.norm_spec, part)

        def config(n_steps):
            return SolverConfig(dt=SOLVE_DT, t_max=n_steps * SOLVE_DT,
                                blowup_threshold=threshold, scheme=scheme)

        n_steps = 256
        s = len(_oracle(prob, config(n_steps), part).times) - 1
        assert s >= 8
        if where == "partial":
            # the last chunk is short and holds s
            n_steps = s + 1
            chunk = next(c for c in range(3, s) if n_steps % c >= 2)
        else:
            chunk = {"first": s - 1, "middle": s + s // 2, "last": s}[where]
        want = _oracle(prob, config(n_steps), part)
        got = _solve_chunked(prob, config(n_steps), chunk, monkeypatch)
        _assert_matches_oracle(got, want)
        assert len(got.times) - 1 == s
        assert got.blowup_detected and got.stop_reason == "threshold"
        if where in ("last", "partial"):
            assert got.steps_discarded == {"last": 0, "partial": 1}[where]

    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_overflow_before_any_crossing(self, case, monkeypatch):
        # at p = 1 the norm stays finite until the state overflows
        grid, scheme = SOLVE_CASES[case]
        prob = _growing_problem(grid, p=1.0)
        cfg = SolverConfig(dt=SOLVE_DT, t_max=0.5, blowup_threshold=1e300,
                           scheme=scheme)
        want = _oracle(prob, cfg, UniformPartition(grid))
        got = _solve_chunked(prob, cfg, 16, monkeypatch)
        _assert_matches_oracle(got, want)
        assert got.stop_reason == "overflow"
        assert got.t_detect == got.times[-1]
        assert got.steps_discarded == 1

    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_crossing_then_overflow_in_one_chunk(self, case, monkeypatch):
        grid, scheme = SOLVE_CASES[case]
        prob = _growing_problem(grid, p=1.0)
        part = UniformPartition(grid)

        def config(threshold):
            return SolverConfig(dt=SOLVE_DT, t_max=0.5, scheme=scheme,
                                blowup_threshold=threshold)

        # the step that overflows, and the crossing well before it
        overflow_step = len(_oracle(prob, config(1e300), part).times)
        want = _oracle(prob, config(1e30), part)
        s = len(want.times) - 1
        assert overflow_step - s >= 2
        got = _solve_chunked(prob, config(1e30), 256, monkeypatch)
        _assert_matches_oracle(got, want)
        assert got.stop_reason == "threshold"
        assert got.steps_discarded == overflow_step - s

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_snapshots_across_chunks(self, case, chunk, monkeypatch):
        # the final state comes from the last chunk, a partial one at 5
        grid, scheme = SOLVE_CASES[case]
        sq = np.sum(grid.x_mesh ** 2, axis=-1)
        prob = HeatProblem(2.0, 2, grid, 0.5 * np.exp(-sq))
        cfg = SolverConfig(dt=SOLVE_DT, t_max=64 * SOLVE_DT, scheme=scheme)
        want = _oracle(prob, cfg, UniformPartition(grid))
        got = _solve_chunked(prob, cfg, chunk, monkeypatch)
        _assert_matches_oracle(got, want)
        assert got.final_state.shape == grid.shape
        assert not got.blowup_detected and got.stop_reason == "t_max"
        assert got.steps_discarded == 0

    @pytest.mark.parametrize("variant", sorted(SIGN_AND_POWER))
    @pytest.mark.parametrize("case", sorted(SOLVE_CASES))
    def test_source_sign_and_cubic_match_oracle(self, case, variant,
                                                monkeypatch):
        grid, scheme = SOLVE_CASES[case]
        k, sign, amp, p = SIGN_AND_POWER[variant]
        sq = np.sum(grid.x_mesh ** 2, axis=-1)
        prob = HeatProblem(2.0, k, grid, amp * np.exp(-2 * sq),
                           ModNormSpec(p, 1.0, 0.0), source_sign=sign)
        cfg = SolverConfig(dt=SOLVE_DT, t_max=64 * SOLVE_DT, scheme=scheme,
                           blowup_threshold=1e300)
        want = _oracle(prob, cfg, UniformPartition(grid))
        got = _solve_chunked(prob, cfg, 4, monkeypatch)
        _assert_matches_oracle(got, want)
        assert got.stop_reason == ("t_max" if sign < 0 else "overflow")

    def test_overflow_off_the_band_is_ignored(self, monkeypatch):
        # u^2 of this mode sits at the fine lattice's Nyquist mode, off the
        # band: its transform overflows there, and the crop drops it
        grid = SpectralGrid(2, 16, 4.0)
        fine = fine_grid(grid, 2)
        xi = grid.freq_spacing * (fine.points_per_axis // 4)
        u0 = 1e153 * np.exp(1j * xi * np.sum(grid.x_mesh, axis=-1))
        with np.errstate(over="ignore", invalid="ignore"):
            power = padded_inverse(grid, forward_values(grid, u0),
                                   fine) ** 2
            raw = np.fft.fftn(power)
            assert not np.all(np.isfinite(raw))
            assert np.all(np.isfinite(cropped_forward(grid, power, fine)))
        prob = HeatProblem(2.0, 2, grid, u0)
        cfg = SolverConfig(dt=SOLVE_DT, t_max=8 * SOLVE_DT,
                           blowup_threshold=1e308)
        want = _oracle(prob, cfg, UniformPartition(grid))
        got = _solve_chunked(prob, cfg, 4, monkeypatch)
        _assert_matches_oracle(got, want)
        assert got.stop_reason == "threshold"

    def test_blowup_and_overflow_emit_no_runtime_warning(self, grid1, part1):
        gamma = 4 * math.e * (1 + 1e-6)
        plateau = HeatProblem(2.0, 2, grid1, plateau_data(grid1, gamma, 1.0))
        cfg = SolverConfig(dt=2e-4, t_max=0.5)
        overflow = _growing_problem(SpectralGrid(1, 64, 8.0), p=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve(plateau, cfg, part1).stop_reason == "threshold"
            tr = solve(overflow, SolverConfig(dt=SOLVE_DT, t_max=0.5,
                                              blowup_threshold=1e300))
        assert tr.stop_reason == "overflow"
        # the per-step loop does warn on this run
        with pytest.warns(RuntimeWarning):
            _solve_oracle(overflow, SolverConfig(
                dt=SOLVE_DT, t_max=0.5, blowup_threshold=1e300),
                UniformPartition(overflow.grid))


class TestPhiWeights:
    def test_infinite_argument_gives_the_limit(self):
        # |xi|^beta overflows for a huge beta: those modes decay in one step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = np.array([0.0, 1e-8, 1.0, 1e300, math.inf])
            np.testing.assert_array_equal(heat.phi1(z)[3:], [1e-300, 0.0])
            np.testing.assert_array_equal(heat.phi2(z)[3:], [1e-300, 0.0])
            assert heat.phi2(z)[0] == 0.5


class TestLowerBoundEnvelope:
    # grid1's lattice points in the unit ball: |xi| = m pi / 16, |m| <= 5

    def test_first_term_closed_form(self, grid1, certified_hypothesis):
        h = certified_hypothesis
        t = 0.2
        xi = np.abs(grid1.freq_axis)
        inside = xi <= h.r
        assert np.count_nonzero(inside) == 11
        want = h.gamma * np.exp(-t * xi[inside] ** h.beta)
        np.testing.assert_allclose(
            lower_bound_envelope(h, 1, t, grid1)[inside], want, rtol=1e-13)

    def test_outside_support_is_zero(self, grid1, certified_hypothesis):
        env = lower_bound_envelope(certified_hypothesis, 1, 0.2, grid1)
        outside = np.abs(grid1.freq_axis) > certified_hypothesis.r
        assert np.all(env[outside] == 0.0)
        assert np.all(env[~outside] > 0.0)

    def test_invalid_series_index_rejected(self, grid1):
        h = BlowupHypothesis(gamma=50.0, r=1.0, beta=2.0, k=3, d=1)
        with pytest.raises(ValueError):
            # 2 != m(k-1)+1 for k=3
            lower_bound_envelope(h, 2, 0.1, grid1)

    def test_general_k_exponents(self, grid1):
        h = BlowupHypothesis(gamma=50.0, r=1.0, beta=2.0, k=3, d=1)
        # series index 5 corresponds to the m = 2 envelope
        t = 0.3
        xi = np.abs(grid1.freq_axis)
        inside = xi <= h.r
        want = (h.gamma ** 5 * math.exp(-4 * (h.k - 1) * 2 * t) * t ** 2
                * np.exp(-t * xi[inside] ** 2))
        np.testing.assert_allclose(
            lower_bound_envelope(h, 5, t, grid1)[inside], want, rtol=1e-13)

    def test_stacked_times_match_single_times(self, grid1):
        # the single-time formula, scalar factors first, is the oracle: the
        # stack over t must hold it bit for bit (picard_domination.csv)
        h = BlowupHypothesis(gamma=50.0, r=1.0, beta=1.5, k=3, d=1)
        t_grid = np.linspace(0.0, 0.5, 9)[1:]
        mag = grid1.freq_magnitude
        for i in (1, 3, 5, 9):
            m = (i - 1) // (h.k - 1)
            want = np.array([
                (h.gamma ** i * math.exp(-4.0 * h.r ** h.beta * (h.k - 1)
                                         * m * t)
                 * t ** m * np.exp(-t * mag ** h.beta)) * (mag <= h.r)
                for t in t_grid])
            got = lower_bound_envelope(h, i, t_grid, grid1)
            assert got.shape == (len(t_grid),) + grid1.shape
            assert got.tobytes() == want.tobytes()

    def test_picard_terms_dominate_envelope(self, grid1, part1,
                                            certified_hypothesis):
        h = certified_hypothesis
        u0 = plateau_data(grid1, h.gamma, h.r)
        prob = HeatProblem(2.0, 2, grid1, u0)
        t_grid = np.linspace(0.0, 0.25, 33)
        res = picard_terms(prob, 6, t_grid, part1)
        ball = grid1.freq_magnitude <= h.r
        slack = constants.PICARD_DOMINATION_SLACK
        trajectories = physical_terms(res)
        for pos, idx in enumerate(res.term_indices):
            for ti in range(1, len(t_grid)):
                uhat = forward_values(grid1, trajectories[pos][ti])
                env = lower_bound_envelope(h, idx, t_grid[ti], grid1)
                assert np.all(uhat.real[ball] * slack >= env[ball])


class TestDivergenceWitness:
    def test_marginal_point_ratio_is_one(self):
        h = BlowupHypothesis(gamma=4 * math.e, r=1.0, beta=2.0, k=2, d=1)
        w = divergence_witness(h, 12)
        assert abs(w.ratio - 1.0) <= 1e-9
        assert w.divergent

    def test_double_gamma_gives_ratio_two(self):
        h = BlowupHypothesis(gamma=8 * math.e, r=1.0, beta=2.0, k=2, d=1)
        w = divergence_witness(h, 12)
        assert w.ratio == pytest.approx(2.0, rel=1e-12)
        assert w.divergent
        assert np.all(np.diff(w.partial_sums) > 0)

    def test_below_threshold_is_inconclusive(self):
        h = BlowupHypothesis(gamma=5.0, r=1.0, beta=2.0, k=2, d=1)
        w = divergence_witness(h, 12)
        assert not w.divergent
        assert not w.hypothesis_ok

    def test_cubic_marginal_point(self):
        # general exponent: the same algebra pins ratio = 1 at the threshold
        k = 3
        gamma = (4 * 2 * math.e) ** (1 / (k - 1))
        h = BlowupHypothesis(gamma=gamma, r=1.0, beta=1.0, k=k, d=1)
        w = divergence_witness(h, 8)
        assert abs(w.ratio - 1.0) <= 1e-9

    def test_first_term_is_plateau_mass(self):
        h = BlowupHypothesis(gamma=12.0, r=1.0, beta=2.0, k=2, d=1)
        w = divergence_witness(h, 4)
        assert w.terms[0] == pytest.approx(h.gamma * 2.0)  # gamma |B(1)|

    @pytest.mark.parametrize("gamma,r,beta,k,d", [
        (4 * math.e, 1.0, 2.0, 2, 1), (5.0, 1.0, 2.0, 2, 1),
        (7.0, 0.7, 1.5, 3, 2), (3.0, 1.3, 1.0, 4, 3), (50.0, 1.0, 0.5, 5, 1)])
    def test_matches_the_written_out_series(self, gamma, r, beta, k, d):
        # the witness as written before it shared the envelope factor, at
        # the horizon 1 / (4 r^beta (k-1)): bit for bit
        h = BlowupHypothesis(gamma=gamma, r=r, beta=beta, k=k, d=d)
        decay = 4.0 * r ** beta * (k - 1)
        T = 1.0 / decay
        vol = unit_ball_volume(d) * r ** d
        terms = [gamma ** ((j - 1) * (k - 1) + 1)
                 * math.exp(-decay * (j - 1) * T) * T ** (j - 1) * vol
                 for j in range(1, 13)]
        w = divergence_witness(h, 12)
        assert h.horizon == T
        assert w.terms == terms
        assert w.partial_sums == list(np.cumsum(terms))
        assert w.ratio == gamma ** (k - 1) * T * math.exp(-decay * T)
        assert w.hypothesis_ok == (gamma ** (k - 1)
                                   >= 4.0 * r ** beta * (k - 1) * math.e)


def slice_domination(h, res):
    """Per term, the least Re u_hat / envelope over the ball and the times
    t > 0, one time slice and one single-time envelope at a time."""
    ball = res.grid.freq_magnitude <= h.r
    out = []
    for idx, spectra in zip(res.term_indices, res.spectra):
        worst = math.inf
        for ti in range(1, len(res.t_grid)):
            env = lower_bound_envelope(h, idx, res.t_grid[ti], res.grid)
            worst = min(worst, float((spectra[ti].real[ball]
                                      / env[ball]).min()))
        out.append(worst)
    return out


class TestDominationRatios:
    @pytest.mark.parametrize("dim,n,half,k,depth", [(1, 256, 16.0, 2, 6),
                                                    (1, 128, 16.0, 3, 4),
                                                    (2, 16, 8.0, 2, 3)])
    def test_matches_per_slice_loop(self, dim, n, half, k, depth):
        grid = SpectralGrid(dim, n, half)
        r = 1.0 if dim == 1 else 1.2
        gamma = (4 * math.e * r ** 2 * (k - 1)) ** (1 / (k - 1)) * 1.001
        h = BlowupHypothesis(gamma=gamma, r=r, beta=2.0, k=k, d=dim)
        prob = HeatProblem(2.0, k, grid, plateau_data(grid, gamma, r))
        res = picard_terms(prob, depth, np.linspace(0.0, 0.25, 9))
        got = heat.domination_ratios(h, res)
        assert len(got) == depth
        assert got == slice_domination(h, res)

    def test_envelope_beyond_the_float_range_raises(self, grid1):
        h = BlowupHypothesis(gamma=1e200, r=1.0, beta=2.0, k=2, d=1)
        prob = HeatProblem(2.0, 2, grid1, plateau_data(grid1, 1.0, 1.0))
        res = picard_terms(prob, 3, np.linspace(0.0, 0.25, 5))
        with pytest.raises(OverflowError):
            heat.domination_ratios(h, res)


class TestConvolutionInequality:
    @pytest.mark.parametrize("dim,n,half,r", [(1, 256, 16.0, 1.0),
                                              (2, 32, 8.0, 1.2)])
    def test_ball_selfconvolution_dominates_ball(self, dim, n, half, r):
        grid = SpectralGrid(dim, n, half)
        assert r ** dim * unit_ball_volume(dim) >= 2 ** dim
        chi = ball_indicator(grid, r)
        flat = chi.reshape(-1)
        pts = grid.freq_mesh.reshape(-1, dim)
        inside = np.nonzero(flat)[0]
        w = grid.freq_spacing ** dim
        for i in inside:
            # direct quadrature of the convolution at lattice point i
            shifted = pts[i] - pts[inside]
            level = np.sqrt(np.sum(shifted ** 2, axis=1))
            conv = w * np.sum(level <= r)
            assert conv >= 1.0
