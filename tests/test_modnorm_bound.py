"""Property tests of max_mod_norm's bounds over random stacks.

For every function of a stack, the exact (p, q, s) norm must lie below
U = scale (the weighted l^q sum of m_k ||b_k||_2), with scale =
c_p (1 + BOUND_ROUNDOFF) and m_k <= 1 the Carlson-weighted factors at
p < 2, so U lies below Hoelder's bound scale (its (2, q, s) norm).  The
pruned maximum must equal
mod_norms_from_frequency(...).max() bit for bit, and max_mod_norm must
evaluate as many functions as the pruning loop of one stack
(test_modnorm.per_stack_max, the oracle for evaluation counts).
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from modheat import modnorm  # noqa: E402
from modheat.modnorm import (ModNormSpec, UniformPartition,  # noqa: E402
                             max_mod_norm, mod_norms_from_frequency)
from modheat.spectral import (SpectralGrid, binary_scale,  # noqa: E402
                              forward_values)
from test_modnorm import per_stack_max  # noqa: E402

PARTITIONS = {1: UniformPartition(SpectralGrid(1, 64, 8.0)),
              2: UniformPartition(SpectralGrid(2, 16, 4.0)),
              3: UniformPartition(SpectralGrid(3, 8, 4.0))}
# boxes of side 2 pi: the lattice is the integers, where one row is exactly
# 1, so a plane wave is one block of constant modulus and Hoelder is tight
WAVE_PARTITIONS = {d: UniformPartition(SpectralGrid(d, 8, math.pi))
                   for d in (1, 2, 3)}
# lattice steps of 8, 4 and 2, wider than a block: there the aliasing
# factor (1 + r^N) / (1 - r^N) of the Carlson-weighted bound matters
COARSE_PARTITIONS = {1: UniformPartition(SpectralGrid(1, 8, 32.0)),
                     2: UniformPartition(SpectralGrid(2, 4, 8.0)),
                     3: UniformPartition(SpectralGrid(3, 4, 4.0))}


def _check_pruned_max(stack, spec, part, batch):
    """max_mod_norm with engine batches of `batch` functions: bitwise the
    full maximum, and the oracle's evaluations."""
    g = part.grid
    exact = mod_norms_from_frequency(stack, [spec], part)[0]
    rows = len(part._active_centers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modnorm, "NORM_BATCH_VALUES", batch * rows * g.size)
        [(got, evaluated)], _ = max_mod_norm([stack], spec, part)
        oracle_max, oracle_evaluated = per_stack_max(stack, spec, part)
    assert np.float64(got).tobytes() == exact.max().tobytes()
    assert np.float64(oracle_max).tobytes() == exact.max().tobytes()
    assert 1 <= evaluated == oracle_evaluated <= len(stack)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]),
       p=st.sampled_from([1.0, 1.5, 3.0, np.inf]),
       q=st.sampled_from([1.0, 2.0, np.inf]),
       s=st.sampled_from([0.0, 1.5]),
       n=st.integers(1, 9),
       batch=st.integers(1, 3),
       decades=st.sampled_from([0.05, 0.5, 6.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bound_holds_and_pruned_max_is_exact(dim, p, q, s, n, batch, decades,
                                             seed):
    part = PARTITIONS[dim]
    g = part.grid
    spec = ModNormSpec(p, q, s)
    rng = np.random.default_rng(seed)
    # spectra from rough to smooth and from dense to sparse, whose norms sit
    # at different fractions of their bounds, scaled to norms spread over
    # `decades`: over 0.05 the bounds' order often differs from the norms',
    # over 6 most functions are pruned
    decay = rng.uniform(0.0, 1.0, n)
    density = rng.uniform(0.02, 1.0, n)
    shape = (n,) + g.shape
    stack = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.exp(-np.multiply.outer(decay, g.freq_magnitude ** 2)) \
        * (rng.random(shape) < density.reshape((n,) + (1,) * dim))
    norms = mod_norms_from_frequency(stack, [spec], part)[0]
    amp = 10.0 ** rng.uniform(-decades / 2, decades / 2, n) \
        / np.where(norms > 0, norms, 1.0)
    stack *= amp.reshape((n,) + (1,) * dim)
    exact = mod_norms_from_frequency(stack, [spec], part)[0]
    scale = modnorm._bound_scale(spec, part)
    parseval = mod_norms_from_frequency(stack, [ModNormSpec(2.0, q, s)],
                                        part)[0]
    assert np.all(exact <= scale * parseval)
    # engine batches of `batch` functions, so that pruning can stop early
    _check_pruned_max(stack, spec, part, batch)


def _packets(part, n, rng, real):
    """Frequency samples of n sums of one to three wave packets
    e^{-|x - c|^2 / (2 w^2)} times e^{i kappa.x} (or cos(kappa.x + phi)
    when real), centred anywhere within 0.9 L of the box's centre, of
    widths w log-uniform from a third of a lattice step to a quarter of
    the box."""
    g = part.grid
    x, half = g.x_mesh, g.half_width
    out = np.zeros((n,) + g.shape, complex)
    for f in out:
        for _ in range(rng.integers(1, 4)):
            c = rng.uniform(-0.9 * half, 0.9 * half, g.dim)
            w = math.exp(rng.uniform(math.log(g.spacing / 3.0),
                                     math.log(0.5 * half)))
            phase = x @ rng.uniform(-g.max_freq_component,
                                    g.max_freq_component, g.dim) \
                + rng.uniform(0.0, 2.0 * np.pi)
            wave = np.cos(phase) if real else np.exp(1j * phase)
            f += rng.standard_normal() * wave \
                * np.exp(-np.sum((x - c) ** 2, axis=-1) / (2.0 * w * w))
    return forward_values(g, out)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]),
       coarse=st.booleans(),
       p=st.sampled_from([1.0, 1.5]),
       q=st.sampled_from([1.0, 2.0, np.inf]),
       s=st.sampled_from([0.0, 1.5]),
       real=st.booleans(),
       decade=st.sampled_from([-300, -150, 0, 150, 300]),
       n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_carlson_bound_between_norm_and_hoelder(dim, coarse, p, q, s, real,
                                                decade, n, seed):
    # at p < 2 the bound is never below the engine's norm, nor above
    # Hoelder's bound beyond roundoff, at amplitudes from 1e-300 to 1e300:
    # every function is taken at a power-of-two scale, so |F|^2 neither
    # overflows nor underflows
    part = (COARSE_PARTITIONS if coarse else PARTITIONS)[dim]
    spec = ModNormSpec(p, q, s)
    stack = _packets(part, n, np.random.default_rng(seed), real)
    stack /= np.abs(stack).max(axis=tuple(range(1, dim + 1)),
                               keepdims=True)
    stack *= 10.0 ** decade
    scale = modnorm._bound_scale(spec, part)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = mod_norms_from_frequency(stack, [spec], part)[0]
        bound = modnorm._parseval_bounds(
            *binary_scale(stack, part.grid.dim), spec, part, scale)
        hoelder = scale * mod_norms_from_frequency(
            stack, [ModNormSpec(2.0, q, s)], part)[0]
    assert np.all(np.isfinite(hoelder) & (exact > 0.0))
    assert np.all(exact <= bound)
    assert np.all(bound <= hoelder * (1.0 + 2.0 ** -50))


@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
def test_carlson_bound_holds_on_a_coarse_lattice(p, q):
    # packets a third of a lattice step wide, on a lattice step of 8: the
    # weight's sum over the N = 8 points is far from its integral, and at
    # q = inf the bound of the largest block is nearly attained
    part = COARSE_PARTITIONS[1]
    g = part.grid
    spec = ModNormSpec(p, q, 0.0)
    rng = np.random.default_rng(11)
    centres = rng.uniform(-0.9 * g.half_width, 0.9 * g.half_width, 40)
    stack = forward_values(g, np.exp(
        -np.subtract.outer(centres, g.x_axis) ** 2
        / (2.0 * (g.spacing / 3.0) ** 2)))
    scale = modnorm._bound_scale(spec, part)
    exact = mod_norms_from_frequency(stack, [spec], part)[0]
    bound = modnorm._parseval_bounds(
        *binary_scale(stack, part.grid.dim), spec, part, scale)
    hoelder = scale * mod_norms_from_frequency(
        stack, [ModNormSpec(2.0, q, 0.0)], part)[0]
    assert np.all(exact <= bound)
    assert np.all(bound <= hoelder * (1.0 + 2.0 ** -50))


def test_carlson_bound_does_not_depend_on_position():
    # a packet moved around the periodic box by whole lattice steps has the
    # blocks of the unmoved one, shifted: the same bound to roundoff,
    # wherever it sits, and well below Hoelder's for a narrow packet
    part = PARTITIONS[1]
    g = part.grid
    spec = ModNormSpec(1.0, 1.0, 0.0)
    packet = np.exp(-g.x_axis ** 2)
    stack = forward_values(g, np.array([np.roll(packet, k)
                                        for k in (0, 14, -29)]))
    scale = modnorm._bound_scale(spec, part)
    bound = modnorm._parseval_bounds(
        *binary_scale(stack, part.grid.dim), spec, part, scale)
    exact = mod_norms_from_frequency(stack, [spec], part)[0]
    hoelder = scale * mod_norms_from_frequency(
        stack, [ModNormSpec(2.0, 1.0, 0.0)], part)[0]
    assert np.all(exact <= bound) and np.all(bound < 0.85 * hoelder)
    assert bound == pytest.approx(bound[0], rel=1e-12)


def _near_equal(part, n, rng):
    """One random spectrum plus perturbations of relative size 1e-14 to
    1e-1: norms that nearly tie, whose bounds may sort in another order."""
    g = part.grid
    shape = (n,) + g.shape
    base = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)) \
        * np.exp(-0.3 * g.freq_magnitude ** 2)
    bumps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    eps = 10.0 ** rng.uniform(-14.0, -1.0, n)
    return base + eps.reshape((n,) + (1,) * g.dim) * bumps


def _heat_flow(part, n, rng):
    """Slices t^m e^{-t |xi|^beta} u0 of a Picard-like term on a time grid:
    the largest norm is at t = 0 (m = 0) or inside the grid (m >= 1)."""
    g = part.grid
    u0 = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)) \
        * np.exp(-0.5 * g.freq_magnitude ** 2)
    t = np.linspace(0.0, rng.uniform(0.05, 2.0), n) + rng.integers(0, 2) * 0.01
    m = rng.integers(0, 3)
    beta = rng.choice([1.0, 2.0])
    lags = np.exp(-np.multiply.outer(t, g.freq_magnitude ** beta))
    return (t ** m).reshape((n,) + (1,) * g.dim) * lags * u0


def _plane_waves(part, n, rng):
    """Multiples A (1 + eps_i) of one integer-frequency mode with a common
    phase, on a box of side 2 pi: Hoelder is an equality, so only the
    allowances keep the bound up."""
    g = part.grid
    mode = tuple(rng.integers(1, g.points_per_axis - 1, g.dim))
    amps = rng.uniform(0.5, 2.0) * (1.0 + rng.choice([-1.0, 1.0], n)
                                    * 10.0 ** rng.uniform(-16.0, -6.0, n))
    F = np.zeros((n,) + g.shape, dtype=complex)
    F[(slice(None),) + mode] = amps * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return F


STACKS = {"near_equal": _near_equal, "heat_flow": _heat_flow,
          "plane_waves": _plane_waves}


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(sorted(STACKS)),
       dim=st.sampled_from([1, 2, 3]),
       p=st.sampled_from([1.0, 1.5, 3.0, np.inf]),
       q=st.sampled_from([1.0, 2.0, np.inf]),
       s=st.sampled_from([0.0, 1.5]),
       n=st.integers(2, 9),
       batch=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bound_holds_for_every_stack_family(kind, dim, p, q, s, n, batch,
                                            seed):
    part = (WAVE_PARTITIONS if kind == "plane_waves" else PARTITIONS)[dim]
    spec = ModNormSpec(p, q, s)
    stack = STACKS[kind](part, n, np.random.default_rng(seed))
    exact = mod_norms_from_frequency(stack, [spec], part)[0]
    bound = modnorm._parseval_bounds(
        *binary_scale(stack, part.grid.dim), spec, part,
        modnorm._bound_scale(spec, part))
    assert np.all(bound >= exact)
    _check_pruned_max(stack, spec, part, batch)
