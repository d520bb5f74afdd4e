"""Property tests of max_mod_norm's bounds over random stacks.

For every function of a stack, the exact (p, q, s) norm must lie below
U = scale (its (2, q, s) norm) + floor, with scale = c_p (1 +
BOUND_ROUNDOFF) up to subnormal allowances; for every pair f, g it must
lie below the neighbour bound (N(g) + U(f - g) + 2 floor) (1 +
BOUND_ROUNDOFF).  The pruned maximum must equal
mod_norms_from_frequency(...).max() bit for bit, and max_mod_norm may
evaluate at most one engine batch more than the Parseval bound alone
would (_parseval_only_max, the oracle for evaluation counts).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from modheat import modnorm  # noqa: E402
from modheat.modnorm import (ModNormSpec, UniformPartition,  # noqa: E402
                             max_mod_norm, mod_norms_from_frequency)
from modheat.spectral import SpectralGrid  # noqa: E402

PARTITIONS = {1: UniformPartition(SpectralGrid(1, 64, 8.0)),
              2: UniformPartition(SpectralGrid(2, 16, 4.0)),
              3: UniformPartition(SpectralGrid(3, 8, 4.0))}
# boxes of side 2 pi: the lattice is the integers, where one row is exactly
# 1, so a plane wave is one block of constant modulus and Hoelder is tight
WAVE_PARTITIONS = {d: UniformPartition(SpectralGrid(d, 8, math.pi))
                   for d in (1, 2, 3)}


def _parseval_only_max(values, spec, partition):
    """(max, evaluations) of max_mod_norm with the Parseval bounds alone,
    never tightened: functions in descending U, one engine batch at a
    time, until the next U is at most the largest norm found."""
    bounds = modnorm._parseval_bounds(
        values, spec, partition,
        *modnorm._bound_constants(spec, partition)).ravel()
    g = partition.grid
    stack = np.asarray(values).reshape((-1,) + g.shape)
    order = np.argsort(-np.where(np.isnan(bounds), np.inf, bounds),
                       kind="stable")
    batch = max(1, modnorm.NORM_BATCH_VALUES
                // (len(partition._active_centers) * g.size))
    found = []
    for lo in range(0, len(order), batch):
        if found and bounds[order[lo]] <= best:
            break
        found.append(mod_norms_from_frequency(stack[order[lo:lo + batch]],
                                              [spec], partition)[0])
        best = np.concatenate(found).max()
    return best, sum(len(n) for n in found)


def _check_pruned_max(stack, spec, part, batch):
    """max_mod_norm with engine batches of `batch` functions: bitwise the
    full maximum, and at most one batch more evaluations than the oracle."""
    g = part.grid
    exact = mod_norms_from_frequency(stack, [spec], part)[0]
    rows = len(part._active_centers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modnorm, "NORM_BATCH_VALUES", batch * rows * g.size)
        [(got, evaluated, _)], _ = max_mod_norm([stack], spec, part)
        oracle_max, oracle_evaluated = _parseval_only_max(stack, spec, part)
    assert np.float64(got).tobytes() == exact.max().tobytes()
    assert np.float64(oracle_max).tobytes() == exact.max().tobytes()
    assert 1 <= evaluated <= min(len(stack), oracle_evaluated + batch)


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
    scale, floor = modnorm._bound_constants(spec, part)
    parseval = mod_norms_from_frequency(stack, [ModNormSpec(2.0, q, s)],
                                        part)[0]
    assert np.all(exact <= scale * parseval + floor)
    # engine batches of `batch` functions, so that pruning can stop early
    _check_pruned_max(stack, spec, part, batch)


def _near_equal(part, n, rng):
    """One random spectrum plus perturbations of relative size 1e-14 to
    1e-1: differences far below the functions, and rounding in f - g."""
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
    phase, on a box of side 2 pi: Hoelder and the triangle inequality are
    both equalities, so only the allowances keep the neighbour bound up."""
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
def test_neighbour_bound_holds_for_every_pair(kind, dim, p, q, s, n, batch,
                                              seed):
    part = (WAVE_PARTITIONS if kind == "plane_waves" else PARTITIONS)[dim]
    spec = ModNormSpec(p, q, s)
    stack = STACKS[kind](part, n, np.random.default_rng(seed))
    exact = mod_norms_from_frequency(stack, [spec], part)[0]
    # row g, column f: every function bounds every other through their
    # difference, itself included
    scale, floor = modnorm._bound_constants(spec, part)
    differences = modnorm._parseval_bounds(stack - stack[:, None], spec, part,
                                           scale, floor)
    tight = modnorm._neighbour_bounds(exact[:, None], differences, floor)
    assert tight.shape == (n, n)
    assert np.all(tight >= exact[None, :])
    _check_pruned_max(stack, spec, part, batch)
