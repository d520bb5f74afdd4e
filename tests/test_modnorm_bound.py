"""Property test of max_mod_norm's Parseval bound over random stacks.

For every function of a stack, the exact (p, q, s) norm must lie below
U = scale (its (2, q, s) norm) + floor, with scale = c_p (1 +
BOUND_ROUNDOFF) up to subnormal allowances, and the pruned maximum must
equal mod_norms_from_frequency(...).max() bit for bit.
"""

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
    norms = mod_norms_from_frequency(stack, spec, part)
    amp = 10.0 ** rng.uniform(-decades / 2, decades / 2, n) \
        / np.where(norms > 0, norms, 1.0)
    stack *= amp.reshape((n,) + (1,) * dim)
    exact = mod_norms_from_frequency(stack, spec, part)
    scale, floor = modnorm._bound_constants(spec, part)
    parseval = mod_norms_from_frequency(stack, ModNormSpec(2.0, q, s), part)
    assert np.all(exact <= scale * parseval + floor)
    # engine batches of `batch` functions, so that pruning can stop early
    rows = len(part._active_centers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modnorm, "NORM_BATCH_VALUES", batch * rows * g.size)
        got, evaluated = max_mod_norm(stack, spec, part)
    assert np.float64(got).tobytes() == exact.max().tobytes()
    assert 1 <= evaluated <= n
