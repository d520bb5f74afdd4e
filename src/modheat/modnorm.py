"""Modulation-space norms, computed two independent ways.

The first estimator sums weighted L^p norms of frequency-uniform blocks cut
out by a smooth partition of unity on unit cubes centered at integer
frequencies.  The partition is a tensor product of per-axis rows, so no
block is transformed on its own: at p = 2 the block norms are an exact
discrete-Parseval contraction of the squared rows with |F|^2, at other p
they come from inverse transforms taken one axis at a time, with all blocks
of the last axis in one batched call, and a stack of functions (a Picard
term at every time slice) goes through at once.  The second samples the
short-time Fourier transform against a normalized window and takes the
mixed L^p_x L^q_y quadrature norm.  The window shifts are not transformed
one by one: the shifted windows of a batch are gathered into one stack,
multiplied by f and transformed in a single call, with each stack capped at
STFT_BATCH_VALUES values because larger ones raise peak memory over
repeated runs.  The spectrogram does not depend on (p, q, s), so one pass
over it serves a whole list of specs (mod_norms_stft).  The two estimators agree up to an equivalence constant that
is measured once and frozen as a regression value (no explicit constant is
available analytically).

Partitions and STFT plans are immutable after construction; per-block work
is independent, and norm reductions use a fixed summation order so results
do not depend on evaluation schedule.
"""

from dataclasses import dataclass
from itertools import product
import math

import numpy as np

from .spectral import (FREQUENCY, PHYSICAL, GridFunction, SpectralGrid,
                       dealiased_product, dft_order, forward_transform,
                       forward_values, frequency_lp_norm, inverse_axis_factor,
                       inverse_transform, lp_norm)


# -- smooth bump profile --------------------------------------------------------


def _exp_bump(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def smooth_transition(x):
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1."""
    a = _exp_bump(np.asarray(x, dtype=float))
    b = _exp_bump(1.0 - np.asarray(x, dtype=float))
    return a / (a + b)


def bump_profile(u):
    """One-dimensional profile: 1 on [-1/2, 1/2], 0 outside (-1, 1), smooth between."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    out[u <= 0.5] = 1.0
    mid = (u > 0.5) & (u < 1.0)
    out[mid] = smooth_transition(2.0 * (1.0 - u[mid]))
    return out


class UniformPartition:
    """Family {sigma_k} of frequency-uniform symbols on the frequency lattice.

    The profile is a tensor product of one-dimensional bumps, and the
    normalization by the lattice-wide sum factorizes per axis, so each
    sigma_k is an outer product of rows of a single (2 k_max + 1, N) matrix.
    That makes the partition-of-unity identity hold essentially to roundoff.
    """

    def __init__(self, grid, k_max=None):
        if k_max is None:
            k_max = math.ceil(grid.max_freq_component)
        if k_max < grid.max_freq_component:
            raise ValueError(
                "partition does not cover the lattice: k_max "
                f"{k_max} < max frequency {grid.max_freq_component:.6g}")
        self.grid = grid
        self.k_max = int(k_max)
        centers = np.arange(-self.k_max, self.k_max + 1)
        profile = bump_profile(grid.freq_axis[None, :] - centers[:, None])
        denom = profile.sum(axis=0)
        if np.any(denom <= 0.0):
            raise ValueError("partition does not cover the lattice "
                             "(zero bump sum at some frequency)")
        self._rows = profile / denom[None, :]
        # Rows that are nonzero somewhere on the lattice, fixed here because
        # partitions are shared read-only between worker threads.
        active = self._rows.any(axis=1)
        self._active_centers = tuple(int(c) for c in centers[active])
        rows = self._rows[active]
        self._sq_rows = rows ** 2
        # Rows with inverse_transform's per-axis factor folded in, in DFT
        # order, so each axis's blocks inverse-transform on their own.
        self._folded_rows = (dft_order(rows, axes=-1)
                             * inverse_axis_factor(grid))
        # |k| of every active key, in active_keys() order, for the weights
        keys = np.array(list(self.active_keys()), dtype=float)
        self._key_radii = np.sqrt(np.sum(keys ** 2, axis=1))
        for arr in (self._rows, self._sq_rows, self._folded_rows,
                    self._key_radii):
            arr.setflags(write=False)

    def keys(self):
        rng = range(-self.k_max, self.k_max + 1)
        return product(rng, repeat=self.grid.dim)

    def _row(self, c):
        return self._rows[c + self.k_max]

    def contains(self, k):
        return all(abs(c) <= self.k_max for c in k)

    def symbol(self, k):
        """sigma_k sampled on the full frequency lattice."""
        k = tuple(int(c) for c in k)
        if not self.contains(k):
            raise ValueError(f"block center {k} outside k_max {self.k_max}")
        out = self._row(k[0])
        for c in k[1:]:
            out = np.multiply.outer(out, self._row(c))
        return out

    def active_keys(self):
        """Block centers whose symbol is nonzero somewhere on the lattice."""
        return product(self._active_centers, repeat=self.grid.dim)


def block_project(f, k, partition):
    """Frequency-uniform block: inverse transform of sigma_k times F f."""
    if f.side != PHYSICAL:
        raise ValueError("block_project expects a physical-side function")
    F = forward_transform(f)
    sym = partition.symbol(k)
    return inverse_transform(GridFunction(f.grid, sym * F.values, FREQUENCY))


# -- decomposition-side norm ----------------------------------------------------


@dataclass(frozen=True)
class ModNormSpec:
    """Integrability exponents (p over space, q over blocks) and weight power s."""

    p: float = 2.0
    q: float = 1.0
    s: float = 0.0

    def __post_init__(self):
        # written so NaN fails too; p = inf and q = inf stay legal
        if not (self.p >= 1 and self.q >= 1):
            raise ValueError("p and q must be >= 1")
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")


# Working-set cap of the block-norm engine: complex values in its largest
# temporary, K N^d per function at p != 2 (K active rows per axis; 512 KiB)
# and N^d at p = 2, where the Parseval contraction holds one row.
# On repeated Picard runs (N = 256, two functions a batch) 2^14 was ~1.6x
# slower, and 2^16 raised peak memory by 1-3 % for a small, unsteady gain.
NORM_BATCH_VALUES = 1 << 15


def _block_lp_norms(F, partition, p):
    """L^p norms of every active block of each function in a stack.

    F holds frequency samples in its last d axes behind one batch axis; the
    result is (batch, active keys), keys in active_keys() order.  sigma_k
    is the outer product of one row per axis.  At p = 2 discrete Parseval
    turns each block norm into b^d sum_xi prod_j row_{k_j}(xi_j)^2 |F(xi)|^2,
    one contraction per axis with no transform.  Otherwise the inverse
    transform factors into one 1-D transform per axis: the leading axes are
    transformed block by block, and all blocks of the last axis in one
    batched call, so K N^d values (K active rows) are live per function.
    """
    g = partition.grid
    d = g.dim
    if p == 2:
        acc = np.abs(F) ** 2
        for _ in range(d):
            # contracts the first lattice axis and appends its block axis
            acc = np.tensordot(acc, partition._sq_rows, axes=([1], [1]))
        return np.sqrt(g.freq_spacing ** d * acc).reshape(len(F), -1)
    rows = partition._folded_rows
    nrows, n = rows.shape
    last = rows.reshape((nrows,) + (1,) * (d - 1) + (n,))
    block_axes = tuple(range(2, d + 2))
    vol = g.spacing ** d
    F_dft = dft_order(F, axes=tuple(range(1, d + 1)))
    chunks = []
    for lead in product(range(nrows), repeat=d - 1):
        partial = F_dft
        for j in range(d - 1):
            shape = [1] * (d + 1)
            shape[j + 1] = n
            partial = np.fft.ifft(
                partial * rows[lead[j]].reshape(shape), axis=j + 1)
        # in place: fresh temporaries of this size cost more than the FFT
        blocks = partial[:, None] * last
        a = np.abs(np.fft.ifft(blocks, axis=-1, out=blocks))
        if np.isinf(p):
            chunks.append(a.max(axis=block_axes))
            continue
        if p != 1:
            a **= p
        chunks.append((vol * np.sum(a, axis=block_axes)) ** (1.0 / p))
    return np.concatenate(chunks, axis=1)


def mod_norms_from_frequency(values, spec, partition):
    """Decomposition norms, in an array of the batch shape, of frequency
    samples on partition.grid in the last d axes of values, behind any
    batch axes; they reach the block engine NORM_BATCH_VALUES at a time."""
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite values in norm input")
    g = partition.grid
    stack = values.reshape((-1,) + g.shape)
    # the engine holds one row per function at p = 2, K (active) otherwise
    rows = 1 if spec.p == 2 else len(partition._active_centers)
    batch = max(1, NORM_BATCH_VALUES // (rows * g.size))
    norms = np.concatenate([_block_lp_norms(stack[i:i + batch], partition,
                                            spec.p)
                            for i in range(0, len(stack), batch)])
    terms = norms * (1.0 + partition._key_radii) ** spec.s
    if np.isinf(spec.q):
        out = terms.max(axis=-1)
    else:
        # cumsum adds the blocks one by one in key order: a fixed summation
        # order that does not depend on how many functions share the stack
        out = np.cumsum(terms ** spec.q, axis=-1)[:, -1] ** (1.0 / spec.q)
    return out.reshape(values.shape[:values.ndim - g.dim])


def mod_norm_from_frequency(F, spec, partition):
    """Decomposition norm evaluated from frequency-side samples."""
    return float(mod_norms_from_frequency(F.values, spec, partition))


def mod_norm_decomp(f, spec, partition):
    """l^q-over-blocks of weighted L^p block norms (quadrature on the grid)."""
    if f.grid.size == 0:
        raise ValueError("empty grid")
    if f.side != PHYSICAL:
        raise ValueError("mod_norm_decomp expects a physical-side function")
    return mod_norm_from_frequency(forward_transform(f), spec, partition)


def fourier_lebesgue_norm(f, p):
    """Quadrature L^p norm of the Fourier transform of f."""
    F = f if f.side == FREQUENCY else forward_transform(f)
    return frequency_lp_norm(F, p)


# -- STFT-side norm -------------------------------------------------------------


class STFTPlan:
    """Window plus phase-space sampling steps for the STFT estimator.

    x is sampled on a sub-lattice of the physical grid (step a = stride * h)
    and y on the dual lattice (step b = pi/L), optionally refined by
    zero-padding.  The window is L^2-normalized on the grid.
    """

    def __init__(self, grid, window_values=None, x_stride=None, normalize=True):
        self.grid = grid
        if window_values is None:
            # default window: L^2-normalized Gaussian
            sq = np.sum(grid.x_mesh ** 2, axis=-1)
            window_values = np.exp(-0.5 * sq)
        w = np.asarray(window_values, dtype=complex).reshape(grid.shape)
        nrm = lp_norm(w, grid.spacing ** grid.dim, 2)
        if nrm == 0.0:
            raise ValueError("window must be nonzero")
        self.window = w / nrm if normalize else w
        if x_stride is None:
            x_stride = max(1, int(round(0.5 / grid.spacing)))
        x_stride = int(x_stride)
        # uniform x quadrature needs the stride to divide the axis length
        while grid.points_per_axis % x_stride != 0:
            x_stride -= 1
        self.x_stride = x_stride


def stft(f, plan, x, y):
    """Quadrature value of the windowed transform at one phase-space point.

    x is snapped to the physical lattice (the window is only known there);
    y may be any frequency within the sampled band.
    """
    g = f.grid
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.size != g.dim or y.size != g.dim:
        raise ValueError("x and y must be d-vectors")
    if np.any(np.abs(x) > g.half_width) or np.any(np.abs(y) > g.max_freq_component):
        raise ValueError("phase-space point outside the sampled range")
    shifts = [int(round(c / g.spacing)) for c in x]
    win = np.roll(np.conj(plan.window), shifts, axis=tuple(range(g.dim)))
    phase = np.exp(-1j * np.tensordot(g.x_mesh, y, axes=([-1], [0])))
    integrand = f.values * win * phase
    return complex((2.0 * np.pi) ** (-g.dim / 2.0)
                   * g.spacing ** g.dim * np.sum(integrand))


# Working-set cap of the STFT estimator: complex values in one stacked
# temporary (64 KiB).  Over repeated runs, transforming every window shift
# at once raised peak memory by ~9 % and 256 KiB batches by ~3 %; at this
# size it stays within ~1.5 % of the per-shift loop, at the same speed.
STFT_BATCH_VALUES = 1 << 12


def _stft_batches(f, plan, stride, fine):
    """V_g f on fine's frequency lattice, one batch of window shifts at a time.

    The shift tuples run through product(range(0, n, stride), repeat=d),
    last axis fastest; each yielded stack has shape (batch,) + fine.shape
    and at most STFT_BATCH_VALUES values, or one shift if that is larger.
    fine is f's grid, or a box of the same spacing padded with zeros, which
    samples y more finely.
    """
    g = f.grid
    d = g.dim
    n = g.points_per_axis
    lo = (fine.points_per_axis - n) // 2
    box = (slice(None),) + (slice(lo, lo + n),) * d
    shifts = np.arange(0, n, stride)
    batch = min(len(shifts), max(1, STFT_BATCH_VALUES // fine.size))
    # row i of gather shifts the last axis by shifts[i], as np.roll does
    gather = (np.arange(n)[None, :] - shifts[:, None]) % n
    window = np.conj(plan.window)
    # one padded buffer per call: only its centre box is ever written
    pad = np.zeros((batch,) + fine.shape, dtype=complex) if lo > 0 else None
    for lead in product(shifts.tolist(), repeat=d - 1):
        rolled = np.roll(window, lead, axis=tuple(range(d - 1))) if lead \
            else window
        for start in range(0, len(shifts), batch):
            win = np.moveaxis(rolled[..., gather[start:start + batch]], -2, 0)
            if pad is None:
                w = np.multiply(f.values, win, out=win)
            else:
                w = pad[:len(win)]
                np.multiply(f.values, win, out=w[box])
            yield forward_values(fine, w)


def mod_norms_stft(f, plan, specs, refine=1):
    """mod_norm_stft for every spec in specs, from one pass over |V_g f|:
    each batch of window shifts is transformed once, and one inner L^p_x sum
    is accumulated per distinct p."""
    g = f.grid
    d = g.dim
    n = g.points_per_axis
    stride = max(1, plan.x_stride // refine)
    while n % stride != 0:
        stride -= 1
    # shifting the window through the full stride orbit enumerates the x
    # lattice; refining y means transforming on a zero-padded box
    fine = SpectralGrid(d, n * refine, g.half_width * refine) if refine > 1 else g
    inner = {spec.p: np.zeros(fine.shape) for spec in specs}
    for batch in _stft_batches(f, plan, stride, fine):
        mags = np.abs(batch)
        for p, acc in inner.items():
            if np.isinf(p):
                np.maximum(acc, mags.max(axis=0), out=acc)
                continue
            # row by row in shift order, so the summation order is fixed
            for row in (mags if p == 1 else mags ** p):
                acc += row
    a_vol = (stride * g.spacing) ** d
    # weight and outer q-norm over the y lattice
    ysq = np.sum(fine.freq_mesh ** 2, axis=-1)
    b_vol = fine.freq_spacing ** d
    norms = []
    for spec in specs:
        amp = inner[spec.p]
        if not np.isinf(spec.p):
            amp = (a_vol * amp) ** (1.0 / spec.p)
        weight = (1.0 + ysq) ** (spec.s / 2.0)
        norms.append(lp_norm(amp * weight, b_vol, spec.q))
    return norms


def mod_norm_stft(f, plan, spec, refine=1):
    """Mixed L^p_x L^q_y quadrature norm of V_g f with weight <y>^s."""
    return mod_norms_stft(f, plan, [spec], refine)[0]


def stft_resolution_ok(coarse, fine, rel_tol=0.01):
    """True where halving both sampling steps moves the norm by < rel_tol;
    elementwise over STFT norms at refine 1 (coarse) and 2 (fine)."""
    coarse, fine = np.asarray(coarse, float), np.asarray(fine, float)
    moved = np.abs(coarse - fine) / np.where(fine == 0.0, 1.0, fine)
    return np.where(fine == 0.0, coarse == 0.0, moved < rel_tol)


# -- measured-inequality helpers ------------------------------------------------


def algebra_defect(f, g, p, partition):
    """||fg|| / (||f|| ||g||) in the (p, 1) norm; certifies the algebra bound."""
    spec = ModNormSpec(p, 1.0, 0.0)
    nf = mod_norm_decomp(f, spec, partition)
    ng = mod_norm_decomp(g, spec, partition)
    if nf == 0.0 or ng == 0.0:
        raise ValueError("algebra defect undefined for zero-norm input")
    prod = dealiased_product(f, g)
    return mod_norm_decomp(prod, spec, partition) / (nf * ng)
