"""Modulation-space norms, computed two independent ways.

The first estimator sums weighted L^p norms of frequency-uniform blocks cut
out by a smooth partition of unity on unit cubes centered at integer
frequencies.  The partition is a tensor product of per-axis rows, so no
block is transformed on its own: at p = 2 the block norms are an exact
discrete-Parseval contraction of the squared rows with |F|^2, at other p
they come from inverse transforms taken one axis at a time, with all blocks
of the last axis in one batched call, and a stack of functions (a Picard
term at every time slice) goes through at once, in batches sized by the
rows its schedule transforms (NORM_BATCH_VALUES).  One call serves a list
of specs (mod_norms_from_frequency): the blocks and their magnitudes are
formed once for every p != 2, p = 4 takes its powers by two squarings, and
each p's block table is formed once for all specs that share it, with the
bits of one call per spec.  The second samples the short-time Fourier
transform against a normalized window and takes the mixed L^p_x L^q_y
quadrature norm, for a whole stack of functions in one pass
(mod_norms_stft).  The window shifts are not transformed one by one: the
shifted windows of a batch are gathered once into one stack for a group of
functions, multiplied by each of them and transformed in a single call into
one reused buffer, with each (function x shift) stack, and each p's sums
over a group, capped at STFT_BATCH_VALUES values, so the working set does
not grow with the stack.  |V_g f|^p of a batch is added to each function's
running sum in one reduction over the shifts, seeded with that sum, which
adds the shifts in the order a loop over them would, so every function's
norms are the bits of a call on it alone; a group's magnitudes and each p's
powers go into two buffers made once per group.  When f and the window are
real (the heat flows and the default Gaussian window are), V_g f(x, -y) is
the conjugate of V_g f(x, y): the last axis is then transformed by a real
FFT, only its bins 0 .. M/2 are powered, from |V|^2 = re^2 + im^2, and the
sums are mirrored to the other half of the lattice; those norms match the
complex path, which serves every other function, to roundoff rather than
bit for bit.  The spectrogram does not depend on (p, q, s), so the pass
serves a whole list of specs.  The two estimators agree up to an
equivalence constant that is measured once and frozen as a regression value
(no explicit constant is available analytically).

The largest norm of a stack (max_mod_norm, a Picard term's sup over time)
need not evaluate every function at p != 2.  On the box every block obeys
||b||_p <= c_p m ||b||_2: m = 1 is Hoelder's bound, and at p < 2 a
Carlson-weighted Cauchy-Schwarz bound gives each block its own m <= 1
from one more contraction, of the lag products F(xi) conj F(xi - e_a)
(_carlson_factors).  So c_p (1 + BOUND_ROUNDOFF) times the weighted l^q
sum of a function's m ||b||_2, from the Parseval path with no FFT, bounds
its (p, q, s) norm.  Functions are evaluated in descending bound until
the next bound is at most the largest norm found, and the maximum is the
one of the full evaluation bit for bit.  One call serves a list of
stacks (a Picard series' terms), which prune in lockstep: each round's
picks of every stack go to one engine call, and the bounds' Parseval
calls are merged across stacks, each merged stack within
NORM_BATCH_VALUES.

Every norm takes each function at the scale of spectral.binary_scale, so
only (p, grid) and the weights, never the data, can take a norm's
intermediates beyond the float range (_prunable).

On a d = 1 grid real data takes about half the block engine's work at
p != 2.  A function whose frequency samples are Hermitian, ||F - conj
F(-.)|| <= HERMITIAN_TOL ||F|| in l^2 off the -N/2 slot (hermitian_defect,
checked per function, once per call), has box_{-k} f equal to the
conjugate of box_k f for every key whose row, and its mirror's row,
vanish on -N/2.  Of those keys the engine transforms the ones at or above
0 and copies each other one from its mirror; the keys that touch -N/2 are
transformed.  The Hermitian functions of a stack are batched by the rows
that schedule transforms, about twice as many a batch as the others.  The
real data kinds, the solver states and Picard terms grown from them,
band_limited and the Hermite families take this path; complex functions
(mixed_family's modulated Gaussians, a complex csv datum) take every block
as before, bit for bit.  A copied block matches the transformed one to
roundoff, and a spec whose error bound for the copies would not fit
max_mod_norm's roundoff slack (large weights: MIRROR_SLACK, _mirror_error)
takes every block for every function.  At d >= 2 every function takes
every block: no workload has measured a gain from mirroring there.

Partitions cache the tables derived from them on first use (_memo) and
are otherwise immutable, as are STFT plans; per-block work is independent,
and norm reductions use a fixed summation order so results do not depend
on evaluation schedule.
"""

from dataclasses import dataclass
from itertools import product
import math
import operator

import numpy as np

from .spectral import (SpectralGrid, _factor_meshes, _per_axis,
                       binary_scale, cropped_forward, fine_grid,
                       forward_values, inverse_axis_factor, inverse_values,
                       lp_norm, padded_inverse)


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

    def __init__(self, grid):
        self.grid = grid
        # every lattice frequency lies within 1/2 of a center, where its bump
        # is 1, so the bump sums below are >= 1
        self.k_max = math.ceil(grid.max_freq_component)
        centers = np.arange(-self.k_max, self.k_max + 1)
        profile = bump_profile(grid.freq_axis[None, :] - centers[:, None])
        rows = profile / profile.sum(axis=0)[None, :]
        # Rows that are nonzero somewhere on the lattice.
        active = rows.any(axis=1)
        self._active_centers = tuple(int(c) for c in centers[active])
        rows = rows[active]
        self._sq_rows = rows ** 2
        # Rows with inverse_values' per-axis factor folded in, so each
        # axis's blocks inverse-transform on their own.
        self._folded_rows = rows * inverse_axis_factor(grid)
        # |k| of every active key, in active_keys() order, for the weights
        keys = np.array(list(self.active_keys()), dtype=float)
        self._key_radii = np.sqrt(np.sum(keys ** 2, axis=1))
        for arr in (self._sq_rows, self._folded_rows, self._key_radii):
            arr.setflags(write=False)
        self._memo = {}  # values made on first use (_memo)

    def active_keys(self):
        """Block centers whose symbol is nonzero somewhere on the lattice."""
        return product(self._active_centers, repeat=self.grid.dim)


def _memo(partition, key, make):
    """make(), made once per partition and key."""
    if key not in partition._memo:
        partition._memo[key] = make()
    return partition._memo[key]


def _mirror_rows(partition):
    """(rows, taken, copied, sources) of the block engine's mirrored
    schedule at d = 1: the folded rows it transforms and their indices,
    then the rows whose norms it copies instead, each from its source row.

    The rows obey row_{-c}(xi) = row_c(-xi) on every slot but -N/2, which
    has no mirror, so for a Hermitian function a row that vanishes on -N/2,
    and whose mirror does, has the block norms of its mirror.  Those rows
    of centers below 0 are copied; every other row is transformed.
    """
    centers = np.array(partition._active_centers)
    n = partition.grid.points_per_axis
    where = {c: i for i, c in enumerate(partition._active_centers)}
    mirror = np.array([where.get(-c, -1) for c in partition._active_centers])
    nyquist = partition._sq_rows[:, n // 2] != 0
    # a row with no active mirror is nonzero only on -N/2
    touch = (mirror < 0) | nyquist | nyquist[mirror]
    copied = (centers < 0) & ~touch
    taken = np.flatnonzero(~copied)
    rows = partition._folded_rows[taken]
    rows.setflags(write=False)
    return rows, taken, np.flatnonzero(copied), mirror[copied]


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
# temporary (512 KiB), R N^d per function at p != 2, R the rows per axis
# the schedule transforms (all K active rows, or the mirrored ones at
# d = 1: 28 of 52 at N = 256, L = 16), N^d at p = 2, where the Parseval
# contraction holds one row, and N values per function in the Hermitian
# check.  On repeated Picard runs (N = 256, two functions a batch) 2^14 was
# ~1.6x slower, and 2^16 raised peak memory by 1-3 % for a small, unsteady
# gain.
NORM_BATCH_VALUES = 1 << 15


def _engine_batch(rows, grid):
    """Functions per engine batch when the engine holds `rows` rows of N^d
    values per function: one row at p = 2 (and in the Hermitian check at
    d = 1), at p != 2 the most rows any schedule of the batch transforms."""
    return max(1, NORM_BATCH_VALUES // (rows * grid.size))


def _parseval_block_norms(F, partition):
    """L^2 norms of every active block of each function in a stack.

    F holds frequency samples in its last d axes behind one batch axis; the
    result is (batch, active keys), keys in active_keys() order.  sigma_k
    is the outer product of one row per axis, so discrete Parseval turns
    each block norm into b^d sum_xi prod_j row_{k_j}(xi_j)^2 |F(xi)|^2,
    one contraction per axis with no transform (_block_energies).
    """
    return np.sqrt(_block_energies(F, partition))


def _block_energies(F, partition, lag=None):
    """b^d sum_xi prod_j row_{k_j}(xi_j)^2 |F(xi)|^2 of every function of
    a stack F and active key; with lag = (a, table), |Z| of the same sum
    over the lag products F(xi) conj F(xi - e_a), with the table,
    row_k(xi) row_k(xi - 1) cyclic in slot order, on axis a.  One
    contraction per axis, each appending its block axis; the lag products'
    real and imaginary parts ride on a trailing axis of a real view, so
    every contraction is real."""
    g = partition.grid
    if lag is None:
        axis = None
        # squared in place: x * x, the op of ** 2, with one temporary
        G = np.abs(F)
        G *= G
    else:
        axis, table = lag
        G = np.roll(np.asarray(F, complex), 1, axis=axis + 1)
        np.conjugate(G, out=G)
        G *= F
        G = G.view(float).reshape(G.shape + (2,))
    for j in range(g.dim):
        G = np.tensordot(G, table if j == axis else partition._sq_rows,
                         axes=([1], [1]))
    if lag is None:
        return (g.freq_spacing ** g.dim * G).reshape(len(F), -1)
    G = G.reshape(len(F), 2, -1)
    return g.freq_spacing ** g.dim * np.hypot(G[:, 0], G[:, 1])


# Hermitian tolerance tau of the block engine (hermitian_defect): the FFT
# bound quoted above BOUND_ROUNDOFF, 6 u log2(N^d) <= 2^-45 of ||F||_2
# (Higham, Thm 24.2), on each of F(xi) and F(-xi) of a real function's
# transform.
HERMITIAN_TOL = 2.0 ** -44


def _mirror_pairs(grid):
    """The flat indices of the lattice slots off the -N/2 rows, then those
    of each one's mirror, slot -i mod N on every axis."""
    n = grid.points_per_axis
    axis = np.arange(n)
    mesh = np.meshgrid(*[axis[axis != n // 2]] * grid.dim, indexing="ij")
    return np.concatenate(
        [np.ravel_multi_index(mesh, grid.shape).ravel(),
         np.ravel_multi_index([-m % n for m in mesh], grid.shape).ravel()])


def hermitian_defect(F, partition):
    """||F - conj F(-.)|| / ||F|| of each function of a stack (frequency
    samples in the last d axes), in l^2 over the slots off the -N/2 rows:
    the measure the block engine compares with HERMITIAN_TOL, on its 2^-e f
    (binary_scale); NaN for the zero function."""
    pairs = _memo(partition, "mirror pairs",
                  lambda: _mirror_pairs(partition.grid))
    flat = np.ascontiguousarray(F.reshape(len(F), -1), dtype=complex)
    both = flat.take(pairs, axis=1)
    half = both.shape[1] // 2
    defect, mirrored = both[:, :half], both[:, half:]
    np.subtract(defect, np.conjugate(mirrored, out=mirrored), out=defect)
    defect, values = defect.view(float), flat.view(float)
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.einsum("ij,ij->i", defect, defect)
                       / np.einsum("ij,ij->i", values, values))


def _block_lp_norms(F, partition, ps, mirror=None, batch=None):
    """L^p norms of every active block of each function in a stack, one
    (functions, active keys) table per p of ps (none of them 2).  mirror[i]
    False keeps ps[i]'s table off the mirrored path (default: none); the
    pairs (ps[i], mirror[i]) are distinct.

    F is laid out as for _parseval_block_norms.  The inverse transform
    factors into one 1-D transform per axis: the leading axes are
    transformed block by block, and all blocks of the last axis in one
    batched call, so R N^d values are live per function, R the rows the
    schedule transforms.  Each chunk's blocks and |.| are formed once for
    every p: p = inf and p = 1 read the magnitudes first, any other p but
    the last takes its powers into a fresh array, and the last takes them
    in place; p = 4 takes them by two squarings.

    At d = 1 a Hermitian function (hermitian_defect <= HERMITIAN_TOL) takes
    the mirrored schedule (_mirror_rows) for every p whose mirror[i] allows
    it, and the full one for the others; other functions take the full
    schedule, as does every function at d >= 2.  The check runs only at
    d = 1 and where some mirror[i] is set, once for the stack, in chunks of
    at most NORM_BATCH_VALUES values.  The stack is split into its
    Hermitian functions and the others, and each group reaches the engine
    in batches of _engine_batch(R) functions, R the largest number of rows
    its schedules transform (or `batch` functions): the mirrored rows for
    a Hermitian group whose every p takes the mirrored path, all K active
    rows otherwise.  A group that is the whole stack is not copied.  A norm
    has the bits of a call on that function alone.  A table on the
    mirrored schedule matches the full one to roundoff, its transformed
    columns bit for bit.
    """
    mirror = [True] * len(ps) if mirror is None else mirror
    g = partition.grid
    if g.dim > 1 or not any(mirror):
        return _group_tables(F, partition, ps, mirror, False, batch)
    step = _engine_batch(1, g)
    hermitian = np.concatenate(
        [hermitian_defect(F[i:i + step], partition)
         for i in range(0, len(F), step)]) <= HERMITIAN_TOL
    real = np.count_nonzero(hermitian)
    if real in (0, len(F)):
        return _group_tables(F, partition, ps, mirror, real > 0, batch)
    out = [np.empty((len(F), len(partition._key_radii))) for _ in ps]
    for rows, kind in ((hermitian, True), (~hermitian, False)):
        for table, part in zip(out, _group_tables(F[rows], partition, ps,
                                                  mirror, kind, batch)):
            table[rows] = part
    return out


def _group_tables(F, partition, ps, mirror, hermitian, batch):
    """_block_lp_norms on a stack whose functions are all Hermitian or all
    not: batches of _engine_batch(R) functions, R the largest number of
    rows its schedules transform (or `batch` functions), and one engine
    pass per batch and schedule the tables need."""
    kinds = [hermitian and copy for copy in mirror]
    if batch is None:
        rows = (_memo(partition, "mirror rows",
                      lambda: _mirror_rows(partition))[1].size
                if all(kinds) else len(partition._active_centers))
        batch = _engine_batch(rows, partition.grid)
    parts = []
    for i in range(0, len(F), batch):
        tables = {kind: _block_lp_tables(
            F[i:i + batch], partition,
            list(dict.fromkeys(p for p, k in zip(ps, kinds) if k == kind)),
            kind) for kind in set(kinds)}
        parts.append([tables[kind][p] for p, kind in zip(ps, kinds)])
    if len(parts) == 1:
        return parts[0]
    return [np.concatenate(chunks) for chunks in zip(*parts)]


def _block_lp_tables(F, partition, ps, hermitian):
    """{p: block table} of a stack on the engine's full (hermitian=False)
    or, at d = 1, mirrored schedule (_mirror_rows), for the distinct p of
    ps."""
    g = partition.grid
    d = g.dim
    rows = partition._folded_rows
    nrows, n = rows.shape
    last = rows.reshape((nrows,) + (1,) * (d - 1) + (n,))
    if hermitian:
        last, taken, copied, sources = _memo(
            partition, "mirror rows", lambda: _mirror_rows(partition))
    block_axes = tuple(range(2, d + 2))
    vol = g.spacing ** d
    powered = [p for p in ps if not (np.isinf(p) or p == 1)]
    # p = inf and p = 1 read the magnitudes first; the last power overwrites
    order = [p for p in ps if p not in powered] + powered
    chunks = {p: [] for p in ps}
    for lead in product(range(nrows), repeat=d - 1):
        partial = F
        for j in range(d - 1):
            shape = [1] * (d + 1)
            shape[j + 1] = n
            partial = np.fft.ifft(
                partial * rows[lead[j]].reshape(shape), axis=j + 1)
        # in place: fresh temporaries of this size cost more than the FFT
        blocks = partial[:, None] * last
        a = np.abs(np.fft.ifft(blocks, axis=-1, out=blocks))
        for p in order:
            if np.isinf(p):
                chunks[p].append(a.max(axis=block_axes))
                continue
            if p == 1:
                powers = a
            elif p == 4:
                # two squarings, several times faster than pow (three
                # roundings: BOUND_ROUNDOFF)
                powers = np.square(a, out=a if p == powered[-1] else None)
                np.square(powers, out=powers)
            else:
                powers = np.power(a, p, out=a if p == powered[-1] else None)
            chunks[p].append((vol * np.sum(powers, axis=block_axes))
                             ** (1.0 / p))
    if not hermitian:
        return {p: np.concatenate(chunks[p], axis=1) for p in ps}
    tables = {}
    for p, (chunk,) in chunks.items():
        table = tables[p] = np.empty((len(F), nrows))
        table[:, taken] = chunk
        table[:, copied] = table[:, sources]
    return tables


def mod_norms_from_frequency(values, specs, partition, batch=None):
    """Decomposition norms of frequency samples on partition.grid in the
    last d axes of values, behind any batch axes, on one copy of the stack
    at the scale of binary_scale: an array of shape (len(specs),) + batch
    shape, row i at specs[i].

    The functions reach the block engine NORM_BATCH_VALUES values of its
    largest temporary at a time (_engine_batch), or `batch` functions at a
    time.  Each batch's blocks are formed once for every distinct p != 2,
    and each distinct p's block table once for all the specs that share
    it; only the weights and the q-sum are per spec, so a norm has the
    bits a call on its spec alone gives.  At p = 2 the contraction's BLAS
    kernel, and so a norm's last bit, depends on how many functions share
    an engine batch (dgemv for one, dgemm for more): batch=1 gives every
    norm the bits of a call on that function alone.  At p != 2 and d = 1 a
    Hermitian function takes the engine's mirrored path (_block_lp_norms)
    for every spec whose error bound for it is at most MIRROR_SLACK
    (_mirror_error), and every block for the others; the stack is split
    once, and each group batched by the rows its schedules transform.  An
    empty stack gives an empty array."""
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite values in norm input")
    g = partition.grid
    stack = values.reshape((-1,) + g.shape)
    if not len(stack):
        return np.empty((len(specs),) + values.shape[:values.ndim - g.dim])
    stack, e = binary_scale(stack, g.dim)
    # each spec's block table: p, and at p != 2 whether the mirrored path's
    # error bound fits the roundoff slack
    keys = [(spec.p, spec.p != 2 and _memo(
        partition, ("mirror error", spec),
        lambda: _mirror_error(spec, partition))[1] <= MIRROR_SLACK)
        for spec in specs]
    general = [key for key in dict.fromkeys(keys) if key[0] != 2]
    tables = {}
    if (2.0, False) in keys:
        step = _engine_batch(1, g) if batch is None else batch
        tables[2.0, False] = np.concatenate(
            [_parseval_block_norms(stack[i:i + step], partition)
             for i in range(0, len(stack), step)])
    if general:
        tables.update(zip(general, _block_lp_norms(
            stack, partition, *zip(*general), batch=batch)))
    out = np.empty((len(specs), len(stack)))
    for row, key, spec in zip(out, keys, specs):
        row[:] = _block_sums(tables[key], spec, partition)
    np.ldexp(out, e, out=out)
    return out.reshape((len(specs),) + values.shape[:values.ndim - g.dim])


def _block_sums(table, spec, partition):
    """The weighted l^q sum over the blocks of every row of a (functions,
    active keys) table, at spec's q and s."""
    terms = table * (1.0 + partition._key_radii) ** spec.s
    if np.isinf(spec.q):
        return terms.max(axis=-1)
    # cumsum adds the blocks one by one in key order: a fixed summation
    # order that does not depend on the stack
    return np.cumsum(terms ** spec.q, axis=-1)[:, -1] ** (1.0 / spec.q)


# Relative slack of max_mod_norm's bound, for the roundoff of both paths
# (u = 2^-53).  Take a function's N^d values and its K^d blocks each at most
# 2^32 (32 GiB of them).  A rounded sum of n nonnegative terms is within
# n u of the exact sum in any order (Higham, Accuracy and Stability of
# Numerical Algorithms, 4.2), so each of the four sums -- a block's p-th
# powers and its Parseval contraction, and the q-sums over blocks on both
# sides -- adds at most 2^-21.  The per-axis FFTs add at most
# 6 u log2(N^d) <= 2^-45 (Higham, Thm 24.2), and the squares, powers,
# roots and weights a few u each (p = 4 takes a^4 as (a^2)^2, two
# roundings, at most 3u).  That is below 2^-19; 2^-18 also covers the
# products of these factors.  Subnormal roundings, which are absolute,
# _prunable's comment bounds by 2^-22 of the norm on each side.
#
# At p < 2 the bound multiplies each block's c_p ||b||_2 by m <= 1
# (_carlson_factors), from the computed A = ||b||_2^2 and an upper bound
# W' of the exact W = A - |Z|.  The lag products' moduli,
# row(xi) row(xi - 1) |F(xi)| |F(xi - e_a)|, add up to at most A
# (Cauchy-Schwarz; the shift permutes the slots), so the contractions of
# Z and A are each within n u A <= 2^-21 A of their exact values, and W
# within 2^-20 A but for the few u A of the products, of |Z|, of the
# subtraction and of the lag table, which is made from the folded rows.
# W' = W + 2^-20 A is then short of the exact W by at most a few u A.  As
# W' >= 2^-20 A, lam = (A - W') / W' <= 2^20, and a shortfall eps A of W'
# lowers m^2 by at most lam eps <= 2^-25 relative, which with the factor's
# own roundings (log1p, tanh, the power: a few u) fits in the 2^-19 that
# BOUND_ROUNDOFF leaves.  At a fixed lam the bound c_p sqrt(A) m grows
# with A, while m alone shrinks with it, so the computed A enters only
# through sqrt(A), whose errors the terms above cover as at m = 1.
#
# The engine's mirrored path (_block_lp_norms) adds one term.  It takes a
# Hermitian function's block k, below 0 and clear of the -N/2 rows, as
# box_{-k} f, whose norms are those of box_k applied to
# F~(xi) = conj F(-xi).  D = F - F~ has ||D||_2 <= 2 tau ||F||_2 off the
# -N/2 rows, where sigma_k lives (tau = HERMITIAN_TOL; the 2 covers the
# check's own roundings), so with b the frequency spacing the block moves
# by at most
#   e_k = ||box_k D||_p <= c_p ||box_k D||_2 = c_p b^{d/2} ||sigma_k D||_2.
# The symbols are >= 0 and sum to 1, with at most 2^d of them nonzero at a
# slot, so 2^-d <= sum_k sigma_k^2 <= 1 there.  Hence sum_k e_k^2 <=
# c_p^2 b^d ||D||^2, and Hoelder over the blocks, with 1/t =
# max(0, 1/q - 1/2), bounds the weighted l^q sum of the moves by
# ||w||_t c_p b^{d/2} ||D||, w the block weights.  And ||F||^2 <=
# 2^d sum_k ||sigma_k F||^2 <= 2^d K^{d max(0, 1 - 2/q)} (N_2 / (b^{d/2}
# min w))^2, with N_2 the (2, q, s) norm and K^d keys.  Together the moves
# are at most mu c_p N_2, with
#   mu = 2^{d/2 + 1} tau K^{d max(0, 1/2 - 1/q)} ||w||_t / min w,
# and the lattice Nikolskii/Hoelder step N_2 <= c'_p N_p, with
# c_p c'_p = N^{d |1/p - 1/2|} (N points per axis), makes them at most
# nu = mu N^{d |1/p - 1/2|} of the (p, q, s) norm (_mirror_error).  mu
# grows without bound with s, so a spec takes the mirrored path only where
# nu <= MIRROR_SLACK = 2^-21.  There mu <= nu adds at most 2^-21 to the
# 2^-19 above, subnormals 2^-21, and BOUND_ROUNDOFF covers the sum.
BOUND_ROUNDOFF = 2.0 ** -18
MIRROR_SLACK = 2.0 ** -21


def _mirror_error(spec, partition):
    """(mu, nu) of the comment above: the mirrored path's error relative to
    c_p times the (2, q, s) norm, and relative to the (p, q, s) norm; inf or
    NaN where a weight overflows or underflows to 0."""
    g = partition.grid
    d = g.dim
    k = np.float64(len(partition._active_centers))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weights = (1.0 + partition._key_radii) ** spec.s
        t = 2.0 * spec.q / (2.0 - spec.q) if spec.q < 2 else np.inf
        w_t = (weights.max() if np.isinf(t)
               else np.sum(weights ** t) ** (1.0 / t))
        mu = (2.0 ** (d / 2.0 + 1.0) * HERMITIAN_TOL
              * k ** (d * max(0.0, 0.5 - 1.0 / spec.q)) * w_t / weights.min())
        return mu, mu * np.float64(g.points_per_axis) ** (
            d * abs(1.0 / spec.p - 0.5))


def _bound_scale(spec, partition):
    """c_p (1 + BOUND_ROUNDOFF): at a spec _prunable admits, every
    function's (p, q, s) norm, as the engine computes it, is at most this
    times the weighted l^q sum of its blocks' m_k ||b_k||_2
    (_parseval_bounds).  Every block b on the N^d-point box of side
    2L = N h has ||b||_p <= c_p ||b||_2: Hoelder on the quadrature with
    c_p = (2L)^{d (1/p - 1/2)} for p <= 2, l^p in l^2 with
    c_p = h^{d (1/p - 1/2)} for p >= 2, and the weighted l^q sum over
    blocks is monotone in each block."""
    g = partition.grid
    # a NumPy float, which overflows to inf where Python's raises
    side = np.float64(2.0 * g.half_width if spec.p < 2 else g.spacing)
    return side ** (g.dim * (1.0 / spec.p - 0.5)) * (1.0 + BOUND_ROUNDOFF)


def _parseval_bounds(F, e, spec, partition, scale):
    """U = scale (the weighted l^q sum of m_k ||b_k||_2) of every function
    2^e F of a stack, F (frequency samples in the last d axes behind one
    stack axis) and e from binary_scale: ||b_k||_2 from the Parseval
    contraction, m_k = 1 at p >= 2 and _carlson_factors at p < 2, scale
    from _bound_scale; inf or NaN where a weight overflows."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        energy = _block_energies(F, partition)
        factors = (_carlson_factors(F, energy, spec.p, partition)
                   if spec.p < 2 else 1.0)
        bounds = scale * _block_sums(np.sqrt(energy) * factors, spec,
                                     partition)
    return np.ldexp(bounds, e)


def _lag_rows(partition):
    """row_k(xi) row_k(xi - 1) of every active row, cyclic in slot order:
    the lag products' table (_carlson_factors), from the folded rows to
    roundoff."""
    rows = partition._folded_rows / inverse_axis_factor(partition.grid)
    rows *= np.roll(rows, 1, axis=1)
    rows.setflags(write=False)
    return rows


# The Carlson-weighted factor of a block b (_carlson_factors).  Fix an
# axis a and, for lam >= 0 and a centre c, the weight
# w(x) = 1 + lam (1 - cos(pi (x_a - c) / L)).  Cauchy-Schwarz gives
# h^d sum_x |b| <= (h^d sum_x 1 / w)^{1/2} (h^d sum_x w |b|^2)^{1/2}, a
# weighted form of Carlson's inequality.  With c at the phase of
# Z = b^d sum_xi B(xi) conj B(xi - e_a), B = sigma_k F, the weighted energy
# is A + lam W, A = ||b||_2^2, W = A - |Z|, and |Z| is one more contraction
# (_block_energies at lag a).  For every c,
# h^d sum_x 1 / w <= (2L)^d / sqrt(1 + 2 lam) (1 + r^N) / (1 - r^N),
# r = lam / (1 + lam + sqrt(1 + 2 lam)): the Poisson kernel's Fourier
# series aliased on N points, equal at lattice centres.  At
# lam = (A - W) / W, for W < A, ||b||_1^2 / (c_1^2 A) is then at most
# s (1 + r^N) / (1 - r^N) = s / tanh(-N log(r) / 2), with x = W / A,
# s = sqrt(x (2 - x)) and r = (1 - x) / (1 + s); lam = 0 is Hoelder's c_1.
# Interpolation, ||b||_p <= ||b||_1^{2/p - 1} ||b||_2^{2 - 2/p}, raises it
# to the power 1/p - 1/2.  W is formed with cancellation, so it is taken
# as W + 2^-20 A, which bounds its roundings (derived above
# BOUND_ROUNDOFF) and keeps lam <= 2^20.


def _carlson_factors(F, energy, p, partition):
    """m_k <= 1 of every function of a stack and active key, with
    ||b_k||_p <= c_p m_k ||b_k||_2 at p < 2 (comment above), from the block
    energies ||b_k||_2^2: the least over the axes, and 1 where no axis has
    W < A, NaN and inf energies included.  The lag products are formed
    _engine_batch(8) functions at a time, so that with their real copy in
    the contraction and the merged Parseval call's buffer (_merged_spans)
    they hold less than the engine's batches."""
    g = partition.grid
    d, n = g.dim, g.points_per_axis
    step = _engine_batch(8, g)
    lag_rows = _memo(partition, "lag rows", lambda: _lag_rows(partition))
    out = np.ones_like(energy)
    for a in range(d):
        lags = np.concatenate(
            [_block_energies(F[i:i + step], partition, (a, lag_rows))
             for i in range(0, len(F), step)])
        x = (energy * (1.0 + 2.0 ** -20) - lags) / energy
        s = np.sqrt(x * (2.0 - x))
        # NaN unless 0 < x <= 1 (1 at x = 1), where fmin keeps 1
        m = s / np.tanh(-0.5 * n * np.log1p((s + x) / (-1.0 - s)))
        np.fmin(out, m ** (1.0 / p - 0.5), out=out)
    return out


def _merged_spans(pieces, evaluate, grid):
    """evaluate(F, e), an array of one value per function 2^e F, over the
    functions of every piece: yields (piece, lo, hi, values) for the
    functions lo .. hi - 1 of a piece.

    A piece (stack, rows) holds the functions stack[rows].  The pieces fill
    one buffer in order, a piece split where the buffer is full, and each
    filling is scaled in place (binary_scale) and takes one evaluate call.
    The buffer holds _engine_batch(2) functions, or one: a Parseval call on
    it also makes |F|^2, half its size, so the two stay within
    NORM_BATCH_VALUES values."""
    size = min(_engine_batch(2, grid), sum(len(rows) for _, rows in pieces))
    buf = np.empty((size,) + grid.shape, complex)

    def flush(spans):
        filled = buf[:sum(hi - lo for _, lo, hi in spans)]
        values = evaluate(*binary_scale(filled, grid.dim, out=filled))
        at = 0
        for i, lo, hi in spans:
            yield i, lo, hi, values[at:at + hi - lo]
            at += hi - lo

    spans, filled = [], 0
    for i, (stack, rows) in enumerate(pieces):
        lo = 0
        while lo < len(rows):
            hi = min(len(rows), lo + size - filled)
            out = buf[filled:filled + hi - lo]
            # mode="clip" takes straight into out: the default buffers
            np.take(stack, rows[lo:hi], axis=0, out=out, mode="clip")
            spans.append((i, lo, hi))
            filled += hi - lo
            lo = hi
            if filled == size:
                yield from flush(spans)
                spans, filled = [], 0
    if spans:
        yield from flush(spans)


# Scaled data (binary_scale: |F| <= 2^{1/2}) leave the engine a range set
# by (spec, grid).  A sample of a block, partial transform or lag product
# is at most 2^{1/2} (2 pi)^{d/2} h^-d ((2 pi)^{-d/2} b^d times N^d slots,
# b N = 2 pi / h), so a block's p-norm and c_p ||b||_2 are at most
# H = 2^{1/2} (2 pi)^{d/2} max(1, 1/h)^{2d} max(1, 2L)^d max(1, c_p), the
# sums of r-th powers, r = 2 (contractions) and p, below C H^r and the
# q-sums below C (w_max H)^q, with C = (N K max(1, h, b))^d counting terms
# and volume elements and w the block weights (w_max >= 1 at k = 0).  The
# slot of the largest |F| (>= 1/2) has a symbol >= 2^-d, so the largest
# block has ||b||_p >= l = b^{d/2} 2^{-d-1} min(1, h, 1 / 2L)^{d/2}
# (Hoelder and l^p in l^2 the other way), and the norm >= w_min l.  Fewer
# than C subnormal roundings, each absolute and <= 2^-1075, move an r-th
# power sum's root by at most (C 2^-1074)^{1/r}; a block whose energy is
# within 2^20 of them may get too small a Carlson factor, but bounds only
# c_p w_k (C 2^-1054)^{1/2}.  So where, at every finite r of (2, p, q), the
# sums stay below 2^1020 and (C 2^-1054)^{1/r} <= 2^-22 l w_min / (K^d
# w_max max(1, c_p)), nothing overflows, subnormal roundings move the norm
# and its bound by at most 2^-22 of the norm each, and the bound holds.


def _prunable(spec, partition):
    """Whether max_mod_norm's bounds hold at spec for every function (the
    comment above); where not, it evaluates every function."""
    g = partition.grid
    d, k = g.dim, len(partition._active_centers)
    side, h, b, n = np.float64([2.0 * g.half_width, g.spacing,
                                g.freq_spacing, g.points_per_axis])
    count = (n * k * max(1.0, h, b)) ** d
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = (1.0 + partition._key_radii) ** spec.s
        c = max(1.0, _bound_scale(spec, partition))
        top = (c * 2.0 ** 0.5 * (2.0 * np.pi) ** (d / 2.0)
               * max(1.0, 1.0 / h) ** (2 * d) * max(1.0, side) ** d)
        least = (2.0 ** (-d - 23) * (b * min(1.0, h, 1.0 / side)) ** (d / 2.0)
                 * w.min() / (k ** d * w.max() * c))
        return all(count * (top * m) ** r <= 2.0 ** 1020
                   and (count * 2.0 ** -1054) ** (1.0 / r) <= least
                   for r, m in ((2.0, 1.0), (spec.p, 1.0), (spec.q, w.max()))
                   if np.isfinite(r))


def max_mod_norm(stacks, spec, partition):
    """Per stack of the list `stacks`, (mod_norms_from_frequency(stack,
    [spec], partition)[0].max(), the number of its functions the engine
    evaluated), the maximum the same bit for bit; and the number of engine
    calls that evaluated them.

    At p = 2, and at a spec that _prunable rejects, the engine evaluates
    every function, one call per stack; a NaN norm propagates as in
    ndarray.max.  Otherwise each function f is bounded by U(f) = c_p (1 +
    BOUND_ROUNDOFF) times the weighted l^q sum of its blocks'
    m_k ||b_k||_2 (_parseval_bounds): m_k = 1 at p > 2, Hoelder's bound,
    and at p < 2 the Carlson-weighted m_k <= 1 of _carlson_factors.  That
    costs the Parseval path and, at p < 2, one lag contraction per axis,
    and no FFT.  Each stack's functions are
    evaluated in descending bound, one engine batch of _engine_batch(K)
    functions at a time, until the next bound is at most the stack's
    largest norm found: no function left can exceed it.

    The stacks prune in lockstep: each round, every stack still pending
    picks its batch as it would alone, and all the picks go to one engine
    call per merged stack, taken in passes of that batch; the bounds, too,
    come from Parseval calls merged across stacks.  Every merged stack
    stays within NORM_BATCH_VALUES values (_merged_spans).  A norm at
    p != 2 does not depend on its batch, so every stack takes the
    decisions it takes alone.  Non-finite values, and an empty stack,
    raise ValueError.
    """
    g = partition.grid
    stacks = [np.asarray(v).reshape((-1,) + g.shape) for v in stacks]
    for i, stack in enumerate(stacks):
        if not len(stack):
            raise ValueError(f"stack {i} is empty: zero-size array to "
                             "reduction operation maximum which has no "
                             "identity")
        if not np.all(np.isfinite(stack)):
            raise ValueError("non-finite values in norm input")
    if spec.p == 2 or not _prunable(spec, partition):
        sups = [mod_norms_from_frequency(stack, [spec], partition)[0]
                for stack in stacks]
        return [(norms.max(), norms.size) for norms in sups], len(stacks)
    scale = _bound_scale(spec, partition)
    batch = _engine_batch(len(partition._active_centers), g)
    calls = 0

    def engine(F, e):
        nonlocal calls
        calls += 1
        # in passes of one stack's batch, as each stack alone would
        return np.ldexp(mod_norms_from_frequency(F, [spec], partition,
                                                 batch)[0], e)

    def parseval(F, e):
        return _parseval_bounds(F, e, spec, partition, scale)

    bounds = [np.empty(len(stack)) for stack in stacks]
    for i, lo, hi, values in _merged_spans(
            [(stack, np.arange(len(stack))) for stack in stacks], parseval, g):
        bounds[i][lo:hi] = values
    pending = [np.ones(len(stack), dtype=bool) for stack in stacks]
    found = [[] for _ in stacks]
    best = [None] * len(stacks)
    live = range(len(stacks))
    while live:
        picks = []
        for i in live:
            rest = np.flatnonzero(pending[i])
            rest = rest[np.argsort(-bounds[i][rest], kind="stable")]
            if not (found[i] and bounds[i][rest[0]] <= best[i]):
                picks.append((i, rest[:batch]))
        norms = [np.empty(len(taken)) for _, taken in picks]
        for j, lo, hi, values in _merged_spans(
                [(stacks[i], taken) for i, taken in picks], engine, g):
            norms[j][lo:hi] = values
        for (i, taken), n in zip(picks, norms):
            found[i].append(n)
            best[i] = np.concatenate(found[i]).max()
            pending[i][taken] = False
        live = [i for i, _ in picks if pending[i].any()]
    return ([(best[i], sum(len(n) for n in found[i]))
             for i in range(len(stacks))], calls)


# -- STFT-side norm -------------------------------------------------------------


def _positive_int(value, name):
    """value as an int >= 1, else ValueError naming it."""
    try:
        number = operator.index(value)
    except TypeError:
        number = 0
    if number < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return number


class STFTPlan:
    """Window plus phase-space sampling steps for the STFT estimator.

    x is sampled on a sub-lattice of the physical grid (step a = stride * h)
    and y on the dual lattice (step b = pi/L), optionally refined by
    zero-padding.  The window is L^2-normalized on the grid.  x_stride is
    an integer >= 1, stepped down until it divides the axis length.
    """

    def __init__(self, grid, window_values=None, x_stride=None, normalize=True):
        self.grid = grid
        if window_values is None:
            # default window: L^2-normalized Gaussian
            sq = np.sum(grid.x_mesh ** 2, axis=-1)
            window_values = np.exp(-0.5 * sq)
        w = np.asarray(window_values, dtype=complex)
        if w.shape != grid.shape:
            raise ValueError(f"window_values of shape {w.shape} do not have "
                             f"the grid's shape {grid.shape}")
        nrm = lp_norm(w, grid.spacing ** grid.dim, 2, grid.dim)
        if nrm == 0.0:
            raise ValueError("window must be nonzero")
        self.window = w / nrm if normalize else w
        if x_stride is None:
            x_stride = max(1, int(round(0.5 / grid.spacing)))
        self.x_stride = _divisor_below(grid.points_per_axis,
                                       _positive_int(x_stride, "x_stride"))


def _divisor_below(n, stride):
    """The largest divisor of n that is at most stride: uniform x
    quadrature needs the stride to divide the axis length."""
    while n % stride != 0:
        stride -= 1
    return stride


# Working-set cap of the STFT estimator: lattice values in one (function x
# window shift) temporary of the transform's box, and in each distinct p's
# sums over a group of functions; one function's box when that is larger.
# 2^14 values (256 KiB of complex values, half as many bytes for real data)
# put the modnorm corpus's 8 functions in one group.  Median peak memory of
# repeated estimators runs (4 runs of 8 s per cap, 2-vCPU Xeon host): 41.6
# MB with one call per function, 41.6-41.7 MB at caps 2^12 .. 2^14, 42.1 MB
# at 2^15 and 43.4 MB at 2^16; the run time was lowest at 2^14.
STFT_BATCH_VALUES = 1 << 14


def _stft_batches(stack, index, plan, stride, fine, real=False):
    """V_g f on fine's frequency lattice, for the functions
    stack[index], a group of functions and a batch of window shifts at a
    time.

    stack holds physical samples on plan.grid behind one function axis.
    Each group holds G = STFT_BATCH_VALUES // fine.size functions of index
    (at least one), and each batch B = STFT_BATCH_VALUES // (G fine.size)
    window shifts (at least one), so a (G, B) stack holds at most
    STFT_BATCH_VALUES values, or one function's box.  Yields (rows,
    batches) per group, rows its indices into stack and batches an
    iterator of stacks of shape (len(rows), b) + fine.shape, b <= B: the
    shift tuples run through product(range(0, n, stride), repeat=d), last
    axis fastest, and each batch's shifted windows are gathered once for
    the whole group.  Every stack is a view of one buffer, valid until the
    next is drawn; the gather index, the mesh and the buffers are made once
    per call.  fine is plan.grid, or a box of the same spacing padded with
    zeros, which samples y more finely.  The transforms are
    forward_values' bit for bit.

    real=True, for real f and a real window, yields |V_g f| correctly but
    not its phase: the last axis is transformed by rfft, so a stack holds
    its bins 0 .. M/2 only (M = fine.points_per_axis), the mesh's scale is
    folded into the window once, and its signs are dropped.
    """
    g = plan.grid
    d = g.dim
    n = g.points_per_axis
    lo = (fine.points_per_axis - n) // 2
    box = (slice(None), slice(None)) + (slice(lo, lo + n),) * d
    shifts = np.arange(0, n, stride)
    functions = min(len(index), max(1, STFT_BATCH_VALUES // fine.size))
    batch = min(len(shifts),
                max(1, STFT_BATCH_VALUES // (functions * fine.size)))
    # row i of gather shifts the last axis by shifts[i], as np.roll does
    gather = (np.arange(n)[None, :] - shifts[:, None]) % n
    mesh = _factor_meshes(fine)[0]
    if real:
        stack = stack.real
        # every entry of the mesh is +-scale
        window = plan.window.real * abs(mesh.flat[0])
        spectrum = fine.shape[:-1] + (fine.points_per_axis // 2 + 1,)
    else:
        window = np.conj(plan.window)
        spectrum = fine.shape
    # flat (function x shift) rows, so every view below is contiguous and
    # a row keeps its place: only the centre box of a padded row is ever
    # written
    out = np.empty((functions * batch,) + spectrum, dtype=complex)
    prod = np.zeros((functions * batch,) + fine.shape,
                    dtype=np.result_type(stack, window))

    def batches(values):
        for lead in product(shifts.tolist(), repeat=d - 1):
            rolled = np.roll(window, lead, axis=tuple(range(d - 1))) \
                if lead else window
            for start in range(0, len(shifts), batch):
                win = np.moveaxis(rolled[..., gather[start:start + batch]],
                                  -2, 0)
                block = (len(values), len(win))
                w = prod[:block[0] * block[1]].reshape(block + fine.shape)
                np.multiply(values[:, None], win, out=w[box])
                v = out[:block[0] * block[1]].reshape(block + spectrum)
                if real:
                    # the order of _per_axis: last axis first
                    np.fft.rfft(w, axis=-1, out=v)
                    for axis in range(-2, -d - 1, -1):
                        np.fft.fft(v, axis=axis, out=v)
                else:
                    _per_axis(np.fft.fft, w, d, out=v)
                    v *= mesh
                yield v

    for start in range(0, len(index), functions):
        rows = index[start:start + functions]
        yield rows, batches(stack[rows])


def _unfold(half, m):
    """Sums over the half spectrum (last-axis bins 0 .. m/2) of
    real functions' |V_g f| on the full lattice, behind one function axis:
    V_g f(x, -y) is the conjugate of V_g f(x, y), so bin (j, k) with
    k > m/2 holds the sum of bin ((-j) mod m, m - k), j over the lattice's
    leading axes."""
    mirror = half[..., m // 2 - 1:0:-1]
    negated = -np.arange(m) % m
    for axis in range(1, half.ndim - 1):
        mirror = np.take(mirror, negated, axis=axis)
    return np.concatenate([half, mirror], axis=-1)


def _stft_inner(stack, index, plan, ps, stride, fine, real=False):
    """For each of _stft_batches' groups of the functions stack[index],
    (rows, {p: sums}): the sum over the x lattice of |V_g f|^p on fine's
    frequency lattice (the max for p = inf), one row per
    function of the group, for every p of ps; the scale a^d of the x
    quadrature is left out.

    A group keeps one accumulator per function and p, and each batch is
    added to it in one reduction over the batch's shift axis, seeded with
    the running sum: ((acc + r0) + r1) + ..., the order of adding shift by
    shift, so a function's sums do not depend on the batch size or on the
    functions it shares a group with.  real=True (real f, real window)
    takes the half spectrum (_stft_batches' real path) and
    |V|^p = (|V|^2)^(p/2) from |V|^2 = re^2 + im^2, then unfolds the sums
    by conjugate symmetry.

    A group forms each batch's magnitudes in one buffer and each power in
    one spare buffer, one p at a time, both made at the group's first
    batch, its largest, and reused by the later ones."""
    m = fine.points_per_axis
    shape = fine.shape[:-1] + (m // 2 + 1,) if real else fine.shape
    # the power each p takes of the magnitudes, |V|^2 (real) or |V|; sqrt
    # and square are the ops NumPy takes for ** 0.5 and ** 2
    powers = {p: p / 2.0 if real else p for p in ps}
    ufuncs = {0.5: np.sqrt, 2.0: np.square}
    # the p whose rows are the magnitudes themselves goes last: it changes
    # them
    order = sorted(ps, key=lambda p: powers[p] == 1)
    for rows, batches in _stft_batches(stack, index, plan, stride, fine,
                                       real):
        inner = {p: np.zeros((len(rows),) + shape) for p in ps}
        buffers = None
        for batch in batches:
            if buffers is None:
                buffers = np.empty((2, batch.size))
            mags, spare = (b[:batch.size].reshape(batch.shape)
                           for b in buffers)
            # |V|^2 = re^2 + im^2 on the half spectrum, |V| on the full one
            if real:
                np.square(batch.real, out=mags)
                mags += np.square(batch.imag, out=spare)
            else:
                np.abs(batch, out=mags)
            for p in order:
                acc = inner[p]
                if np.isinf(p):
                    np.maximum(acc, mags.max(axis=1), out=acc)
                    continue
                if powers[p] == 1:
                    power = mags
                elif powers[p] in ufuncs:
                    power = ufuncs[powers[p]](mags, out=spare)
                else:
                    power = np.power(mags, powers[p], out=spare)
                power[:, 0] += acc
                np.add.reduce(power, axis=1, out=acc)
        if real:
            inner = {p: _unfold(np.sqrt(acc) if np.isinf(p) else acc, m)
                     for p, acc in inner.items()}
        yield rows, inner


def mod_norms_stft(values, plan, specs, refine=1):
    """Mixed L^p_x L^q_y quadrature norms of V_g f with weight <y>^s, for
    every function f of a stack: values holds physical samples on
    plan.grid in its last d axes, behind any stack axes, and the result
    has shape (len(specs),) + stack shape, row i at specs[i].  refine (an
    integer >= 1) divides the x stride and multiplies the y sampling
    density.

    One pass over |V_g f| serves every spec and every function: each batch
    of window shifts is gathered once for a group of functions and
    transformed, powered and added to one inner L^p_x sum per function and
    distinct p (_stft_inner).  The refined
    grid, its weights (one per distinct s) and the pass's buffers are made
    once per call.  A function's norms are the bits of a call on it alone.

    Where f and plan.window have no nonzero imaginary part (checked per
    function), V_g f(x, -y) is the conjugate of V_g f(x, y): only the last
    axis's bins 0 .. M/2 are transformed (rfft) and powered, and the sums
    are mirrored to the rest of the lattice.  Those norms agree with the
    complex path, which serves every other function, to a few units of
    roundoff (1e-13 relative is tested), not bit for bit.  Each function
    is taken at the scale of binary_scale.  Values whose last d axes
    are not plan.grid's shape, or that are not finite, raise
    ValueError."""
    refine = _positive_int(refine, "refine")
    g = plan.grid
    d = g.dim
    values = np.asarray(values)
    if values.shape[-d:] != g.shape:
        raise ValueError(f"values of shape {values.shape} do not end in "
                         f"plan.grid's shape {g.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite values in norm input")
    stack = values.reshape((-1,) + g.shape)
    stack, e = binary_scale(stack, d)
    n = g.points_per_axis
    stride = _divisor_below(n, max(1, plan.x_stride // refine))
    # shifting the window through the full stride orbit enumerates the x
    # lattice; refining y means transforming on a zero-padded box
    fine = SpectralGrid(d, n * refine, g.half_width * refine) if refine > 1 else g
    a_vol = (stride * g.spacing) ** d
    # weight and outer q-norm over the y lattice
    ysq = np.sum(fine.freq_mesh ** 2, axis=-1)
    weights = {s: (1.0 + ysq) ** (s / 2.0)
               for s in dict.fromkeys(spec.s for spec in specs)}
    b_vol = fine.freq_spacing ** d
    ps = list(dict.fromkeys(spec.p for spec in specs))
    complex_rows = np.full(len(stack), bool(plan.window.imag.any()))
    if np.iscomplexobj(stack):
        complex_rows |= stack.imag.reshape(len(stack), g.size).any(axis=1)
    out = np.empty((len(specs), len(stack)))
    for real, index in ((True, np.flatnonzero(~complex_rows)),
                        (False, np.flatnonzero(complex_rows))):
        if not index.size:
            continue
        for rows, inner in _stft_inner(stack, index, plan, ps, stride, fine,
                                       real):
            amps = {p: acc if np.isinf(p) else (a_vol * acc) ** (1.0 / p)
                    for p, acc in inner.items()}
            for row, spec in zip(out, specs):
                row[rows] = np.ldexp(lp_norm(amps[spec.p] * weights[spec.s],
                                             b_vol, spec.q, d), e[rows])
    return out.reshape((len(specs),) + values.shape[:values.ndim - d])


def stft_resolution_ok(coarse, fine):
    """True where halving both sampling steps moves the norm by < 1 %;
    elementwise over STFT norms at refine 1 (coarse) and 2 (fine)."""
    coarse, fine = np.asarray(coarse, float), np.asarray(fine, float)
    moved = np.abs(coarse - fine) / np.where(fine == 0.0, 1.0, fine)
    return np.where(fine == 0.0, coarse == 0.0, moved < 0.01)


# -- measured-inequality helpers ------------------------------------------------


# Working-set cap of algebra_defect: complex values in one stack of
# functions on the dealiasing lattice (512 KiB), at least two functions.
ALGEBRA_BATCH_VALUES = 1 << 15


def algebra_defect(hats, p, partition):
    """||f_i f_{i+1}|| / (||f_i|| ||f_{i+1}||) in the (p, 1) norm, for every
    consecutive pair of a stack of transforms on partition.grid; NaN where
    a factor's norm is 0.  Certifies the algebra bound.

    The products are formed on the dealiasing lattice a chunk of
    consecutive functions at a time, each chunk of at most
    ALGEBRA_BATCH_VALUES values overlapping the last by one function, and
    taken through the physical side and back, as a product of two grid
    functions is; the norms come from one engine call per chunk and one
    for the factors.
    """
    g = partition.grid
    if len(hats) < 2:
        return np.empty(0)
    spec = ModNormSpec(p, 1.0, 0.0)
    # one function per engine batch: each norm has the bits it has alone,
    # so a defect does not depend on the stack its pair came in
    norms = mod_norms_from_frequency(hats, [spec], partition, batch=1)[0]
    fine = fine_grid(g, 2)
    pairs = max(1, ALGEBRA_BATCH_VALUES // fine.size - 1)
    prod_norms = []
    for start in range(0, len(hats) - 1, pairs):
        values = padded_inverse(g, hats[start:start + pairs + 1], fine)
        prods = cropped_forward(g, values[:-1] * values[1:], fine)
        prods = forward_values(g, inverse_values(g, prods))
        prod_norms.append(
            mod_norms_from_frequency(prods, [spec], partition, batch=1)[0])
    denom = norms[:-1] * norms[1:]
    zero = (norms[:-1] == 0.0) | (norms[1:] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        defects = np.concatenate(prod_norms) / denom
    defects[zero] = np.nan
    return defects
