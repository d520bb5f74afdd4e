"""Discrete Fourier machinery on a truncated, periodized box.

Functions on R^d that decay fast enough are represented by their samples on a
uniform lattice over [-L, L)^d.  The forward transform approximates the
unitary angular-frequency Fourier transform

    F f(xi) = (2 pi)^{-d/2} * integral f(x) exp(-i x.xi) dx

by the trapezoid rule, which at the dual lattice xi = (pi/L) m,
-N/2 <= m_j < N/2, reduces to a scaled DFT.  The pair (forward, inverse) is
an exact two-sided inverse on the lattice, and discrete Parseval holds to
roundoff.  A function is the ndarray of its samples on one side, with its
grid alongside; a stack of functions holds them in leading axes.  Frequency
samples are kept in the FFT's slot order on every axis: slot i holds mode i
for i < N/2 and mode i - N above, and grid.freq_axis gives each slot's
frequency.  Only the csv file format (load_grid_function) orders modes
from -N/2 up.  Grids are immutable after construction.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
import json

import numpy as np


@dataclass(frozen=True)
class SpectralGrid:
    """Periodized sampling lattice and its dual frequency lattice.

    The physical box is [-L, L)^d sampled at spacing h = 2L/N; the dual
    lattice has spacing pi/L and covers [-pi N / (2L), pi N / (2L)).
    """

    dim: int
    points_per_axis: int
    half_width: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        n = self.points_per_axis
        if n < 4 or n % 2 != 0:
            raise ValueError("points_per_axis must be even and >= 4")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def freq_spacing(self):
        return np.pi / self.half_width

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dim

    @property
    def size(self):
        return self.points_per_axis ** self.dim

    @cached_property
    def x_axis(self):
        n = self.points_per_axis
        return -self.half_width + self.spacing * np.arange(n)

    @cached_property
    def freq_axis(self):
        """Frequency of each slot of an axis, in the FFT's slot order."""
        return self.freq_spacing * _axis_modes(self.points_per_axis)

    @cached_property
    def freq_mesh(self):
        """Frequency vectors, shape = grid.shape + (dim,)."""
        axes = np.meshgrid(*([self.freq_axis] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    @cached_property
    def x_mesh(self):
        axes = np.meshgrid(*([self.x_axis] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    @cached_property
    def freq_magnitude(self):
        return np.sqrt(np.sum(self.freq_mesh ** 2, axis=-1))

    @property
    def max_freq_component(self):
        """Largest |xi_j| occurring on the lattice (the -N/2 row)."""
        return self.freq_spacing * (self.points_per_axis // 2)


def _axis_modes(n):
    """Mode of each slot of an axis of even length n: slot i holds mode i
    for i < n/2 and mode i - n above (np.fft.fftfreq's order)."""
    modes = np.arange(n)
    modes[n // 2:] -= n
    return modes


def _alternating_axis(grid):
    """(-1)^m along one axis of the frequency lattice: (-1)^i at slot i,
    since every slot's mode differs from i by the even length N or 0."""
    return (-1.0) ** np.arange(grid.points_per_axis)


def _outer(vec, dim):
    """Outer product of vec with itself over dim axes."""
    out = vec
    for _ in range(dim - 1):
        out = np.multiply.outer(out, vec)
    return out


def _per_axis(transform, values, dim, out=None):
    """transform (np.fft.fft or ifft) over the last dim axes of values, last
    axis first: the order of np.fft.fftn/ifftn, whose values it gives bit
    for bit without their n-d argument handling.  Each axis after the first
    runs in place; with out=values the first one does too."""
    for axis in range(-1, -dim - 1, -1):
        values = out = transform(values, axis=axis, out=out)
    return values


def inverse_axis_factor(grid):
    """One axis's share of inverse_values' scale and phase.

    inverse_values(grid, F) is ifftn of F times the outer product of this
    vector over all axes, so a separable symbol can fold it into its
    per-axis rows and be inverse-transformed one axis at a time.
    """
    axis_scale = (2.0 * np.pi) ** -0.5 * grid.spacing
    return _alternating_axis(grid) / axis_scale


@lru_cache(maxsize=8)
def _factor_meshes(grid):
    """forward_values' scale and phase mesh and inverse_values'; read-only,
    made once per grid."""
    # x_j . xi_m = -pi m + 2 pi j m / N per axis, hence the (-1)^m phase.
    scale = (2.0 * np.pi) ** (-grid.dim / 2.0) * grid.spacing ** grid.dim
    meshes = (scale * _outer(_alternating_axis(grid), grid.dim),
              _outer(inverse_axis_factor(grid), grid.dim))
    for mesh in meshes:
        mesh.setflags(write=False)
    return meshes


def forward_values(grid, values):
    """Trapezoid-rule Fourier transform onto the dual lattice, for a stack
    of functions.

    values holds physical samples on grid in its last grid.dim axes; any
    leading axes index independent functions, transformed in one call.
    Linear and exact (to roundoff) as a map between trigonometric
    interpolants; matches the (2 pi)^{-d/2} convention.
    """
    raw = _per_axis(np.fft.fft, values, grid.dim)
    raw *= _factor_meshes(grid)[0]
    return raw


def inverse_values(grid, values):
    """Exact two-sided inverse of forward_values on the lattice, for a
    stack of functions.

    values holds frequency samples on grid in its last grid.dim axes; any
    leading axes index independent functions, transformed in one call.
    """
    raw = np.multiply(values, _factor_meshes(grid)[1], dtype=complex)
    return _per_axis(np.fft.ifft, raw, grid.dim, out=raw)


def heat_symbol(grid, t, beta):
    """exp(-t |xi|^beta) sampled on the frequency lattice, for a time t or
    an array of times (leading axes).  The semigroup at t = 0 is the
    identity: exactly 1 there, also where |xi|^beta overflows."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-np.multiply.outer(t, grid.freq_magnitude ** beta))
    out[t == 0] = 1.0
    return out


def binary_scale(values, dim, out=None):
    """(2^-e f, e) of every function f of a stack, samples in the last dim
    axes: e is the binary exponent of max(|Re f|, |Im f|), which 2^-e f has
    in [1/2, 1), and 0 for the zero function.  2^-e f is a float or complex
    copy, or out (values itself scales in place).

    The scale rule of every norm: it computes on 2^-e f and multiplies its
    result by 2^e.  A power of two scales every add, multiply and FFT step
    exactly while values stay normal (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 2), so N(2^k f) = 2^k N(f) bit for bit, and a
    norm is 0, subnormal or inf only where its value is."""
    values = np.asarray(values)
    values = np.ascontiguousarray(values, np.result_type(values, float))
    parts = values.view(values.real.dtype)
    axes = tuple(range(values.ndim - dim, values.ndim))
    # max and -min, not max |.|: no temporary the size of the stack
    e = np.frexp(np.maximum(parts.max(axis=axes), -parts.min(axis=axes)))[1]
    scaled = np.ldexp(parts, -e.reshape(e.shape + (1,) * dim),
                      out=None if out is None else out.view(parts.dtype))
    return scaled.view(values.dtype), e


def lp_norm(values, volume_element, p, dim):
    """Rectangle-rule L^p norm over the last dim axes of values; p = inf
    gives the max over samples, each function at the scale of binary_scale.
    A float for one function, an array over the leading axes of a stack."""
    scaled, e = binary_scale(values, dim)
    a = np.abs(scaled)
    axes = tuple(range(-dim, 0))
    if np.isinf(p):
        norms = a.max(axis=axes)
    elif p < 1:
        raise ValueError("p must be >= 1")
    else:
        sums = volume_element * np.sum(a ** p, axis=axes)
        # the root one function at a time, as a NumPy scalar power: the
        # array power differs from it in the last bit on some values, and a
        # function's norm must not depend on the stack it comes in
        norms = np.reshape([total ** (1.0 / p) for total in sums.flat],
                           sums.shape)
    norms = np.ldexp(norms, e)
    return float(norms) if norms.ndim == 0 else norms


def boundary_tail_ratio(values):
    """max |f| on the outermost lattice faces divided by max |f| overall,
    for the physical samples of one function.

    Periodization silently wraps anything alive near the box edge; boxes
    are chosen to keep this below ~1e-14 for Gaussian-type data.
    """
    a = np.abs(values)
    peak = a.max()
    if peak == 0.0:
        return 0.0
    edge = 0.0
    for axis in range(a.ndim):
        for idx in (0, -1):
            face = np.take(a, idx, axis=axis)
            edge = max(edge, float(np.max(face)))
    return float(edge / peak)


# -- dealiased products --------------------------------------------------------
#
# A product of k functions is a k-fold spectral convolution; evaluated
# pointwise on the stock lattice it aliases modes beyond N/2 into the band.
# On a fine lattice of M >= (k+1) N / 2 points per axis (same box) every
# retained mode is exact.  Padding and cropping place modes by index: mode m
# sits in slot m mod N of a stock axis and in slot m mod M of a fine one.  Both
# helpers take stacks with leading batch axes, so a sum of products is
# formed on the fine lattice and transformed back in one call.


def fine_grid(grid, k):
    """Lattice on which products of k functions on grid are alias-free in band."""
    m = -(-(k + 1) * grid.points_per_axis // 2)  # exact for any int k
    return SpectralGrid(grid.dim, m + (m % 2), grid.half_width)


@lru_cache(maxsize=8)
def _band_slots(grid, fine):
    """Index of grid's slots among fine's slots, and fine's inverse_values
    factor at those slots (in grid's slots)."""
    slots = _axis_modes(grid.points_per_axis) % fine.points_per_axis
    index = (Ellipsis,) + np.ix_(*[slots] * grid.dim)
    factor = _outer(inverse_axis_factor(fine)[slots], grid.dim)
    for arr in index[1:] + (factor,):
        arr.setflags(write=False)
    return index, factor


@lru_cache(maxsize=8)
def _fine_slots(grid, fine):
    """_band_slots over all of fine's slots: a mask of grid's band, and the
    band's factor with 1 in every other slot."""
    index, factor = _band_slots(grid, fine)
    band = np.zeros(fine.shape, bool)
    band[index] = True
    fine_factor = np.ones(fine.shape)
    fine_factor[index] = factor
    for arr in (band, fine_factor):
        arr.setflags(write=False)
    return band, fine_factor


def _to_fine_slots(grid, values, fine):
    """values on grid's band (behind any leading axes) in fine's slots, 0
    in every other slot; the dtype is kept."""
    values = np.asarray(values)
    out = np.zeros(values.shape[:values.ndim - grid.dim] + fine.shape,
                   values.dtype)
    out[_band_slots(grid, fine)[0]] = values
    return out


def padded_inverse(grid, hats, fine):
    """Physical samples on fine of the functions whose transforms on grid
    are hats (a stack: any leading axes index functions)."""
    factor = _band_slots(grid, fine)[1]
    out = _to_fine_slots(grid, np.multiply(hats, factor, dtype=complex), fine)
    return _per_axis(np.fft.ifft, out, grid.dim, out=out)


def cropped_forward(grid, values, fine):
    """Transforms on grid (our normalization) of a stack of physical samples
    on fine, cropped to grid's band."""
    index, factor = _band_slots(grid, fine)
    return _per_axis(np.fft.fft, values, grid.dim)[index] / factor


# -- serialization -------------------------------------------------------------


def load_grid_function(path_base):
    """(grid, physical samples) from <base>.csv rows (index, re, im) and the
    <base>.json grid header (dim, points_per_axis, half_width, side).

    The index column must be a permutation of 0 .. N^d - 1 (the row-major
    position of each sample); a "frequency"-side file holds transform
    samples with the modes of each axis from -N/2 up, which are moved to
    the FFT's slot order and inverse-transformed here.
    """
    with open(path_base + ".json") as fh:
        header = json.load(fh)
    grid = SpectralGrid(header["dim"], header["points_per_axis"],
                        header["half_width"])
    side = header["side"]
    if side not in ("physical", "frequency"):
        raise ValueError(f"unknown side {side!r}")
    data = np.loadtxt(path_base + ".csv", delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    if data.shape != (grid.size, 3):
        raise ValueError(f"expected {grid.size} rows (index, re, im) for "
                         f"grid, got an array of shape {data.shape}")
    order = np.argsort(data[:, 0])
    if not np.array_equal(data[order, 0], np.arange(grid.size)):
        raise ValueError("index column is not a permutation of "
                         f"0 .. {grid.size - 1}")
    values = (data[order, 1] + 1j * data[order, 2]).reshape(grid.shape)
    if side == "frequency":
        values = inverse_values(grid, np.fft.ifftshift(values))
    return grid, values
