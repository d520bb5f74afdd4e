"""Discrete Fourier machinery on a truncated, periodized box.

Functions on R^d that decay fast enough are represented by their samples on a
uniform lattice over [-L, L)^d.  The forward transform approximates the
unitary angular-frequency Fourier transform

    F f(xi) = (2 pi)^{-d/2} * integral f(x) exp(-i x.xi) dx

by the trapezoid rule, which at the dual lattice xi = (pi/L) m,
-N/2 <= m_j < N/2, reduces to a scaled DFT.  The pair (forward, inverse) is
an exact two-sided inverse on the lattice, and discrete Parseval holds to
roundoff.  Grids and multiplier arrays are immutable after construction.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
import json

import numpy as np

PHYSICAL = "physical"
FREQUENCY = "frequency"


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
        n = self.points_per_axis
        return self.freq_spacing * np.arange(-n // 2, n // 2)

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


class GridFunction:
    """Complex samples of a function on a SpectralGrid, physical or frequency side."""

    __slots__ = ("grid", "values", "side")

    def __init__(self, grid, values, side=PHYSICAL):
        values = np.asarray(values, dtype=complex)
        if values.size != grid.size:
            raise ValueError(
                f"expected {grid.size} values for grid, got {values.size}")
        if side not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown side {side!r}")
        self.grid = grid
        self.values = values.reshape(grid.shape)
        self.side = side


def _alternating_axis(grid):
    """(-1)^m along one axis of the natural-order frequency lattice."""
    n = grid.points_per_axis
    return (-1.0) ** np.arange(-n // 2, n // 2)


def _outer(vec, dim):
    """Outer product of vec with itself over dim axes."""
    out = vec
    for _ in range(dim - 1):
        out = np.multiply.outer(out, vec)
    return out


@lru_cache(maxsize=16)
def _dft_index(n):
    """ifftshift of an axis of length n as an index: natural -> DFT order.
    For even n it is also fftshift's (DFT -> natural order), as on every
    grid's lattice."""
    index = (np.arange(n) + n // 2) % n
    index.setflags(write=False)
    return index


def dft_order(values, axes=None):
    """Frequency-side samples moved from natural lattice order to DFT order
    (np.fft.ifftshift, one gather per axis)."""
    values = np.asarray(values)
    if axes is None:
        axes = range(values.ndim)
    elif isinstance(axes, int):
        axes = (axes,)
    for axis in axes:
        values = np.take(values, _dft_index(values.shape[axis]), axis=axis)
    return values


def _per_axis(transform, values, dim, out=None):
    """transform (np.fft.fft or ifft) over the last dim axes of values, last
    axis first: the order of np.fft.fftn/ifftn, whose values it gives bit
    for bit without their n-d argument handling.  Each axis after the first
    runs in place; with out=values the first one does too."""
    for axis in range(-1, -dim - 1, -1):
        values = out = transform(values, axis=axis, out=out)
    return values


def inverse_axis_factor(grid):
    """One axis's share of inverse_transform's scale and phase, in DFT order.

    inverse_transform(F) is ifftn of dft_order(F.values) times the outer
    product of this vector over all axes, so a separable symbol can fold it
    into its per-axis rows and be inverse-transformed one axis at a time.
    """
    axis_scale = (2.0 * np.pi) ** -0.5 * grid.spacing
    return dft_order(_alternating_axis(grid) / axis_scale)


@lru_cache(maxsize=8)
def _factor_meshes(grid):
    """forward_values' scale and phase mesh (natural order) and
    inverse_values' (DFT order) on grid; read-only, made once per grid."""
    # x_j . xi_m = -pi m + 2 pi j m / N per axis, hence the (-1)^m phase.
    scale = (2.0 * np.pi) ** (-grid.dim / 2.0) * grid.spacing ** grid.dim
    meshes = (scale * _outer(_alternating_axis(grid), grid.dim),
              _outer(inverse_axis_factor(grid), grid.dim))
    for mesh in meshes:
        mesh.setflags(write=False)
    return meshes


def forward_values(grid, values):
    """forward_transform's frequency samples, for a stack of functions.

    values holds physical samples on grid in its last grid.dim axes; any
    leading axes index independent functions, transformed in one call.
    """
    # the lattice has even length, so dft_order is also fftshift here
    raw = dft_order(_per_axis(np.fft.fft, values, grid.dim),
                    axes=range(-grid.dim, 0))
    raw *= _factor_meshes(grid)[0]
    return raw


def forward_transform(f):
    """Trapezoid-rule Fourier transform onto the dual lattice.

    Linear in f and exact (to roundoff) as a map between trigonometric
    interpolants; matches the (2 pi)^{-d/2} convention.
    """
    if f.side != PHYSICAL:
        raise ValueError("forward_transform expects a physical-side function")
    return GridFunction(f.grid, forward_values(f.grid, f.values), FREQUENCY)


def inverse_values(grid, values):
    """inverse_transform's physical samples, for a stack of functions.

    values holds frequency samples on grid in its last grid.dim axes; any
    leading axes index independent functions, transformed in one call.
    """
    mesh = _factor_meshes(grid)[1]
    raw = np.multiply(dft_order(values, axes=range(-grid.dim, 0)), mesh,
                      dtype=complex)
    return _per_axis(np.fft.ifft, raw, grid.dim, out=raw)


def inverse_transform(F):
    """Exact two-sided inverse of forward_transform on the lattice."""
    if F.side != FREQUENCY:
        raise ValueError("inverse_transform expects a frequency-side function")
    return GridFunction(F.grid, inverse_values(F.grid, F.values), PHYSICAL)


def heat_symbol(grid, t, beta):
    """exp(-t |xi|^beta) sampled on the frequency lattice, for a time t or
    an array of times (leading axes).  The semigroup at t = 0 is the
    identity: exactly 1 there, also where |xi|^beta overflows."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-np.multiply.outer(t, grid.freq_magnitude ** beta))
    out[t == 0] = 1.0
    return out


def apply_multiplier(f, m):
    """F^{-1}(m . F f): apply a Fourier multiplier sampled on the frequency
    lattice.  Non-finite symbol values are rejected."""
    g = f.grid
    sym = np.asarray(m)
    if sym.shape != g.shape:
        raise ValueError("multiplier shape does not match frequency lattice")
    if not np.all(np.isfinite(sym)):
        raise ValueError("multiplier has non-finite values on the lattice")
    if f.side == FREQUENCY:
        return GridFunction(g, sym * f.values, FREQUENCY)
    F = forward_transform(f)
    return inverse_transform(GridFunction(g, sym * F.values, FREQUENCY))


def lp_norm(values, volume_element, p):
    """Rectangle-rule L^p norm; p = inf gives the max over samples."""
    a = np.abs(np.asarray(values))
    if np.isinf(p):
        return float(a.max()) if a.size else 0.0
    if p < 1:
        raise ValueError("p must be >= 1")
    return float((volume_element * np.sum(a ** p)) ** (1.0 / p))


def physical_lp_norm(f, p):
    return lp_norm(f.values, f.grid.spacing ** f.grid.dim, p)


def frequency_lp_norm(F, p):
    return lp_norm(F.values, F.grid.freq_spacing ** F.grid.dim, p)


def boundary_tail_ratio(f):
    """max |f| on the outermost lattice faces divided by max |f| overall.

    Periodization silently wraps anything alive near the box edge; boxes
    are chosen to keep this below ~1e-14 for Gaussian-type data.
    """
    a = np.abs(f.values)
    peak = a.max()
    if peak == 0.0:
        return 0.0
    edge = 0.0
    for axis in range(f.grid.dim):
        for idx in (0, -1):
            face = np.take(a, idx, axis=axis)
            edge = max(edge, float(np.max(face)))
    return float(edge / peak)


# -- dealiased products --------------------------------------------------------
#
# A product of k functions is a k-fold spectral convolution; evaluated
# pointwise on the stock lattice it aliases modes beyond N/2 into the band.
# On a fine lattice of M >= (k+1) N / 2 points per axis (same box) every
# retained mode is exact.  Padding and cropping place modes by index, not by
# shifts: in DFT order mode m sits in slot m mod M of a fine axis.  Both
# helpers take stacks with leading batch axes, so a sum of products is
# formed on the fine lattice and transformed back in one call.


def fine_grid(grid, k):
    """Lattice on which products of k functions on grid are alias-free in band."""
    m = -(-(k + 1) * grid.points_per_axis // 2)  # exact for any int k
    return SpectralGrid(grid.dim, m + (m % 2), grid.half_width)


@lru_cache(maxsize=8)
def _band_slots(grid, fine):
    """Index of grid's modes among fine's DFT-order slots, and fine's
    inverse_transform factor at those slots (natural order of grid)."""
    n = grid.points_per_axis
    slots = np.arange(-n // 2, n // 2) % fine.points_per_axis
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
    """values on grid's band (natural order, behind any leading axes) in
    fine's DFT-order slots, 0 in every other slot; the dtype is kept."""
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


def dealiased_product(f, g):
    """Alias-free pointwise product of two physical-side grid functions."""
    if f.grid is not g.grid and f.grid != g.grid:
        raise ValueError("operands live on different grids")
    gr = f.grid
    fine = fine_grid(gr, 2)
    hats = forward_values(gr, np.stack([f.values, g.values]))
    a, b = padded_inverse(gr, hats, fine)
    prod = cropped_forward(gr, a * b, fine)
    return GridFunction(gr, inverse_values(gr, prod), PHYSICAL)


# -- serialization -------------------------------------------------------------


def save_grid_function(f, path_base):
    """Write <base>.csv rows (index, re, im) plus a <base>.json grid header."""
    flat = f.values.reshape(-1)
    with open(path_base + ".csv", "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(flat):
            fh.write(f"{i},{float(v.real)!r},{float(v.imag)!r}\n")
    header = {
        "dim": f.grid.dim,
        "points_per_axis": f.grid.points_per_axis,
        "half_width": f.grid.half_width,
        "side": f.side,
    }
    with open(path_base + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_grid_function(path_base):
    with open(path_base + ".json") as fh:
        header = json.load(fh)
    grid = SpectralGrid(header["dim"], header["points_per_axis"],
                        header["half_width"])
    data = np.loadtxt(path_base + ".csv", delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    order = np.argsort(data[:, 0])
    values = data[order, 1] + 1j * data[order, 2]
    return GridFunction(grid, values, header["side"])
