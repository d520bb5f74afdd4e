"""Fractional heat semigroup, Duhamel solver, and blow-up diagnostics.

The linear flow is the Fourier multiplier exp(-t |xi|^beta).  The nonlinear
problem

    d_t u + (-Delta)^{beta/2} u = u^k,    u(0) = u0

is advanced by exponential time differencing: the stiff linear symbol is
applied exactly each step and the nonlinearity enters through the phi_1
weight, with the |xi| -> 0 limit taken analytically.  Pointwise powers are
dealiased by zero padding so that every retained mode of u^k is an exact
k-fold spectral convolution; this is what keeps the Fourier-positivity
diagnostics meaningful.  The solver's state lives on the padded lattice
for the whole run (the band's slots hold u_hat, the others 0), so a step
is two per-axis transforms and an update, with no padding or cropping.
The steps run in chunks of SOLVE_BATCH_VALUES // N^d steps: within a chunk
only the steps run, and the chunk's norms, FL^1 norms and sup norms are
then taken in one stacked call each.  Steps computed past a detection are
dropped.

Alongside the time stepper the module builds the iterated-integral series
whose terms solve the Duhamel equation order by order.  The terms stay on
the frequency side, and their products are formed on the dealiasing lattice
for a batch of time slices at once.  It also evaluates the closed-form lower
envelopes that force divergence of that series for Fourier-positive data
with a large enough plateau, and certifies the corresponding hypotheses
(plateau height, support radius, volume condition) on the lattice.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
import math

import numpy as np

from .modnorm import ModNormSpec, UniformPartition, mod_norms_from_frequency
from .spectral import (FREQUENCY, GridFunction, SpectralGrid, _band_slots,
                       _fine_slots, _per_axis, _to_fine_slots,
                       apply_multiplier, cropped_forward, fine_grid,
                       forward_transform, heat_symbol, inverse_transform,
                       inverse_values, padded_inverse)

E = math.e


# -- linear flow ---------------------------------------------------------------


def linear_propagate(f, t, beta):
    """Apply the semigroup multiplier exp(-t |xi|^beta); t >= 0."""
    if t < 0:
        raise ValueError("negative time in linear_propagate")
    return apply_multiplier(f, heat_symbol(f.grid, t, beta))


def phi1(z):
    """(1 - e^{-z}) / z with the z -> 0 limit 1, stable for all z >= 0."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z > 1e-12
    out[nz] = -np.expm1(-z[nz]) / z[nz]
    return out


def phi2(z):
    """(e^{-z} - 1 + z) / z^2 with the z -> 0 limit 1/2 and the z -> inf
    limit 0."""
    z = np.asarray(z, dtype=float)
    out = np.full_like(z, np.nan)
    nz = (z > 1e-6) & (z <= 1e150)
    out[nz] = (np.expm1(-z[nz]) + z[nz]) / z[nz] ** 2
    # beyond 1e150, 1/z^2 is below 1/z's rounding (and z^2 would overflow)
    big = z > 1e150
    out[big] = 1.0 / z[big]
    small = z <= 1e-6
    zs = z[small]
    out[small] = 0.5 - zs / 6.0 + zs ** 2 / 24.0
    return out


# -- problem / config / trace ---------------------------------------------------


@dataclass
class HeatProblem:
    beta: float
    k: int
    u0: GridFunction
    norm_spec: ModNormSpec = field(default_factory=lambda: ModNormSpec(2.0, 1.0, 0.0))
    # +1 solves d_t u + (-Delta)^{beta/2} u = +u^k; -1 flips the source sign
    # (the Fourier-positive blow-up mechanism only operates with +1).
    source_sign: int = 1

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("nonlinearity exponent k must be >= 2")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not np.all(np.isfinite(self.u0.values)):
            raise ValueError("u0 must be finite everywhere")
        if self.source_sign not in (1, -1):
            raise ValueError("source_sign must be +1 or -1")


@dataclass
class SolverConfig:
    dt: float
    t_max: float
    blowup_threshold: float = None  # default: 1e6 x initial norm
    scheme: str = "ETD1"
    snapshot_every: int = 0  # 0 disables field snapshots

    def __post_init__(self):
        if not 0 < self.dt < self.t_max:
            raise ValueError("need 0 < dt < t_max")
        steps = self.t_max / self.dt
        if not (math.isfinite(steps)
                and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValueError(f"t_max {self.t_max!r} is not a whole multiple "
                             f"of dt {self.dt!r}")
        if self.scheme not in ("ETD1", "ETD2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.blowup_threshold is not None and not self.blowup_threshold > 0:
            raise ValueError("blow-up threshold must be positive")


@dataclass
class SolutionTrace:
    times: list
    norms: list          # modulation norm per recorded time
    fl1_norms: list
    linf_norms: list
    blowup_detected: bool
    t_detect: float = None
    overflow: bool = False
    snapshots: list = field(default_factory=list)  # (t, physical values)
    stop_reason: str = "t_max"  # "threshold", "overflow" or "t_max"
    steps_discarded: int = 0    # steps computed but not recorded

    def rows(self):
        """CSV rows (t, norm_Mp1, norm_FL1, linf, blowup_flag)."""
        last = len(self.times) - 1
        for i, t in enumerate(self.times):
            flag = 1 if (self.blowup_detected and i == last) else 0
            yield (t, self.norms[i], self.fl1_norms[i], self.linf_norms[i], flag)


# Working-set cap of solve: grid values in one chunk of steps, whose
# diagnostics are taken together (the chunk's buffer holds its fine-lattice
# states, ((k+1)/2)^d times as many values); on the flow benchmark 2^13
# gained less than the run-to-run spread.
SOLVE_BATCH_VALUES = 1 << 12


def solve(problem, config, partition=None):
    """March the Duhamel equation with an exponential integrator.

    Records the chosen modulation norm, the FL^1 norm and the sup norm at
    every step and stops early, with blow-up flagged, once the norm passes
    the threshold or the state stops being finite (overflow counts as
    detection at the last finite time).  The state stays on the
    dealiasing lattice fine_grid(grid, k) in DFT-order slots (u_hat on the
    band, 0 elsewhere), so each source evaluation is the padded product
    without the padding and cropping.  Steps run in chunks of
    SOLVE_BATCH_VALUES // grid.size (at least one): a chunk runs only the
    ETD steps, then gathers its band once and takes the norms, FL^1 and sup
    norms of all its steps in one stacked call each.  Steps a chunk
    computed past the detection are dropped and counted in
    steps_discarded.
    """
    g = problem.u0.grid
    if partition is None:
        partition = UniformPartition(g)
    fine = fine_grid(g, problem.k)
    band, fine_factor = _fine_slots(g, fine)
    # |xi|^beta may overflow: such modes decay in one step (phi_j(inf) = 0)
    with np.errstate(over="ignore"):
        z = config.dt * g.freq_magnitude ** problem.beta
    decay = _to_fine_slots(g, np.exp(-z), fine)
    w1 = _to_fine_slots(g, config.dt * phi1(z), fine)
    w2 = (_to_fine_slots(g, config.dt * phi2(z), fine)
          if config.scheme == "ETD2" else None)
    work = np.empty(fine.shape, complex)

    def source(u, out):
        """source_sign * u^k in out's band slots: padded_inverse, the
        power and cropped_forward without leaving the fine lattice.  out
        starts zeroed, and the slots off the band stay 0."""
        a = np.multiply(u, fine_factor, out=work)
        _per_axis(np.fft.ifft, a, g.dim, out=a)
        a **= problem.k
        _per_axis(np.fft.fft, a, g.dim, out=a)
        # like the crop, ignores whatever overflows off the band
        np.divide(a, fine_factor, out=out, where=band)
        out *= problem.source_sign
        return out

    u_hat = forward_transform(problem.u0).values
    spec = problem.norm_spec
    init_norm = float(mod_norms_from_frequency(u_hat, spec, partition))
    threshold = config.blowup_threshold
    if threshold is None:
        threshold = 1e6 * init_norm if init_norm > 0 else 1e6
    if init_norm >= threshold:
        raise ValueError("blow-up threshold must exceed the initial norm")

    vol = g.freq_spacing ** g.dim
    lattice = tuple(range(1, g.dim + 1))
    times = [0.0]
    norms = [init_norm]
    fl1 = [float(vol * np.sum(np.abs(u_hat)))]
    linf = [float(np.max(np.abs(problem.u0.values)))]
    snapshots = []
    if config.snapshot_every > 0:
        snapshots.append((0.0, problem.u0.values.copy()))

    n_steps = int(round(config.t_max / config.dt))
    hats = np.empty((max(1, SOLVE_BATCH_VALUES // g.size),) + fine.shape,
                    complex)
    u = _to_fine_slots(g, u_hat, fine)
    n_vals = np.zeros(fine.shape, complex)
    n_stage = np.zeros(fine.shape, complex) if w2 is not None else None
    band_index = _band_slots(g, fine)[0]
    t = 0.0
    step = computed = 0
    stop = "t_max"
    while step < n_steps and stop == "t_max":
        chunk_times = []
        # steps past the detection are dropped, and may overflow meanwhile
        with np.errstate(over="ignore", invalid="ignore"):
            while len(chunk_times) < min(len(hats), n_steps - step):
                source(u, n_vals)
                # u may be this slot (one-step chunks): it is read first
                new = np.multiply(decay, u, out=hats[len(chunk_times)])
                new += w1 * n_vals
                if w2 is not None:
                    new += w2 * (source(new, n_stage) - n_vals)
                t += config.dt
                computed += 1
                if not np.isfinite(new).all():
                    stop = "overflow"
                    break
                u = new
                chunk_times.append(t)
            chunk = hats[:len(chunk_times)][band_index]
            if len(chunk):
                chunk_norms = mod_norms_from_frequency(chunk, spec, partition)
                chunk_fl1 = vol * np.sum(np.abs(chunk), axis=lattice)
                values = inverse_values(g, chunk)
                chunk_linf = np.max(np.abs(values), axis=lattice)
        for i, t_i in enumerate(chunk_times):
            step += 1
            nom = float(chunk_norms[i])
            times.append(t_i)
            norms.append(nom)
            fl1.append(float(chunk_fl1[i]))
            linf.append(float(chunk_linf[i]))
            if config.snapshot_every > 0 and (step % config.snapshot_every == 0
                                              or step == n_steps):
                snapshots.append((t_i, values[i].copy()))
            if not math.isfinite(nom) or nom > threshold:
                stop = "threshold"
                break

    detected = stop != "t_max"
    return SolutionTrace(times, norms, fl1, linf, detected,
                         times[-1] if detected else None, stop == "overflow",
                         snapshots, stop, computed - (len(times) - 1))


# -- blow-up hypothesis certification --------------------------------------------


def unit_ball_volume(d):
    """Volume of the Euclidean unit ball; exact small-d values avoid roundoff."""
    if d == 1:
        return 2.0
    if d == 2:
        return math.pi
    if d == 3:
        return 4.0 * math.pi / 3.0
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass
class BlowupHypothesis:
    gamma: float
    r: float
    beta: float
    k: int
    d: int

    def __post_init__(self):
        if min(self.gamma, self.r, self.beta) <= 0 or self.k < 2 or self.d < 1:
            raise ValueError("hypothesis parameters out of range")

    @property
    def gamma_bound(self):
        return 4.0 * self.r ** self.beta * (self.k - 1) * E

    @property
    def horizon(self):
        """Time by which the witness series is forced to diverge."""
        return 1.0 / (4.0 * self.r ** self.beta * (self.k - 1))


@dataclass
class ConditionReport:
    name: str
    value: float
    bound: float
    margin: float
    passed: bool


@dataclass
class HypothesisCertificate:
    conditions: list
    horizon: float

    @property
    def all_passed(self):
        return all(c.passed for c in self.conditions)

    def condition(self, name):
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def certify_hypothesis(h, u0):
    """Check every blow-up condition on the lattice; failures are reported, not raised."""
    g = u0.grid
    if g.dim != h.d:
        raise ValueError("hypothesis dimension does not match the grid")
    F = forward_transform(u0)
    re = F.values.real
    im = F.values.imag
    scale = float(np.max(np.abs(F.values)))
    conds = []

    vol = h.r ** h.d * unit_ball_volume(h.d)
    conds.append(ConditionReport("volume", vol, 2.0 ** h.d,
                                 vol - 2.0 ** h.d, vol >= 2.0 ** h.d))

    min_re = float(re.min())
    max_im = float(np.max(np.abs(im)))
    tol = 1e-12 * max(scale, 1.0)
    positive = min_re >= -tol and max_im <= tol
    conds.append(ConditionReport("fourier_nonnegative", min_re, 0.0,
                                 min_re, positive))

    ball = g.freq_magnitude <= h.r
    if np.any(ball):
        min_on_ball = float(re[ball].min())
    else:
        min_on_ball = math.inf  # no lattice point inside the ball: vacuous
    conds.append(ConditionReport("plateau_lower_bound", min_on_ball, h.gamma,
                                 min_on_ball - h.gamma, min_on_ball >= h.gamma))

    lhs = h.gamma ** (h.k - 1)
    conds.append(ConditionReport("gamma_threshold", lhs, h.gamma_bound,
                                 lhs - h.gamma_bound, lhs >= h.gamma_bound))

    return HypothesisCertificate(conds, h.horizon)


def ball_indicator(grid, r):
    """chi over the Euclidean ball of radius r, sampled on the frequency lattice."""
    return (grid.freq_magnitude <= r).astype(float)


def plateau_data(grid, gamma, r):
    """Initial data built spectrally: Fourier transform exactly gamma on the ball.

    In one dimension this is the periodized version of
    gamma * sqrt(2/pi) * sin(r x) / x.
    """
    F = GridFunction(grid, gamma * ball_indicator(grid, r), FREQUENCY)
    return inverse_transform(F)


# -- iterated Duhamel series -----------------------------------------------------


def term_index(j, k):
    """Series label of the j-th constructed term: j k - (j - 1) = j (k-1) + 1."""
    return j * (k - 1) + 1


def lambda_index_set(j, k):
    """Admissible ordered k-tuples feeding the j-th term of the series.

    Entries are earlier term labels t(k-1)+1 with 0 <= t < j, and the labels
    in each tuple sum to the current label j(k-1)+1 = jk - (j-1).
    """
    if j < 1 or k < 2:
        raise ValueError("need j >= 1 and k >= 2")
    allowed = [term_index(t, k) for t in range(j)]
    target = term_index(j, k)
    return {tup for tup in product(allowed, repeat=k) if sum(tup) == target}


@dataclass
class PicardResult:
    grid: SpectralGrid
    term_indices: list   # series labels, [1, k, 2k-1, ...]
    spectra: list        # frequency values per term, shape (n_t, *grid.shape)
    t_grid: np.ndarray
    sup_norms: list      # modulation norm maxima over the time grid
    ratios: list         # sup_norms[i+1] / sup_norms[i]
    summable: bool

    @property
    def trajectories(self):
        """Physical values per term, inverse-transformed on every access."""
        return [inverse_values(self.grid, F) for F in self.spectra]


def _cumulative_weights(t_grid):
    """Quadrature weights over [0, t_i] for every i (composite Simpson family).

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


def _multiset_products(tuples):
    """Group ordered tuples by multiset; returns (count, sorted_tuple) pairs."""
    counts = Counter(tuple(sorted(t)) for t in tuples)
    return [(c, key) for key, c in sorted(counts.items())]


# Working-set cap of picard_terms: fine-lattice values per padded term in
# one batch of time slices (64 KiB); 2^14 raised peak memory of repeated
# runs by ~3.5 % and was no faster.
PICARD_BATCH_VALUES = 1 << 12


def picard_terms(problem, depth, t_grid, partition=None):
    """First `depth` terms of the iterated-integral series on a uniform t grid.

    Term 0 is the linear flow of the data; term j >= 1 integrates the
    admissible products of earlier terms against the semigroup kernel
    (composite Simpson in the Duhamel variable), padding each earlier term
    once per batch of time slices.  Growth of the term norms is flagged,
    but the terms are still returned.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0 with at least two points")
    g = problem.u0.grid
    if partition is None:
        partition = UniformPartition(g)
    k = problem.k
    n_t = len(t_grid)
    symbase = g.freq_magnitude ** problem.beta
    W = _cumulative_weights(t_grid)
    fine = fine_grid(g, k)
    batch = max(1, PICARD_BATCH_VALUES // fine.size)

    u0_hat = forward_transform(problem.u0).values
    spectra = {1: np.exp(-np.multiply.outer(t_grid, symbase)) * u0_hat}
    indices = [1]
    for j in range(1, depth):
        combos = _multiset_products(lambda_index_set(j, k))
        labels = sorted({lab for _, key in combos for lab in key})
        prod_hat = np.empty((n_t,) + g.shape, dtype=complex)
        for lo in range(0, n_t, batch):
            padded = {lab: padded_inverse(g, spectra[lab][lo:lo + batch], fine)
                      for lab in labels}
            acc = 0.0
            for count, key in combos:
                term = count * padded[key[0]]
                for lab in key[1:]:
                    term *= padded[lab]
                acc += term
            prod_hat[lo:lo + batch] = cropped_forward(g, acc, fine)
        term_f = np.zeros((n_t,) + g.shape, dtype=complex)
        for i in range(1, n_t):
            kernel = np.exp(-np.multiply.outer(t_grid[i] - t_grid[:i + 1],
                                               symbase))
            term_f[i] = np.tensordot(W[i, :i + 1],
                                     kernel * prod_hat[:i + 1], axes=(0, 0))
        indices.append(term_index(j, k))
        spectra[indices[-1]] = term_f

    sup_norms = [float(mod_norms_from_frequency(
        spectra[idx], problem.norm_spec, partition).max()) for idx in indices]
    ratios = [sup_norms[i + 1] / sup_norms[i] if sup_norms[i] > 0 else math.inf
              for i in range(len(sup_norms) - 1)]
    summable = bool(ratios) and ratios[-1] < 1.0
    return PicardResult(g, indices, [spectra[i] for i in indices], t_grid,
                        sup_norms, ratios, summable)


# -- lower-bound envelopes and the divergence witness ----------------------------


def _envelope(h, i, t, mag):
    """gamma^i e^{-4 r^beta (k-1) m t} t^m e^{-t |xi|^beta} on the ball
    |xi| <= r (zero outside) at |xi| = mag, with m = (i-1)/(k-1).  The
    hidden constant is taken to be 1; any slack is measured separately."""
    if (i - 1) % (h.k - 1) != 0:
        raise ValueError(f"series index {i} is not of the form m(k-1)+1")
    m = (i - 1) // (h.k - 1)
    env = (h.gamma ** i
           * math.exp(-4.0 * h.r ** h.beta * (h.k - 1) * m * t)
           * t ** m * np.exp(-t * mag ** h.beta))
    return env * (mag <= h.r)


def lower_bound_sequence(h, i, t, xi):
    """Closed-form lower envelope for the i-th series term at (t, xi)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return float(_envelope(h, i, t, math.sqrt(np.sum(xi * xi))))


def lower_bound_envelope(h, i, t, grid):
    """The same envelope over the frequency lattice."""
    return _envelope(h, i, t, grid.freq_magnitude)


@dataclass
class WitnessResult:
    terms: list
    partial_sums: list
    ratio: float
    hypothesis_ok: bool
    label: str

    @property
    def divergent(self):
        return self.hypothesis_ok and self.ratio >= 1.0 - 1e-12


def divergence_witness(h, T, i_max):
    """Partial sums of the L^1-lower-bound series evaluated at time T.

    Term j is gamma^{(j-1)(k-1)+1} e^{-4 r^beta (k-1)(j-1) T} T^{j-1} |B(r)|;
    consecutive terms have the constant ratio gamma^{k-1} T e^{-4 r^beta (k-1) T},
    so ratio >= 1 certifies divergence of the witness series.
    """
    vol = unit_ball_volume(h.d) * h.r ** h.d
    decay = 4.0 * h.r ** h.beta * (h.k - 1)
    terms = [h.gamma ** ((j - 1) * (h.k - 1) + 1)
             * math.exp(-decay * (j - 1) * T) * T ** (j - 1) * vol
             for j in range(1, i_max + 1)]
    sums = list(np.cumsum(terms))
    ratio = h.gamma ** (h.k - 1) * T * math.exp(-decay * T)
    ok = (h.gamma ** (h.k - 1) >= h.gamma_bound) and (T >= h.horizon)
    if not ok:
        label = "no divergence guarantee (hypothesis preconditions fail)"
    elif ratio >= 1.0 - 1e-12:
        label = "divergent"
    else:
        label = "inconclusive (term ratio below 1 at this T)"
    return WitnessResult(terms, sums, ratio, ok, label)
