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
whose terms solve the Duhamel equation order by order, on a uniform time
grid.  The terms stay on the frequency side.  Batches of time slices are
the outer loop: in each, every term's products are formed on the
dealiasing lattice from the earlier terms, each padded once, and each
term's Duhamel integral over its products advances one slice at a time:
the kernel exp(-(t_i - t_s)|xi|^beta) is a semigroup, so the composite
Simpson and 3/8 sums follow a one-step recurrence that keeps a running
sum and the last three product slices, O(t_points) work per term.  The
terms' sups over time come from one max_mod_norm call, which at p != 2
evaluates exactly only the slices whose bound can still beat their term's
largest norm found: the Parseval bound, or an evaluated neighbour's norm
plus the Parseval bound of the difference, which is small between slices
close in time.  The terms prune in lockstep, each round's slices of every
term in one engine call.  The module also evaluates the closed-form lower
envelopes that force divergence of that series for Fourier-positive data
with a large enough plateau, and certifies the corresponding hypotheses
(plateau height, support radius, volume condition) on the lattice.
"""

from collections import Counter
from dataclasses import dataclass, field
import math

import numpy as np

from .modnorm import (ModNormSpec, UniformPartition, max_mod_norm,
                      mod_norms_from_frequency)
from .spectral import (SpectralGrid, _band_slots, _fine_slots, _per_axis,
                       _to_fine_slots, cropped_forward, fine_grid,
                       forward_values, heat_symbol, inverse_values,
                       padded_inverse)


# -- exponential-integrator weights ---------------------------------------------


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
    grid: SpectralGrid
    u0: np.ndarray  # physical samples on grid
    norm_spec: ModNormSpec = field(default_factory=lambda: ModNormSpec(2.0, 1.0, 0.0))
    # +1 solves d_t u + (-Delta)^{beta/2} u = +u^k; -1 flips the source sign
    # (the Fourier-positive blow-up mechanism only operates with +1).
    source_sign: int = 1

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("nonlinearity exponent k must be >= 2")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if np.shape(self.u0) != self.grid.shape:
            raise ValueError(f"u0 has shape {np.shape(self.u0)}, the grid "
                             f"{self.grid.shape}")
        if not np.all(np.isfinite(self.u0)):
            raise ValueError("u0 must be finite everywhere")
        if self.source_sign not in (1, -1):
            raise ValueError("source_sign must be +1 or -1")


@dataclass
class SolverConfig:
    dt: float
    t_max: float
    blowup_threshold: float = None  # default: 1e6 x initial norm
    scheme: str = "ETD1"

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
    final_state: np.ndarray = None  # physical values at times[-1]
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

# Largest array a run may allocate, in values (64 MiB complex): solve's
# chunk buffer on the dealiasing lattice, which is at least as large as a
# batch of one padded Picard term; the CLI also checks its configs' grids,
# partitions, corpora, Picard terms and neighbour-bound pairs against it.
MAX_LATTICE_VALUES = 1 << 22


def check_lattice(grid, k):
    """Steps in one of solve's chunks; ValueError if the chunk's buffer on
    fine_grid(grid, k) would exceed MAX_LATTICE_VALUES.  Sized without
    allocating anything."""
    steps = max(1, SOLVE_BATCH_VALUES // grid.size)
    size = steps * fine_grid(grid, k).size
    if size > MAX_LATTICE_VALUES:
        raise ValueError(f"products of k = {k} factors need {size} values "
                         "on the dealiasing lattice, above the bound "
                         f"{MAX_LATTICE_VALUES}")
    return steps


def solve(problem, config, partition=None):
    """March the Duhamel equation with an exponential integrator.

    Records the chosen modulation norm, the FL^1 norm and the sup norm at
    every step, and the physical state at the last recorded time.  Stops
    early, with blow-up flagged, once the norm passes the threshold or the
    state stops being finite (overflow counts as detection at the last
    finite time).  The state stays on the
    dealiasing lattice fine_grid(grid, k) in its slots (u_hat on the
    band, 0 elsewhere), so each source evaluation is the padded product
    without the padding and cropping.  Steps run in chunks of
    SOLVE_BATCH_VALUES // grid.size (at least one): a chunk runs only the
    ETD steps, then gathers its band once and takes the norms, FL^1 and sup
    norms of all its steps in one stacked call each.  Finiteness is
    checked once per chunk, on that band gather, and the chunk is cut at
    its first non-finite step.  Steps a chunk computed past the detection
    are dropped and counted in steps_discarded, up to that first
    non-finite one.
    """
    g = problem.grid
    per_chunk = check_lattice(g, problem.k)
    if partition is None:
        partition = UniformPartition(g)
    fine = fine_grid(g, problem.k)
    band, fine_factor = _fine_slots(g, fine)
    # |xi|^beta may overflow: such modes decay in one step (phi_j(inf) = 0)
    with np.errstate(over="ignore"):
        z = config.dt * g.freq_magnitude ** problem.beta
    decay = _to_fine_slots(g, np.exp(-z), fine)
    # the weights carry source_sign (exact: a negation)
    sign = problem.source_sign
    w1 = _to_fine_slots(g, sign * config.dt * phi1(z), fine)
    w2 = (_to_fine_slots(g, sign * config.dt * phi2(z), fine)
          if config.scheme == "ETD2" else None)
    work = np.empty(fine.shape, complex)

    def source(u, out):
        """u^k in out's band slots: padded_inverse, the power and
        cropped_forward without leaving the fine lattice.  out starts
        zeroed, and the slots off the band stay 0."""
        a = np.multiply(u, fine_factor, out=work)
        _per_axis(np.fft.ifft, a, g.dim, out=a)
        a **= problem.k
        _per_axis(np.fft.fft, a, g.dim, out=a)
        # like the crop, ignores whatever overflows off the band
        return np.divide(a, fine_factor, out=out, where=band)

    u_hat = forward_values(g, problem.u0)
    spec = problem.norm_spec
    init_norm = float(mod_norms_from_frequency(u_hat, [spec], partition)[0])
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
    linf = [float(np.max(np.abs(problem.u0)))]
    final = problem.u0

    n_steps = int(round(config.t_max / config.dt))
    hats = np.empty((per_chunk,) + fine.shape, complex)
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
            for new in hats[:min(len(hats), n_steps - step)]:
                source(u, n_vals)
                # u may be this slot (one-step chunks): it is read first
                np.multiply(decay, u, out=new)
                if w2 is None:
                    new += np.multiply(n_vals, w1, out=n_vals)
                else:
                    new += w1 * n_vals
                    stage = source(new, n_stage)
                    stage -= n_vals
                    new += np.multiply(stage, w2, out=stage)
                u = new
                t += config.dt
                chunk_times.append(t)
            chunk = hats[:len(chunk_times)][band_index]
            # every slot off the band is 0: a chunk that overflows ends at
            # its first non-finite step, the last one counted as computed
            finite = np.isfinite(chunk).all(axis=lattice)
            if finite.all():
                computed += len(chunk)
            else:
                stop = "overflow"
                bad = int(np.argmin(finite))
                computed += bad + 1
                chunk_times, chunk = chunk_times[:bad], chunk[:bad]
            if len(chunk):
                chunk_norms = mod_norms_from_frequency(
                    chunk, [spec], partition)[0]
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
            if not math.isfinite(nom) or nom > threshold:
                stop = "threshold"
                break
        if chunk_times:
            final = values[i]

    detected = stop != "t_max"
    return SolutionTrace(times, norms, fl1, linf, detected,
                         times[-1] if detected else None, final, stop,
                         computed - (len(times) - 1))


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
    def envelope_rate(self):
        """4 r^beta (k-1): the envelopes decay as e^{-4 r^beta (k-1) m t}."""
        return 4.0 * self.r ** self.beta * (self.k - 1)

    @property
    def gamma_bound(self):
        return self.envelope_rate * math.e

    @property
    def horizon(self):
        """Time by which the witness series is forced to diverge."""
        return 1.0 / self.envelope_rate

    def envelope_factor(self, m, t):
        """The factor without xi of the m-th envelope at one time t:
        gamma^{m(k-1)+1} e^{-4 r^beta (k-1) m t} t^m."""
        return (self.gamma ** (m * (self.k - 1) + 1)
                * math.exp(-self.envelope_rate * m * t) * t ** m)


@dataclass
class ConditionReport:
    name: str
    value: float
    bound: float
    margin: float
    passed: bool


def certify_hypothesis(h, g, u0):
    """A ConditionReport of every blow-up condition, checked on the lattice
    for the physical samples u0 on grid g; failures are not raised."""
    if g.dim != h.d:
        raise ValueError("hypothesis dimension does not match the grid")
    F = forward_values(g, u0)
    re = F.real
    im = F.imag
    scale = float(np.max(np.abs(F)))
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

    return conds


def ball_indicator(grid, r):
    """chi over the Euclidean ball of radius r, sampled on the frequency lattice."""
    return (grid.freq_magnitude <= r).astype(float)


def plateau_data(grid, gamma, r):
    """Physical samples of initial data built spectrally: Fourier transform
    exactly gamma on the ball.

    In one dimension this is the periodized version of
    gamma * sqrt(2/pi) * sin(r x) / x.
    """
    return inverse_values(grid, gamma * ball_indicator(grid, r))


# -- iterated Duhamel series -----------------------------------------------------


def term_index(j, k):
    """Series label of the j-th constructed term: j k - (j - 1) = j (k-1) + 1."""
    return j * (k - 1) + 1


@dataclass
class PicardResult:
    grid: SpectralGrid
    term_indices: list   # series labels, [1, k, 2k-1, ...]
    spectra: list        # frequency values per term, shape (n_t, *grid.shape)
    t_grid: np.ndarray
    sup_norms: list      # modulation norm maxima over the time grid
    ratios: list         # sup_norms[i+1] / sup_norms[i]
    exact_evaluations: list  # slices per term the norm engine evaluated
    difference_bounds: list  # neighbour bounds per term (max_mod_norm)
    engine_calls: int    # engine calls that evaluated them (max_mod_norm)


def _partitions(n, parts, least=1):
    """Non-decreasing tuples of `parts` integers >= least summing to n, in
    lexicographic order; each choice of a leading entry leads to at least
    one tuple, so the time is proportional to the output."""
    if parts <= 1:
        if parts == 1 or n == 0:
            yield (n,) * parts
        return
    for first in range(least, n // parts + 1):
        for rest in _partitions(n - first, parts - 1, first):
            yield (first,) + rest


def _label_multisets(j, k):
    """The products feeding the j-th term: (count, key) for every multiset
    of k earlier labels summing to term_index(j, k), key sorted, count its
    number of orderings, in key order.

    The labels' term numbers sum to j - 1, so the multisets are the
    partitions of j - 1 into at most k positive parts, with term 0 filling
    the other slots.  Fewer parts means more leading term-0 labels, so key
    order runs over the number of parts, then over the parts in
    lexicographic order.
    """
    combos = []
    for parts in range(min(k, j - 1) + 1):
        for tail in _partitions(j - 1, parts):
            terms = (0,) * (k - parts) + tail
            count = math.factorial(k)
            for m in Counter(terms).values():
                count //= math.factorial(m)
            combos.append((count, tuple(term_index(t, k) for t in terms)))
    return combos


def picard_product_count(depth, k, limit):
    """Number of products picard_terms forms for its terms 1 .. depth - 1,
    or a number above limit once the count is known to exceed it.

    Term j has one product per partition of j - 1 into at most k parts.
    They are counted by admitting part sizes one at a time: for a part size
    m, c[n] += c[n - m] for increasing n is a running sum over each residue
    class of n mod m.  The total only grows with each part size, so the
    count stops as soon as it passes limit.  Counts are floats: exact below
    2^53, and inf rather than a wrapped integer above the float range.
    """
    n = max(depth - 1, 0)
    c = np.zeros(n)
    c[:1] = 1.0
    for m in range(1, min(k, n - 1) + 1):
        rows = np.zeros(-(-n // m) * m)
        rows[:n] = c
        c = np.cumsum(rows.reshape(-1, m), axis=0).ravel()[:n]
        if c.sum() > limit:
            break
    return c.sum()


# Working-set cap of picard_terms: fine-lattice values per padded term in
# one batch of time slices (64 KiB); 2^14 raised peak memory of repeated
# runs by ~3.5 % and was no faster.
PICARD_BATCH_VALUES = 1 << 12


class _DuhamelQuadrature:
    """The slices F[i] = sum_s w_is lags[i - s] P_s of one Picard term, for
    the composite rule in the Duhamel variable on a uniform grid of
    spacing tau: the trapezoid at i = 1, Simpson at even i, and at odd
    i >= 3 Simpson up to i - 3 spliced with a 3/8 panel on [i - 3, i].

    The kernel is a semigroup, lags[m] = E^m with E = lags[1], so the
    Simpson sums follow from the running sum A_s = E A_{s-1} + a_s P_s
    (a_0 = 1, a_s = 4 at odd s, 2 at even s > 0):

        F[1] = tau/2 (E P_0 + P_1)
        F[i] = tau/3 (E A_{i-1} + P_i)                                even i
        F[i] = lags[3] F[i-3] + 3 tau/8 (lags[3] P_{i-3}
               + 3 lags[2] P_{i-2} + 3 E P_{i-1} + P_i)   odd i (F[0] = 0)

    extend takes the product slices in time order, one batch at a time;
    between batches only A and the last three product slices are kept.
    """

    def __init__(self, lags, tau):
        self.lags = lags
        self.third = tau / 3.0
        self.half = tau / 2.0
        # the 3/8 panel's weights on P_{i-3}, P_{i-2}, P_{i-1} and P_i
        self.three_eighths = 3.0 * tau / 8.0
        if len(lags) > 3:
            self.panel = self.three_eighths * np.stack(
                [lags[3], 3.0 * lags[2], 3.0 * lags[1]])
        self.running = None
        self.recent = [None] * 3  # P_s at s mod 3

    def extend(self, F, lo, prods):
        """Fill F[lo:lo + len(prods)] from the product slices P_lo, ...;
        F[0] stays 0."""
        E = self.lags[1]
        recent = self.recent
        for s, P in enumerate(prods, lo):
            if s == 0:
                self.running = P.copy()
            else:
                A = self.running
                A *= E
                out = F[s]
                if s == 1:
                    np.multiply(E, recent[0], out=out)
                    out += P
                    out *= self.half
                elif s % 2 == 0:
                    np.add(A, P, out=out)
                    out *= self.third
                else:
                    w = self.panel
                    np.multiply(w[0], recent[s % 3], out=out)
                    out += w[1] * recent[(s - 2) % 3]
                    out += w[2] * recent[(s - 1) % 3]
                    out += self.three_eighths * P
                    if s >= 5:
                        out += self.lags[3] * F[s - 3]
                A += (4.0 if s % 2 else 2.0) * P
            recent[s % 3] = P


def picard_terms(problem, depth, t_grid, partition=None):
    """First `depth` terms of the iterated-integral series on a uniform t grid.

    Term 0 is the linear flow of the data; term j >= 1 integrates the
    admissible products of earlier terms against the semigroup kernel
    (composite Simpson in the Duhamel variable, a 3/8 panel spliced at the
    end for an odd panel count, the trapezoid for one panel).  The grid
    must be uniform (ValueError otherwise): the kernel
    e^{-(t_i - t_s)|xi|^beta} is then lags[i - s] of one lag table
    lags[m] = e^{-t_m |xi|^beta}, and lags[m] = lags[1]^m up to roundoff.

    Batches of time slices are the outer loop and terms the inner one.  In
    a batch each term, in label order, forms its products from the padded
    slices of the earlier terms, crops them, and hands the product slices
    in time order to its _DuhamelQuadrature, which fills each slice from
    the previous ones by the semigroup recurrence; between batches a term
    keeps one running sum and its last three product slices.  Its slices
    in the batch are then complete, and are padded once for the later
    terms (the last term is never padded).  The t = 0 slice of every term
    j >= 1 is 0, so its
    sup norm is taken over t > 0.  The sups come from one max_mod_norm
    call on all the terms, which prune in lockstep: at p != 2 the engine
    evaluates only the slices whose bound (Parseval, or from an evaluated
    neighbour) can still beat their term's largest norm found, every
    term's picks of a round in one engine call (engine_calls).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 2 or t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0 with at least two points")
    tau = t_grid[1]
    if not (tau > 0 and np.all(np.abs(np.diff(t_grid) - tau) <= 1e-9 * tau)):
        raise ValueError("t_grid must be uniform and increasing")
    g = problem.grid
    k = problem.k
    check_lattice(g, k)
    if partition is None:
        partition = UniformPartition(g)
    n_t = len(t_grid)
    lags = heat_symbol(g, t_grid, problem.beta)
    fine = fine_grid(g, k)
    batch = max(1, PICARD_BATCH_VALUES // fine.size)
    combos = [_label_multisets(j, k) for j in range(1, depth)]
    indices = [term_index(j, k) for j in range(depth)]

    u0_hat = forward_values(g, problem.u0)
    spectra = [lags * u0_hat] + [np.zeros((n_t,) + g.shape, dtype=complex)
                                 for _ in range(1, depth)]
    quadratures = [_DuhamelQuadrature(lags, tau) for _ in range(1, depth)]
    for lo in range(0, n_t, batch):
        hi = min(lo + batch, n_t)
        padded = {}
        for j in range(1, depth):
            # term j - 1's slices in this batch are complete
            padded[indices[j - 1]] = padded_inverse(g, spectra[j - 1][lo:hi],
                                                    fine)
            acc = 0.0
            for count, key in combos[j - 1]:
                term = count * padded[key[0]]
                for lab in key[1:]:
                    term *= padded[lab]
                acc += term
            quadratures[j - 1].extend(spectra[j], lo,
                                      cropped_forward(g, acc, fine))

    sups, engine_calls = max_mod_norm(
        [F if j == 0 else F[1:] for j, F in enumerate(spectra)],
        problem.norm_spec, partition)
    sup_norms = [float(sup) for sup, _, _ in sups]
    ratios = [sup_norms[i + 1] / sup_norms[i] if sup_norms[i] > 0 else math.inf
              for i in range(len(sup_norms) - 1)]
    return PicardResult(g, indices, spectra, t_grid, sup_norms, ratios,
                        [n for _, n, _ in sups], [n for _, _, n in sups],
                        engine_calls)


# -- lower-bound envelopes and the divergence witness ----------------------------


def lower_bound_envelope(h, i, t, grid):
    """Closed-form lower envelope for the i-th series term over the
    frequency lattice: h.envelope_factor(m, t) e^{-t |xi|^beta} on the ball
    |xi| <= r (zero outside), with m = (i-1)/(k-1).  The hidden constant is
    taken to be 1; any slack is measured separately.

    t is one time or a 1-D array of them; an array gives the envelopes
    stacked along a leading axis.  The factors without xi are taken per
    time, as for a single time, so the stack holds the single-time
    envelopes bit for bit."""
    if (i - 1) % (h.k - 1) != 0:
        raise ValueError(f"series index {i} is not of the form m(k-1)+1")
    m = (i - 1) // (h.k - 1)
    mag = grid.freq_magnitude
    times = np.atleast_1d(t)
    factors = np.array([h.envelope_factor(m, s) for s in times])
    lead = (len(times),) + (1,) * grid.dim
    env = factors.reshape(lead) * np.exp(-times.reshape(lead)
                                         * mag ** h.beta)
    env = env * (mag <= h.r)
    return env if np.ndim(t) else env[0]


def domination_ratios(h, res):
    """Per term of the PicardResult res, the least ratio Re u_hat / envelope
    over the ball |xi| <= r and the times t > 0 of its grid.

    An envelope that underflows to 0 bounds nothing: its ratio is inf, or
    nan where u_hat = 0, and a slice's nan minimum is skipped.
    OverflowError if an envelope is beyond the float range."""
    ball = res.grid.freq_magnitude <= h.r
    ratios = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for idx, spectra in zip(res.term_indices, res.spectra):
            env = lower_bound_envelope(h, idx, res.t_grid[1:],
                                       res.grid)[:, ball]
            if not np.all(np.isfinite(env)):
                raise OverflowError("non-finite envelope")
            mins = (spectra[1:].real[:, ball] / env).min(axis=1)
            ratios.append(float(np.fmin.reduce(mins, initial=math.inf)))
    return ratios


@dataclass
class WitnessResult:
    terms: list
    partial_sums: list
    ratio: float
    hypothesis_ok: bool

    @property
    def divergent(self):
        return self.hypothesis_ok and self.ratio >= 1.0 - 1e-12


def divergence_witness(h, i_max):
    """Partial sums of the L^1-lower-bound series at T = h.horizon.

    Term j is h.envelope_factor(j - 1, T) |B(r)|; consecutive terms have the
    constant ratio gamma^{k-1} T e^{-4 r^beta (k-1) T}, so ratio >= 1
    certifies divergence of the witness series.
    """
    vol = unit_ball_volume(h.d) * h.r ** h.d
    T = h.horizon
    terms = [h.envelope_factor(m, T) * vol for m in range(i_max)]
    sums = list(np.cumsum(terms))
    ratio = h.gamma ** (h.k - 1) * T * math.exp(-h.envelope_rate * T)
    return WitnessResult(terms, sums, ratio,
                         h.gamma ** (h.k - 1) >= h.gamma_bound)
