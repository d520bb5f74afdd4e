"""Frozen regression constants.

The norm equivalences, embeddings, and slack factors used by the checks have
no explicit analytic constants, so each one was measured once on the frozen
seeded corpora (see tools/measure_constants.py) and recorded here with
margin.  Tests treat these as regression baselines: a failure means the
numerics moved, not that a theorem broke.
"""

# Bracket for the decomposition-estimator (2,2,0) norm over the quadrature
# L^2 norm (measured range 0.80 .. 0.87 on the mixed corpus).
M22_OVER_L2_LO = 0.6
M22_OVER_L2_HI = 1.0

# One-sided constant C for the STFT estimator over the decomposition
# estimator, spec (2,1,0): ratios stay in [1/C, C] (measured 1.41 .. 1.55).
CROSS_ESTIMATOR_CONST = 3.0

# Cap on ||fg|| / (||f|| ||g||) in the (2,1) norm for the Gaussian test pair
# (measured 0.457).
ALGEBRA_DEFECT_CAP = 0.7

# ||f||_{FL^1} <= C ||f||_{M^{2,1}} on the frozen corpus, d = 1
# (measured max 1.22).
FL1_EMBEDDING_CONST = 1.6

# Uniform-boundedness constant for the linear semigroup sweep: max norm ratio
# over the 10-function corpus across t in {0.01, 0.1, 1, 10} (measured 1.000).
PROPAGATOR_UNIFORM_CONST = 1.1

# Bracket for ||F f|| / ||f|| in the (2,2,0) norm, with the transform measured
# on the dual grid (measured range 0.905 .. 1.026).
FOURIER_ISO_LO = 0.7
FOURIER_ISO_HI = 1.4

# Global slack S: computed series terms dominate the closed-form lower
# envelope divided by S, for terms i <= 6, k = 2, on the plateau data
# (measured worst ratio 0.358, i.e. S >= 2.80).
PICARD_DOMINATION_SLACK = 4.0

# Transference slack: modulation-norm decay ratio of the oscillator heat flow
# over the torus Young bound, absorbing window/equivalence constants
# (measured max ratio/young 0.615).
TRANSFER_SLACK = 1.25

# Empirical decay constant: sup over t in [0.05, 5] of
# ||e^{-tH^beta} f|| e^{t d^beta} t^{d/beta} / ||f||  for d = 1,
# beta in {1, 2}, p in {1, 2, 4}, frozen Hermite family (measured 0.102).
DECAY_PROFILE_CONST = 0.5
