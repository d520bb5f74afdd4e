"""modheat: spectral machinery for fractional heat flows in modulation norms.

A function on R^d is the ndarray of its samples on a SpectralGrid (physical
or frequency side), with the grid passed alongside; a stack of functions is
one array with leading axes.  A Hermite expansion is the ndarray of its
coefficients, a (degree_cap + 1,) * d tensor, and a stack of expansions is
one array with a leading axis.

Modules:
  spectral  - periodized Fourier transforms, the heat symbol, dealiased
              products
  modnorm   - frequency-uniform partition and the two modulation-norm estimators
  heat      - fractional heat semigroup, Duhamel solver, blow-up diagnostics
  hermite   - Hermite functions, coefficient tensors and the fractional
              oscillator heat propagator
  torus     - toroidal Fourier multipliers and operator-norm bracketing
  cli       - experiment runner (`modheat <subcommand> --config ...`)
"""

__version__ = "0.1.0"
