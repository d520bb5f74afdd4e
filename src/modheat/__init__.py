"""modheat: spectral machinery for fractional heat flows in modulation norms.

Subpackages:
  spectral  - periodized Fourier transforms, multipliers, dealiased products
  modnorm   - frequency-uniform partition and the two modulation-norm estimators
  heat      - fractional heat semigroup, Duhamel solver, blow-up diagnostics
  hermite   - Hermite transforms and the fractional oscillator heat propagator
  torus     - toroidal Fourier multipliers and operator-norm bracketing
  cli       - experiment runner (`modheat <subcommand> --config ...`)
"""

__version__ = "0.1.0"
