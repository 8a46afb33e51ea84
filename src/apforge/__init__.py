"""apforge: verification and search toolkit for arithmetic progressions of
unlike perfect powers.

Subpackages:
  exactmath   exact rationals, binary forms, univariate polynomials
  numfield    arithmetic in the corpus number fields
  parametrize the ternary-equation parametrization families
  sieve       residue pre-filters of the searches; every modulus lives here
  searcher    sieved exhaustive progression searches
  curves      curve models, point counts over F_p and F_{p^2}, Jacobian orders
  points      rational point search and local solvability
  genus       genus classification of the fibre-product covers
  curvelab    case derivations and typed fact checks
  cli         command-line entry point
"""

__version__ = "0.1.0"
