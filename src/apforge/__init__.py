"""apforge: verification and search toolkit for arithmetic progressions of
unlike perfect powers.

Modules:
  exactmath   exact rationals, binary forms, univariate polynomials
  padic       p-adic valuations, squares in Q_p, Z_p-solvability, Hensel lifting
  numfield    arithmetic in the corpus number fields
  parametrize the ternary-equation parametrization families and the two
              infinite progression families
  sieve       residue pre-filters; every modulus and the numpy block budget
  searcher    sieved exhaustive progression searches
  curves      curve models, point counts over F_p and F_{p^2}, Jacobian orders
  points      rational point search and local solvability
  genus       genus classification of the fibre-product covers
  curvelab    case derivations and typed fact checks
  corpus      corpus loader: families, cases and facts parsed and checked at load
  cli         command-line entry point
"""

__version__ = "0.1.0"
