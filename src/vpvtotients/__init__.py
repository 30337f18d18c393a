"""Exact arithmetic for generalized Ramanujan/Cohen sums, Jordan-type
totients, visible-point lattice rearrangements, and the audit registry that
verifies each catalogued identity.

Subpackages and modules:
  exactcore  -- factorization/Moebius/Bernoulli/Stirling primitives, exact rationals
  totients   -- c_k(n_1..n_m), Jordan totients, the phi_t family
  series     -- truncated power series over Fraction coefficients
  analytic   -- zeta, Dirichlet partial sums, Jacobi theta evaluation
  vpv        -- visible-point enumeration and rearrangement checks
  audit      -- identity registry, audit runner, report serialization
  cli        -- command-line front end
"""

__version__ = "0.1.0"
