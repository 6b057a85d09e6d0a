"""seifinv: exact invariants of Seifert fibered 3-manifolds.

Computes, in exact rational arithmetic, the tower of invariants attached to
a Seifert fibration and in particular to Brieskorn homology spheres:

  * generalized Dedekind-Rademacher sums with a two-case reciprocity law
    and a Euclid-style fast evaluator;
  * eta invariants of adiabatic Dirac operators, both for pullback
    connections and for flat connections with fractional fiber holonomy;
  * the 8Z-valued spectral quantity F(N) entering the Froyshov-type bound,
    and the bound Z = 8m + F itself;
  * the Poincare polynomials of the irreducible Seiberg-Witten critical
    points of Brieskorn spheres, with their integer gradings;
  * Hirzebruch-Jung plumbing intersection forms and the characteristic
    vector invariant Theta of negative definite unimodular lattices.

Everything exact uses fractions.Fraction; numerical zeta-function series
are evaluated by seifinv.numkernel in integer fixed point at an explicit
decimal precision, with no floating-point library: mpmath serves the
tests and ``seifinv verify`` as an oracle only.
"""

from seifinv.numkernel import InvariantError, frac, sawtooth, psi2, hurwitz_zeta, riemann_zeta
from seifinv.dedekind import dr_sum_direct, dr_sum_fast, reciprocity_R
from seifinv.orbifold import Orbifold, VLineBundle
from seifinv.seifert import SeifertData, brieskorn
from seifinv.eta import froyshov_F, rohlin_check
from seifinv.swfloer import poincare_polynomial, froyshov_Z
from seifinv.lattice import plumbing_form, theta_invariant

__all__ = [
    "InvariantError",
    "frac",
    "sawtooth",
    "psi2",
    "hurwitz_zeta",
    "riemann_zeta",
    "dr_sum_direct",
    "dr_sum_fast",
    "reciprocity_R",
    "Orbifold",
    "VLineBundle",
    "SeifertData",
    "brieskorn",
    "froyshov_F",
    "rohlin_check",
    "poincare_polynomial",
    "froyshov_Z",
    "plumbing_form",
    "theta_invariant",
]

__version__ = "0.1.0"
