"""Seiberg-Witten critical-point combinatorics of Brieskorn spheres.

For a Brieskorn homology sphere Sigma(a, b, c) the irreducible critical
points of the adiabatic Seiberg-Witten flow come in pairs indexed by the
lattice simplex

    Delta(a, b, c) = {(x, y, z) >= 0 : x/a + y/b + z/c < kappa/2,
                      x < a, y < b, z < c},

kappa = 1 - (1/a + 1/b + 1/c) the degree of the canonical bundle.  A point
p carries the vortex bundle L_p (smooth degree 0, weights (x, y, z)) and
the energy E(p) = nu(L_p)^2 / ell with nu(L) = deg L - kappa/2.

Gradings.  Relative to the reducible, the grading n_+(p) of the
holomorphic vortex is minus the expected dimension of the space of
trajectories down to the reducible.  That dimension is the spectral flow
of the fiberwise Dirac family joining the determinant-flat connection to
the vortex connection.  Along this family the eigenvalue ladder moves
through one integer level per tensoring by the fibration bundle L0, and a
level crosses zero with multiplicity one exactly when it carries an
effective bundle of smooth degree 0, i.e. a point of the full weight box
B = [0,a) x [0,b) x [0,c).  Writing

    n_q = (deg L_q - c0) / ell    (an integer; c0 = degree of the
                                   canonical representative of the
                                   trivial class, n_q > 0 iff q in Delta)

the signed crossing count between the reducible (level 0) and the vortex
(level n_p) is

    SF(p) = #{q in B : 0 < n_q < n_p} - #{q in B : -n_p < n_q < 0},

and the gradings are

    n_+(p) = -2 SF(p) - 1,        n_-(p) = n_+(p) + 1.

All exponents of the resulting Poincare polynomial

    P_{a,b,c}(T) = sum_{p in Delta} T^{n_+(p)}

are odd by construction.  The first gap m(P) is the least m >= 0 with
vanishing coefficient at T^-(2m+1), and the bound assembled downstream is
Z = 8 m(P) + F(N).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from seifinv.eta import froyshov_F
from seifinv.numkernel import InvariantError
from seifinv.orbifold import (
    Orbifold,
    VLineBundle,
    canonical_representative,
    rational_degree,
    trivial_bundle,
)
from seifinv.seifert import SeifertData, brieskorn, defining_bundle

#: Largest abc whose weight box B = [0,a) x [0,b) x [0,c) is materialised.
#: The level table holds one int per box point, about 47 bytes each, so
#: 10^7 points is about 0.5 GB; larger triples are refused with ValueError.
MAX_BOX_POINTS = 10**7


@dataclass(frozen=True, order=True)
class DeltaPoint:
    x: int
    y: int
    z: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)


class LaurentPolynomial:
    """Integer-coefficient Laurent polynomial in one variable T.

    Stored sparsely as {exponent: coefficient}, zero coefficients never
    kept.  Prints in ascending exponent order with explicit T^-k terms;
    the zero polynomial prints "0".
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Dict[int, int] | None = None):
        self._coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "LaurentPolynomial":
        """The sum of T^e over the given exponents, repeats counted."""
        return cls(Counter(exponents))

    def coeff(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def terms(self) -> List[Tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def exponents(self) -> List[int]:
        return sorted(self._coeffs)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    def shift(self, delta: int) -> "LaurentPolynomial":
        """Multiply by T^delta."""
        return LaurentPolynomial({e + delta: c for e, c in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(self.terms()))

    @staticmethod
    def _term_str(e: int, c: int, latex: bool) -> str:
        if e == 0:
            return str(c)
        if latex:
            power = "T" if e == 1 else (f"T^{e}" if 0 <= e <= 9 else f"T^{{{e}}}")
        else:
            power = "T" if e == 1 else f"T^{e}"
        if c == 1:
            return power
        if c == -1:
            return f"-{power}"
        return f"{c}{power}"

    def _render(self, latex: bool) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.terms():
            term = self._term_str(e, c, latex)
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append(f" - {term[1:]}")
            else:
                parts.append(f" + {term}")
        return "".join(parts)

    def __str__(self) -> str:
        return self._render(latex=False)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._coeffs!r})"

    def latex(self) -> str:
        return self._render(latex=True).replace(" ", "")

    def to_json(self) -> Dict[str, int]:
        return {str(e): c for e, c in self.terms()}

    @classmethod
    def from_json(cls, data: Dict[str, int]) -> "LaurentPolynomial":
        return cls({int(e): int(c) for e, c in data.items()})


def _box_sized(a: int, b: int, c: int) -> SeifertData:
    """Seifert data of Sigma(a, b, c), refusing triples whose weight box
    has more than MAX_BOX_POINTS points."""
    N = brieskorn(a, b, c)
    if a * b * c > MAX_BOX_POINTS:
        raise ValueError(
            f"abc = {a * b * c} exceeds {MAX_BOX_POINTS}: the weight box "
            f"of ({a},{b},{c}) is too large to enumerate"
        )
    return N


def canonical_degree(a: int, b: int, c: int) -> Fraction:
    """kappa = 1 - (1/a + 1/b + 1/c)."""
    return 1 - Fraction(1, a) - Fraction(1, b) - Fraction(1, c)


def enumerate_delta(a: int, b: int, c: int) -> List[DeltaPoint]:
    """Lattice points of Delta(a, b, c), in lexicographic order.

    Membership is the strict inequality x/a + y/b + z/c < kappa/2; in
    particular Delta is empty whenever kappa <= 0.
    """
    _box_sized(a, b, c)
    abc = a * b * c
    # 2(x bc + y ac + z ab) < abc * kappa, as integers
    bound = abc - b * c - a * c - a * b
    points = []
    for x in range(a):
        wx = 2 * x * b * c
        if wx >= bound:
            break
        for y in range(b):
            wy = wx + 2 * y * a * c
            if wy >= bound:
                break
            for z in range(c):
                if wy + 2 * z * a * b >= bound:
                    break
                points.append(DeltaPoint(x, y, z))
    return points


def _weight(p: DeltaPoint, a: int, b: int, c: int) -> int:
    """abc * deg L_p = x bc + y ac + z ab."""
    return p.x * b * c + p.y * a * c + p.z * a * b


def in_delta(p: DeltaPoint, a: int, b: int, c: int) -> bool:
    inside = 2 * _weight(p, a, b, c) < a * b * c - b * c - a * c - a * b
    return inside and 0 <= p.x < a and 0 <= p.y < b and 0 <= p.z < c


def vortex_bundle(p: DeltaPoint, a: int, b: int, c: int) -> VLineBundle:
    """The line V-bundle L_p with deg|L_p| = 0 and weights (x, y, z)."""
    if not in_delta(p, a, b, c):
        raise ValueError(f"{p} lies outside Delta({a}, {b}, {c})")
    return VLineBundle(Orbifold(0, (a, b, c)), 0, p.as_tuple())


def energies(points: Sequence[DeltaPoint], a: int, b: int, c: int) -> List[Fraction]:
    """E(p) = (deg L_p - kappa/2)^2 / ell for each point p of Delta(a, b, c);
    always <= 0 here since ell < 0.  The triple's ell and kappa are
    computed once for all points.

    The overall normalization constant of the flow energy is omitted: E
    is used only to label and order critical points.
    """
    ell = brieskorn(a, b, c).ell
    half_kappa = canonical_degree(a, b, c) / 2
    out = []
    for p in points:
        if not in_delta(p, a, b, c):
            raise ValueError(f"{p} lies outside Delta({a}, {b}, {c})")
        nu = Fraction(_weight(p, a, b, c), a * b * c) - half_kappa
        out.append(nu**2 / ell)
    return out


def _reducible_data(N: SeifertData) -> Tuple[Fraction, Fraction]:
    rep, _, rho = canonical_representative(trivial_bundle(N.base), defining_bundle(N))
    return rational_degree(rep), rho


def _level_table(a: int, b: int, c: int) -> Tuple[int, Fraction, List[int]]:
    """All integer levels n_q = (deg L_q - c0)/ell over the weight box,
    sorted ascending, with N0 = abc * c0 and the reducible holonomy rho."""
    N = _box_sized(a, b, c)
    c0, rho = _reducible_data(N)
    n0 = c0 * a * b * c
    if n0.denominator != 1:
        raise InvariantError(f"reducible level origin {n0} of ({a},{b},{c}) is not integral")
    n0 = int(n0)
    wbc, wac, wab = b * c, a * c, a * b
    levels = []
    for x in range(a):
        wx = n0 - x * wbc
        for y in range(b):
            wy = wx - y * wac
            levels.extend(wy - z * wab for z in range(c))
    levels.sort()
    return n0, rho, levels


def _count_open(levels: List[int], lo, hi) -> int:
    """Number of levels strictly inside (lo, hi)."""
    return bisect_left(levels, hi) - bisect_right(levels, lo)


def _grading_from_levels(n_p: int, rho: Fraction, levels: List[int]) -> int:
    if n_p <= 0:
        raise ValueError("vortex level must be positive")
    # upward crossings sit at levels in (rho, n_p), downward ones at
    # 2 rho - n for n in (rho, n_p), i.e. at levels in (2 rho - n_p, rho)
    pos = _count_open(levels, rho, n_p)
    neg = _count_open(levels, 2 * rho - n_p, rho)
    return 2 * neg - 2 * pos - 1


def graded_delta(a: int, b: int, c: int) -> List[Tuple[DeltaPoint, int]]:
    """Each point p of Delta(a, b, c), in lexicographic order, paired with
    the grading n_+(p) of its holomorphic vortex; always odd.  One level
    table serves every point."""
    delta = enumerate_delta(a, b, c)
    if not delta:
        return []
    n0, rho, levels = _level_table(a, b, c)
    graded = []
    for p in delta:
        n = _grading_from_levels(n0 - _weight(p, a, b, c), rho, levels)
        if n % 2 == 0:
            raise InvariantError(f"vortex grading {n} at {p} of ({a},{b},{c}) is even")
        graded.append((p, n))
    return graded


def poincare_polynomial(a: int, b: int, c: int) -> LaurentPolynomial:
    """P(T) = sum over Delta of T^(n_+(p)); twice it is the Poincare
    polynomial of the irreducible Floer complex.  All exponents odd."""
    return LaurentPolynomial.from_exponents(n for _, n in graded_delta(a, b, c))


def gap_m(P: LaurentPolynomial) -> int:
    """Least m >= 0 with vanishing coefficient at T^-(2m+1)."""
    m = 0
    while P.coeff(-(2 * m + 1)) != 0:
        m += 1
    return m


def froyshov_Z(a: int, b: int, c: int) -> Fraction:
    """Z = 8 m(P) + F(N), the computable upper bound for the Froyshov
    invariant of Sigma(a, b, c)."""
    P = poincare_polynomial(a, b, c)
    return 8 * gap_m(P) + froyshov_F(brieskorn(a, b, c))
