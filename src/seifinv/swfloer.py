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
(level n_p) counts the upward crossings at the levels in (rho, n_p) and
the downward ones at their reflections 2 rho - n, i.e. at the levels in
(2 rho - n_p, rho), where rho in [0, 1) is the holonomy of the canonical
representative:

    SF(p) = #{q in B : rho < n_q < n_p} - #{q in B : 2 rho - n_p < n_q < rho},

and the gradings are

    n_+(p) = -2 SF(p) - 1,        n_-(p) = n_+(p) + 1.

All exponents of the resulting Poincare polynomial

    P_{a,b,c}(T) = sum_{p in Delta} T^{n_+(p)}

are odd by construction.  The first gap m(P) is the least m >= 0 with
vanishing coefficient at T^-(2m+1), and the bound assembled downstream is
Z = 8 m(P) + F(N).

Every vortex level satisfies n_p <= n0 = n_(0,0,0), so no level at or
below 2 rho - n0 is ever counted, and the level table keeps only the
levels above it.

The grading depends on p only through its level n_p, so it is computed
once per level, from one level table of one byte per box weight.  The box
weights w = x bc + y ac + z ab are pairwise distinct, because w fixes
x mod a, y mod b and z mod c; so the levels n0 - w are distinct integers,
and mark[w] = 1 in a bytearray of about 2 n0 bytes stands for the level
n0 - w with no count lost.  The positive levels are exactly the levels of
the points of Delta, one each: n_q > 0 iff 2 w_q < abc kappa, i.e. the
marks below n0.  So one walk down those marks (rfind) meets Delta's levels
in ascending order, each one's index among them counting the positive
levels below it, and counts the marks of each widening interval
(2 rho - n_p, rho) as it goes: P(T) is read off the marks, with no sort
and no point of Delta built.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import ceil, floor
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from seifinv.eta import froyshov_F, trivial_flat_context
from seifinv.numkernel import InvariantError, integers
from seifinv.orbifold import Orbifold, VLineBundle, rational_degree
from seifinv.seifert import SeifertData, brieskorn

#: Largest abc whose weight box B = [0,a) x [0,b) x [0,c) is enumerated;
#: larger triples are refused with ValueError.  The level table walks only
#: the box points with x/a + y/b + z/c < 2 c0, about kappa^3/6 of B, and
#: keeps one byte per weight up to 2 n0, so at abc = 10^7 `froyshov` peaks
#: at about 66 MB.
MAX_BOX_POINTS = 10**7


class DeltaPoint(namedtuple("DeltaPoint", "x y z")):
    __slots__ = ()


class LaurentPolynomial:
    """Integer-coefficient Laurent polynomial in one variable T.

    Stored sparsely as {exponent: coefficient}, zero coefficients never
    kept.  Prints in ascending exponent order with explicit T^-k terms;
    the zero polynomial prints "0".
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Dict[int, int] | None = None):
        coeffs = coeffs or {}
        terms = zip(integers(coeffs, "exponents"), integers(coeffs.values(), "coefficients"))
        self._coeffs = {e: c for e, c in terms if c}

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "LaurentPolynomial":
        """The sum of T^e over the given integer exponents, repeats counted.
        A Counter holds no zero count, so its dict is taken as it is."""
        P = cls.__new__(cls)
        P._coeffs = dict(Counter(exponents))
        return P

    def coeff(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def terms(self) -> List[Tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def exponents(self) -> List[int]:
        return sorted(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(self.terms()))

    def _render(self, latex: bool) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                power = ""
            elif e == 1:
                power = "T"
            elif latex and not 0 <= e <= 9:
                power = f"T^{{{e}}}"
            else:
                power = f"T^{e}"
            size = abs(c)
            term = power if size == 1 and power else f"{size}{power}"
            parts.append(f" - {term}" if c < 0 else f" + {term}")
        text = "".join(parts)
        # the leading term keeps only its sign
        return f"-{text[3:]}" if text[1] == "-" else text[3:]

    def __str__(self) -> str:
        return self._render(latex=False)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._coeffs!r})"

    def latex(self) -> str:
        return self._render(latex=True).replace(" ", "")

    def to_json(self) -> Dict[str, int]:
        return {str(e): c for e, c in self.terms()}


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


def _box_slices(a: int, b: int, c: int, top: int) -> Iterator[Tuple[int, int, int, int]]:
    """The slices (x, y) of the weight box B in lexicographic order, as
    (x, y, w_xy, run) with w_xy = x bc + y ac: the points (x, y, z) of B
    with weight x bc + y ac + z ab <= top are those with z < run.  Only
    slices with run > 0 are yielded, so nothing is walked when top < 0."""
    bc, ac, ab = b * c, a * c, a * b
    for x in range(a):
        wx = x * bc
        if wx > top:
            break
        for y in range(b):
            wy = wx + y * ac
            if wy > top:
                break
            yield x, y, wy, min(c, (top - wy) // ab + 1)


def enumerate_delta(a: int, b: int, c: int) -> List[DeltaPoint]:
    """Lattice points of Delta(a, b, c), in lexicographic order.

    Membership is the strict inequality x/a + y/b + z/c < kappa/2; in
    particular Delta is empty whenever kappa <= 0.
    """
    _box_sized(a, b, c)
    # 2(x bc + y ac + z ab) < abc * kappa, as integers: w <= (abc kappa - 1) // 2
    top = (a * b * c - b * c - a * c - a * b - 1) // 2
    return [DeltaPoint(x, y, z) for x, y, _, run in _box_slices(a, b, c, top) for z in range(run)]


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
    return VLineBundle(Orbifold(0, (a, b, c)), 0, p)


def energies(points: Sequence[DeltaPoint], a: int, b: int, c: int) -> List[Fraction]:
    """E(p) = (deg L_p - kappa/2)^2 / ell for each point p of Delta(a, b, c);
    always <= 0 here since ell < 0.  The triple's ell and kappa are
    computed once for all points.

    The overall normalization constant of the flow energy is omitted: E
    is used only to label and order critical points.

    Over integers: deg L_p - kappa/2 = (2 w - abc kappa) / (2 abc) with
    w = x bc + y ac + z ab and abc kappa = abc - bc - ac - ab, so
    E(p) = (2 w - abc kappa)^2 / (4 abc^2 ell), one Fraction per point.
    """
    ell = brieskorn(a, b, c).ell
    abc = a * b * c
    abc_kappa = abc - b * c - a * c - a * b
    den = 4 * abc * abc * ell.numerator
    out = []
    for p in points:
        if not in_delta(p, a, b, c):
            raise ValueError(f"{p} lies outside Delta({a}, {b}, {c})")
        out.append(Fraction((2 * _weight(p, a, b, c) - abc_kappa) ** 2 * ell.denominator, den))
    return out


def _reducible_data(N: SeifertData) -> Tuple[Fraction, Fraction]:
    """(c0, rho): the degree and fiber holonomy of the reducible's flat
    connection, the canonical representative of the trivial class."""
    ctx = trivial_flat_context(N)
    return rational_degree(ctx.coupling), ctx.rho


def _level_table(a: int, b: int, c: int) -> Tuple[int, Fraction, bytearray]:
    """The integer levels n_q = (deg L_q - c0)/ell that a grading can count,
    as (n0, rho, mark) with n0 = abc * c0 and the reducible holonomy rho.

    A box point q has level n0 - w_q, w_q = x bc + y ac + z ab.  Only levels
    above 2 rho - n0 are ever counted, so only the weights
    w <= top = 2 n0 - floor(2 rho) - 1 are walked, and `mark` is a bytearray
    of top + 1 bytes (none when Delta is empty and top < 0) with mark[w] = 1
    iff w is the weight of a box point: the level n0 - w is positive
    (Delta's) iff w < n0."""
    N = _box_sized(a, b, c)
    c0, rho = _reducible_data(N)
    n0 = c0 * a * b * c
    if n0.denominator != 1:
        raise InvariantError(f"reducible level origin {n0} of ({a},{b},{c}) is not integral")
    n0 = int(n0)
    top = 2 * n0 - floor(2 * rho) - 1
    ab = a * b
    mark = bytearray(max(0, top + 1))
    ones = memoryview(b"\x01" * c)
    for _, _, w, run in _box_slices(a, b, c, top):
        mark[w : w + (run - 1) * ab + 1 : ab] = ones[:run]
    return n0, rho, mark


def _gradings(table: Tuple[int, Fraction, bytearray]) -> Iterator[Tuple[int, int]]:
    """The pairs (n, n_+) of every positive level n of a ``_level_table``
    and its grading, in ascending n; the grading is always odd.  A grading
    depends on a vortex only through its level, so each is computed once
    per level, in one walk down Delta's weights (up its levels) that counts
    the marks of the non-positive levels as it goes.  The pairs are yielded
    as they are made, so a caller that only counts the gradings keeps none
    of them, and the table is released when the walk ends."""
    n0, rho, mark = table
    # levels are integers and 0 <= rho < 1: (rho, n_p) is [1, n_p - 1], the
    # positive levels below n_p, counted by the index pos; (2 rho - n_p, rho)
    # is [floor(2 rho) - n_p + 1, ceil(rho) - 1], which is the weights
    # [n0 + 1 - ceil(rho), n0 + n_p - floor(2 rho)), growing with n_p
    end = 2 * n0 - floor(2 * rho)
    neg, start = 0, n0 + 1 - ceil(rho)
    pos, w = 0, mark.rfind(1, 0, n0)
    while w >= 0:
        stop = end - w
        neg += mark.count(1, start, stop)
        start = stop
        # odd by construction, so nothing to check here; the tests check it against a box oracle
        yield n0 - w, 2 * neg - 2 * pos - 1
        pos, w = pos + 1, mark.rfind(1, 0, w)


def graded_delta(a: int, b: int, c: int) -> List[Tuple[DeltaPoint, int]]:
    """Each point p of Delta(a, b, c), in lexicographic order, paired with
    the grading n_+(p) of its holomorphic vortex; always odd.  One level
    table serves every point.

    The positive levels n_q > 0 are exactly the levels of the points of
    Delta, one each: n_q > 0 iff 2 w_q < abc * kappa."""
    table = _level_table(a, b, c)
    n0, gradings = table[0], dict(_gradings(table))
    graded = []
    for p in enumerate_delta(a, b, c):
        n_p = n0 - _weight(p, a, b, c)
        n = gradings.get(n_p)
        if n is None:
            raise InvariantError(f"vortex level {n_p} at {p} of ({a},{b},{c}) is not positive")
        graded.append((p, n))
    return graded


def poincare_polynomial(a: int, b: int, c: int) -> LaurentPolynomial:
    """P(T) = sum over Delta of T^(n_+(p)); twice it is the Poincare
    polynomial of the irreducible Floer complex.  All exponents odd.
    Read off the positive levels, one per point of Delta, counting each
    grading as the walk yields it."""
    return LaurentPolynomial.from_exponents(map(itemgetter(1), _gradings(_level_table(a, b, c))))


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
