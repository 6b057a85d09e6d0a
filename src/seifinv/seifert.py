"""Seifert fibration data and Brieskorn sphere constructors.

A Seifert fibration is recorded by its normalized invariant
(g; b; alphas, betas): the base orbifold, the smooth degree b of the
defining line V-bundle L0 and its cone-point weights betas with
0 < beta_i < alpha_i and gcd(alpha_i, beta_i) = 1.  The fibration's
rational degree is

    ell = b + sum beta_i / alpha_i.

Brieskorn spheres Sigma(a, b, c) for pairwise coprime a, b, c >= 2 are
oriented as links of complex surface singularities, which fixes

    ell = -1/(abc)

and determines each beta_i by the congruence
beta_i * (abc / alpha_i) = -1 (mod alpha_i).  Every value downstream
(eta invariants, Floer gradings, plumbing forms) assumes this
orientation convention.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Tuple

from seifinv.numkernel import InvariantError, integers
from seifinv.orbifold import Orbifold, VLineBundle, rational_degree


class SeifertData(namedtuple("SeifertData", "base betas smooth_degree")):
    """Normalized Seifert invariant (g; b; alphas, betas)."""

    __slots__ = ()

    def __new__(cls, base: Orbifold, betas: Tuple[int, ...], smooth_degree: int):
        smooth_degree, *betas = integers((smooth_degree, *betas), "smooth degree and betas")
        if len(betas) != base.num_cone_points:
            raise ValueError("one beta per cone point required")
        for a, b in zip(base.alphas, betas):
            if not 0 < b < a:
                raise ValueError(f"beta = {b} not normalized for alpha = {a}")
            if gcd(a, b) != 1:
                raise ValueError(f"(alpha, beta) = ({a}, {b}) not coprime")
        return super().__new__(cls, base, tuple(betas), smooth_degree)

    @property
    def alphas(self) -> Tuple[int, ...]:
        return self.base.alphas

    @property
    def ell(self) -> Fraction:
        return rational_degree(defining_bundle(self))


def defining_bundle(N: SeifertData) -> VLineBundle:
    """The line V-bundle L0 whose unit circle bundle is N."""
    return VLineBundle(N.base, N.smooth_degree, N.betas)


def brieskorn(a: int, b: int, c: int) -> SeifertData:
    """Seifert data of the Brieskorn sphere Sigma(a, b, c), oriented as the
    link of x^a + y^b + z^c = 0 (so ell = -1/(abc))."""
    triple = integers((a, b, c), "Brieskorn exponents")
    for t in triple:
        if t < 2:
            raise ValueError(f"Brieskorn exponents must be >= 2, got {t}")
    for i in range(3):
        for j in range(i + 1, 3):
            if gcd(triple[i], triple[j]) != 1:
                raise ValueError(f"exponents must be pairwise coprime, got {triple}")
    abc = triple[0] * triple[1] * triple[2]
    betas = []
    for alpha in triple:
        # beta * (abc/alpha) = -1 (mod alpha)
        cofactor = (abc // alpha) % alpha
        betas.append((-pow(cofactor, -1, alpha)) % alpha)
    ell = Fraction(-1, abc)
    smooth = ell - sum(Fraction(bi, ai) for ai, bi in zip(triple, betas))
    if smooth.denominator != 1:
        raise InvariantError(f"smooth degree {smooth} of Sigma{triple} is not integral")
    N = SeifertData(Orbifold(0, triple), tuple(betas), int(smooth))
    if N.ell != ell:
        raise InvariantError(f"Sigma{triple} has ell = {N.ell}, expected {ell}")
    return N


def is_homology_sphere(N: SeifertData) -> bool:
    """True iff N has the integral homology of the 3-sphere: genus-0 base,
    pairwise coprime isotropies, and |ell| * prod(alpha_i) = 1."""
    if N.base.genus != 0:
        return False
    alphas = N.base.alphas
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            if gcd(alphas[i], alphas[j]) != 1:
                return False
    prod = 1
    for a in alphas:
        prod *= a
    return abs(N.ell) * prod == 1
