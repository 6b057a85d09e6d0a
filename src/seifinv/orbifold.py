"""2-orbifolds and line V-bundles over them.

An orbifold here is a closed oriented genus-g surface with m cone points of
cyclic isotropy orders alpha_i >= 2; the cone point locations play no role
in any implemented formula and are not modeled.

A line V-bundle L is stored by its desingularized (smooth) degree deg|L|
together with the normalized local weights 0 <= gamma_i < alpha_i at the
cone points.  Its rational degree is the derived quantity

    deg L = deg|L| + sum_i gamma_i / alpha_i,

so the realizability constraint "deg L - sum gamma_i/alpha_i is an integer"
holds by construction and tensor product (written additively) is
componentwise addition of weights with the integer carry absorbed into the
smooth degree.

The canonical bundle K has smooth degree 2g - 2 and weights alpha_i - 1;
the rational Euler characteristic is -deg K.  The index form of
Riemann-Roch on such an orbifold reads

    h0(L) - h0(K - L) = 1 - g + deg|L|.

For a fibration bundle L0 of rational degree ell != 0, each bundle class
mod Z L0 carries a fiber-holonomy invariant: the canonical representative
is the unique L' = L + k L0 with

    rho(L') = (deg K - 2 deg L') / (2 ell) in [0, 1),

and exp(2 pi i rho) is the holonomy of the determinant-flat connection
along a regular fiber.  ``holonomy_rho`` is the one place that evaluates
rho; ``canonical_representative`` finds k and certifies L' through it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Tuple

from seifinv.numkernel import InvariantError, integers


class Orbifold(namedtuple("Orbifold", "genus alphas")):
    """Closed oriented 2-orbifold of genus ``genus`` with cone points of
    orders ``alphas`` (each >= 2)."""

    __slots__ = ()

    def __new__(cls, genus: int, alphas: Tuple[int, ...]):
        genus, *alphas = integers((genus, *alphas), "genus and isotropy orders")
        if genus < 0:
            raise ValueError(f"genus must be >= 0, got {genus}")
        for a in alphas:
            if a < 2:
                raise ValueError(f"isotropy orders must be >= 2, got {a}")
        return super().__new__(cls, genus, tuple(alphas))

    @property
    def num_cone_points(self) -> int:
        return len(self.alphas)


class VLineBundle(namedtuple("VLineBundle", "base smooth_degree gammas")):
    """Line V-bundle: smooth degree plus normalized cone-point weights."""

    __slots__ = ()

    def __new__(cls, base: Orbifold, smooth_degree: int, gammas: Tuple[int, ...]):
        smooth_degree, *gammas = integers((smooth_degree, *gammas), "smooth degree and weights")
        if len(gammas) != base.num_cone_points:
            raise ValueError("one weight per cone point required")
        for g, a in zip(gammas, base.alphas):
            if not 0 <= g < a:
                raise ValueError(f"weight {g} not normalized for isotropy {a}")
        return super().__new__(cls, base, smooth_degree, tuple(gammas))


def rational_degree(L: VLineBundle) -> Fraction:
    """deg L = deg|L| + sum gamma_i / alpha_i."""
    deg = Fraction(L.smooth_degree)
    for g, a in zip(L.gammas, L.base.alphas):
        deg += Fraction(g, a)
    return deg


def trivial_bundle(S: Orbifold) -> VLineBundle:
    return VLineBundle(S, 0, (0,) * S.num_cone_points)


def canonical_bundle(S: Orbifold) -> VLineBundle:
    """K: smooth degree 2g - 2, weights alpha_i - 1."""
    return VLineBundle(S, 2 * S.genus - 2, tuple(a - 1 for a in S.alphas))


def euler_characteristic(S: Orbifold) -> Fraction:
    """Rational Euler characteristic 2 - 2g - sum (1 - 1/alpha_i) = -deg K."""
    chi = Fraction(2 - 2 * S.genus)
    for a in S.alphas:
        chi -= Fraction(a - 1, a)
    return chi


def add_bundles(L1: VLineBundle, L2: VLineBundle) -> VLineBundle:
    """Tensor product in additive notation; weights add mod alpha_i with the
    carry pushed into the smooth degree, so rational degrees add exactly."""
    if L1.base != L2.base:
        raise ValueError("bundles live over different orbifolds")
    smooth = L1.smooth_degree + L2.smooth_degree
    gammas = []
    for g1, g2, a in zip(L1.gammas, L2.gammas, L1.base.alphas):
        total = g1 + g2
        gammas.append(total % a)
        smooth += total // a
    return VLineBundle(L1.base, smooth, tuple(gammas))


def scale_bundle(L: VLineBundle, k: int) -> VLineBundle:
    """k-th tensor power (k may be negative; k = -1 is the dual)."""
    smooth = k * L.smooth_degree
    gammas = []
    for g, a in zip(L.gammas, L.base.alphas):
        total = k * g
        gammas.append(total % a)
        smooth += total // a
    return VLineBundle(L.base, smooth, tuple(gammas))


def subtract_bundles(L1: VLineBundle, L2: VLineBundle) -> VLineBundle:
    return add_bundles(L1, scale_bundle(L2, -1))


def rrk_index(L: VLineBundle) -> int:
    """Index h0(L) - h0(K - L) = 1 - g + deg|L|."""
    return 1 - L.base.genus + L.smooth_degree


def holonomy_rho(L: VLineBundle, L0: VLineBundle) -> Fraction:
    """rho(L) = (deg K - 2 deg L)/(2 ell), not reduced mod 1."""
    ell = rational_degree(L0)
    if ell == 0:
        raise ValueError("holonomy_rho requires deg L0 != 0")
    deg_k = rational_degree(canonical_bundle(L.base))
    return (deg_k - 2 * rational_degree(L)) / (2 * ell)


def canonical_representative(
    class_rep: VLineBundle, L0: VLineBundle
) -> tuple[VLineBundle, int, Fraction]:
    """Canonical representative of the class of ``class_rep`` mod Z L0.

    Returns (L', k, rho) with L' = class_rep + k L0, rho(L') in [0, 1)
    and k the unique such integer.
    """
    if class_rep.base != L0.base:
        raise ValueError("bundles live over different orbifolds")
    t = holonomy_rho(class_rep, L0)
    k = t.numerator // t.denominator
    rho = t - k
    rep = add_bundles(class_rep, scale_bundle(L0, k))
    if not 0 <= rho < 1 or holonomy_rho(rep, L0) != rho:
        raise InvariantError(f"canonical representative {rep} does not have rho = {rho}")
    return rep, k, rho
