"""The source paper's remark on the coupling connection, in exact arithmetic.

Let two V-line bundles L1, L2 on the base pull back to the same bundle on
N.  On a smooth base their adiabatic Dirac operators have the same eta
invariant; with singular fibers that may fail ("the eta function is
sensible to the coupling connection").  Serre duality gives
eta_L(0) = eta_{K-L}(0).  Here L1, L2 run over trivial + k E with
E = defining_bundle(N), which pulls back to the trivial bundle on N.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from seifinv.eta import (
    eta_series,
    eta_zero_pullback,
    eta_zero_pullback_direct,
    flat_context,
    pullback_context,
    serre_dual_coupling,
    series_rows,
)
from seifinv.numkernel import BigFloat
from seifinv.orbifold import Orbifold, VLineBundle, scale_bundle
from seifinv.seifert import SeifertData, brieskorn, defining_bundle

KS = (0, 1, 2, -1)


def _couplings(N):
    """pullback_context of trivial + k E for k in KS."""
    E = defining_bundle(N)
    return [pullback_context(N, scale_bundle(E, k)) for k in KS]


@pytest.mark.parametrize("genus, ell", [(1, -2), (0, -3)])
def test_smooth_base_eta_does_not_see_the_coupling(genus, ell):
    N = SeifertData(Orbifold(genus, ()), (), ell)
    contexts = _couplings(N)
    assert len({ctx.coupling for ctx in contexts}) == len(KS)
    assert len({eta_zero_pullback(ctx) for ctx in contexts}) == 1
    assert len({eta_series(ctx, Fraction(1, 2), 20) for ctx in contexts}) == 1


@pytest.mark.parametrize(
    "triple, eta0",
    [
        ((3, 5, 7), (Fraction(631, 630), Fraction(841, 630), Fraction(-197, 630), Fraction(-197, 630))),
        ((2, 3, 5), (Fraction(91, 180), Fraction(91, 180), Fraction(-77, 180), Fraction(-77, 180))),
    ],
)
def test_singular_fibers_make_eta_see_the_coupling(triple, eta0):
    # the same pullback bundle, different eta(0): by both exact routes
    contexts = _couplings(brieskorn(*triple))
    assert tuple(eta_zero_pullback(ctx) for ctx in contexts) == eta0
    assert tuple(eta_zero_pullback_direct(ctx) for ctx in contexts) == eta0


def _corpus(seed, count):
    """Seeded (N, L): up to three fibers of order <= 12, genus <= 2."""
    rng = random.Random(seed)
    while count:
        alphas = tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 3)))
        betas = tuple(rng.choice([b for b in range(1, a) if gcd(a, b) == 1]) for a in alphas)
        N = SeifertData(Orbifold(rng.randint(0, 2), alphas), betas, rng.randint(-3, 3))
        if N.ell != 0:
            count -= 1
            yield N, VLineBundle(N.base, rng.randint(-2, 2), tuple(rng.randrange(a) for a in alphas))


def test_serre_dual_rows_are_equal():
    # Serre duality holds at every s, at the level of the integer weights:
    # ((g + r b) mod a) - ((g - r b) mod a) is unchanged by g -> a - 1 - g
    for N, L in _corpus(71, 30):
        ctx = pullback_context(N, L)
        dual = serre_dual_coupling(ctx)
        for s in (Fraction(1, 3), Fraction(-2)):
            assert series_rows(ctx, s) == series_rows(dual, s), (N, L, s)


def test_eta_vanishes_at_negative_odd_integers():
    # signed pairs w (zeta(s, x) - zeta(s, 1 - x)) and B_m(1 - x) = (-1)^m B_m(x)
    for N, L in _corpus(73, 12):
        for ctx in (pullback_context(N, L), flat_context(N, L)):
            for n in (1, 3, 5, 7, 9):
                assert eta_series(ctx, -n, 20) == BigFloat(0, 20, 0), (N, L, n)
