"""Eta invariants: exact values, dual-route identities, series consistency."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from mpmath import mp

from seifinv.dedekind import S_composite
from seifinv.eta import (
    EtaContext,
    eta_dirac_levicivita,
    eta_series,
    eta_signature,
    eta_zero_flat,
    eta_zero_flat_direct,
    eta_zero_pullback,
    eta_zero_pullback_direct,
    flat_context,
    froyshov_F,
    pullback_context,
    rohlin_check,
    serre_dual_coupling,
    trivial_flat_context,
)
from seifinv.numkernel import frac
from seifinv.orbifold import Orbifold, VLineBundle, trivial_bundle
from seifinv.seifert import SeifertData, brieskorn


def _exact_mpf(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def test_smooth_base_pullback():
    N = SeifertData(Orbifold(1, ()), (), -2)
    ctx = pullback_context(N, trivial_bundle(N.base))
    assert eta_zero_pullback(ctx) == N.ell / 6 == Fraction(-1, 3)


def test_poincare_pullback_trivial_weights():
    N = brieskorn(2, 3, 5)
    ctx = pullback_context(N, VLineBundle(N.base, 0, (0, 0, 0)))
    assert eta_zero_pullback(ctx) == Fraction(91, 180)


def test_serre_symmetry_poincare():
    N = brieskorn(2, 3, 5)
    for gammas in [(0, 0, 0), (1, 1, 3), (0, 2, 4)]:
        ctx = pullback_context(N, VLineBundle(N.base, 0, gammas))
        assert eta_zero_pullback(ctx) == eta_zero_pullback(serre_dual_coupling(ctx))


def test_poincare_flat_value():
    ctx = trivial_flat_context(brieskorn(2, 3, 5))
    assert ctx.rho == Fraction(1, 2)
    assert eta_zero_flat(ctx) == Fraction(539, 360)


def test_poincare_flat_double_sum_regression():
    # the weight-times-level double sum inside the closed form, recomputed here
    N = brieskorn(2, 3, 5)
    rho = Fraction(1, 2)
    total = Fraction(0)
    for a, b in zip(N.alphas, N.betas):
        for k in range(a):
            total += Fraction((-k * b) % a, a) * (1 - 2 * frac(Fraction(k + rho, a)))
    assert total == Fraction(-269, 180)


def test_smooth_base_flat_branch():
    # genus-1 base, ell = -2; the class of degree 1 has rho = 1/2 and the
    # singular sums are empty, leaving -ell rho(1-rho) + ell/6
    N = SeifertData(Orbifold(1, ()), (), -2)
    ctx = flat_context(N, VLineBundle(N.base, 1, ()))
    assert ctx.rho == Fraction(1, 2)
    assert eta_zero_flat(ctx) == -N.ell * Fraction(1, 4) + N.ell / 6 == Fraction(1, 6)


def test_flat_requires_canonical_context():
    N = brieskorn(2, 3, 5)
    bad = EtaContext(N, trivial_bundle(N.base), Fraction(1, 3))
    with pytest.raises(ValueError):
        eta_zero_flat(bad)


def test_ell_zero_rejected():
    N = SeifertData(Orbifold(1, ()), (), 0)
    with pytest.raises(ValueError):
        EtaContext(N, trivial_bundle(N.base), Fraction(0))


def _random_seifert(rng, allow_genus=True):
    while True:
        m = rng.randint(0, 3)
        alphas = tuple(rng.randint(2, 12) for _ in range(m))
        betas = tuple(
            rng.choice([b for b in range(1, a) if gcd(a, b) == 1]) for a in alphas
        )
        g = rng.randint(0, 2) if allow_genus else 0
        b = rng.randint(-3, 3)
        N = SeifertData(Orbifold(g, alphas), betas, b)
        if N.ell != 0:
            return N


def test_dual_route_cross_validation_random():
    # the O(log alpha) Dedekind routes against the O(alpha) corner-sum and
    # closed-form oracles over a random corpus
    rng = random.Random(43)
    for _ in range(300):
        N = _random_seifert(rng)
        L = VLineBundle(N.base, rng.randint(-2, 2), tuple(rng.randrange(a) for a in N.alphas))
        ctx = pullback_context(N, L)
        assert eta_zero_pullback(ctx) == eta_zero_pullback_direct(ctx), (N, L)
        flat = flat_context(N, L)
        assert eta_zero_flat(flat) == eta_zero_flat_direct(flat), (N, L)


def test_froyshov_F_at_large_alpha():
    # production F runs no O(alpha) loop: milliseconds at alpha ~ 10^5
    # (checked against the closed-form oracle) and at alpha ~ 10^7
    N = brieskorn(99991, 99989, 99971)
    ctx = trivial_flat_context(N)
    assert eta_zero_flat(ctx) == eta_zero_flat_direct(ctx)
    for N, want in ((N, None), (brieskorn(2, 3, 10**7 + 1), 8)):
        start = time.perf_counter()
        f = froyshov_F(N)
        elapsed = time.perf_counter() - start
        assert f.denominator == 1 and f.numerator % 8 == 0
        assert want is None or f == want
        assert elapsed < 0.05, f"F{N.alphas} took {elapsed * 1e3:.1f} ms"


def test_serre_symmetry_random():
    rng = random.Random(47)
    for _ in range(60):
        N = _random_seifert(rng)
        L = VLineBundle(N.base, rng.randint(-2, 2), tuple(rng.randrange(a) for a in N.alphas))
        ctx = pullback_context(N, L)
        assert eta_zero_pullback(ctx) == eta_zero_pullback(serre_dual_coupling(ctx))


def test_series_matches_exact_at_zero():
    rng = random.Random(53)
    for _ in range(6):
        N = _random_seifert(rng)
        L = VLineBundle(N.base, 0, tuple(rng.randrange(a) for a in N.alphas))
        for ctx in (pullback_context(N, L), flat_context(N, L)):
            exact = (
                eta_zero_pullback(ctx) if ctx.rho == 0 else eta_zero_flat(ctx)
            )
            got = eta_series(ctx, 0, 30)
            with mp.workdps(45):
                assert abs(got.value - _exact_mpf(exact)) < mp.mpf(10) ** -26


def test_series_smooth_base_closed_form():
    # single term -2 ell zeta(s-1) at s = 3
    N = SeifertData(Orbifold(0, ()), (), -1)
    ctx = pullback_context(N, trivial_bundle(N.base))
    got = eta_series(ctx, 3, 30)
    with mp.workdps(45):
        assert abs(got.value - mp.pi**2 / 3) < mp.mpf(10) ** -26


def test_levicivita_correction():
    N = brieskorn(2, 3, 5)
    ctx = trivial_flat_context(N)
    # exact plug-in at r = 1: eta(0) + (ell/6)(ell^2 - chi)
    assert eta_dirac_levicivita(ctx, 1) == Fraction(539, 360) + Fraction(29, 162000)
    # correction vanishes as r -> 0
    tiny = Fraction(1, 10**6)
    drift = eta_dirac_levicivita(ctx, tiny) - Fraction(539, 360)
    assert abs(drift) < Fraction(1, 10**10)


def test_levicivita_237_regression():
    ctx = trivial_flat_context(brieskorn(2, 3, 7))
    assert eta_zero_flat(ctx) == Fraction(-925, 504)
    got = eta_dirac_levicivita(ctx, Fraction(1, 2))
    ell, chi = Fraction(-1, 42), Fraction(-1, 42)
    want = Fraction(-925, 504) + (ell / 6) * (ell**2 / 16 - chi / 4)
    assert got == want


def test_levicivita_guards():
    N = brieskorn(2, 3, 5)
    ctx = pullback_context(N, VLineBundle(N.base, 0, (1, 0, 0)))
    with pytest.raises(ValueError):
        eta_dirac_levicivita(ctx, Fraction(1, 2))
    not_hs = SeifertData(Orbifold(0, (2, 4)), (1, 1), -1)
    with pytest.raises(ValueError):
        eta_dirac_levicivita(trivial_flat_context(not_hs), Fraction(1, 2))


def test_signature_eta_poincare():
    N = brieskorn(2, 3, 5)
    assert N.ell < 0
    # constant part ell/3 - sign(ell) - 4S = 181/90
    assert N.ell / 3 + 1 - 4 * S_composite(N.alphas, N.betas, (0, 0, 0)) == Fraction(181, 90)
    for r in (Fraction(1, 2), Fraction(1, 10)):
        chi = Fraction(1, 30)
        r_part = -Fraction(2, 3) * N.ell * (N.ell**2 * r**4 - chi * r**2)
        assert eta_signature(N, r) == r_part + Fraction(181, 90)


def test_r_independence():
    rng = random.Random(59)
    count = 0
    while count < 8:
        t = sorted(rng.sample(range(2, 30), 3))
        if any(gcd(t[i], t[j]) != 1 for i in range(3) for j in range(i + 1, 3)):
            continue
        N = brieskorn(*t)
        ctx = trivial_flat_context(N)
        v1 = 4 * eta_dirac_levicivita(ctx, Fraction(1, 2)) + eta_signature(N, Fraction(1, 2))
        v2 = 4 * eta_dirac_levicivita(ctx, Fraction(1, 10)) + eta_signature(N, Fraction(1, 10))
        assert v1 == v2 == froyshov_F(N)
        count += 1


def test_froyshov_values():
    assert froyshov_F(brieskorn(2, 3, 5)) == 8
    assert froyshov_F(brieskorn(2, 3, 7)) == -8
    assert froyshov_F(brieskorn(5, 7, 9)) == 0


def test_froyshov_guard():
    with pytest.raises(ValueError):
        froyshov_F(SeifertData(Orbifold(0, (2, 4)), (1, 1), -1))


def test_rohlin_congruence_random():
    rng = random.Random(61)
    count = 0
    while count < 30:
        t = sorted(rng.sample(range(2, 50), 3))
        if any(gcd(t[i], t[j]) != 1 for i in range(3) for j in range(i + 1, 3)):
            continue
        assert rohlin_check(brieskorn(*t))
        count += 1
