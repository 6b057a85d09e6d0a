"""Eta invariants: exact values, dual-route identities, series consistency."""

import math
import random
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import gcd

import pytest
from mpmath import mp

from seifinv.dedekind import S_composite
from seifinv.eta import (
    EtaContext,
    _flat_head,
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
    series_rows,
    trivial_flat_context,
)
from seifinv.numkernel import InvariantError, frac
from seifinv.orbifold import (
    Orbifold,
    VLineBundle,
    canonical_bundle,
    rational_degree,
    trivial_bundle,
)
from seifinv.seifert import SeifertData, brieskorn, defining_bundle
from tests.test_numkernel import _bernoulli_recurrence, _count_centre_passes, _count_hurwitz_calls, term_rows


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


def test_flat_context_certifies_its_representative(monkeypatch):
    # on Sigma(2,3,5) the class of L0 needs k = -1; a representative that
    # drops the shift keeps rho(L0) = -1/2 and must fail the certification
    monkeypatch.setattr("seifinv.orbifold.add_bundles", lambda L1, L2: L1)
    N = brieskorn(2, 3, 5)
    with pytest.raises(InvariantError):
        flat_context(N, defining_bundle(N))


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
    # the O(log alpha) Dedekind routes against the O(sqrt(alpha)) corner-sum
    # and closed-form oracles over a random corpus
    rng = random.Random(43)
    for _ in range(300):
        N = _random_seifert(rng)
        L = VLineBundle(N.base, rng.randint(-2, 2), tuple(rng.randrange(a) for a in N.alphas))
        ctx = pullback_context(N, L)
        assert eta_zero_pullback(ctx) == eta_zero_pullback_direct(ctx), (N, L)
        flat = flat_context(N, L)
        assert eta_zero_flat(flat) == eta_zero_flat_direct(flat), (N, L)


def _naive_eta_zero_flat_direct(ctx):
    # the per-term loop that eta_zero_flat_direct ran before its one-pass
    # form, for rho in (0, 1)
    N = ctx.fibration
    pr, qr = ctx.rho.numerator, ctx.rho.denominator
    total = _flat_head(ctx)
    for a, b, g in zip(N.alphas, N.betas, ctx.coupling.gammas):
        d = qr * a
        acc = 0
        for k in range(a):
            m1 = (g - k * b) % a
            if m1 == 0:
                continue
            m2 = (k * qr + pr) % d
            acc += m1 * (d - 2 * m2)
        total -= Fraction(acc, a * d)
    return total


def test_flat_direct_against_per_term_loop():
    rng = random.Random(61)
    rhos = set()
    for _ in range(300):
        N = _random_seifert(rng)
        L = VLineBundle(N.base, rng.randint(-3, 3), tuple(rng.randrange(a) for a in N.alphas))
        flat = flat_context(N, L)
        if flat.rho:
            rhos.add(flat.rho)
            assert eta_zero_flat_direct(flat) == _naive_eta_zero_flat_direct(flat), (N, L)
    assert len(rhos) >= 10, rhos


def test_flat_direct_runs_in_constant_memory():
    # one residue moment per fiber; Sigma(2,3,100003) has rho = 1/2 and a fiber of
    # order 100003, whose terms as a list would take MBs
    ctx = trivial_flat_context(brieskorn(2, 3, 100003))
    assert ctx.rho == Fraction(1, 2)
    tracemalloc.start()
    try:
        eta_zero_flat_direct(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


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
            assert got.within(exact, 0) and got.eps == 0, (N, L, ctx.rho)


def test_series_smooth_base_closed_form():
    # single term -2 ell zeta(s-1) at s = 3
    N = SeifertData(Orbifold(0, ()), (), -1)
    ctx = pullback_context(N, trivial_bundle(N.base))
    got = eta_series(ctx, 3, 30)
    with mp.workdps(45):
        assert abs(got.value - mp.pi**2 / 3) < mp.mpf(10) ** -26


def _series_terms(ctx, s):
    """The eta series of the module docstring as (s', p, a, w), one entry
    per written term w p^(-s') zeta(s', a), nothing merged."""
    N, rho = ctx.fibration, ctx.rho
    fibers = list(zip(N.alphas, N.betas, ctx.coupling.gammas))
    if rho == 0:
        terms = [(s - 1, 1, Fraction(1), -2 * N.ell)]
        for a, b, g in fibers:
            for r in range(1, a):
                w = frac(Fraction(g + r * b, a)) - frac(Fraction(g - r * b, a))
                terms.append((s, a, Fraction(r, a), w))
        return terms
    head = Fraction(rational_degree(canonical_bundle(N.base)) - (2 * N.base.genus - 2), 2)
    terms = [(s, 1, rho, head), (s, 1, 1 - rho, -head)]
    for a, b, g in fibers:
        for k in range(a):
            w = frac(Fraction(g - k * b, a))
            x = frac(Fraction(k + rho, a))
            terms += [(s, a, x, -w), (s, a, 1 - x, w)]
    return terms + [(s - 1, 1, rho, -N.ell), (s - 1, 1, 1 - rho, -N.ell)]


def test_series_at_negative_integers_is_the_bernoulli_sum():
    # eta(-n) = sum w p^-s' zeta(s', a) over the written terms, each
    # zeta(-m, a) = -B_(m+1)(a) / (m + 1) from the recurrence's Bernoulli
    # numbers: exact, on flat, pullback and genus > 0 contexts
    bernoulli = _bernoulli_recurrence(8)

    def zeta(m, a):
        return -sum(math.comb(m + 1, k) * bernoulli[k] * a ** (m + 1 - k) for k in range(m + 2)) / (m + 1)

    rng = random.Random(59)
    genera = set()
    for _ in range(8):
        N = _random_seifert(rng)
        genera.add(N.base.genus)
        L = VLineBundle(N.base, rng.randint(-2, 2), tuple(rng.randrange(a) for a in N.alphas))
        for ctx in (pullback_context(N, L), flat_context(N, L)):
            for n in range(1, 7):
                want = sum(w * Fraction(p) ** -s1 * zeta(-s1, a) for s1, p, a, w in _series_terms(ctx, -n))
                got = eta_series(ctx, -n, 20)
                assert got.within(want, 0) and got.eps == 0, (N, L, ctx.rho, n)
    assert max(genera) > 0


def _canonical(series):
    """Row sets with the zero weights and empty rows dropped, D and Q
    divided by the gcd of D with every U and of Q with every weight."""
    out = {}
    for s, parts in series.items():
        for p, (D, Q, rows) in parts.items():
            rows = {U: tuple(ws) for U, ws in rows.items() if any(ws)}
            if rows:
                g, q = gcd(D, *rows), gcd(Q, *(w for ws in rows.values() for w in ws))
                rows = {U // g: tuple(w // q for w in ws) for U, ws in rows.items()}
                out.setdefault(s, {})[p] = (D // g, Q // q, rows)
    return out


def _merged(ctx, s):
    """_series_terms with the weights of equal keys added."""
    merged = defaultdict(Fraction)
    for s1, p, a, w in _series_terms(ctx, s):
        merged[s1, p, a] += w
    return merged


def test_series_rows_match_merged_term_oracle():
    # rho = 0, rho = 1/2, general rho, equal alphas, genus > 0
    base = SeifertData(Orbifold(0, (4, 4, 3)), (1, 3, 1), -1)
    repeated = VLineBundle(base.base, 0, (1, 2, 0))
    torus = SeifertData(Orbifold(1, (7, 7, 4)), (2, 5, 1), -2)
    contexts = [
        trivial_flat_context(brieskorn(3, 5, 7)),
        trivial_flat_context(brieskorn(2, 5, 9)),
        pullback_context(brieskorn(2, 5, 9), VLineBundle(brieskorn(2, 5, 9).base, 1, (1, 3, 4))),
        trivial_flat_context(base),
        flat_context(base, repeated),
        pullback_context(base, repeated),
        trivial_flat_context(torus),
        pullback_context(torus, VLineBundle(torus.base, 0, (3, 3, 1))),
    ]
    rhos = {ctx.rho for ctx in contexts}
    assert {0, Fraction(1, 2)} < rhos and len(rhos) > 3
    for ctx in contexts:
        for s in (Fraction(-2), Fraction(1, 3)):
            assert _canonical(series_rows(ctx, s)) == _canonical(term_rows(_merged(ctx, s))), (ctx, s)


def _series_oracle(ctx, s, digits, extra=0):
    """Term-by-term eta(s), each zeta(s', a) by mpmath's rational-a route
    mp.zeta(s', (p, q)) at 2 digits + 20 + extra digits.  For s in (-1, 2),
    where s' or the 1 - s' of mpmath's reflection nears the pole at 1, it
    adds the digits of the denominator of s, which bound the residues
    1/(s' - 1) that cancel.  At s' = 1 it takes the constant Laurent term
    -psi(a): the weights of each p sum to zero, so the residues and the
    -log p terms of p^-s' cancel."""
    s = Fraction(s)
    with mp.workdps(2 * digits + 20 + extra + (-1 < s < 2) * len(str(s.denominator))):
        total = mp.mpf(0)
        for s1, p, a, w in _series_terms(ctx, s):
            if w:
                if s1 == 1:
                    zeta = -mp.digamma(_exact_mpf(a))
                else:
                    zeta = mp.zeta(_exact_mpf(s1), (a.numerator, a.denominator))
                total += _exact_mpf(Fraction(w)) * mp.mpf(p) ** -_exact_mpf(s1) * zeta
        return +total


def _series_corpus():
    """(ctx, s, digits): per regime (rho = 0, rho = 1/2, a general rho) two
    cases at s > 0 with alphas up to 40, and two at s < 0 with alphas up
    to 7 and rho of denominator at most 3, where the reference's rational-a
    route costs O(denominator of a) per value.  s is non-integer in
    [-25, 25], at least 1/8 from the poles s = 1 and s = 2; 15-40 digits."""
    rng = random.Random(2024)

    def brieskorn_triple(hi, even):
        while True:
            t = sorted(rng.sample(range(2, hi + 1), 3))
            evens = sum(x % 2 == 0 for x in t)
            if gcd(t[0], t[1]) * gcd(t[0], t[2]) * gcd(t[1], t[2]) == 1 and evens == even:
                return brieskorn(*t)

    def regimes(hi, max_den):
        N = brieskorn_triple(hi, 0)
        gammas = tuple(rng.randrange(a) for a in N.alphas)
        yield trivial_flat_context(N) if rng.random() < 0.5 else pullback_context(
            N, VLineBundle(N.base, 0, gammas)
        )
        yield trivial_flat_context(brieskorn_triple(hi, 1))
        while True:  # a --seifert base with gammas
            m = rng.randint(1, 3)
            alphas = tuple(rng.randint(2, hi) for _ in range(m))
            betas = tuple(rng.choice([b for b in range(1, a) if gcd(a, b) == 1]) for a in alphas)
            N = SeifertData(Orbifold(rng.randint(0, 2), alphas), betas, rng.randint(-3, 3))
            if N.ell == 0:
                continue
            gammas = tuple(rng.randrange(a) for a in alphas)
            ctx = flat_context(N, VLineBundle(N.base, 0, gammas))
            if ctx.rho not in (0, Fraction(1, 2)) and ctx.rho.denominator <= max_den:
                yield ctx
                return

    cases = []
    for sign, hi, max_den in ((1, 40, 12), (1, 40, 12), (-1, 7, 3), (-1, 7, 3)):
        for ctx in regimes(hi, max_den):
            while True:
                q = rng.randint(2, 8)
                s = sign * Fraction(rng.randint(1, 25 * q), q)
                if s.denominator > 1 and min(abs(s - 1), abs(s - 2)) >= Fraction(1, 8):
                    break
            cases.append((ctx, s, rng.choice((15, 20, 30, 40))))
    return cases


def test_series_eps_covers_error_against_term_oracle():
    for ctx, s, digits in _series_corpus():
        got = eta_series(ctx, s, digits)
        with mp.workdps(2 * digits + 20):
            err = abs(got.value - _series_oracle(ctx, s, digits))
            assert err <= got.eps, (ctx.fibration, ctx.rho, s, digits, err, got.eps)


@pytest.mark.parametrize("triple, s", [((2, 3, 5), 200), ((2, 3, 7), 1000), ((3, 5, 7), Fraction(401, 2))])
def test_series_at_large_s_against_term_oracle(triple, s):
    # s far past the poles, where the exact integer root of each a^-s
    # takes a negative shift.  The terms reach (p a)^-s, up to 10^302, so
    # the oracle carries their digits on top of its relative precision
    ctx = trivial_flat_context(brieskorn(*triple))
    s = Fraction(s)
    top = max(math.log10(abs(w)) - s1 * math.log10(p * a) for s1, p, a, w in _series_terms(ctx, s) if w)
    extra = math.ceil(top)
    got = eta_series(ctx, s, 30)
    with mp.workdps(80 + extra):
        err = abs(got.value - _series_oracle(ctx, s, 30, extra))
        assert err <= got.eps, (triple, s, err, got.eps)


#: s = n +- 10^-k about the integers n = -3, 0, 1, and s = 1
NEAR_POLE_S = [Fraction(1)] + [
    n + Fraction(sign, 10**k) for n in (-3, 0, 1) for k in (3, 12, 25) for sign in (1, -1)
]


# few keys of small denominator: the reference's rational-a route costs
# O(denominator of a) per value at s' < 0.  The two s keys of the flat
# context (rho = 1/2) are few enough for per-key values, which would each
# carry a residue at s = 1: their zero weight sum keeps them on the moments
NEAR_POLE_CONTEXTS = {
    "flat": lambda: trivial_flat_context(SeifertData(Orbifold(0, (2,)), (1,), -2)),
    "pullback": lambda: pullback_context(
        brieskorn(2, 3, 5), VLineBundle(brieskorn(2, 3, 5).base, 1, (1, 2, 3))
    ),
}


@pytest.mark.parametrize("kind", sorted(NEAR_POLE_CONTEXTS))
def test_series_near_poles_against_term_oracle(kind):
    # s + j of the Taylor expansion meets or grazes the pole of zeta at 1,
    # and at s = 1 the residues cancel in each signed pair
    ctx = NEAR_POLE_CONTEXTS[kind]()
    for s in NEAR_POLE_S:
        got = eta_series(ctx, s, 15)
        with mp.workdps(50):
            err = abs(got.value - _series_oracle(ctx, s, 15))
            assert err <= got.eps, (kind, s, err, got.eps)


@pytest.mark.parametrize("k", [1, 10, 20, 29])
def test_series_at_one_plus_minus_prints_correct_digits(k):
    # eta(1 +- 10^-k) on Sigma(2,3,5): the residues cancel in the moments,
    # not one key at a time, so eps stays below the 30th digit
    ctx = trivial_flat_context(brieskorn(2, 3, 5))
    for s in (1 + Fraction(1, 10**k), 1 - Fraction(1, 10**k)):
        got = eta_series(ctx, s, 30)
        with mp.workdps(80):
            err = abs(got.value - _series_oracle(ctx, s, 30))
            assert err <= got.eps < mp.mpf(10) ** -30 * abs(got.value), (s, err, got.eps)


def test_series_eps_covers_error_at_alpha_301():
    # a corpus case at alpha ~ 10^2.5, where the Taylor moments of
    # hurwitz_sum replace 305 per-key Hurwitz values
    ctx = trivial_flat_context(brieskorn(2, 3, 301))
    s, digits = Fraction(7, 3), 30
    got = eta_series(ctx, s, digits)
    with mp.workdps(2 * digits + 20):
        err = abs(got.value - _series_oracle(ctx, s, digits))
        assert err <= got.eps, (s, digits, err, got.eps)


@pytest.mark.parametrize(
    "triple, s, digits, terms, keys",
    [
        ((2, 31, 67), Fraction(-3, 2), 15, 198, 99),  # rho = 1/2: the pairs merge
        ((16, 25, 39), Fraction(1, 2), 20, 158, 79),  # rho = 1/2
        ((3, 5, 7), Fraction(1, 2), 20, 13, 13),  # rho = 0: nothing merges
        ((16, 25, 39), Fraction(9, 4), 40, 158, 79),
    ],
)
def test_series_hurwitz_calls_distinct_and_alpha_independent(
    monkeypatch, triple, s, digits, terms, keys
):
    # equal keys merge before the kernel; the kernel evaluates every Hurwitz
    # value once, and the centre values of its Taylor moments are shared by
    # all keys and come from one Euler-Maclaurin pass, so the count and the
    # orders of the pass are set by (s, digits), not by alpha
    ctx = trivial_flat_context(brieskorn(*triple))
    merged = defaultdict(Fraction)
    for s1, p, a, w in _series_terms(ctx, s):
        merged[s1, p, a] += w
    assert sum(1 for *_, w in _series_terms(ctx, s) if w) == terms
    assert sum(1 for w in merged.values() if w) == keys
    calls = _count_hurwitz_calls(monkeypatch)
    passes = _count_centre_passes(monkeypatch)
    eta_series(ctx, s, digits)
    assert len(calls) == len(set(calls)) <= keys
    counts, orders = [], []
    for c in (101, 1001):
        calls.clear()
        passes.clear()
        eta_series(trivial_flat_context(brieskorn(2, 3, c)), s, digits)
        assert len(calls) == len(set(calls))
        counts.append(len(calls))
        # the s group takes all its centre values from one pass, the one or
        # two s - 1 keys go per key
        assert len(passes) == 1 and passes[0][0] in (s, s + 1)
        orders.append(passes[0])
    assert counts[0] == counts[1] <= 60
    assert orders[0] == orders[1]


@pytest.mark.parametrize("n", [-3, -2])
def test_series_near_nonpositive_integer_takes_one_centre_pass(monkeypatch, n):
    # near an integer n <= 0 some s + j of the Taylor expansion grazes the
    # pole of zeta at 1 (at n = -2 an odd order, which the signed pairs
    # need), where (s)_j has the factor s - n: the product stays finite,
    # and one centre pass still serves every s key
    s = Fraction(1, 10**20) + n
    calls = _count_hurwitz_calls(monkeypatch)
    passes = _count_centre_passes(monkeypatch)
    counts = []
    for c in (101, 1001):
        calls.clear()
        passes.clear()
        got = eta_series(trivial_flat_context(brieskorn(2, 3, c)), s, 20)
        assert len(passes) == 1 and passes[0][0] == s + 1
        assert {s1 for s1, _ in calls} <= {s - 1}  # only the s - 1 keys go per key
        counts.append((len(calls), passes[0]))
        if c == 101:
            exact = eta_series(trivial_flat_context(brieskorn(2, 3, c)), n, 20)
            with mp.workdps(35):
                assert abs(got.value - exact.value) < mp.mpf(10) ** -10 * max(1, abs(exact.value))
    assert counts[0] == counts[1]


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
