"""Sawtooth/fractional-part primitives and the zeta evaluation layer."""

import decimal
import math
import random
import sys
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp

from seifinv import fixedpoint, numkernel
from seifinv.numkernel import (
    BigFloat,
    frac,
    hurwitz_sum,
    hurwitz_zeta,
    psi2,
    riemann_zeta,
    sawtooth,
)


def test_frac_examples():
    assert frac(Fraction(-4, 3)) == Fraction(2, 3)
    assert frac(Fraction(5, 2)) == Fraction(1, 2)
    assert frac(-2) == 0


def test_sawtooth_examples():
    assert sawtooth(7) == 0
    assert sawtooth(Fraction(1, 2)) == 0
    assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)


def test_psi2_examples():
    assert psi2(0) == Fraction(1, 6)
    assert psi2(Fraction(1, 2)) == Fraction(-1, 12)
    assert psi2(Fraction(7, 3)) == Fraction(-1, 18)


def test_sawtooth_properties():
    rng = random.Random(3)
    for _ in range(300):
        den = rng.randint(1, 40)
        x = Fraction(rng.randint(-50, 50), den)
        assert sawtooth(-x) == -sawtooth(x)
        assert sawtooth(x + 1) == sawtooth(x)
        assert 0 <= frac(x) < 1
        assert (x - frac(x)).denominator == 1


def test_hurwitz_closed_forms_at_special_points():
    # zeta(0, a) = 1/2 - a and zeta(-1, a) = -1/12 + a (1 - a) / 2, exactly
    rng = random.Random(5)
    for _ in range(50):
        a = Fraction(rng.randint(1, 24), 24)
        z0 = hurwitz_zeta(0, a, 30)
        z1 = hurwitz_zeta(-1, a, 30)
        assert z0.within(Fraction(1, 2) - a, 0) and z0.eps == 0, a
        assert z1.within(Fraction(-1, 12) + a * (1 - a) / 2, 0) and z1.eps == 0, a
        # zeta(-n, a) = -B_{n+1}(a) / (n + 1), against mpmath's Bernoulli
        # polynomials at 60 digits
        for n in (2, 3, 7):
            z = hurwitz_zeta(-n, a, 30)
            with mp.workdps(60):
                want = -mp.bernpoly(n + 1, mp.mpf(a.numerator) / a.denominator) / (n + 1)
                assert abs(z.value - want) <= mp.mpf(10) ** -45 * abs(want), (n, a)
            assert z.eps == 0, (n, a)


@pytest.mark.parametrize("s", [Fraction(1, 2), 2, 3, Fraction(-1, 2), Fraction(5, 2)])
@pytest.mark.parametrize("a", [Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), 1])
def test_hurwitz_against_mpmath(s, a):
    # against mpmath.zeta at 50 working digits, an algorithm independent of
    # the Euler-Maclaurin pass production uses
    got = hurwitz_zeta(s, a, 30)
    with mp.workdps(50):
        want = mp.zeta(mp.mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else s,
                       mp.mpf(a.numerator) / a.denominator if isinstance(a, Fraction) else a)
        assert abs(got.value - want) < mp.mpf(10) ** -28


@pytest.mark.parametrize(
    "s, a",
    [(50, Fraction(1, 10)), (200, Fraction(1, 7)), (Fraction(401, 2), Fraction(1, 7)), (1000, Fraction(3, 10))],
)
def test_hurwitz_at_large_s_on_the_root_route(s, a):
    # a^-s scales the pass below 2^0 here, so the exact integer root takes
    # a negative shift; against mpmath's rational-a route
    got = hurwitz_zeta(s, a, 30)
    with mp.workdps(80):
        ref = mp.zeta(_mpf(Fraction(s)), (a.numerator, a.denominator))
        assert abs(got.value - ref) <= got.eps, (s, a)
        assert got.eps <= mp.mpf(10) ** -40 * ref, (s, a)


def _eps_corpus():
    """(s, a, digits): the points where an earlier Euler-Maclaurin kernel
    under-reported its error, then a seeded sample of non-integer s in
    [-25, 25] at least 1/8 from the pole, a in (0, 2]."""
    cases = [
        (Fraction(-5, 2), Fraction(1, 7), 60),
        (Fraction(-11, 2), Fraction(1, 7), 30),
        (Fraction(-21, 2), Fraction(1, 7), 15),
        (Fraction(-21, 2), Fraction(1, 7), 30),
    ]
    rng = random.Random(2015)
    while len(cases) < 64:
        q = rng.randint(2, 8)
        s = Fraction(rng.randint(-25 * q, 25 * q), q)
        if s.denominator == 1 or abs(s - 1) < Fraction(1, 8):
            continue
        d = rng.randint(1, 12)
        cases.append((s, Fraction(rng.randint(1, 2 * d), d), rng.choice((15, 20, 30, 40))))
    return cases


def test_eps_covers_error_over_corpus():
    # mpmath.zeta is independent of the production pass: for s < 0 it
    # evaluates a rational a = (p, q) by the reflection formula, for s > 0 by
    # its own Euler-Maclaurin code with its own precision retries.
    for s, a, digits in _eps_corpus():
        got = hurwitz_zeta(s, a, digits)
        with mp.workdps(2 * digits + 20):
            ref = mp.zeta(mp.mpf(s.numerator) / s.denominator, (a.numerator, a.denominator))
            assert abs(got.value - ref) <= got.eps, (s, a, digits)


def _shift_corpus():
    """(s, a, J, step, digits): the _eps_corpus points where an earlier
    Euler-Maclaurin kernel under-reported its error, then a seeded sample
    of a = 5/2 (the Taylor centre) and of a in (0, 2], non-integer s in
    [-25, 25] with every shift at least 1/8 from the pole, 15-60 digits."""
    cases = [(s, a, 3, 2, digits) for s, a, digits in _eps_corpus()[:4]]
    rng = random.Random(2016)
    while len(cases) < 28:
        q = rng.randint(2, 8)
        s = Fraction(rng.randint(-25 * q, 25 * q), q)
        J, step = rng.randint(1, 6), rng.choice((1, 2))
        if s.denominator == 1 or any(abs(s + step * i - 1) < Fraction(1, 8) for i in range(J)):
            continue
        d = rng.randint(1, 12)
        a = Fraction(5, 2) if len(cases) % 2 else Fraction(rng.randint(1, 2 * d), d)
        cases.append((s, a, J, step, rng.choice((15, 20, 30, 40, 60))))
    return cases


def test_em_shifts_eps_covers_error_against_rational_route():
    # every shift of one pass against mpmath's rational-a route at
    # 2 digits + 20: the reflection formula for s < 0, mpmath's own
    # Euler-Maclaurin code for s > 0
    for s, a, J, step, digits in _shift_corpus():
        F, got = numkernel._em_shifts(s, a, J, digits, step)
        assert len(got) == J
        for i, (v, e) in enumerate(got):
            sigma = s + step * i
            with mp.workdps(2 * digits + 20):
                ref = mp.zeta(_mpf(sigma), (a.numerator, a.denominator))
                value, eps = mp.ldexp(v, -F), mp.ldexp(e, -F)
                assert abs(value - ref) <= eps, (s, a, J, step, digits, i)
                # and eps is an error estimate, not a blanket 10^-digits
                assert eps <= mp.mpf(10) ** -(digits + 12) * max(1, abs(ref)), (s, a, digits, i)


def _bernoulli_recurrence(m):
    """B_0, ..., B_m from sum_{k<=n} C(n+1, k) B_k = 0: O(m^2) Fractions."""
    b = [Fraction(1)]
    for n in range(1, m + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return tuple(b)


def test_bernoulli_numbers_match_recurrence():
    oracle = _bernoulli_recurrence(120)
    for m in (0, 1, 2, 3, 4, 17, 64, 119, 120):
        assert numkernel._bernoulli_numbers(m) == oracle[: m + 1], m


def test_hurwitz_guards():
    with pytest.raises(ValueError):
        hurwitz_zeta(2, 0, 30)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, Fraction(-1, 3), 30)
    with pytest.raises(ValueError):
        hurwitz_zeta(1 + 1e-35, 1, 30)
    for precision in (0, -5):
        with pytest.raises(ValueError, match="precision must be >= 1"):
            hurwitz_zeta(Fraction(1, 2), Fraction(1, 3), precision)


def test_riemann_values():
    assert abs(float(riemann_zeta(-1, 30).value) - (-1 / 12)) < 1e-25
    assert abs(float(riemann_zeta(0, 30).value) - (-1 / 2)) < 1e-25
    z2 = riemann_zeta(2, 30)
    with mp.workdps(45):
        assert abs(z2.value - mp.pi**2 / 6) < mp.mpf(10) ** -28


# A p-periodic Dirichlet series sum_{n>=1} f(n)/n^s folds into
# sum_r f(r) p^(-s) zeta(s, r/p); a signed series over rho + Z folds into
# pairs w zeta(s, x) - w zeta(s, 1 - x).  Both are hurwitz_sum terms.


def term_rows(terms):
    """The row sets of hurwitz_sum for a term map (s, p, a) -> w: the key
    a = 1/2 + h becomes the row |h| D of its (s, p), its weight w Q the
    entry of the sign of h, with D and Q the least common denominators of
    the |h| and the w of that (s, p)."""
    groups = defaultdict(list)
    for (s, p, a), w in terms.items():
        groups[s, p].append((Fraction(a) - Fraction(1, 2), Fraction(w)))
    series = defaultdict(dict)
    for (s, p), keys in groups.items():
        D = math.lcm(*(h.denominator for h, _ in keys))
        Q = math.lcm(*(w.denominator for _, w in keys))
        rows = {}
        for h, w in keys:
            rows.setdefault(int(abs(h) * D), [0, 0])[h < 0] += int(w * Q)
        series[s][p] = (D, Q, rows)
    return series


def test_periodic_split_identity_case():
    got = hurwitz_sum(term_rows({(2, 1, 1): 1}), 30)
    with mp.workdps(45):
        assert abs(got.value - mp.pi**2 / 6) < mp.mpf(10) ** -27


def test_periodic_split_odd_n_only():
    # sum over odd n of 1/n^2 = (1 - 1/4) zeta(2) = pi^2/8
    got = hurwitz_sum(term_rows({(2, 2, Fraction(1, 2)): 1, (2, 2, 1): 0}), 30)
    with mp.workdps(45):
        assert abs(got.value - mp.pi**2 / 8) < mp.mpf(10) ** -27


def test_periodic_split_alternating():
    # sum (-1)^(n+1)/n^2 = pi^2/12
    got = hurwitz_sum(term_rows({(2, 2, Fraction(1, 2)): 1, (2, 2, 1): -1}), 30)
    with mp.workdps(45):
        assert abs(got.value - mp.pi**2 / 12) < mp.mpf(10) ** -27


def test_periodic_split_matches_partial_sum_at_s3():
    rng = random.Random(17)
    table = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(5)]
    got = hurwitz_sum(term_rows({(3, 5, Fraction(r, 5)): f for r, f in enumerate(table, start=1)}), 30)
    n_terms = 10**6
    vals = [float(t) for t in table]
    partial = math.fsum(vals[(n - 1) % 5] / n**3 for n in range(1, n_terms + 1))
    # tail bound: max|f| * sum_{n>N} n^-3 < max|f| / (2 N^2)
    bound = max(abs(v) for v in vals) / (2 * n_terms**2) + 1e-12
    assert abs(float(got.value) - partial) < bound


def _count_hurwitz_calls(monkeypatch):
    calls = []
    real = hurwitz_zeta

    def counted(s, a, precision=30):
        calls.append((s, a))
        return real(s, a, precision)

    monkeypatch.setattr("seifinv.numkernel.hurwitz_zeta", counted)
    return calls


def _count_centre_passes(monkeypatch):
    """Record the Euler-Maclaurin passes at the Taylor centre 5/2 as the
    list of zeta(s', 5/2) values each evaluates."""
    passes = []
    real = numkernel._em_shifts

    def counted(s, a, J, precision, step=1):
        if a == Fraction(5, 2):
            passes.append([s + step * i for i in range(J)])
        return real(s, a, J, precision, step)

    monkeypatch.setattr("seifinv.numkernel._em_shifts", counted)
    return passes


def _mpf(x):
    return mp.mpf(x.numerator) / x.denominator


def test_hurwitz_sum_moments_against_per_key_reference(monkeypatch):
    # non-antisymmetric weights need the even centre values too; keys of an
    # integer s <= 0 ride along by the exact route
    rng = random.Random(29)
    for s, digits in ((Fraction(7, 3), 20), (Fraction(-5, 4), 15)):
        terms = defaultdict(Fraction)
        for _ in range(200):
            q = rng.randint(1, 20)
            a = Fraction(rng.randint(1, q), q)
            terms[s, rng.choice((1, 3, 7)), a] += Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        terms[-2, 5, Fraction(1, 3)] += Fraction(3, 4)
        calls = _count_hurwitz_calls(monkeypatch)
        passes = _count_centre_passes(monkeypatch)
        got = hurwitz_sum(term_rows(terms), digits)
        assert any(s + 2 in centre for centre in passes)  # an even order, past zeta(s, 5/2)
        assert len(calls) == len(set(calls)) < len({a for (_, _, a), w in terms.items() if w})
        # the reference: each distinct zeta(s', a) by mpmath at 2 digits + 20
        with mp.workdps(2 * digits + 20):
            zeta = {(s1, a): mp.zeta(_mpf(s1), _mpf(a)) for s1, _, a in terms}
            ref = sum(_mpf(w) * mp.mpf(p) ** -_mpf(s1) * zeta[s1, a] for (s1, p, a), w in terms.items())
            assert abs(got.value - ref) <= got.eps, (s, digits, abs(got.value - ref), got.eps)


def test_hurwitz_sum_moments_with_weights_beyond_float_range(monkeypatch):
    # the common denominator of the weights is 2^1100, past any float: the
    # truncation tail is scaled by it in integers
    s = Fraction(1, 2)
    terms = {(s, 3, Fraction(k, 29)): Fraction(2**1100 + k, 2**1100) for k in range(1, 29)}
    calls = _count_hurwitz_calls(monkeypatch)
    passes = _count_centre_passes(monkeypatch)
    got = hurwitz_sum(term_rows(terms), 30)
    assert passes and not calls
    with mp.workdps(60):
        ref = sum(_mpf(w) * mp.mpf(3) ** -0.5 * mp.zeta(0.5, _mpf(a)) for (_, _, a), w in terms.items())
        assert abs(got.value - ref) <= got.eps, (abs(got.value - ref), got.eps)


def test_signed_split_zero_function(monkeypatch):
    calls = _count_hurwitz_calls(monkeypatch)
    got = hurwitz_sum(term_rows({(2, 3, Fraction(k + 1, 9)): 0 for k in range(3)}), 30)
    assert (got.value, got.eps, calls) == (0, 0, [])


def test_signed_split_half_symmetry(monkeypatch):
    # at rho = 1/2 the pair zeta(0, rho) - zeta(0, 1 - rho) merges to a zero
    # weight: exactly 0, with no Hurwitz evaluation
    calls = _count_hurwitz_calls(monkeypatch)
    rho = Fraction(1, 2)
    terms = defaultdict(Fraction)
    terms[0, 1, rho] += 1
    terms[0, 1, 1 - rho] -= 1
    got = hurwitz_sum(term_rows(terms), 30)
    assert (got.value, got.eps, calls) == (0, 0, [])


def test_signed_split_quarter():
    # zeta(0, rho) - zeta(0, 1 - rho) = 1 - 2 rho
    got = hurwitz_sum(term_rows({(0, 1, Fraction(1, 4)): 1, (0, 1, Fraction(3, 4)): -1}), 30)
    assert abs(float(got.value) - 0.5) < 1e-28


def test_signed_split_rejects_bad_rho():
    # a signed pair at rho outside (0, 1) puts a term outside (0, 1]
    for rho in (Fraction(3, 2), Fraction(0)):
        with pytest.raises(ValueError, match="requires 0 < a <= 1"):
            hurwitz_sum(term_rows({(2, 1, rho): 1, (2, 1, 1 - rho): -1}), 30)


def test_rows_outside_unit_interval_raise():
    # 2U < D, or 2U = D with no weight at a = 0; a row with no weight is no key
    at_one = hurwitz_sum({2: {1: (2, 1, {1: [1, 0], 3: [0, 0]})}}, 30)
    assert at_one == hurwitz_sum(term_rows({(2, 1, 1): 1}), 30)
    for U, ws in ((1, [0, 1]), (1, [1, 1]), (3, [1, 0]), (3, [0, -1]), (-1, [1, 0])):
        with pytest.raises(ValueError, match="requires 0 < a <= 1"):
            hurwitz_sum({2: {1: (2, 1, {U: ws})}}, 30)
        with pytest.raises(ValueError, match="requires 0 < a <= 1"):
            hurwitz_sum({-2: {1: (2, 1, {U: ws})}}, 30)


def test_doubling_precision_keeps_leading_digits():
    lo = hurwitz_zeta(Fraction(5, 2), Fraction(1, 3), 30)
    hi = hurwitz_zeta(Fraction(5, 2), Fraction(1, 3), 60)
    with mp.workdps(80):
        assert abs(lo.value - hi.value) < mp.mpf(10) ** -28
    # and the 60-digit value is genuinely tighter
    with mp.workdps(90):
        ref = mp.zeta(mp.mpf(5) / 2, mp.mpf(1) / 3)
        assert abs(hi.value - ref) < mp.mpf(10) ** -58


def test_bigfloat_serialization_carries_precision_tag():
    z = riemann_zeta(2, 30)
    text = str(z)
    assert text.endswith("@30")
    assert text.startswith("1.644934")
    assert isinstance(z, BigFloat)
    assert float(z.eps) < 1e-28


# ---------------------------------------------------------------------------
# the integer primitives under the numeric layer, against mpmath


def _power_corpus():
    """(n, d, s, F): n/d in (0, 3000], s in [-25, 25] with denominators
    1-12, and s = 1 +- 10^-29; F from 50 to 3500 bits, log-uniform, plus
    the extremes at F = 3500."""
    rng = random.Random(2010)
    cases = [
        (2999, 1, Fraction(-25), 3500),
        (1, 3000, Fraction(299, 12), 3500),
        (3000, 7, Fraction(-299, 12), 3500),
        (5, 5, Fraction(7, 3), 200),
    ]
    near_one = [1 + Fraction(1, 10**29), 1 - Fraction(1, 10**29)]
    for F in (50, 160, 700, 3500):
        for s in near_one:
            cases.append((rng.randint(1, 3000), rng.randint(1, 40), s, F))
    while len(cases) < 160:
        d = rng.randint(1, 40)
        n = rng.randint(1, 3000 * d)
        sd = rng.randint(1, 12)
        s = Fraction(rng.randint(-25 * sd, 25 * sd), sd)
        cases.append((n, d, s, int(50 * 70 ** rng.random())))
    return cases


def _power_reference(n, d, s, F):
    """(n/d)^(-s) 2^F at F + 400 bits."""
    with mp.workprec(F + 400):
        return mp.ldexp((mp.mpf(n) / d) ** (-(mp.mpf(s.numerator) / s.denominator)), F)


def test_power_within_its_counted_units():
    # both routes of the fixed-point power: the production choice on every
    # case, the log/exp route also on the small denominators
    for i, (n, d, s, F) in enumerate(_power_corpus()):
        ref = _power_reference(n, d, s, F)
        routes = [fixedpoint.power(n, d, s, F)]
        if s.denominator <= fixedpoint.ROOT_MAX_DENOMINATOR and i % 3 == 0:
            routes.append(fixedpoint.power_exp(n, d, s, F))
        for v, e in routes:
            assert 1 <= e <= 4, (n, d, s, F, e)
            with mp.workprec(F + 400):
                assert abs(v - ref) <= e, (n, d, s, F, v, e)


def test_integer_root_is_the_floor():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(1, 12)
        x = rng.getrandbits(rng.randint(1, 3000))
        y = fixedpoint._iroot(x, k)
        assert y**k <= x < (y + 1) ** k, (x, k)


def _round_rational(num, den, prec):
    """num/den (den > 0) rounded to nearest at prec bits, ties to even, as
    (man, exp)."""
    if not num:
        return 0, 0
    a = abs(num)
    e = a.bit_length() - den.bit_length() - prec
    n, d = (a, den << e) if e >= 0 else (a << -e, den)
    if n >= d << prec:
        d, e = d << 1, e + 1
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return (q if num > 0 else -q), e


def _dyadic_corpus():
    """(man, exp, digits): 0, signed mantissas of 1-400 bits at magnitudes
    10^-60..10^60 (both sides of mpmath's fixed-notation window), exact
    halves, values just below a power of ten or a ...999 run, so that
    rounding carries through the nines, magnitudes on both sides of
    2^+-3500 and far beyond, decimal ties there, and more than 4300
    digits."""
    rng = random.Random(4)
    cases = [(0, 0, d) for d in (1, 5, 30)]
    cases += [(1, -3, 2), (5, -1, 1), (-5, -1, 1), (25, -2, 2), (15, -4, 3)]
    while len(cases) < 1500:
        bits = rng.randint(1, 400)
        man = rng.getrandbits(bits) | (1 << (bits - 1))
        exp = round(rng.uniform(-60, 60) * math.log2(10)) - bits
        cases.append(((-man if rng.random() < 0.3 else man), exp, rng.randint(1, 100)))
    while len(cases) < 2200:
        # k leading digits then a run of nines, rounded to a dyadic
        k, nines = rng.randint(1, 40), rng.randint(1, 60)
        head = rng.randint(10 ** (k - 1), 10**k - 1) if rng.random() < 0.7 else 10**k - 1
        x = Fraction(head * 10**nines + 10**nines - 1, 10 ** rng.randint(0, 120))
        man, exp = _round_rational(x.numerator, x.denominator, rng.randint(60, 500))
        cases.append((man, exp, rng.randint(max(1, k - 1), min(100, k + nines + 2))))
    while len(cases) < 2500:
        # leading bit at 2^+-(3500 + d): mpmath first divides by 10^b there
        bits = rng.choice((1, 3, rng.randint(1, 400), rng.randint(3000, 4500)))
        man = rng.getrandbits(bits) | (1 << (bits - 1))
        top = rng.choice((3400, 3499, 3500, 3501, 3502, 3600, 5000, 10**5)) + rng.randint(-2, 2)
        cases.append((man * rng.choice((1, -1)), rng.choice((1, -1)) * top - bits, rng.randint(1, 100)))
    while len(cases) < 2700:
        # a decimal tie h 10^k, h ending in 5, within an ulp beyond 2^+-3500:
        # the digits hang on how 10^b and the quotient were rounded
        digits = rng.randint(1, 30)
        h = rng.randint(10**digits, 10 ** (digits + 1) - 1) // 10 * 10 + 5
        k = rng.choice((1, -1)) * rng.randint(1060, 1600) - digits
        x = Fraction(h) * Fraction(10) ** k
        man, exp = _round_rational(x.numerator, x.denominator, rng.randint(60, 500))
        cases.append((man + rng.choice((-1, 0, 1)), exp, digits))
    for digits in (4299, 4400):
        # past Python's limit on str of an int
        man = rng.getrandbits(14600) | 1
        cases.append((man, -14600 + rng.randint(-9, 9), digits))
    return cases


def _decimal_ties():
    """(h, k, digits): the exact decimal ties h 10^k, h of digits + 1
    digits ending in 5, both signs, at magnitudes 10^-60..10^60 and beyond
    2^+-3500; none of them is dyadic."""
    rng = random.Random(7)
    cases = []
    for top in [60] * 150 + [1600] * 150:
        digits = rng.randint(1, 30)
        h = rng.randint(10**digits, 10 ** (digits + 1) - 1) // 10 * 10 + 5
        k = rng.randint(-top, top) if top == 60 else rng.choice((1, -1)) * rng.randint(1060, top) - digits
        cases.append((h * rng.choice((1, -1)), k, digits))
    return cases


def test_bigfloat_str_is_correctly_rounded():
    # the printed digits are the exact value rounded half away from zero;
    # wherever mp.nstr rounds a dyadic correctly too, the bytes are its
    # bytes.  It misrounds only some of the near-ties beyond 2^+-3500,
    # where it divides by a rounded 10^b (2609 of the 2702 cases agree)
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

    def check(x, value, digits):
        text, at = str(BigFloat(x, digits, 0)).split("@")
        rounded = exact.copy()
        rounded.prec, rounded.rounding = digits, decimal.ROUND_HALF_UP
        want = rounded.plus(value)
        assert at == str(digits) and Decimal(text) == want, (x, digits, text, want)
        return text, want

    agreed = 0
    for man, exp, digits in _dyadic_corpus():
        value = Decimal(man << exp) if exp >= 0 else exact.scaleb(Decimal(man * 5**-exp), exp)
        x = numkernel._fixed(man, -exp)
        text, want = check(x, value, digits)
        theirs = mp.nstr(BigFloat(x, digits, 0).value, digits)
        if Decimal(theirs) == want:
            agreed += 1
            assert text == theirs, (man, exp, digits)
    assert agreed >= 2600, agreed
    for h, k, digits in _decimal_ties():
        check(h * Fraction(10) ** k, exact.scaleb(Decimal(h), k), digits)


def test_exact_rational_prints_its_correctly_rounded_digits():
    # an exact value is rounded once, from its own numerator and denominator
    assert str(BigFloat(Fraction(7, 40), 2, 0)) == "0.18@2"
    assert str(BigFloat(Fraction(1, 400), 1, 0)) == "0.003@1"
    assert str(BigFloat(Fraction(-7, 40), 2, 0)) == "-0.18@2"
    assert str(BigFloat(Fraction(1, 3), 5, 0)) == "0.33333@5"
    assert str(BigFloat(Fraction(2, 3), 5, 0)) == "0.66667@5"


def test_to_str_of_an_integer_part_past_the_str_limit():
    # a 391 556-bit mantissa at 2^+123 458: mpmath divides by 10^b with b
    # from the exponent alone, leaving an integer part of about 117 870
    # digits, which its own to_str only prints with the limit on str lifted
    man = random.Random(24).getrandbits(391556) | 1 << 391555 | 1
    got = fixedpoint.to_str(man, 1 << 268098, 10)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = mp.nstr(BigFloat(Fraction(man, 1 << 268098), 10, 0).value, 10)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want and got.endswith("e+37164"), (got, want)


def test_bigfloat_contract():
    a = BigFloat(Fraction(3, 2), 30, Fraction(1, 2**100))
    b = BigFloat(Fraction(12, 8), 30, Fraction(1 << 20, 2**120))
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "1.5@30"
    assert float(b) == 1.5 and float(BigFloat(-3 * 2**200, 5, 0)) == -3 * 2.0**200
    big = (1 << 3000) + 1
    assert [float(BigFloat(x, 5, 0)) for x in (-3 * 2**5000, Fraction(big, 2**10), Fraction(big, 2**2000))] == [
        float(mp.mpf(-3) * 2**5000), float(mp.mpf(big) / 2**10), float(mp.mpf(big) / 2**2000)]
    assert b.within(Fraction(3, 2), 0) and not b.within(Fraction(3, 2) + Fraction(1, 10**40), 0)
    assert b.value == 1.5 and b.eps == mp.mpf(2) ** -100
    with pytest.raises(AttributeError):
        b.value = b.value
    assert a != BigFloat(Fraction(3, 2), 31, Fraction(1, 2**100))
    # the view of a non-dyadic value is rounded to nearest
    with mp.workdps(40):
        assert BigFloat(Fraction(1, 7), 30, 0).value == mp.mpf(1) / 7


def test_hurwitz_sum_is_thread_safe():
    # no process-global precision is switched: four threads at once give
    # the serial str and eps at every precision
    import threading

    terms = {
        (Fraction(1, 2), 3, Fraction(1, 3)): 1,
        (Fraction(1, 2), 3, Fraction(2, 3)): -1,
        (Fraction(-3, 4), 5, Fraction(2, 5)): Fraction(1, 2),
        (Fraction(-3, 4), 5, Fraction(3, 5)): Fraction(-1, 2),
        (Fraction(7, 3), 1, Fraction(3, 4)): 2,
    }
    precisions = (20, 30, 40)
    serial = {d: hurwitz_sum(term_rows(terms), d) for d in precisions}
    want = {d: (str(v), v.eps) for d, v in serial.items()}
    barrier = threading.Barrier(4)
    seen = []

    def work():
        barrier.wait()
        for _ in range(3):
            for d in precisions:
                v = hurwitz_sum(term_rows(terms), d)
                seen.append((d, str(v), v.eps))

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(seen) == 4 * 3 * len(precisions)
    assert all(want[d] == (text, eps) for d, text, eps in seen)
