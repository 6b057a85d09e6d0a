"""Acceptance suite: every criterion with its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion, with its runtime.  Every equality below is exact rational
arithmetic unless a numeric tolerance is stated.
"""

import random
import time
from fractions import Fraction
from math import gcd

from mpmath import mp

from seifinv import dedekind as ded
from seifinv import lattice as lat
from seifinv import swfloer as swf
from seifinv.cli import PAPER_TABLE, PLUMBING_237, compute_row
from seifinv.eta import (
    eta_dirac_levicivita,
    eta_series,
    eta_signature,
    eta_zero_flat,
    eta_zero_flat_direct,
    eta_zero_pullback,
    flat_context,
    froyshov_F,
    pullback_context,
    serre_dual_coupling,
    trivial_flat_context,
)
from seifinv.numkernel import frac, sawtooth
from seifinv.orbifold import Orbifold, VLineBundle, add_bundles, rational_degree
from seifinv.seifert import SeifertData, brieskorn

# the goldens live beside the unit tests of their layer
from tests.test_lattice import GOLDEN_B
from tests.test_swfloer import LADDER_2, LADDER_3, POLYNOMIALS


def _report(number: int, started: float, description: str) -> None:
    elapsed = (time.perf_counter() - started) * 1000
    print(f"[acceptance] criterion {number:02d} PASS ({elapsed:8.1f} ms): {description}")


def _random_coprime_triple(rng, lo=2, hi=50, abc_max=None):
    while True:
        t = tuple(sorted(rng.sample(range(lo, hi), 3)))
        if any(gcd(t[i], t[j]) != 1 for i in range(3) for j in range(i + 1, 3)):
            continue
        if abc_max is not None and t[0] * t[1] * t[2] > abc_max:
            continue
        return t


def test_criterion_01_dedekind_worked_example():
    start = time.perf_counter()
    x = Fraction(2, 7)
    assert ded.dr_sum_direct(4, 7, x, 0) == Fraction(-3, 28)
    assert ded.dr_sum_fast(4, 7, x, 0) == Fraction(-3, 28)
    # budget: < 1 ms for the two evaluations (best of 5)
    best = min(
        _time_once(lambda: (ded.dr_sum_direct(4, 7, x, 0), ded.dr_sum_fast(4, 7, x, 0)))
        for _ in range(5)
    )
    assert best < 1e-3, f"worked example took {best * 1e3:.3f} ms"
    _report(1, start, "s(4,7;2/7,0) = -3/28 by both routes, < 1 ms")


def _time_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_reciprocity_oracle():
    start = time.perf_counter()
    rng = random.Random(7)
    for _ in range(500):
        alpha = rng.randint(1, 200)
        beta = rng.choice([b for b in range(1, 2 * alpha + 2) if gcd(b, alpha) == 1])
        xd, yd = rng.randint(1, 12), rng.randint(1, 12)
        x, y = Fraction(rng.randrange(xd), xd), Fraction(rng.randrange(yd), yd)
        direct = ded.dr_sum_direct(beta, alpha, x, y)
        assert ded.dr_sum_fast(beta, alpha, x, y) == direct
        assert direct + ded.dr_sum_direct(alpha, beta, y, x) == ded.reciprocity_R(
            beta, alpha, x, y
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"oracle corpus took {elapsed:.2f} s"
    _report(2, start, "500 random reciprocity + fast-vs-direct identities, exact")


def test_criterion_03_poincare_sphere():
    start = time.perf_counter()
    N = brieskorn(2, 3, 5)
    ctx = trivial_flat_context(N)
    assert ctx.rho == Fraction(1, 2)
    assert eta_zero_flat(ctx) == Fraction(539, 360)
    const = N.ell / 3 - (-1) - 4 * ded.S_composite(N.alphas, N.betas, (0, 0, 0))
    assert const == Fraction(181, 90)
    assert froyshov_F(N) == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 0.010, f"Poincare sphere chain took {elapsed * 1e3:.1f} ms"
    _report(3, start, "Sigma(2,3,5): eta(0) = 539/360, const = 181/90, F = 8")


def test_criterion_04_froyshov_table():
    start = time.perf_counter()
    for triple, want in PAPER_TABLE.items():
        row = compute_row(*triple)
        assert (row.F, row.eight_m, row.Z) == want, triple
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"table took {elapsed:.2f} s"
    _report(4, start, "all nine (F, 8m, Z) table rows, exact")


def test_criterion_05_polynomial_list():
    start = time.perf_counter()
    for triple, coeffs in POLYNOMIALS.items():
        assert swf.poincare_polynomial(*triple) == swf.LaurentPolynomial(coeffs), triple
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"polynomial list took {elapsed:.2f} s"
    _report(5, start, "all nine published Poincare polynomials, exact")


def test_criterion_06_periodic_families():
    start = time.perf_counter()
    for k in range(1, 51):
        row = compute_row(2, 3, 6 * k + 1)
        j = (k + 1) // 2
        assert row.P == swf.LaurentPolynomial({-1 if k % 2 else 1: j}), k
        assert row.F == (-8 if k % 2 else 0) and row.Z == 0, k
        row = compute_row(2, 3, 6 * k - 1)
        if k % 2 == 0:
            assert row.P == swf.LaurentPolynomial({-1: k // 2}) and row.F == 0, k
        else:
            assert row.P == swf.LaurentPolynomial({1: (k - 1) // 2}) and row.F == 8, k
        assert row.Z == 8, k
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"families took {elapsed:.2f} s"
    _report(6, start, "Sigma(2,3,6k+-1) for k = 1..50: P, F and Z patterns")


def test_criterion_07_ladder_regressions():
    # experimentally observed in the source material; enforced as frozen
    # regression expectations
    start = time.perf_counter()
    for k, coeffs in LADDER_2.items():
        row = compute_row(2, 4 * k + 1, 4 * k + 3)
        assert row.P == swf.LaurentPolynomial(coeffs), k
        assert row.F == 0 and row.Z == 0, k
    for s, coeffs in LADDER_3.items():
        row = compute_row(3, 3 * s + 1, 3 * s + 2)
        assert row.P == swf.LaurentPolynomial(coeffs), s
        assert row.F == 0 and row.Z == 0, s
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"ladders took {elapsed:.2f} s"
    _report(7, start, "T^d ladder polynomials for both contractible-bounding families")


def test_criterion_08_rohlin_congruence():
    start = time.perf_counter()
    rng = random.Random(2026)
    seen = set()
    while len(seen) < 100:
        a = rng.randint(2, 40)
        b = rng.randint(a + 1, 120)
        c = rng.randint(b + 1, max(b + 2, 100000 // (a * b)))
        t = (a, b, c)
        if t in seen or a * b * c > 100000:
            continue
        if any(gcd(t[i], t[j]) != 1 for i in range(3) for j in range(i + 1, 3)):
            continue
        f = froyshov_F(brieskorn(*t))
        assert f.denominator == 1 and f.numerator % 8 == 0, t
        seen.add(t)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"Rohlin sweep took {elapsed:.2f} s"
    _report(8, start, "F in 8Z for 100 random triples with abc <= 1e5")


def test_criterion_09_r_independence():
    start = time.perf_counter()
    rng = random.Random(31)
    for _ in range(20):
        t = _random_coprime_triple(rng, 2, 40)
        N = brieskorn(*t)
        ctx = trivial_flat_context(N)
        r1, r2 = Fraction(1, 2), Fraction(1, 10)
        v1 = 4 * eta_dirac_levicivita(ctx, r1) + eta_signature(N, r1)
        v2 = 4 * eta_dirac_levicivita(ctx, r2) + eta_signature(N, r2)
        assert v1 == v2, t
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"r-independence took {elapsed:.2f} s"
    _report(9, start, "4 eta_LC + eta_sign identical at r = 1/2 and r = 1/10, 20 spheres")


def _random_seifert(rng):
    while True:
        m = rng.randint(1, 3)
        alphas = tuple(rng.randint(2, 10) for _ in range(m))
        betas = tuple(
            rng.choice([b for b in range(1, a) if gcd(a, b) == 1]) for a in alphas
        )
        N = SeifertData(Orbifold(rng.randint(0, 1), alphas), betas, rng.randint(-3, 2))
        if N.ell != 0:
            return N


def test_criterion_10_series_vs_exact():
    start = time.perf_counter()
    rng = random.Random(37)
    pullback_done = flat_done = 0
    while pullback_done < 10 or flat_done < 10:
        N = _random_seifert(rng)
        L = VLineBundle(N.base, 0, tuple(rng.randrange(a) for a in N.alphas))
        if pullback_done < 10:
            ctx = pullback_context(N, L)
            exact = eta_zero_pullback(ctx)
            got = eta_series(ctx, 0, 30)
            with mp.workdps(45):
                diff = abs(got.value - mp.mpf(exact.numerator) / exact.denominator)
                assert diff < mp.mpf(10) ** -26
            pullback_done += 1
        ctx = flat_context(N, L)
        if ctx.rho != 0 and flat_done < 10:
            exact = eta_zero_flat(ctx)
            got = eta_series(ctx, 0, 30)
            with mp.workdps(45):
                diff = abs(got.value - mp.mpf(exact.numerator) / exact.denominator)
                assert diff < mp.mpf(10) ** -26
            flat_done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"series consistency took {elapsed:.2f} s"
    _report(10, start, "eta series at s = 0 within 1e-26 of exact, both branches")


def test_criterion_11_lattice_golden_values():
    start = time.perf_counter()
    q = lat.plumbing_form(2, 3, 7)
    assert q.matrix == PLUMBING_237
    inv = lat.form_inverse(q)
    assert tuple(tuple(int(x) for x in row) for row in inv) == GOLDEN_B
    assert lat.theta_invariant(lat.minus_e8()) == 8
    for k in range(1, 9):
        q = lat.plumbing_form(2, 3, 6 * k + 1)
        assert lat.theta_invariant(q) == 0, k
        diag_rank, residual = lat.hnk_split_diagonalize(q)
        assert residual is None and diag_rank == q.rank, k
        q = lat.plumbing_form(2, 3, 6 * k - 1)
        assert lat.theta_invariant(q) == 8, k
        diag_rank, residual = lat.hnk_split_diagonalize(q)
        assert residual is not None and residual.rank == 8, k
        assert lat.is_even(residual) and lat.is_minus_e8(residual), k
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"lattice golden values took {elapsed:.2f} s"
    _report(11, start, "plumbing golden matrices, Theta and HNK splits, k <= 8")


def test_criterion_12_property_suites():
    start = time.perf_counter()
    rng = random.Random(41)

    # sawtooth oddness and periodicity
    for _ in range(300):
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
        assert sawtooth(-x) == -sawtooth(x)
        assert sawtooth(x + 1) == sawtooth(x)
        assert 0 <= frac(x) < 1

    # degree additivity over random bundles
    for _ in range(200):
        m = rng.randint(0, 4)
        base = Orbifold(rng.randint(0, 3), tuple(rng.randint(2, 12) for _ in range(m)))
        l1 = VLineBundle(base, rng.randint(-5, 5), tuple(rng.randrange(a) for a in base.alphas))
        l2 = VLineBundle(base, rng.randint(-5, 5), tuple(rng.randrange(a) for a in base.alphas))
        assert rational_degree(add_bundles(l1, l2)) == rational_degree(l1) + rational_degree(l2)

    # Serre symmetry of eta(0) and the flat dual-route identity
    for _ in range(40):
        N = _random_seifert(rng)
        L = VLineBundle(N.base, rng.randint(-2, 2), tuple(rng.randrange(a) for a in N.alphas))
        ctx = pullback_context(N, L)
        assert eta_zero_pullback(ctx) == eta_zero_pullback(serre_dual_coupling(ctx))
        flat = flat_context(N, L)
        assert eta_zero_flat(flat) == eta_zero_flat_direct(flat)

    # odd exponent parity across all coprime triples with abc <= 4000
    for a in range(2, 16):
        for b in range(a + 1, 4000 // a + 1):
            if gcd(a, b) != 1:
                continue
            for c in range(b + 1, 4000 // (a * b) + 1):
                if gcd(a, c) != 1 or gcd(b, c) != 1:
                    continue
                P = swf.poincare_polynomial(a, b, c)
                assert all(e % 2 != 0 for e in P.exponents()), (a, b, c)

    # Theta properties P1, P2, P4
    zoo = [lat.plumbing_form(2, 3, 6 * k + 1) for k in range(1, 4)]
    zoo += [lat.plumbing_form(2, 3, 6 * k - 1) for k in range(1, 4)]
    zoo += [lat.diagonal_form([-1] * n) for n in range(1, 5)]
    zoo.append(lat.minus_e8())
    for q in zoo:
        theta = lat.theta_invariant(q)
        assert theta % 8 == 0
        assert 0 <= theta <= q.rank
        assert (theta == q.rank) == lat.is_even(q)
    for q1 in (lat.diagonal_form([-1]), lat.diagonal_form([-1, -1, -1])):
        for reps in (1, 2):
            q2 = lat.minus_e8()
            for _ in range(reps - 1):
                q2 = lat.direct_sum(q2, lat.minus_e8())
            assert lat.theta_invariant(lat.direct_sum(q1, q2)) == lat.theta_invariant(q1) + q2.rank

    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"property suites took {elapsed:.2f} s"
    _report(12, start, "sawtooth/degree/Serre/dual-route/parity/Theta property suites")
