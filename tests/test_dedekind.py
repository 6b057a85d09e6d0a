"""Dedekind-Rademacher sums: oracle equivalences and the reciprocity law."""

import random
import tracemalloc
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt
from operator import mod, mul

import pytest

from seifinv import dedekind, eta
from seifinv.dedekind import (
    F_rho,
    S_composite,
    S_rho,
    _residue_moment,
    corner_sum,
    d_composite,
    dr_sum_direct,
    dr_sum_fast,
    reciprocity_R,
)
from seifinv.numkernel import sawtooth
from seifinv.orbifold import VLineBundle
from seifinv.seifert import brieskorn


def _naive_dr_sum_direct(beta, alpha, x=0, y=0):
    # the per-term loop that dr_sum_direct ran before its one-pass form
    x, y = Fraction(x), Fraction(y)
    px, qx = x.numerator, x.denominator
    py, qy = y.numerator, y.denominator
    d1 = alpha * qx * qy
    d2 = alpha * qy
    total = 0
    for r in range(1, alpha + 1):
        n2 = r * qy + py
        m2 = n2 % d2
        if m2 == 0:
            continue
        m1 = (px * alpha * qy + beta * n2 * qx) % d1
        if m1 == 0:
            continue
        total += (2 * m1 - d1) * (2 * m2 - d2)
    return Fraction(total, 4 * d1 * d2)


def _naive_corner_sum(alpha, beta, gamma, sign=1):
    # the per-term loop that corner_sum ran before its one-pass form
    gamma %= alpha
    acc = 0
    for r in range(1, alpha + 1):
        m2 = r % alpha
        if m2 == 0:
            continue
        acc += ((gamma + sign * r * beta) % alpha) * (2 * m2 - alpha)
    return Fraction(acc, 2 * alpha * alpha)


def _oracle_corpus():
    """Seeded (beta, alpha, x, y): alpha = 1 with beta = 0, beta of both
    signs and beyond +-alpha, shifts integral and not, inside and outside
    [0, 1), and x = k/d with d | alpha, which puts an r with m1 = 0 in
    the period also when y is not integral."""
    rng = random.Random(53)
    cases = [(0, 1, 0, 0), (0, 1, Fraction(1, 3), Fraction(-5, 2)), (1, 1, 2, -3)]
    for _ in range(1500):
        alpha = rng.randint(1, 120)
        beta = rng.choice([b for b in range(-2 * alpha - 1, 2 * alpha + 2) if gcd(b, alpha) == 1])
        shifts = []
        for _ in range(2):
            kind = rng.randrange(3)
            if kind == 0:
                shifts.append(Fraction(rng.randint(-3, 3)))
            elif kind == 1:
                d = rng.randint(2, 12)
                shifts.append(Fraction(rng.randint(-3 * d, 3 * d), d))
            else:
                d = rng.choice([d for d in range(1, alpha + 1) if alpha % d == 0])
                shifts.append(Fraction(rng.randint(-2 * d, 2 * d), d))
        cases.append((beta, alpha, *shifts))
    return cases


def _m1_vanishes(beta, alpha, x, y):
    # some r in the period puts x + beta (r + y)/alpha on an integer
    args = (x + Fraction(beta * (r + y), alpha) for r in range(1, alpha + 1))
    return any(arg.denominator == 1 for arg in args)


def test_dr_sum_direct_against_per_term_loop():
    kinds = ["beta<0", "m1=0", "m1=0, y not integral", "y integral", "x outside [0,1)"]
    seen = dict.fromkeys(kinds, 0)
    for beta, alpha, x, y in _oracle_corpus():
        assert dr_sum_direct(beta, alpha, x, y) == _naive_dr_sum_direct(beta, alpha, x, y), (
            beta, alpha, x, y,
        )
        seen["beta<0"] += beta < 0
        m1_vanishes = _m1_vanishes(beta, alpha, x, y)
        seen["m1=0"] += m1_vanishes
        y_integral = Fraction(y).denominator == 1
        seen["m1=0, y not integral"] += m1_vanishes and not y_integral
        seen["y integral"] += y_integral
        seen["x outside [0,1)"] += not 0 <= x < 1
    assert min(seen.values()) >= 40, seen


def test_corner_sum_against_per_term_loop():
    rng = random.Random(59)
    cases = [(1, 0, 0), (1, -3, 2), (2, 1, -1)]
    for _ in range(800):
        alpha = rng.randint(1, 120)
        beta = rng.choice([b for b in range(-2 * alpha - 1, 2 * alpha + 2) if gcd(b, alpha) == 1])
        cases.append((alpha, beta, rng.randint(-2 * alpha, 2 * alpha)))
    for alpha, beta, gamma in cases:
        for sign in (1, -1):
            want = _naive_corner_sum(alpha, beta, gamma, sign)
            assert corner_sum(alpha, beta, gamma, sign) == want, (alpha, beta, gamma, sign)


def _one_pass_residue_moment(c, step, alpha):
    # the one C-level pass over all alpha terms that _residue_moment ran
    # before its arithmetic-progression runs; step must not be 0 mod alpha
    if alpha == 1:
        return 0
    c, step = c % alpha, step % alpha
    return sum(map(mul, map(mod, range(c, c + step * alpha, step), repeat(alpha)), range(alpha)))


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


def _moment_corpus():
    """Seeded (c, step, alpha): every alpha <= 4 with every step and c in
    [-9, 9]; then perfect squares and primes up to about 2e5, each with
    step = +-1, +-2, near +-alpha/2 and one at random mod alpha, shifted by
    a random multiple of alpha, and c anywhere in [-3 alpha, 3 alpha]."""
    rng = random.Random(67)
    cases = [
        (c, step, alpha)
        for alpha in (1, 2, 3, 4)
        for step in range(-9, 10)
        for c in range(-9, 10)
        if alpha == 1 or step % alpha
    ]
    squares = [k * k for k in (2, 3, 5, 12, 31, 100, 316, 447)]
    primes = [2, 3, 5, 7, 199999]
    for _ in range(12):
        n = int(10 ** rng.uniform(1, 5.2))
        while not _is_prime(n):
            n += 1
        primes.append(n)
    for alpha in squares + primes:
        half = alpha // 2
        for base in (1, -1, 2, -2, half, half + 1, -half, rng.randrange(1, alpha)):
            if base % alpha:
                step = base + alpha * rng.randint(-2, 2)
                cases.append((rng.randint(-3 * alpha, 3 * alpha), step, alpha))
    return cases


def test_residue_moment_against_one_pass():
    kinds = ["c<0", "c>=alpha", "step<0", "step>=alpha", "alpha>1e5 prime", "square"]
    seen = dict.fromkeys(kinds, 0)
    for c, step, alpha in _moment_corpus():
        assert _residue_moment(c, step, alpha) == _one_pass_residue_moment(c, step, alpha), (
            c, step, alpha,
        )
        seen["c<0"] += c < 0
        seen["c>=alpha"] += c >= alpha
        seen["step<0"] += step < 0
        seen["step>=alpha"] += step >= alpha
        seen["alpha>1e5 prime"] += alpha > 10**5 and _is_prime(alpha)
        seen["square"] += alpha > 4 and isqrt(alpha) ** 2 == alpha
    assert min(seen.values()) >= 8, seen


def test_dr_sum_direct_at_alpha_1e9():
    # a pass over all alpha terms could not finish here: the runs number
    # about sqrt(alpha), a few 10^4
    alpha = 10**9 + 7
    shifts = ((123456789, Fraction(2, 7), Fraction(-5, 3)), (-2, Fraction(1, 2), Fraction(3, 10)))
    for beta, x, y in shifts:
        assert dr_sum_direct(beta, alpha, x, y) == dr_sum_fast(beta, alpha, x, y), beta


def test_oracles_never_reach_the_fast_route(monkeypatch):
    # the oracles stay independent of what they check: no Euclid descent
    # and no reciprocity, on a rho = 0 and a rho = 1/2 triple
    def refuse(*args):
        raise AssertionError("fast route reached")

    for name in ("dr_sum_fast", "_fast", "reciprocity_R"):
        monkeypatch.setattr(dedekind, name, refuse)
    assert dr_sum_direct(4, 7, Fraction(2, 7), 0) == Fraction(-3, 28)
    assert corner_sum(7, 4, 2, 1) == Fraction(-1, 14)
    assert corner_sum(7, 4, 2, -1) == Fraction(1, 14)
    N = brieskorn(2, 3, 5)
    ctx = eta.pullback_context(N, VLineBundle(N.base, 0, (0, 0, 0)))
    assert eta.eta_zero_pullback_direct(ctx) == Fraction(91, 180)
    known = (((3, 5, 7), 0, Fraction(-473, 630)), ((2, 3, 7), Fraction(1, 2), Fraction(-925, 504)))
    for triple, rho, want in known:
        flat = eta.trivial_flat_context(brieskorn(*triple))
        assert flat.rho == rho, triple
        assert eta.eta_zero_flat_direct(flat) == want, triple


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracles_run_in_constant_memory():
    # alpha = 100003 terms in O(1) memory; a list of them would take MBs
    alpha, beta, gamma = 100003, 41789, 5021
    peaks = [
        _peak_bytes(dr_sum_direct, beta, alpha),
        _peak_bytes(corner_sum, alpha, beta, gamma, 1),
        _peak_bytes(corner_sum, alpha, beta, gamma, -1),
    ]
    assert max(peaks) < 64 * 1024, peaks


def test_worked_example_both_routes():
    want = Fraction(-3, 28)
    assert dr_sum_direct(4, 7, Fraction(2, 7), 0) == want
    assert dr_sum_fast(4, 7, Fraction(2, 7), 0) == want


def test_direct_small_cases():
    assert dr_sum_direct(1, 1, 0, 0) == 0
    assert dr_sum_direct(2, 3, 0, 0) == Fraction(-1, 18)
    assert dr_sum_fast(1, 7, 0, 0) == Fraction(5, 14)
    assert dr_sum_fast(4, 5, 0, 0) == Fraction(-1, 5)


def test_reciprocity_values():
    assert reciprocity_R(1, 1, 0, 0) == 0
    r = reciprocity_R(4, 7, Fraction(2, 7), 0)
    assert r == Fraction(1, 56)
    assert r == dr_sum_direct(4, 7, Fraction(2, 7), 0) + dr_sum_direct(7, 4, 0, Fraction(2, 7))
    lhs = reciprocity_R(3, 4, Fraction(2, 7), Fraction(2, 7))
    rhs = dr_sum_direct(3, 4, Fraction(2, 7), Fraction(2, 7)) + dr_sum_direct(
        4, 3, Fraction(2, 7), Fraction(2, 7)
    )
    assert lhs == rhs


def test_reciprocity_symmetric():
    assert reciprocity_R(3, 4, Fraction(2, 7), Fraction(2, 7)) == reciprocity_R(
        4, 3, Fraction(2, 7), Fraction(2, 7)
    )


def test_validation():
    with pytest.raises(ValueError):
        dr_sum_direct(2, 4, 0, 0)
    with pytest.raises(ValueError):
        dr_sum_direct(1, 0, 0, 0)
    with pytest.raises(ValueError):
        reciprocity_R(-3, 4, 0, 0)


def _random_case(rng):
    alpha = rng.randint(1, 200)
    beta = rng.choice([b for b in range(1, 2 * alpha + 2) if gcd(b, alpha) == 1])
    xd = rng.randint(1, 12)
    yd = rng.randint(1, 12)
    x = Fraction(rng.randrange(xd), xd)
    y = Fraction(rng.randrange(yd), yd)
    return beta, alpha, x, y


def test_reciprocity_and_oracle_random_corpus():
    rng = random.Random(7)
    for _ in range(150):
        beta, alpha, x, y = _random_case(rng)
        direct = dr_sum_direct(beta, alpha, x, y)
        assert dr_sum_fast(beta, alpha, x, y) == direct
        assert direct + dr_sum_direct(alpha, beta, y, x) == reciprocity_R(beta, alpha, x, y)


def test_shift_invariance():
    rng = random.Random(13)
    for _ in range(40):
        beta, alpha, x, y = _random_case(rng)
        base = dr_sum_direct(beta, alpha, x, y)
        for m in range(-3, 4):
            assert dr_sum_direct(beta - m * alpha, alpha, x + m * y, y) == base


def test_periodicity_in_x_and_y():
    rng = random.Random(29)
    for _ in range(40):
        beta, alpha, x, y = _random_case(rng)
        base = dr_sum_direct(beta, alpha, x, y)
        assert dr_sum_direct(beta, alpha, x + 1, y) == base
        assert dr_sum_direct(beta, alpha, x, y + 1) == base


def test_parity_at_zero_y():
    rng = random.Random(31)
    for _ in range(40):
        alpha = rng.randint(2, 60)
        beta = rng.choice([b for b in range(1, alpha) if gcd(b, alpha) == 1])
        gamma = rng.randrange(alpha)
        x = Fraction(gamma, alpha)
        # termwise sawtooth oddness gives both parity identities
        assert dr_sum_direct(-beta, alpha, x, 0) == -dr_sum_direct(beta, alpha, -x, 0)
        assert dr_sum_direct(-beta, alpha, x, 0) == -dr_sum_direct(beta, alpha, x, 0)


def test_corner_examples():
    assert corner_sum(2, 1, 0, +1) == 0
    assert corner_sum(3, 2, 0, +1) == Fraction(-1, 18)
    assert corner_sum(5, 4, 0, -1) == Fraction(1, 5)


def test_corner_decomposition_exhaustive():
    # S^+- = s(+-beta, alpha; gamma/alpha, 0) +- 1/2 ((q gamma/alpha)), both
    # sides oracles, over every 1 <= gamma < alpha <= 60 and coprime beta
    for alpha in range(2, 61):
        for beta in range(1, alpha):
            if gcd(beta, alpha) != 1:
                continue
            q = pow(beta, -1, alpha)
            for gamma in range(1, alpha):
                for sign in (1, -1):
                    want = dr_sum_direct(sign * beta, alpha, Fraction(gamma, alpha), 0)
                    want += Fraction(sign, 2) * sawtooth(Fraction(q * gamma, alpha))
                    assert corner_sum(alpha, beta, gamma, sign) == want, (alpha, beta, gamma, sign)


def test_corner_decomposition_against_fast_route():
    # the same reduction with the Euclid-style evaluator on the right
    rng = random.Random(37)
    for _ in range(200):
        alpha = rng.randint(2, 60)
        beta = rng.choice([b for b in range(1, alpha) if gcd(b, alpha) == 1])
        gamma = rng.randrange(1, alpha)
        sign = rng.choice([1, -1])
        q = pow(beta, -1, alpha) if alpha > 1 else 0
        want = dr_sum_fast(sign * beta, alpha, Fraction(gamma, alpha), 0)
        want += Fraction(sign, 2) * (
            Fraction(2 * (q * gamma % alpha) - alpha, 2 * alpha)
            if q * gamma % alpha
            else 0
        )
        assert corner_sum(alpha, beta, gamma, sign) == want


def test_S_composite_examples():
    assert S_composite((2, 3, 5), (1, 2, 4), (0, 0, 0)) == Fraction(-23, 90)
    assert S_composite((), (), ()) == 0
    want = dr_sum_direct(1, 2) + dr_sum_direct(1, 3) + dr_sum_direct(1, 7)
    assert S_composite((2, 3, 7), (1, 1, 1), (0, 0, 0)) == want
    assert want == Fraction(1, 18) + Fraction(5, 14)


def test_d_composite_examples():
    assert d_composite((2, 3, 5), (1, 2, 4), (0, 0, 0)) == 0
    assert d_composite((5,), (2,), (1,)) == Fraction(1, 10)
    assert d_composite((3,), (2,), (2,)) == Fraction(-1, 6)


def test_F_rho_example():
    assert F_rho(5, 4, 0, Fraction(1, 2)) == Fraction(1, 10)
    with pytest.raises(ValueError):
        F_rho(5, 4, 0, Fraction(3, 2))


def test_S_rho_termwise_against_direct():
    rng = random.Random(41)
    assert dr_sum_direct(1, 2, Fraction(1, 4), Fraction(-1, 2)) == 0
    for _ in range(40):
        m = rng.randint(1, 3)
        alphas = tuple(rng.randint(2, 12) for _ in range(m))
        betas = tuple(rng.choice([b for b in range(1, a) if gcd(a, b) == 1]) for a in alphas)
        gammas = tuple(rng.randrange(a) for a in alphas)
        rho = Fraction(rng.randint(1, 5), 6)
        want = sum(
            dr_sum_direct(b, a, Fraction(g + b * rho, a), -rho)
            for a, b, g in zip(alphas, betas, gammas)
        )
        assert S_rho(alphas, betas, gammas, rho) == want
