"""Dedekind-Rademacher sums: oracle equivalences and the reciprocity law."""

import random
from fractions import Fraction
from math import gcd

import pytest

from seifinv.dedekind import (
    F_rho,
    S_composite,
    S_rho,
    corner_sum,
    d_composite,
    dr_sum_direct,
    dr_sum_fast,
    reciprocity_R,
)
from seifinv.numkernel import sawtooth


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
    # sides O(alpha), over every 1 <= gamma < alpha <= 60 and coprime beta
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
