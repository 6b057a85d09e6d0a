"""Seifert data, Brieskorn constructors, orientation conventions."""

import random
from fractions import Fraction
from math import gcd

import pytest

from seifinv.orbifold import Orbifold
from seifinv.seifert import (
    SeifertData,
    brieskorn,
    defining_bundle,
    is_homology_sphere,
)


def test_brieskorn_poincare():
    N = brieskorn(2, 3, 5)
    assert N.alphas == (2, 3, 5)
    assert N.betas == (1, 2, 4)
    assert N.ell == Fraction(-1, 30)
    assert N.smooth_degree == -2


def test_brieskorn_small_betas():
    assert brieskorn(2, 3, 7).betas == (1, 1, 1)
    assert brieskorn(2, 3, 11).betas == (1, 2, 9)


def test_brieskorn_validation():
    with pytest.raises(ValueError):
        brieskorn(2, 4, 5)
    with pytest.raises(ValueError):
        brieskorn(1, 2, 3)


def test_brieskorn_refuses_non_integer_exponents():
    # these once truncated to Sigma(2,3,5) or were parsed from a string
    for triple in ((2.9, 3, 5), ("2", 3, 5), (Fraction(2), 3, 5), (2, 3, 5.0)):
        with pytest.raises(ValueError, match="Brieskorn exponents must be integers"):
            brieskorn(*triple)


def test_seifert_data_refuses_non_integer_fields():
    base = Orbifold(0, (2, 3, 5))
    cases = (((1.5, 2, 4), -2), (("1", 2, 4), -2), ((1, 2, 4), -2.0), ((1, 2, 4), Fraction(-2)))
    for betas, b in cases:
        with pytest.raises(ValueError, match="smooth degree and betas must be integers"):
            SeifertData(base, betas, b)
    assert SeifertData(base, [1, 2, 4], -2) == brieskorn(2, 3, 5)


def test_beta_families_to_50():
    for k in range(1, 51):
        assert brieskorn(2, 3, 6 * k + 1).betas == (1, 1, k)
        assert brieskorn(2, 3, 6 * k - 1).betas == (1, 2, 5 * k - 1)


def _random_triple(rng):
    while True:
        t = sorted(rng.sample(range(2, 60), 3))
        if all(gcd(t[i], t[j]) == 1 for i in range(3) for j in range(i + 1, 3)):
            return tuple(t)


def test_beta_congruence_random():
    rng = random.Random(19)
    for _ in range(100):
        a, b, c = _random_triple(rng)
        N = brieskorn(a, b, c)
        assert N.ell == Fraction(-1, a * b * c)
        abc = a * b * c
        for alpha, beta in zip(N.alphas, N.betas):
            assert (beta * (abc // alpha)) % alpha == alpha - 1  # = -1 mod alpha


def test_is_homology_sphere():
    assert is_homology_sphere(brieskorn(2, 3, 5))
    bad = SeifertData(Orbifold(0, (2, 4)), (1, 1), -1)
    assert not is_homology_sphere(bad)
    # right ell magnitude but genus > 0
    hopf_like = SeifertData(Orbifold(1, ()), (), -1)
    assert not is_homology_sphere(hopf_like)
    # S^3 as the Hopf fibration
    assert is_homology_sphere(SeifertData(Orbifold(0, ()), (), -1))
    # coprime isotropies, wrong scaled degree
    scaled = SeifertData(Orbifold(0, (2, 3, 5)), (1, 2, 4), -1)
    assert not is_homology_sphere(scaled)


def test_defining_bundle_matches_data():
    N = brieskorn(3, 5, 7)
    L0 = defining_bundle(N)
    assert L0.gammas == N.betas
    assert L0.smooth_degree == N.smooth_degree


def test_normalization_enforced():
    with pytest.raises(ValueError):
        SeifertData(Orbifold(0, (4, 5)), (2, 1), 0)  # gcd(4, 2) != 1
    with pytest.raises(ValueError):
        SeifertData(Orbifold(0, (4, 5)), (5, 1), 0)  # beta out of range
