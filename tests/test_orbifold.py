"""Orbifolds, line V-bundles, degree calculus and canonical representatives."""

import random
from fractions import Fraction
from math import gcd

import pytest

from seifinv.orbifold import (
    Orbifold,
    VLineBundle,
    add_bundles,
    canonical_bundle,
    canonical_representative,
    euler_characteristic,
    holonomy_rho,
    rational_degree,
    rrk_index,
    scale_bundle,
    subtract_bundles,
    trivial_bundle,
)
from seifinv.seifert import brieskorn, defining_bundle


def test_rational_degree_examples():
    poincare = Orbifold(0, (2, 3, 5))
    assert rational_degree(trivial_bundle(poincare)) == 0
    assert rational_degree(canonical_bundle(poincare)) == Fraction(-1, 30)
    assert rational_degree(canonical_bundle(Orbifold(0, (2, 3, 7)))) == Fraction(1, 42)


def test_canonical_bundle_data():
    torus = Orbifold(1, ())
    assert rational_degree(canonical_bundle(torus)) == 0
    k = canonical_bundle(Orbifold(0, (2, 3, 5)))
    assert k.smooth_degree == -2
    assert k.gammas == (1, 2, 4)
    k7 = canonical_bundle(Orbifold(0, (2, 3, 7)))
    assert rational_degree(k7) == Fraction(1, 42)


def test_euler_characteristic():
    assert euler_characteristic(Orbifold(0, ())) == 2
    assert euler_characteristic(Orbifold(0, (2, 3, 5))) == Fraction(1, 30)
    assert euler_characteristic(Orbifold(1, (2,))) == Fraction(-1, 2)


def test_add_bundles_carries():
    base = Orbifold(0, (2, 3, 7))
    l1 = VLineBundle(base, -2, (1, 2, 6))
    l2 = VLineBundle(base, 0, (1, 1, 1))
    out = add_bundles(l1, l2)
    assert out.gammas == (0, 0, 0)
    assert out.smooth_degree == 1
    assert rational_degree(out) == rational_degree(l1) + rational_degree(l2)
    triv = trivial_bundle(base)
    assert add_bundles(l1, triv) == l1


def test_scale_bundle_kills_weights_at_product_order():
    base = Orbifold(0, (2, 3, 7))
    l = VLineBundle(base, 1, (1, 2, 3))
    out = scale_bundle(l, 2 * 3 * 7)
    assert out.gammas == (0, 0, 0)
    assert rational_degree(out) == 42 * rational_degree(l)
    assert scale_bundle(l, -1) == subtract_bundles(trivial_bundle(base), l)


def test_base_mismatch_rejected():
    l1 = trivial_bundle(Orbifold(0, (2, 3)))
    l2 = trivial_bundle(Orbifold(0, (2, 5)))
    with pytest.raises(ValueError):
        add_bundles(l1, l2)


def test_orbifold_refuses_non_integer_fields():
    # Orbifold(0, (2.5, 3)) once had alphas (2, 3)
    for genus, alphas in ((0, (2.5, 3)), (0, ("2", 3)), (0.0, (2, 3)), (Fraction(1), (2, 3))):
        with pytest.raises(ValueError, match="genus and isotropy orders must be integers"):
            Orbifold(genus, alphas)


def test_vline_bundle_refuses_non_integer_fields():
    S = Orbifold(0, (2, 3))
    for degree, gammas in ((0, (1.5, 2)), (0, (1, "2")), (0.5, (1, 2)), (Fraction(1), (1, 2))):
        with pytest.raises(ValueError, match="smooth degree and weights must be integers"):
            VLineBundle(S, degree, gammas)


def test_rrk_index():
    assert rrk_index(trivial_bundle(Orbifold(3, ()))) == -2
    assert rrk_index(canonical_bundle(Orbifold(0, (2, 3, 5)))) == -1
    assert rrk_index(VLineBundle(Orbifold(0, (3, 5, 7)), 0, (0, 0, 1))) == 1


def test_holonomy_rho_rejects_degree_zero():
    base = Orbifold(1, ())
    with pytest.raises(ValueError, match="deg L0 != 0"):
        holonomy_rho(trivial_bundle(base), trivial_bundle(base))


def test_canonical_representative_poincare():
    N = brieskorn(2, 3, 5)
    rep, k, rho = canonical_representative(trivial_bundle(N.base), defining_bundle(N))
    assert rep == trivial_bundle(N.base)
    assert k == 0
    assert rho == Fraction(1, 2)


def test_canonical_representative_237():
    N = brieskorn(2, 3, 7)
    rep, k, rho = canonical_representative(trivial_bundle(N.base), defining_bundle(N))
    assert rational_degree(rep) == Fraction(1, 42)
    assert rep.gammas == (1, 2, 6)
    assert rho == Fraction(1, 2)


def _random_orbifold(rng):
    m = rng.randint(0, 4)
    return Orbifold(rng.randint(0, 3), tuple(rng.randint(2, 12) for _ in range(m)))


def _random_bundle(rng, base):
    return VLineBundle(
        base, rng.randint(-5, 5), tuple(rng.randrange(a) for a in base.alphas)
    )


def test_degree_additivity_random():
    rng = random.Random(23)
    for _ in range(200):
        base = _random_orbifold(rng)
        l1, l2 = _random_bundle(rng, base), _random_bundle(rng, base)
        out = add_bundles(l1, l2)
        assert rational_degree(out) == rational_degree(l1) + rational_degree(l2)
        # realizability: rational degree minus weight sum is an integer
        delta = rational_degree(out) - sum(
            (Fraction(g, a) for g, a in zip(out.gammas, base.alphas)), Fraction(0)
        )
        assert delta.denominator == 1


def test_euler_is_minus_canonical_degree_random():
    rng = random.Random(27)
    for _ in range(200):
        base = _random_orbifold(rng)
        assert euler_characteristic(base) == -rational_degree(canonical_bundle(base))


def test_canonical_representative_idempotent_and_unique():
    rng = random.Random(71)
    checked = 0
    while checked < 100:
        base = _random_orbifold(rng)
        if base.num_cone_points == 0 and base.genus == 0:
            continue
        betas = []
        ok = True
        for a in base.alphas:
            cands = [b for b in range(1, a) if gcd(a, b) == 1]
            if not cands:
                ok = False
                break
            betas.append(rng.choice(cands))
        if not ok:
            continue
        L0 = VLineBundle(base, rng.choice([-2, -1, 1]), tuple(betas))
        if rational_degree(L0) == 0:
            continue
        rep_seed = _random_bundle(rng, base)
        rep, k, rho = canonical_representative(rep_seed, L0)
        assert 0 <= rho < 1
        # idempotent
        rep2, k2, rho2 = canonical_representative(rep, L0)
        assert rep2 == rep and k2 == 0 and rho2 == rho
        # k unique: neighbors leave [0, 1)
        for shift in (-1, 1):
            other = add_bundles(rep, scale_bundle(L0, shift))
            assert not 0 <= holonomy_rho(other, L0) < 1
        checked += 1
