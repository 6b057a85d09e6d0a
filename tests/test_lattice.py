"""Plumbing forms, the Theta invariant and the splitting of <-1> summands."""

import random
from math import gcd

import pytest

from seifinv.cli import PLUMBING_237
from seifinv.lattice import (
    IntegerQuadraticForm,
    diagonal_form,
    direct_sum,
    form_inverse,
    hj_expand,
    hnk_split_diagonalize,
    is_even,
    is_minus_e8,
    minus_e8,
    plumbing_form,
    plumbing_graph,
    theta_invariant,
)

GOLDEN_B = (
    (-42, -21, -14, -6),
    (-21, -11, -7, -3),
    (-14, -7, -5, -2),
    (-6, -3, -2, -1),
)


def test_hj_examples():
    assert hj_expand(7, 1) == [7]
    assert hj_expand(13, 2) == [7, 2]
    assert hj_expand(19, 3) == [7, 2, 2]
    assert hj_expand(5, 4) == [2, 2, 2, 2]


def test_hj_reconstructs_fraction():
    from fractions import Fraction

    rng = random.Random(3)
    for _ in range(100):
        alpha = rng.randint(2, 200)
        beta = rng.choice([b for b in range(1, alpha) if gcd(alpha, b) == 1])
        es = hj_expand(alpha, beta)
        assert all(e >= 2 for e in es)
        value = Fraction(es[-1])
        for e in reversed(es[:-1]):
            value = e - 1 / value
        assert value == Fraction(alpha, beta)


def test_hj_validation():
    with pytest.raises(ValueError):
        hj_expand(6, 2)
    with pytest.raises(ValueError):
        hj_expand(5, 5)


def test_plumbing_golden_237():
    q = plumbing_form(2, 3, 7)
    assert q.matrix == PLUMBING_237
    inv = form_inverse(q)
    assert tuple(tuple(int(x) for x in row) for row in inv) == GOLDEN_B
    assert all(x.denominator == 1 for row in inv for x in row)


def test_plumbing_2313():
    q = plumbing_form(2, 3, 13)
    assert q.rank == 5
    assert abs(q.determinant) == 1


def test_plumbing_rank_family():
    for k in range(1, 9):
        assert plumbing_form(2, 3, 6 * k + 1).rank == 4 + k - 1


def test_plumbing_graph_shape():
    g = plumbing_graph(2, 3, 5)
    assert g.center_weight == -2
    assert sorted(len(arm) for arm in g.arms) == [1, 2, 4]
    assert all(w == -2 for arm in g.arms for w in arm)


def test_plumbing_unimodular_random():
    rng = random.Random(5)
    done = 0
    while done < 20:
        t = sorted(rng.sample(range(2, 40), 3))
        if any(gcd(t[i], t[j]) != 1 for i in range(3) for j in range(i + 1, 3)):
            continue
        q = plumbing_form(*t)
        assert abs(q.determinant) == 1
        assert q.is_negative_definite()
        done += 1


def test_theta_basic_values():
    assert theta_invariant(diagonal_form([-1])) == 0
    assert theta_invariant(minus_e8()) == 8
    assert theta_invariant(plumbing_form(2, 3, 7)) == 0


def test_theta_guards():
    with pytest.raises(ValueError):
        theta_invariant(diagonal_form([1, -1]))
    with pytest.raises(ValueError):
        theta_invariant(diagonal_form([-2]))
    with pytest.raises(ValueError):
        IntegerQuadraticForm(((0, 1), (2, 0)))


def test_minus_e8_properties():
    e8 = minus_e8()
    assert e8.rank == 8
    assert e8.determinant == 1
    assert is_even(e8)
    assert is_minus_e8(e8)
    assert plumbing_form(2, 3, 5).matrix == e8.matrix


def test_is_even():
    assert not is_even(plumbing_form(2, 3, 7))
    assert is_even(minus_e8())


def test_direct_sum_theta():
    assert theta_invariant(direct_sum(diagonal_form([-1]), minus_e8())) == 8
    q = direct_sum(diagonal_form([-1, -1]), direct_sum(minus_e8(), minus_e8()))
    assert theta_invariant(q) == 16


def _random_unimodular(rng, n, steps=8):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.choice([-1, 1])
        for k in range(n):
            u[j][k] += f * u[i][k]
    return u


def _conjugate(q: IntegerQuadraticForm, u):
    n = q.rank
    m = [
        [
            sum(u[r][i] * q.matrix[r][s] * u[s][j] for r in range(n) for s in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return IntegerQuadraticForm(tuple(tuple(row) for row in m))


def test_theta_invariance_under_base_change():
    rng = random.Random(7)
    for base in (diagonal_form([-1, -1, -1]), minus_e8(), plumbing_form(2, 3, 11)):
        want = theta_invariant(base)
        for _ in range(3):
            u = _random_unimodular(rng, base.rank)
            q = _conjugate(base, u)
            assert abs(q.determinant) == 1
            assert theta_invariant(q) == want


def test_p1_p2_on_form_zoo():
    rng = random.Random(11)
    zoo = [plumbing_form(2, 3, 6 * k + 1) for k in range(1, 5)]
    zoo += [plumbing_form(2, 3, 6 * k - 1) for k in range(1, 5)]
    zoo += [_conjugate(diagonal_form([-1] * 5), _random_unimodular(rng, 5)) for _ in range(5)]
    zoo += [minus_e8(), direct_sum(minus_e8(), diagonal_form([-1]))]
    for q in zoo:
        theta = theta_invariant(q)
        assert theta % 8 == 0  # P1
        assert 0 <= theta <= q.rank  # P2 + P3 lower bound
        assert (theta == q.rank) == is_even(q)  # P2 equality case


def test_p3_both_directions_random():
    rng = random.Random(13)
    for i in range(25):
        n = rng.randint(2, 6)
        q = _conjugate(diagonal_form([-1] * n), _random_unimodular(rng, n))
        assert theta_invariant(q) == 0
        diag_rank, residual = hnk_split_diagonalize(q)
        assert diag_rank == n and residual is None
    for i in range(25):
        pad = rng.randint(1, 3)
        q = _conjugate(
            direct_sum(diagonal_form([-1] * pad), minus_e8()),
            _random_unimodular(rng, 8 + pad, steps=5),
        )
        theta = theta_invariant(q)
        assert theta == 8
        diag_rank, residual = hnk_split_diagonalize(q)
        assert residual is not None and is_minus_e8(residual)
        assert diag_rank == pad


def test_p4_additivity():
    rng = random.Random(17)
    for _ in range(5):
        n = rng.randint(1, 4)
        q1 = _conjugate(diagonal_form([-1] * n), _random_unimodular(rng, n))
        for q2 in (minus_e8(), direct_sum(minus_e8(), minus_e8())):
            assert theta_invariant(direct_sum(q1, q2)) == theta_invariant(q1) + q2.rank


def test_hnk_families():
    for k in range(1, 9):
        diag_rank, residual = hnk_split_diagonalize(plumbing_form(2, 3, 6 * k + 1))
        assert residual is None
        assert diag_rank == 4 + k - 1
        diag_rank, residual = hnk_split_diagonalize(plumbing_form(2, 3, 6 * k - 1))
        assert residual is not None
        assert residual.rank == 8 and is_minus_e8(residual)


def test_hnk_diagonal():
    assert hnk_split_diagonalize(diagonal_form([-1] * 6)) == (6, None)


def test_theta_bounded_by_Z_across_table():
    # the plumbing bounds the sphere, so its Theta can never exceed the
    # Floer-theoretic bound Z; on these rows the two agree
    from seifinv.swfloer import froyshov_Z

    for t in [
        (2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 3, 13), (2, 3, 17),
        (3, 5, 7), (3, 5, 11), (3, 5, 13), (5, 7, 9),
    ]:
        theta = theta_invariant(plumbing_form(*t))
        z = froyshov_Z(*t)
        assert 0 <= theta <= z, t
        assert theta == z, t
