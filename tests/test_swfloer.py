"""Simplex enumeration, vortex gradings, Poincare polynomials, gaps."""

import random
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from math import ceil, floor, gcd

import pytest

from seifinv import swfloer
from seifinv.cli import PAPER_TABLE
from seifinv.orbifold import (
    add_bundles,
    canonical_bundle,
    canonical_representative,
    rational_degree,
    scale_bundle,
    subtract_bundles,
    trivial_bundle,
)
from seifinv.seifert import brieskorn, defining_bundle
from seifinv.swfloer import (
    DeltaPoint,
    MAX_BOX_POINTS,
    LaurentPolynomial,
    _level_table,
    energies,
    enumerate_delta,
    froyshov_Z,
    gap_m,
    graded_delta,
    poincare_polynomial,
    vortex_bundle,
)

POLYNOMIALS = {
    (2, 3, 5): {},
    (2, 3, 7): {-1: 1},
    (2, 3, 11): {-1: 1},
    (2, 3, 13): {1: 1},
    (2, 3, 17): {1: 1},
    (3, 5, 7): {-1: 1, 1: 1},
    (3, 5, 11): {-1: 1, 1: 1, 5: 1},
    (3, 5, 13): {3: 1, 5: 1, 9: 1},
    (5, 7, 9): {1: 2, 3: 1, 7: 1, 9: 1, 25: 1},
}


def test_enumerate_delta_examples():
    assert enumerate_delta(2, 3, 5) == []
    assert enumerate_delta(2, 3, 7) == [DeltaPoint(0, 0, 0)]
    assert enumerate_delta(3, 5, 7) == [DeltaPoint(0, 0, 0), DeltaPoint(0, 0, 1)]


def _coprime_triples(max_abc):
    """Every pairwise coprime a < b < c with abc <= max_abc."""
    return [
        (a, b, c)
        for a in range(2, max_abc)
        for b in range(a + 1, max_abc // a + 1)
        for c in range(b + 1, max_abc // (a * b) + 1)
        if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1
    ]


def test_enumerate_delta_against_brute_force_filter():
    # the strict inequality checked cell by cell over the whole box
    triples = _coprime_triples(1500)
    assert len(triples) == 745 and (2, 3, 5) in triples
    assert {(a * b * c - b * c - a * c - a * b) % 2 for a, b, c in triples} == {0, 1}
    for a, b, c in triples:
        bound = a * b * c - b * c - a * c - a * b
        want = [
            DeltaPoint(x, y, z)
            for x in range(a)
            for y in range(b)
            for z in range(c)
            if 2 * (x * b * c + y * a * c + z * a * b) < bound
        ]
        assert enumerate_delta(a, b, c) == want, (a, b, c)


def test_enumerate_delta_lex_order():
    pts = enumerate_delta(5, 7, 9)
    assert pts == sorted(pts)
    assert len(pts) == 6


def test_vortex_bundle_and_energy():
    p = DeltaPoint(0, 0, 0)
    L = vortex_bundle(p, 2, 3, 7)
    assert L.smooth_degree == 0 and L.gammas == (0, 0, 0)
    assert energies([p], 2, 3, 7) == [Fraction(-1, 168)]
    with pytest.raises(ValueError):
        vortex_bundle(DeltaPoint(1, 0, 0), 2, 3, 7)
    with pytest.raises(ValueError):
        energies([DeltaPoint(0, 0, 0)], 2, 3, 5)


def test_energy_nonpositive():
    for t in [(2, 3, 7), (3, 5, 13), (5, 7, 9)]:
        assert all(e <= 0 for e in energies(enumerate_delta(*t), *t))


def test_grading_examples():
    assert graded_delta(2, 3, 7) == [(DeltaPoint(0, 0, 0), -1)]
    assert graded_delta(2, 3, 13) == [(DeltaPoint(0, 0, 0), 1)]
    assert graded_delta(2, 3, 5) == []
    got = sorted(n for _, n in graded_delta(3, 5, 13))
    assert got == [3, 5, 9]


def test_graded_delta_lists_delta_in_order():
    for t in [(2, 3, 7), (3, 5, 11), (5, 7, 9)]:
        assert [p for p, _ in graded_delta(*t)] == enumerate_delta(*t)


def test_box_size_guard():
    # refused before the point list or the level table is built
    assert 101 * 103 * 967 > MAX_BOX_POINTS
    for fn in (enumerate_delta, graded_delta, poincare_polynomial):
        with pytest.raises(ValueError, match="exceeds"):
            fn(101, 103, 967)


def _h0(L) -> int:
    # genus-0 base: sections come from the desingularized bundle
    return max(0, 1 + L.smooth_degree)


def _oracle_grading(p, a, b, c):
    """Independent route: walk the bundle ladder between the reducible's
    canonical representative and the vortex bundle, counting effective
    levels on each side of zero with section counts from the index form."""
    N = brieskorn(a, b, c)
    L0 = defining_bundle(N)
    rep, _, _rho = canonical_representative(trivial_bundle(N.base), L0)
    K = canonical_bundle(N.base)
    n_p = (rational_degree(vortex_bundle(p, a, b, c)) - rational_degree(rep)) / N.ell
    assert n_p.denominator == 1 and n_p > 0
    n_p = int(n_p)
    sf = 0
    for j in range(1, n_p):
        sf += _h0(add_bundles(rep, scale_bundle(L0, j)))
        sf -= _h0(subtract_bundles(subtract_bundles(K, rep), scale_bundle(L0, j)))
    return -2 * sf - 1


@pytest.mark.parametrize("triple", [(2, 3, 7), (2, 3, 13), (2, 3, 17), (3, 5, 13), (5, 7, 9), (2, 9, 11), (3, 7, 8)])
def test_grading_against_bundle_walk_oracle(triple):
    for p, n in graded_delta(*triple):
        assert n == _oracle_grading(p, *triple)


def _box_levels(a, b, c):
    """n0, r2 = 2 rho and the level n0 - w of every point of the whole
    weight box, from the bundle data, with no window.  rho is 0 or 1/2, so
    r2 is an integer."""
    N = brieskorn(a, b, c)
    assert N.ell == Fraction(-1, a * b * c)
    rep, _, rho = canonical_representative(trivial_bundle(N.base), defining_bundle(N))
    n0 = -rational_degree(rep) / N.ell
    assert n0.denominator == 1 and (2 * rho).denominator == 1
    n0, r2 = int(n0), int(2 * rho)
    levels = [
        n0 - x * b * c - y * a * c - z * a * b
        for x in range(a)
        for y in range(b)
        for z in range(c)
    ]
    return n0, r2, levels


def _box_oracle_gradings(a, b, c):
    """Independent route: the level of every point of the whole weight box,
    with both rho-shifted open intervals counted directly, with no window
    and no running count.  Doubled levels compare as integers."""
    n0, r2, levels = _box_levels(a, b, c)
    twice = [2 * n for n in levels]
    delta = enumerate_delta(a, b, c)
    doubled = [2 * (n0 - p.x * b * c - p.y * a * c - p.z * a * b) for p in delta]
    # the bounds at rho are the same for every point, so they are applied
    # once; the lower bound of "below" is the loosest of any point's bounds
    above = [t for t in twice if r2 < t]
    below = [t for t in twice if 2 * r2 - max(doubled, default=0) < t < r2]
    graded = []
    for p, n2 in zip(delta, doubled):
        pos = sum(t < n2 for t in above)
        neg = sum(2 * r2 - n2 < t for t in below)
        graded.append((p, 2 * neg - 2 * pos - 1))
    return graded


def _assert_level_table(a, b, c):
    """The one level table against the whole box.  Every byte is 0 or 1,
    and the marked weights are exactly the box weights w <= top, with as
    many marks as such box points, so no two weights share a byte.  The
    marks below n0 are exactly Delta's weights, and the walk yields their
    levels n0 - w in ascending order.  Returns (rho, mark, n0)."""
    n0, r2, levels = _box_levels(a, b, c)
    table = _level_table(a, b, c)
    m0, rho, mark = table
    assert (m0, 2 * rho) == (n0, r2)
    top = 2 * n0 - r2 - 1
    assert len(mark) == max(0, top + 1) <= 2 * n0 + 1
    weights = [n0 - n for n in levels if n0 - n <= top]
    assert set(mark) <= {0, 1} and sum(mark) == len(weights)
    marked = {w for w, m in enumerate(mark) if m}
    assert marked == set(weights)
    delta = [n0 - p.x * b * c - p.y * a * c - p.z * a * b for p in enumerate_delta(a, b, c)]
    assert {n0 - w for w in marked if w < n0} == set(delta) and len(set(delta)) == len(delta)
    assert [n for n, _ in swfloer._gradings(table)] == sorted(delta)
    return rho, mark, n0


def _oracle_corpus(size, max_abc, seed):
    """Seeded pairwise-coprime triples a < b < c with non-empty Delta and
    abc <= max_abc, each drawn under a cap log-uniform in
    [sqrt(max_abc), max_abc]."""
    rng = random.Random(seed)
    corpus = set()
    while len(corpus) < size:
        cap = int(max_abc ** rng.uniform(0.5, 1.0))
        a = rng.randint(2, 19)
        b = rng.randint(a + 1, max(a + 1, int((cap / a) ** 0.5)))
        c = rng.randint(b + 1, max(b + 1, cap // (a * b)))
        if a * b * c > max_abc or gcd(a, b) != 1 or gcd(a, c) != 1 or gcd(b, c) != 1:
            continue
        if enumerate_delta(a, b, c):
            corpus.add((a, b, c))
    return sorted(corpus)


def test_graded_delta_against_full_box_oracle():
    corpus = _oracle_corpus(40, 2 * 10**4, seed=7)
    assert any(all(e % 2 for e in t) for t in corpus)
    assert any(any(e % 2 == 0 for e in t) for t in corpus)
    for t in corpus:
        assert graded_delta(*t) == _box_oracle_gradings(*t), t
        # the gradings are keyed by level, and one byte stands for one
        # weight: both rest on the weights being distinct
        _assert_level_table(*t)


@pytest.mark.parametrize(
    "triple, rho, n_positive, n_below",
    [
        ((2, 3, 5), Fraction(1, 2), 0, 0),  # Delta empty
        ((2, 3, 7), Fraction(1, 2), 1, 0),  # no mark from n0 on
        ((2, 3, 13), Fraction(1, 2), 1, 1),
        ((3, 5, 7), 0, 2, 2),  # all exponents odd: rho = 0
        ((5, 7, 9), 0, 6, 18),
    ],
)
def test_split_level_table_cases(triple, rho, n_positive, n_below):
    # n_positive marks below n0 (Delta's levels), n_below from n0 on
    got_rho, mark, n0 = _assert_level_table(*triple)
    assert (got_rho, mark.count(1, 0, n0), mark.count(1, n0)) == (rho, n_positive, n_below)
    assert graded_delta(*triple) == _box_oracle_gradings(*triple)


def test_level_table_is_windowed():
    # only levels above 2 rho - n0 can be counted, about kappa^3/6 of the
    # box, one byte per weight up to 2 n0
    a, b, c = 95, 106, 109
    n0, _, mark = _level_table(a, b, c)
    assert mark.count(1, 0, n0) == len(enumerate_delta(a, b, c)) == 22860
    assert len(mark) <= 2 * n0 + 1
    assert mark.count(1) < a * b * c // 5


def _sorted_table_gradings(a, b, c):
    """Independent of the byte table: every counted level in one sorted
    list, with two bisects per positive level.  Returns (n0, {n: n_+})."""
    c0, rho = swfloer._reducible_data(brieskorn(a, b, c))
    n0 = int(c0 * a * b * c)
    levels = []
    for _, _, w, run in swfloer._box_slices(a, b, c, 2 * n0 - floor(2 * rho) - 1):
        levels.extend(range(n0 - w, n0 - w - run * a * b, -a * b))
    levels.sort()
    positive = bisect_left(levels, 1)
    neg_end = bisect_left(levels, ceil(rho))
    neg_shift = floor(2 * rho) + 1
    gradings = {
        n_p: 2 * (neg_end - bisect_left(levels, neg_shift - n_p)) - 2 * pos - 1
        for pos, n_p in enumerate(levels[positive:])
    }
    return n0, gradings


def test_split_table_against_sorted_table_oracle():
    # the box oracle stops at abc <= 2e4; the sorted full table reaches 1e6
    corpus = _oracle_corpus(12, 10**6, seed=21) + [(95, 106, 109)]
    assert max(a * b * c for a, b, c in corpus[:-1]) > 5 * 10**5
    for a, b, c in corpus:
        n0, want = _sorted_table_gradings(a, b, c)
        P = LaurentPolynomial.from_exponents(want.values())
        assert poincare_polynomial(a, b, c) == P, (a, b, c)
        assert graded_delta(a, b, c) == [
            (p, want[n0 - p.x * b * c - p.y * a * c - p.z * a * b]) for p in enumerate_delta(a, b, c)
        ], (a, b, c)


def test_poincare_polynomial_peak_memory():
    # about 2 n0 bytes: 2.1 bytes per box point at this triple, where a
    # sorted table of every counted level peaked at 8.9
    a, b, c = 95, 106, 109
    poincare_polynomial(a, b, c)
    tracemalloc.start()
    try:
        poincare_polynomial(a, b, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * a * b * c


def _held_and_peak_bytes(fn, *args):
    # bytes still held while fn's result lives, and the peak of the call
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        del result
        return held, peak
    finally:
        tracemalloc.stop()


def test_poincare_polynomial_keeps_no_level_dict():
    # the gradings go straight into P's counts: the peak is the level table
    # plus P, with no {level: grading} dict of |Delta| entries beside them,
    # which took about 60 bytes a level
    a, b, c = 95, 106, 109
    poincare_polynomial(a, b, c)
    table, _ = _held_and_peak_bytes(_level_table, a, b, c)
    P, peak = _held_and_peak_bytes(poincare_polynomial, a, b, c)
    assert peak <= table + P + 20 * len(enumerate_delta(a, b, c)), (table, P, peak)


def test_published_polynomials():
    for t, coeffs in POLYNOMIALS.items():
        assert poincare_polynomial(*t) == LaurentPolynomial(coeffs), t


def test_polynomial_reads_levels_not_delta(monkeypatch):
    # P(T) and Z come from the level table alone, with no Delta point built
    def refuse(*args):
        raise AssertionError("Delta enumerated")

    monkeypatch.setattr(swfloer, "enumerate_delta", refuse)
    monkeypatch.setattr(swfloer, "graded_delta", refuse)
    assert POLYNOMIALS.keys() == PAPER_TABLE.keys()
    for t, coeffs in POLYNOMIALS.items():
        assert poincare_polynomial(*t) == LaurentPolynomial(coeffs), t
        assert froyshov_Z(*t) == PAPER_TABLE[t][2], t


def test_polynomial_parity_sweep():
    # every exponent odd, for all pairwise coprime triples with abc <= 4000
    rng_total = 0
    for a in range(2, 16):
        for b in range(a + 1, 4000 // a + 1):
            if gcd(a, b) != 1:
                continue
            for c in range(b + 1, 4000 // (a * b) + 1):
                if gcd(a, c) != 1 or gcd(b, c) != 1:
                    continue
                P = poincare_polynomial(a, b, c)
                assert all(e % 2 != 0 for e in P.exponents()), (a, b, c)
                rng_total += 1
    assert rng_total > 100


def test_delta_count_family():
    for k in range(1, 51):
        pts = enumerate_delta(2, 3, 6 * k + 1)
        assert len(pts) == -((5 - 6 * k) // 12)  # ceil((6k-5)/12)
        assert all(p.x == 0 and p.y == 0 for p in pts)


def test_family_6k_plus_1():
    for k in range(1, 51):
        P = poincare_polynomial(2, 3, 6 * k + 1)
        j = (k + 1) // 2
        want = LaurentPolynomial({-1 if k % 2 else 1: j})
        assert P == want, k
        assert froyshov_Z(2, 3, 6 * k + 1) == 0


def test_family_6k_minus_1():
    for k in range(1, 51):
        P = poincare_polynomial(2, 3, 6 * k - 1)
        want = LaurentPolynomial({-1: k // 2} if k % 2 == 0 else {1: (k - 1) // 2})
        assert P == want, k
        assert froyshov_Z(2, 3, 6 * k - 1) == 8


# The two ladder families below follow experimentally observed patterns;
# the expected rows are frozen regression values.

LADDER_2 = {
    1: {1: 1},
    2: {1: 2, 5: 1},
    3: {1: 3, 5: 2, 13: 1},
    4: {1: 4, 5: 3, 13: 2, 25: 1},
    5: {1: 5, 5: 4, 13: 3, 25: 2, 41: 1},
}

LADDER_3 = {
    1: {1: 1},
    2: {1: 2, 7: 1},
    3: {1: 3, 7: 2, 19: 1},
    4: {1: 4, 7: 3, 19: 2, 37: 1},
}


def test_ladder_family_2():
    for k, coeffs in LADDER_2.items():
        t = (2, 4 * k + 1, 4 * k + 3)
        assert poincare_polynomial(*t) == LaurentPolynomial(coeffs), t
        assert froyshov_Z(*t) == 0


def test_ladder_family_2_recurrence():
    # P_k = P_{k-1} + T * D_k with D_n = sum_{j<=n} T^(2j(j-1))
    prev = {}
    for k in range(1, 6):
        want = dict(prev)
        for j in range(1, k + 1):
            e = 2 * j * (j - 1) + 1
            want[e] = want.get(e, 0) + 1
        got = poincare_polynomial(2, 4 * k + 1, 4 * k + 3)
        assert got == LaurentPolynomial(want), k
        prev = dict(got.terms())


def test_ladder_family_3():
    for s, coeffs in LADDER_3.items():
        t = (3, 3 * s + 1, 3 * s + 2)
        assert poincare_polynomial(*t) == LaurentPolynomial(coeffs), t
        assert froyshov_Z(*t) == 0


def test_gap_examples():
    assert gap_m(LaurentPolynomial()) == 0
    assert gap_m(LaurentPolynomial({-1: 1})) == 1
    assert gap_m(LaurentPolynomial({1: 2, 3: 1, 7: 1, 9: 1, 25: 1})) == 0
    assert gap_m(LaurentPolynomial({-1: 1, -3: 2, -7: 1})) == 2


def test_froyshov_Z_table():
    assert froyshov_Z(2, 3, 7) == 0
    assert froyshov_Z(2, 3, 5) == 8
    assert froyshov_Z(3, 5, 13) == 8


def test_polynomial_printing():
    assert str(LaurentPolynomial()) == "0"
    assert str(LaurentPolynomial({-1: 1})) == "T^-1"
    assert str(LaurentPolynomial({1: 2, 25: 1, 3: 1})) == "2T + T^3 + T^25"
    assert str(LaurentPolynomial({0: 3, 1: -1})) == "3 - T"
    assert LaurentPolynomial({-1: 1, 5: 1}).latex() == "T^{-1}+T^5"


def test_polynomial_refuses_non_integer_terms():
    # {1.5: 2, -1: 2.9} once printed 2T^-1 + 2T
    for coeffs in ({1.5: 2, -1: 2.9}, {1: 2.9}, {"1": 2}, {1: Fraction(1, 2)}):
        with pytest.raises(ValueError, match="must be integers"):
            LaurentPolynomial(coeffs)
    assert LaurentPolynomial({1: 2, 3: 0}) == LaurentPolynomial({1: 2})


def test_polynomial_algebra():
    p = LaurentPolynomial({1: 1, 3: 2})
    assert p.coeff(3) == 2 and p.coeff(100) == 0
