"""Plumbing forms, the Theta invariant and the splitting of <-1> summands."""

import json
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from math import gcd, prod

import pytest

from seifinv import lattice
from seifinv.cli import PLUMBING_237, main
from seifinv.lattice import (
    IntegerQuadraticForm,
    _characteristic_vector,
    _hj_length,
    _ldl,
    _min_norm_search,
    _norm_one_vectors,
    _theta_search,
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
from seifinv.numkernel import InvariantError

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


def test_hj_length_from_regular_continued_fraction():
    rng = random.Random(19)
    pairs = [(7, 1), (13, 2), (5, 4), (2, 1)]
    while len(pairs) < 2000:
        alpha = rng.randint(2, 10**6)
        beta = rng.randrange(1, alpha)
        if gcd(alpha, beta) == 1:
            pairs.append((alpha, beta))
    for alpha, beta in pairs:
        assert _hj_length(alpha, beta) == len(hj_expand(alpha, beta)), (alpha, beta)


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


def test_determinant_from_pivots_on_conjugates():
    # det is invariant under unimodular base change, so a conjugate of a
    # diagonal form keeps the product of its entries
    rng = random.Random(31)
    seen = set()
    for _ in range(30):
        entries = [rng.randint(-5, -1) for _ in range(rng.randint(1, 6))]
        q = _conjugate(diagonal_form(entries), _random_unimodular(rng, len(entries)))
        assert q.determinant == prod(entries)
        assert q.is_unimodular() == all(e == -1 for e in entries)
        seen.add(abs(q.determinant) > 1)
    assert seen == {True, False}


def test_determinant_refuses_indefinite_form():
    q = diagonal_form([1, -1])
    with pytest.raises(ValueError):
        q.determinant
    with pytest.raises(ValueError):
        q.is_unimodular()
    with pytest.raises(ValueError):
        form_inverse(q)
    assert not q.is_negative_definite()


def test_form_refuses_ragged_and_asymmetric_matrices():
    for rows in ([[-2, 1], [1]], [[-2, 1], [1, -2, 0]], [[-2]] * 2):
        with pytest.raises(ValueError, match="square"):
            IntegerQuadraticForm(rows)
    for rows in ([[-2, 1], [0, -2]], [[-2, 0, 1], [0, -2, 0], [0, 0, -2]]):
        with pytest.raises(ValueError, match="symmetric"):
            IntegerQuadraticForm(rows)
    # entries are never truncated: these once froze to <-1>^2, -1 and -1
    for rows in ([[-1.9, 0.5], [0.5, -1.2]], [[Fraction(-3, 2)]], [["-1"]], [[-1.0]]):
        with pytest.raises(ValueError, match="integers"):
            IntegerQuadraticForm(rows)
    assert IntegerQuadraticForm([]).rank == 0
    assert IntegerQuadraticForm([[-2, 1], [1, -2]]).matrix == ((-2, 1), (1, -2))


def test_form_from_dense_rows_equals_form_from_sparse_rows():
    forms = (plumbing_form(2, 3, 7), plumbing_form(3, 5, 7), minus_e8(), diagonal_form([-1, 0, -3]))
    for q in forms:
        sparse = IntegerQuadraticForm([dict(row) for row in q.rows])
        dense = IntegerQuadraticForm(q.matrix)
        assert sparse == dense == q and hash(sparse) == hash(dense) == hash(q)
    # a mapping row may list its entries in any order, zeros included
    assert IntegerQuadraticForm([{1: 1, 0: -2}, {0: 1, 1: -2, 2: 0}, {}]) == IntegerQuadraticForm(
        [[-2, 1, 0], [1, -2, 0], [0, 0, 0]]
    )
    for rows in ([{0: -2, 2: 1}, {1: -2}], [{0: -2, -1: 1}]):
        with pytest.raises(ValueError, match="square"):
            IntegerQuadraticForm(rows)
    with pytest.raises(ValueError, match="symmetric"):
        IntegerQuadraticForm([{0: -2, 1: 1}, {0: 2, 1: -2}])
    for rows in ([{0.5: -2}], [{0: -2.0}], [{"0": -2}]):
        with pytest.raises(ValueError, match="integers"):
            IntegerQuadraticForm(rows)


def test_plumbing_form_memory_is_linear_in_rank():
    # the form keeps its 3n - 2 nonzero entries and the LDL at most 3n:
    # the peak of building plumbing_form(2,3,c) with its determinant grows
    # linearly in the rank n, where n^2 cells would quadruple it at each
    # doubling, and no dense view is filled on the way
    peaks = []
    for c in (3043, 6043, 11983):  # ranks 510, 1010, 2000
        tracemalloc.start()
        try:
            q = plumbing_form(2, 3, c)
            assert q.determinant == (-1) ** q.rank
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert "matrix" not in set(q._cache)
    assert all(big <= 2.5 * small for small, big in zip(peaks, peaks[1:])), peaks


def test_is_minus_e8_rejects_other_even_unimodular_rank_8():
    plus_e8 = IntegerQuadraticForm([[-x for x in row] for row in minus_e8().matrix])
    h = IntegerQuadraticForm(((0, 1), (1, 0)))
    h4 = direct_sum(direct_sum(h, h), direct_sum(h, h))
    for q in (plus_e8, h4):
        assert q.rank == 8 and is_even(q)
        assert not is_minus_e8(q)


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


def _coprime_triples_rank_at_most_20():
    """Every pairwise coprime a < b < c < 30 whose plumbing has rank <= 20
    (838 triples)."""
    return [
        (a, b, c)
        for a in range(2, 30)
        for b in range(a + 1, 30)
        for c in range(b + 1, 30)
        if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1 and plumbing_graph(a, b, c).rank <= 20
    ]


def test_theta_bounded_by_Z_across_table():
    # the plumbing bounds the sphere, so its Theta can never exceed the
    # Floer-theoretic bound Z; on the paper's rows and on a seeded sample
    # of small triples the two agree
    from seifinv.swfloer import froyshov_Z

    paper = [
        (2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 3, 13), (2, 3, 17),
        (3, 5, 7), (3, 5, 11), (3, 5, 13), (5, 7, 9),
    ]
    sample = random.Random(37).sample(_coprime_triples_rank_at_most_20(), 30)
    residuals = set()
    for t in paper + sample:
        q = plumbing_form(*t)
        theta = theta_invariant(q)
        z = froyshov_Z(*t)
        assert 0 <= theta <= z, t
        assert theta == z, t
        residual = hnk_split_diagonalize(q)[1]
        residuals.add("none" if residual is None else "even" if is_even(residual) else "odd")
    assert residuals == {"none", "even", "odd"}


def _oracle_conjugates(rng):
    """Random unimodular conjugates, all of rank <= 15, of <-1>^k + -E8,
    of <-1>^k + the odd norm-1-free form of Sigma(3,5,7), and of plumbing
    forms."""
    forms = [direct_sum(diagonal_form([-1] * k), minus_e8()) for k in range(5)]
    forms += [direct_sum(diagonal_form([-1] * k), plumbing_form(3, 5, 7)) for k in range(4)]
    for t in ((2, 3, 11), (2, 3, 13), (3, 11, 13), (5, 6, 11), (2, 7, 11), (4, 5, 9), (2, 3, 47)):
        forms.append(plumbing_form(*t))
    for base in forms:
        assert base.rank <= 15
        yield base, _conjugate(base, _random_unimodular(rng, base.rank, steps=6))


def _rebuild_from_ldl(n, d, u):
    """sum_i d_i (e_i + u_i)(e_i + u_i)^T as a dense matrix."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = {i: Fraction(1), **u[i]}
        for r, vr in v.items():
            for s, vs in v.items():
                m[r][s] += d[i] * vr * vs
    return m


def test_ldl_rebuilds_negated_form():
    rng = random.Random(41)
    forms = [q for _, q in _oracle_conjugates(rng)]
    forms += [plumbing_form(*t) for t in ((2, 3, 5), (3, 5, 7), (2, 3, 1801))]
    for q in forms:
        d, u = _ldl(q.rows)
        assert all(j > i and x for i, row in enumerate(u) for j, x in row.items())
        assert _rebuild_from_ldl(q.rank, d, u) == [[-x for x in row] for row in q.matrix]


def test_ldl_of_plumbing_form_is_sparse():
    # a star with three arms, center first: the center row holds 3
    # entries and the arm rows at most 3, 2 and 1
    for t in ((2, 3, 5), (3, 5, 7), (5, 9, 11), (2, 3, 1801)):
        q = plumbing_form(*t)
        _, u = _ldl(q.rows)
        assert sum(len(row) for row in u) <= 3 * q.rank, t


def test_characteristic_vector_solves_parity():
    rng = random.Random(43)
    forms = [q for _, q in _oracle_conjugates(rng)]
    forms += [plumbing_form(2, 3, c) for c in (1801, 4201)]  # ranks 303 and 703
    for q in forms:
        x = _characteristic_vector(q)
        assert set(x) <= {0, 1}
        qx = [sum(t * x[j] for j, t in row.items()) for row in q.rows]
        assert all((qx[i] - q.matrix[i][i]) % 2 == 0 for i in range(q.rank))


def test_characteristic_vector_refuses_non_unimodular():
    # det 5: q x = diag q has the solution x = (9/5, 8/5)
    q = IntegerQuadraticForm([[-2, 1], [1, -3]])
    assert q.is_negative_definite() and q.determinant == 5
    with pytest.raises(InvariantError, match="integer solution"):
        _characteristic_vector(q)


def test_form_inverse_on_conjugates():
    rng = random.Random(47)
    for _, q in _oracle_conjugates(rng):
        inv = form_inverse(q)
        n = q.rank
        product = [
            [sum(inv[i][r] * q.matrix[r][j] for r in range(n)) for j in range(n)] for i in range(n)
        ]
        assert product == _identity(n)


def test_theta_through_split_matches_full_rank_search():
    rng = random.Random(23)
    for base, q in _oracle_conjugates(rng):
        assert abs(q.determinant) == 1
        assert theta_invariant(q) == _theta_search(q) == _theta_search(base)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _kernel_basis_of_functional(c, cols):
    """Basis of {sum_j y_j cols[j] : sum_j c_j y_j = 0} for a primitive
    integer covector c (gcd of entries 1), via unimodular column
    reduction."""
    n = len(c)
    work = list(c)
    cols = list(cols)
    while True:
        nz = [j for j in range(n) if work[j] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda j: abs(work[j]))
        i0, j0 = nz[0], nz[1]
        f = work[j0] // work[i0]
        work[j0] -= f * work[i0]
        cols[j0] = [a - f * b for a, b in zip(cols[j0], cols[i0])]
    pivot = next(j for j in range(n) if work[j] != 0)
    if abs(work[pivot]) != 1:
        raise InvariantError(f"covector {c} must be primitive")
    return [cols[j] for j in range(n) if j != pivot]


def _split_one_round_at_a_time(q):
    """The <-1> split as one single norm-1 search per summand, each on the
    dense kernel basis of the pairing with the vector found before;
    returns (rounds, residual)."""
    rounds = 0
    while q.rank:
        d, u = q._negated_ldl()
        norm, v = _min_norm_search(d, u, None, Fraction(1), skip_zero=True)
        if norm != 1:
            break
        n, m = q.rank, q.matrix
        pairing = [sum(m[i][j] * v[j] for j in range(n)) for i in range(n)]
        basis = _kernel_basis_of_functional(pairing, _identity(n))
        mb = [[sum(m[r][s] * b[s] for s in range(n)) for r in range(n)] for b in basis]
        gram = [[sum(x * y for x, y in zip(a, c)) for c in mb] for a in basis]
        q = IntegerQuadraticForm(gram)
        rounds += 1
    return rounds, q


def test_split_from_one_enumeration_matches_rounds():
    rng = random.Random(29)
    for _, q in _oracle_conjugates(rng):
        rounds, oracle_residual = _split_one_round_at_a_time(q)
        diag_rank, residual = hnk_split_diagonalize(q)
        assert diag_rank == rounds
        assert len(_norm_one_vectors(q)) == 2 * diag_rank
        rank = 0 if residual is None else residual.rank
        assert diag_rank + rank == q.rank == rounds + oracle_residual.rank
        if residual is not None:
            assert _split_one_round_at_a_time(residual)[0] == 0  # no norm -1 vector
            assert q.determinant == (-1) ** diag_rank * residual.determinant
            assert is_even(residual) == is_even(oracle_residual)


def _split_summary(k, residual, theta):
    """(k, rk R, R even, R is -E8, Theta), an empty R given as None or as
    a form of rank 0."""
    if residual is None or residual.rank == 0:
        return k, 0, True, False, theta
    return k, residual.rank, is_even(residual), is_minus_e8(residual), theta


def test_split_by_blowdowns_matches_one_round_oracle():
    # the production split against the dense kernel-basis rounds, with
    # Theta of the oracle's residual from the full characteristic search
    triples = random.Random(53).sample(_coprime_triples_rank_at_most_20(), 100)
    forms = [plumbing_form(*t) for t in triples]
    for seed in range(3):
        forms += [q for _, q in _oracle_conjugates(random.Random(seed))]
    kinds = set()
    for q in forms:
        rounds, oracle_residual = _split_one_round_at_a_time(q)
        oracle = _split_summary(rounds, oracle_residual, _theta_search(oracle_residual))
        assert _split_summary(*hnk_split_diagonalize(q), theta_invariant(q)) == oracle
        kinds.add(oracle[1:3])
    assert {(0, True), (8, True), (12, False)} <= kinds


def test_split_outside_the_enumeration_fast(monkeypatch):
    # Sigma(2,3,1799), rank 307: 299 blowdowns and a -E8 residual.  Built
    # from a dense kernel basis, this took 0.6-1.3 s on 2 CPUs
    spent = []
    enumerate_vectors = lattice._norm_one_vectors

    def timed(q):
        start = time.perf_counter()
        found = enumerate_vectors(q)
        spent.append(time.perf_counter() - start)
        return found

    monkeypatch.setattr(lattice, "_norm_one_vectors", timed)
    q = plumbing_form(2, 3, 1799)
    start = time.perf_counter()
    k, residual = hnk_split_diagonalize(q)
    elapsed = time.perf_counter() - start - sum(spent)
    assert (q.rank, k) == (307, 299) and is_minus_e8(residual)
    assert elapsed < 0.5, elapsed


def test_plumbing_theta_diagonalize_rank_39_fast(capsys):
    start = time.perf_counter()
    assert main(["plumbing", "--brieskorn", "2,3,191", "--theta", "--diagonalize"]) == 0
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 39 and out["theta"] == 8 and out["diagonal_rank"] == 31
    assert out["residual"] == {"rank": 8, "even": True, "is_minus_e8": True}
    assert elapsed < 2.0


def test_plumbing_theta_odd_norm_one_free_fast(capsys):
    # odd forms with no norm -1 vector: Theta is the characteristic search
    # on the whole form; with the coordinates reordered by diagonal these
    # five commands took about 18 s on 2 CPUs
    start = time.perf_counter()
    for t in ("5,9,11", "9,13,25", "5,7,23", "10,19,23", "11,13,17"):
        assert main(["plumbing", "--brieskorn", t, "--theta"]) == 0
        assert json.loads(capsys.readouterr().out)["theta"] == 16, t
    assert time.perf_counter() - start < 3.0


def test_min_norm_search_deeper_than_recursion_limit():
    # one stack frame per coordinate would raise RecursionError here
    n = sys.getrecursionlimit() + 100
    norm, x = _min_norm_search([Fraction(1)] * n, [{}] * n, None, Fraction(0))
    assert norm == 0 and x == [0] * n


def test_plumbing_rank_703_fast(capsys):
    # one LDL gives definiteness and the determinant; with a second,
    # dense elimination for det the rank-703 command took about 20 s on
    # 2 CPUs, and with a dense LDL the rank-2000 one took 9-15 s
    for c, rank in ((4201, 703), (11983, 2000)):
        start = time.perf_counter()
        assert main(["plumbing", "--brieskorn", f"2,3,{c}"]) == 0
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == rank and out["det"] == (-1) ** rank
        assert elapsed < 8.0, rank


def test_split_computed_once_per_form(monkeypatch):
    calls = []

    def counted(q):
        calls.append(q.rank)
        return _norm_one_vectors(q)

    monkeypatch.setattr(lattice, "_norm_one_vectors", counted)
    q = plumbing_form(2, 3, 65)
    assert theta_invariant(q) == 8
    assert hnk_split_diagonalize(q)[0] == 10
    assert calls == [18]


def test_theta_of_split_needs_no_search(monkeypatch):
    # a complete split or an even residual gives Theta without a search
    def refuse(q):
        raise AssertionError("characteristic search on an even or empty residual")

    monkeypatch.setattr(lattice, "_theta_search", refuse)
    assert theta_invariant(plumbing_form(2, 3, 95)) == 8
    assert theta_invariant(plumbing_form(2, 3, 97)) == 0


def test_split_refuses_unpaired_norm_one_vectors(monkeypatch):
    monkeypatch.setattr(lattice, "_norm_one_vectors", lambda q: [[1, 0], [-1, 0], [0, 1]])
    with pytest.raises(InvariantError, match="pairs"):
        hnk_split_diagonalize(diagonal_form([-1, -1]))


def test_split_refuses_repeated_representative(monkeypatch):
    # an enumeration that met +-e_1 twice would split <-1> off twice
    monkeypatch.setattr(lattice, "_norm_one_vectors", lambda q: [[1, 0], [-1, 0]] * 2)
    with pytest.raises(InvariantError, match="orthogonal"):
        hnk_split_diagonalize(diagonal_form([-1, -1]))


def test_split_refuses_representative_of_wrong_norm(monkeypatch):
    # +-(1, 1) has norm -2 on <-1>^2; orthogonality is certified only for
    # representatives of norm -1
    monkeypatch.setattr(lattice, "_norm_one_vectors", lambda q: [[1, 1], [-1, -1]])
    with pytest.raises(InvariantError, match="must have norm -1"):
        hnk_split_diagonalize(diagonal_form([-1, -1]))


def test_complete_split_makes_no_kernel_step(monkeypatch):
    # at k = n the residual is empty by rank
    def refuse(rows, v, vectors):
        raise AssertionError("blowdown in a complete split")

    monkeypatch.setattr(lattice, "_blow_down", refuse)
    for c in (97, 1801):
        q = plumbing_form(2, 3, c)
        assert hnk_split_diagonalize(q) == (q.rank, None), c


def test_split_refuses_non_unimodular_residual(monkeypatch):
    blow_down = lattice._blow_down

    def doubled(rows, v, vectors):
        # replace the first basis vector of the complement by twice itself:
        # an index-2 sublattice, of determinant 4
        blow_down(rows, v, vectors)
        first = next(iter(rows))
        for k in rows[first]:
            if k != first:
                rows[first][k] *= 2
                rows[k][first] *= 2
        rows[first][first] *= 4

    monkeypatch.setattr(lattice, "_blow_down", doubled)
    with pytest.raises(InvariantError, match="unimodular"):
        hnk_split_diagonalize(direct_sum(diagonal_form([-1]), minus_e8()))


def test_split_refuses_singular_residual(monkeypatch):
    blow_down = lattice._blow_down

    def repeated(rows, v, vectors):
        # replace the last basis vector of the complement by the first
        blow_down(rows, v, vectors)
        first, *_, last = rows
        for k in rows.pop(last):
            if k != last:
                del rows[k][last]
        rows[last] = {**rows[first], last: rows[first][first]}
        for k, x in rows[last].items():
            rows[k][last] = x

    monkeypatch.setattr(lattice, "_blow_down", repeated)
    with pytest.raises(InvariantError, match="negative definite"):
        hnk_split_diagonalize(direct_sum(diagonal_form([-1]), minus_e8()))


def test_blow_down_gives_a_norm_one_vector_a_unit_coordinate(monkeypatch):
    # <-1> + -E8 in the basis f_0 = e_0 - 2 e_1, f_1 = -e_0 + 3 e_1, in
    # which the one norm -1 vector pair is +-(3, 2, 0, ..., 0): no
    # coordinate is +-1 until Euclid on (3, 2) makes one
    u = _identity(9)
    u[0][0], u[1][0], u[0][1], u[1][1] = 1, -2, -1, 3
    q = _conjugate(direct_sum(diagonal_form([-1]), minus_e8()), u)
    met, blow_down = [], lattice._blow_down

    def recorded(rows, v, vectors):
        met.append(dict(v))
        blow_down(rows, v, vectors)

    monkeypatch.setattr(lattice, "_blow_down", recorded)
    k, residual = hnk_split_diagonalize(q)
    assert met == [{0: 3, 1: 2}]
    assert k == 1 and is_minus_e8(residual)
    assert theta_invariant(q) == 8
