"""Plumbing intersection forms and the characteristic-vector invariant.

Hirzebruch-Jung plumbing.  For pairwise coprime (a, b, c) the Brieskorn
sphere bounds the star-shaped plumbing whose central vertex carries the
smooth degree b of the Seifert data and whose i-th arm carries weights
-e_1, ..., -e_n from the continued fraction

    alpha_i / beta_i = e_1 - 1/(e_2 - 1/(...)),   e_j >= 2.

The resulting symmetric integer matrix is negative definite and
unimodular.

Storage.  A form is its sparse rows, row i = {j: q_ij} over the nonzero
entries (3n - 2 on a star of rank n), which every product q v and the
factorisation read.  The dense n x n `matrix` is a view, filled on first
read and cached, for the code that prints or compares its cells.

Factorisation.  The exact LDL of -q, computed once and cached on the
form, is its only factorisation.  It works over the nonzeros of each
row: on a star-shaped plumbing, center first, each row of the factor
holds at most three entries.  It decides negative definiteness
(every pivot d_i > 0), gives the determinant det q = (-1)^n prod d_i and
with it unimodularity, and drives both searches below: the enumeration
of the norm -1 vectors and the characteristic search.  Its one solve
of q x = b gives the parity vector (the integer solution of q x = diag q,
reduced mod 2) and the inverse (one solve per unit vector).

Theta invariant.  For a negative definite unimodular form q,

    Theta(q) = rk(q) + max { q(xi, xi) : xi characteristic },

where xi is characteristic iff q(xi, v) = q(v, v) mod 2 for all v.  Theta
is divisible by 8, satisfies 0 <= Theta(q) <= rk(q), with the upper bound
attained iff q is even, and vanishes iff q is diagonalizable (Elkies,
"A characterization of the Z^n lattice", 1995).  It adds over orthogonal
sums, with Theta(<-1>) = 0 and Theta(even) = rk, so it is computed from
the split below: 0 for a complete split, rk R for an even residual R, and
otherwise a depth-first branch-and-bound over the characteristic coset
xi0 + 2 R of the residual alone, pruned through the cached LDL of -R and
visiting coordinates in R's own order, the last one first.

Splitting.  Write q = <-1>^k + R with R free of norm -1 vectors.  The
norm -1 vectors of q are then exactly +-e_1, ..., +-e_k, pairwise
orthogonal, so one exhaustive Fincke-Pohst enumeration of the vectors of
norm -1 finds all k summands at once, and R is the common kernel of their
k pairings, again unimodular, and empty when k = n.  Orthogonality is
certified in O(kn): by Cauchy-Schwarz on the positive definite -q,
|q(v, w)| <= 1 for vectors of norm -1, with equality only at w = +-v, so
representatives that each have norm -1 and are pairwise distinct up to
sign are pairwise orthogonal.  The split is computed once per form and
cached on it.  The residual of a plumbing form may be empty, even or odd:
Sigma(2,3,7) splits completely, Sigma(2,7,13) leaves an even residual of
rank 16 and Sigma(3,5,7) an odd one of rank 12.  A residual -E8, as for
Sigma(2,3,5), is recognized by its invariants (rank 8, even, unimodular,
negative definite).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm, prod
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from seifinv.numkernel import InvariantError, integers
from seifinv.seifert import brieskorn

Matrix = Tuple[Tuple[int, ...], ...]

#: Largest plumbing rank n whose intersection form is built; larger ones
#: are refused with ValueError.  The form and its LDL hold O(n) entries;
#: what grows with n^2 is the dense view `--matrix` prints (at most 4 * 10^6
#: cells) and the basis the <-1> split reduces.  Sigma(2,3,c) has rank ~c/6.
MAX_PLUMBING_RANK = 2000


class IntegerQuadraticForm:
    """Symmetric integer matrix with cached definiteness metadata, stored as
    its read-only sparse rows and built from rows that are each a sequence of
    n integers or a mapping j -> integer.  Equal and hashed by its rows; the
    cache, which also holds the dense view `matrix`, is not its value."""

    __slots__ = ("_rows", "_cache")
    rows = property(operator.attrgetter("_rows"))

    def __init__(self, rows: Sequence):
        n = len(rows)
        sparse: List[Dict[int, int]] = []
        for row in rows:
            if not isinstance(row, Mapping):
                row = dict(enumerate(integers(row, "matrix entries")))
                if len(row) != n:
                    raise ValueError("matrix must be square")
            cells = zip(integers(row, "matrix indices"), integers(row.values(), "matrix entries"))
            sparse.append({j: x for j, x in cells if x})
        for i, row in enumerate(sparse):
            for j, x in row.items():
                if not 0 <= j < n:
                    raise ValueError("matrix must be square")
                if sparse[j].get(i) != x:
                    raise ValueError("matrix must be symmetric")
        self._rows, self._cache = tuple(map(MappingProxyType, sparse)), {}

    @property
    def matrix(self) -> Matrix:
        """The dense n x n tuple, filled on first read and cached."""
        if "matrix" not in self._cache:
            n, dense = len(self._rows), []
            for row in self._rows:
                cells = [0] * n
                for j, x in row.items():
                    cells[j] = x
                dense.append(tuple(cells))
            self._cache["matrix"] = tuple(dense)
        return self._cache["matrix"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"IntegerQuadraticForm(matrix={self.matrix!r})"

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _negated_ldl(self) -> Optional[Tuple[List[Fraction], List[Dict[int, Fraction]]]]:
        """The LDL of -q, the form's only factorisation, computed once and
        cached; None when q is not negative definite."""
        if "ldl" not in self._cache:
            try:
                self._cache["ldl"] = _ldl(self._rows)
            except ValueError:
                self._cache["ldl"] = None
        return self._cache["ldl"]

    def is_negative_definite(self) -> bool:
        return self._negated_ldl() is not None

    @property
    def determinant(self) -> int:
        """det q = (-1)^n prod d_i over the pivots of the LDL of -q; raises
        ValueError when q is not negative definite."""
        ldl = self._negated_ldl()
        if ldl is None:
            raise ValueError("the determinant is read from the LDL of a negative definite form")
        return (-1) ** self.rank * int(prod(ldl[0]))

    def is_unimodular(self) -> bool:
        """|det q| = 1, for q negative definite (ValueError otherwise)."""
        return abs(self.determinant) == 1

    def __hash__(self):
        return hash(tuple(frozenset(row.items()) for row in self._rows))


class PlumbingGraph(namedtuple("PlumbingGraph", "center_weight arms")):
    """Star-shaped plumbing tree: a central vertex weight plus arms of
    consecutive weights (center first)."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return 1 + sum(len(arm) for arm in self.arms)

    def intersection_form(self) -> IntegerQuadraticForm:
        rows = [{0: self.center_weight}]
        for arm in self.arms:
            prev = 0
            for w in arm:
                idx = len(rows)
                rows[prev][idx] = 1
                rows.append({idx: w, prev: 1})
                prev = idx
        return IntegerQuadraticForm(rows)


def hj_expand(alpha: int, beta: int) -> List[int]:
    """Continued fraction alpha/beta = e1 - 1/(e2 - 1/(...)) with all
    e_j >= 2; deterministic and unique."""
    if not 0 < beta < alpha or gcd(alpha, beta) != 1:
        raise ValueError(f"need 0 < beta < alpha coprime, got ({alpha}, {beta})")
    out = []
    while beta > 0:
        e = -(-alpha // beta)
        out.append(e)
        alpha, beta = beta, e * beta - alpha
    return out


def plumbing_graph(a: int, b: int, c: int) -> PlumbingGraph:
    """Plumbing tree bounding the Brieskorn sphere: center carries the
    Seifert smooth degree, arm i the negated continued fraction of
    alpha_i / beta_i."""
    N = brieskorn(a, b, c)
    arms = tuple(
        tuple(-e for e in hj_expand(alpha, beta))
        for alpha, beta in zip(N.alphas, N.betas)
    )
    return PlumbingGraph(N.smooth_degree, arms)


def plumbing_form(a: int, b: int, c: int) -> IntegerQuadraticForm:
    """Intersection form of the Hirzebruch-Jung plumbing; negative
    definite and unimodular.  Ranks above MAX_PLUMBING_RANK are refused
    with ValueError before any matrix is built."""
    graph = plumbing_graph(a, b, c)
    if graph.rank > MAX_PLUMBING_RANK:
        raise ValueError(
            f"plumbing rank {graph.rank} exceeds {MAX_PLUMBING_RANK}: the "
            f"intersection form of ({a},{b},{c}) is too large to build"
        )
    q = graph.intersection_form()
    if not q.is_negative_definite():
        raise InvariantError(f"plumbing form of ({a},{b},{c}) not negative definite")
    if not q.is_unimodular():
        raise InvariantError(f"plumbing form of ({a},{b},{c}) not unimodular")
    return q


def direct_sum(q1: IntegerQuadraticForm, q2: IntegerQuadraticForm) -> IntegerQuadraticForm:
    n1 = q1.rank
    shifted = ({n1 + j: x for j, x in row.items()} for row in q2.rows)
    return IntegerQuadraticForm([*q1.rows, *shifted])


def is_even(q: IntegerQuadraticForm) -> bool:
    """Even iff every diagonal entry is even (iff 0 is characteristic)."""
    return all(row.get(i, 0) % 2 == 0 for i, row in enumerate(q.rows))


def minus_e8() -> IntegerQuadraticForm:
    """-E8 as the all-(-2) star plumbing with arm lengths 1, 2, 4."""
    return PlumbingGraph(-2, ((-2,), (-2, -2), (-2, -2, -2, -2))).intersection_form()


def diagonal_form(entries: Sequence[int]) -> IntegerQuadraticForm:
    return IntegerQuadraticForm([{i: e} for i, e in enumerate(entries)])


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _ldl(rows: Sequence[Mapping[int, int]]) -> Tuple[List[Fraction], List[Dict[int, Fraction]]]:
    """Triangular decomposition of -m for a negative definite symmetric m,
    given by its sparse rows (row i = {j: m_ij} over the nonzeros):

        -m(x, x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2

    with exact rational d_i > 0, and u[i] = {j: u_ij} holding the nonzero
    u_ij, j > i.  Raises ValueError if m is not negative definite.
    """
    # work[i] = {j: entry} over the nonzeros of row i of -m with j >= i
    work = [{j: Fraction(-x) for j, x in row.items() if j >= i} for i, row in enumerate(rows)]
    d: List[Fraction] = []
    u: List[Dict[int, Fraction]] = []
    for i, row in enumerate(work):
        di = row.pop(i, 0)
        if di <= 0:
            raise ValueError("matrix is not negative definite")
        ui = {j: w / di for j, w in row.items() if w}
        for r, ur in ui.items():
            f, wr = di * ur, work[r]
            for s, us in ui.items():
                if s >= r:
                    wr[s] = wr.get(s, 0) - f * us
        d.append(di)
        u.append(ui)
    return d, u


def _solve(q: IntegerQuadraticForm, b: Sequence[int]) -> List[Fraction]:
    """The exact solution x of q x = b on the cached LDL -q = U^T D U of a
    negative definite q: U^T y = -b forward, then U x = y / d backward,
    over the nonzeros of U."""
    d, u = q._negated_ldl()
    y = [Fraction(-t) for t in b]
    for i, row in enumerate(u):
        for j, uij in row.items():
            y[j] -= uij * y[i]
    x = [Fraction(0)] * len(d)
    for i in reversed(range(len(d))):
        x[i] = y[i] / d[i] - sum(uij * x[j] for j, uij in u[i].items())
    return x


def form_inverse(q: IntegerQuadraticForm) -> List[List[Fraction]]:
    """q^-1, one solve per unit vector, for q negative definite."""
    if not q.is_negative_definite():
        raise ValueError("the inverse is solved on the LDL of a negative definite form")
    n = q.rank
    return [_solve(q, [int(i == j) for j in range(n)]) for i in range(n)]


def _characteristic_vector(q: IntegerQuadraticForm) -> List[int]:
    """xi0 in {0, 1}^n with q xi0 = diag q (mod 2), so xi0 + 2 Lambda is the
    characteristic coset: the solution of q x = diag q, reduced mod 2.
    For |det q| = 1 that solution is integral and its class mod 2 is
    unique; a non-integral one raises InvariantError."""
    x = _solve(q, [row.get(i, 0) for i, row in enumerate(q.rows)])
    if any(t.denominator != 1 for t in x):
        raise InvariantError("q x = diag q has no integer solution: q is not unimodular")
    return [int(t) % 2 for t in x]


def _min_norm_search(
    d: List[Fraction],
    u: List[Dict[int, Fraction]],
    parity: Optional[List[int]],
    bound: Fraction,
    skip_zero: bool = False,
    collect: Optional[List[List[int]]] = None,
) -> Tuple[Optional[Fraction], Optional[List[int]]]:
    """Minimum of Q(x) = sum d_i (x_i + sum_{j>i} u_ij x_j)^2 over integer
    vectors (optionally constrained to x_i = parity_i mod 2), among
    vectors with Q <= bound; optionally ignoring x = 0.  Every vector
    reached is appended to `collect` when given: the search never prunes
    below the best value found, so with bound 1 that is every vector of
    Q = 1.

    Depth-first from the last coordinate with exact zig-zag enumeration:
    at each level candidates move outward from the real minimizer until
    the level cost alone exhausts the remaining budget.  The descent keeps
    one candidate generator per assigned level on an explicit stack, so
    the rank is not bounded by the recursion limit.
    """
    n = len(d)
    # row i as u_ij = num_ij / den_i, so each minimizer is one integer sum
    # over the assigned coordinates
    dens = [lcm(*(f.denominator for f in row.values())) for row in u]
    nums = [[(j, int(f * den)) for j, f in row.items()] for row, den in zip(u, dens)]
    scale = [d[i] / dens[i] ** 2 for i in range(n)]
    step = 2 if parity is not None else 1
    best: Optional[Fraction] = None
    witness: Optional[List[int]] = None
    # no vector above min(bound, best) is visited
    limit = bound
    x = [0] * n

    def level(i: int, used: Fraction):
        """Yield (x_i, used + cost) for every admissible x_i within the
        limit, read afresh after each subtree since best may shrink; below
        coordinate 0, record the complete vector x instead."""
        nonlocal best, witness, limit
        if i < 0:
            if skip_zero and not any(x):
                return
            if collect is not None:
                collect.append(list(x))
            if best is None or used < best:
                best, witness = used, list(x)
                limit = min(bound, best)
            return
        # the real minimizer is center / den
        center, den = -sum(c * x[j] for j, c in nums[i]), dens[i]
        # nearest admissible integer to the real minimizer
        t0 = (2 * center + den) // (2 * den)
        if parity is not None and (t0 - parity[i]) % 2 != 0:
            t0 += 1 if center >= t0 * den else -1
        for direction in (step, -step):
            t = t0 if direction > 0 else t0 - step
            while True:
                total = used + scale[i] * (t * den - center) ** 2
                if total > limit:
                    break
                yield t, total
                t += direction

    stack = [level(n - 1, Fraction(0))]
    while stack:
        found = next(stack[-1], None)
        if found is None:
            stack.pop()
            continue
        i = n - len(stack)
        x[i], used = found
        stack.append(level(i - 1, used))
    return best, witness


def _theta_search(q: IntegerQuadraticForm) -> int:
    """rk(q) + max q(xi, xi) over characteristic xi, by branch-and-bound
    over the whole coset xi0 + 2 Lambda of a negative definite unimodular
    q, on the form's cached LDL of -q in the form's own coordinate order.
    Production runs it only on an odd split residual; on full forms it is
    the oracle of the tests and `seifinv verify lattice`."""
    d, u = q._negated_ldl()
    parity = _characteristic_vector(q)
    # the characteristic vector xi0 = parity gives the initial bound -q(xi0)
    start = Fraction(-_dot(parity, _times(q.rows, parity)))
    norm, _ = _min_norm_search(d, u, parity, start)
    if norm is None or norm.denominator != 1:
        raise InvariantError(f"characteristic minimum {norm} is not an integer")
    return q.rank - int(norm)


def _require_negative_unimodular(q: IntegerQuadraticForm, caller: str) -> None:
    if not q.is_negative_definite():
        raise ValueError(f"{caller} requires a negative definite form")
    if not q.is_unimodular():
        raise ValueError(f"{caller} requires a unimodular form")


def theta_invariant(q: IntegerQuadraticForm) -> int:
    """Theta(q) = rk(q) + max q(xi, xi) over characteristic vectors xi,
    for q negative definite and unimodular.

    Theta adds over orthogonal sums, Theta(<-1>) = 0 and Theta(even) = rk,
    so Theta(q) is Theta of the residual of the <-1> split: 0 when the
    split is complete, rk R for an even residual R, and otherwise the
    characteristic search on R alone."""
    _require_negative_unimodular(q, "theta_invariant")
    n = q.rank
    _, residual = _split(q)
    if residual is None:
        theta = 0
    elif is_even(residual):
        theta = residual.rank
    else:
        theta = _theta_search(residual)
    if theta % 8 != 0:
        raise InvariantError(f"Theta = {theta} must be divisible by 8")
    if not 0 <= theta <= n:
        raise InvariantError(f"Theta = {theta} must lie in [0, {n}]")
    if (theta == n) != is_even(q):
        raise InvariantError(f"Theta = {theta} must equal rk = {n} exactly for even forms")
    return theta


def _norm_one_vectors(q: IntegerQuadraticForm) -> List[List[int]]:
    """Every integer vector v with q(v, v) = -1, both signs, from one
    exhaustive Fincke-Pohst enumeration of -q(x, x) <= 1."""
    d, u = q._negated_ldl()
    found: List[List[int]] = []
    _min_norm_search(d, u, None, Fraction(1), skip_zero=True, collect=found)
    return found


def _kernel_basis_of_functional(c: List[int], cols: List[List[int]]) -> List[List[int]]:
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


def _dot(v: Sequence[int], w: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(v, w))


def _times(rows: Sequence[Mapping[int, int]], v: Sequence[int]) -> List[int]:
    return [sum(x * v[j] for j, x in row.items()) for row in rows]


def _identity(n: int) -> List[List[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _split(q: IntegerQuadraticForm) -> Tuple[int, Optional[IntegerQuadraticForm]]:
    """q = <-1>^k + R with R free of norm -1 vectors, computed once per
    form and cached on it; (k, R), with R = None when it is empty."""
    if "split" in q._cache:
        return q._cache["split"]
    n = q.rank
    found = _norm_one_vectors(q)
    if len(found) % 2:
        raise InvariantError(f"{len(found)} norm -1 vectors: they must come in +- pairs")
    # one representative per pair: first nonzero coordinate positive
    reps = [v for v in found if next(t for t in v if t) > 0]
    # the k sparse products q v give every pairing below in O(n) each
    pairings = [_times(q.rows, v) for v in reps]
    # by Cauchy-Schwarz on -q, distinct representatives of norm -1 are
    # pairwise orthogonal
    if any(_dot(p, v) != -1 for p, v in zip(pairings, reps)):
        raise InvariantError("norm -1 representatives must have norm -1")
    if len(set(map(tuple, reps))) < len(reps):
        raise InvariantError("norm -1 representatives must be distinct, hence pairwise orthogonal")
    residual = None
    # k = n orthogonal norm -1 vectors span a unimodular sublattice of full rank: all of q
    if len(reps) < n:
        basis = _identity(n)
        for p in pairings:
            basis = _kernel_basis_of_functional([_dot(p, b) for b in basis], basis)
        qb = [_times(q.rows, b) for b in basis]
        residual = IntegerQuadraticForm([[_dot(b, c) for c in qb] for b in basis])
        if not (residual.is_negative_definite() and residual.is_unimodular()):
            raise InvariantError(
                "the complement of the <-1> summands must be negative definite and unimodular"
            )
    q._cache["split"] = (len(reps), residual)
    return q._cache["split"]


def hnk_split_diagonalize(
    q: IntegerQuadraticForm,
) -> Tuple[int, Optional[IntegerQuadraticForm]]:
    """Split off every <-1> summand at once: q = <-1>^k + R.

    Returns (k, R or None).  The norm -1 vectors come from one enumeration,
    and R, their orthogonal complement, contains no vectors of norm -1.
    R may be even (-E8 when of rank 8, as for Sigma(2,3,6k-1)) or odd
    (rank 12 for Sigma(3,5,7)).  The split is cached on q, so a following
    `theta_invariant(q)` reuses it."""
    _require_negative_unimodular(q, "hnk_split_diagonalize")
    return _split(q)


def is_minus_e8(q: IntegerQuadraticForm) -> bool:
    """Recognize -E8 among negative definite forms by its invariants:
    rank 8, even, unimodular (these characterize it)."""
    return (
        q.rank == 8
        and is_even(q)
        and q.is_negative_definite()
        and q.is_unimodular()
    )
