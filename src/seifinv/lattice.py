"""Plumbing intersection forms and the characteristic-vector invariant.

Hirzebruch-Jung plumbing.  For pairwise coprime (a, b, c) the Brieskorn
sphere bounds the star-shaped plumbing whose central vertex carries the
smooth degree b of the Seifert data and whose i-th arm carries weights
-e_1, ..., -e_n from the continued fraction

    alpha_i / beta_i = e_1 - 1/(e_2 - 1/(...)),   e_j >= 2.

The resulting symmetric integer matrix is negative definite and
unimodular.

Theta invariant.  For a negative definite unimodular form q,

    Theta(q) = rk(q) + max { q(xi, xi) : xi characteristic },

where xi is characteristic iff q(xi, v) = q(v, v) mod 2 for all v.  The
characteristic vectors form a single coset xi0 + 2 Lambda; Theta is found
by a depth-first branch-and-bound over that coset, pruned through the
exact triangular decomposition of -q, visiting coordinates in decreasing
diagonal magnitude.  Theta is divisible by 8, satisfies
0 <= Theta(q) <= rk(q), with the upper bound attained iff q is even, and
vanishes iff q is diagonalizable.

Splitting.  Whenever q has a vector v with q(v, v) = -1, the lattice
splits as <v> + v-perp with both summands unimodular, so <-1> factors
split off one at a time; the residual (when nonempty) has no norm-one
vectors.  For the Brieskorn families treated here the residual is either
empty or isometric to -E8, which is recognized by its invariants
(rank 8, even, unimodular, negative definite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from seifinv.numkernel import InvariantError
from seifinv.seifert import brieskorn

Matrix = Tuple[Tuple[int, ...], ...]


def _freeze(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


@dataclass(frozen=True)
class IntegerQuadraticForm:
    """Symmetric integer matrix with cached definiteness metadata."""

    matrix: Matrix
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        n = len(self.matrix)
        for row in self.matrix:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValueError("matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @property
    def determinant(self) -> int:
        if "det" not in self._cache:
            self._cache["det"] = _det_bareiss(self.matrix)
        return self._cache["det"]

    def is_negative_definite(self) -> bool:
        if "negdef" not in self._cache:
            self._cache["negdef"] = _is_positive_definite(_negate(self.matrix))
        return self._cache["negdef"]

    def is_unimodular(self) -> bool:
        return abs(self.determinant) == 1

    def evaluate(self, v: Sequence[int]) -> int:
        return sum(v[i] * self.matrix[i][j] * v[j] for i in range(self.rank) for j in range(self.rank))

    def __hash__(self):
        return hash(self.matrix)


@dataclass(frozen=True)
class PlumbingGraph:
    """Star-shaped plumbing tree: a central vertex weight plus arms of
    consecutive weights (center first)."""

    center_weight: int
    arms: Tuple[Tuple[int, ...], ...]

    def intersection_form(self) -> IntegerQuadraticForm:
        n = 1 + sum(len(arm) for arm in self.arms)
        m = [[0] * n for _ in range(n)]
        m[0][0] = self.center_weight
        idx = 1
        for arm in self.arms:
            prev = 0
            for w in arm:
                m[idx][idx] = w
                m[idx][prev] = m[prev][idx] = 1
                prev = idx
                idx += 1
        return IntegerQuadraticForm(_freeze(m))


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
    definite and unimodular."""
    q = plumbing_graph(a, b, c).intersection_form()
    if not q.is_negative_definite():
        raise InvariantError(f"plumbing form of ({a},{b},{c}) not negative definite")
    if not q.is_unimodular():
        raise InvariantError(f"plumbing form of ({a},{b},{c}) not unimodular")
    return q


def direct_sum(q1: IntegerQuadraticForm, q2: IntegerQuadraticForm) -> IntegerQuadraticForm:
    n1, n2 = q1.rank, q2.rank
    m = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            m[i][j] = q1.matrix[i][j]
    for i in range(n2):
        for j in range(n2):
            m[n1 + i][n1 + j] = q2.matrix[i][j]
    return IntegerQuadraticForm(_freeze(m))


def is_even(q: IntegerQuadraticForm) -> bool:
    """Even iff every diagonal entry is even (iff 0 is characteristic)."""
    return all(q.matrix[i][i] % 2 == 0 for i in range(q.rank))


def minus_e8() -> IntegerQuadraticForm:
    """-E8 as the all-(-2) star plumbing with arm lengths 1, 2, 4."""
    return PlumbingGraph(-2, ((-2,), (-2, -2), (-2, -2, -2, -2))).intersection_form()


def diagonal_form(entries: Sequence[int]) -> IntegerQuadraticForm:
    n = len(entries)
    return IntegerQuadraticForm(
        _freeze([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])
    )


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _negate(m: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in m)


def _det_bareiss(m: Matrix) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _is_positive_definite(m: Matrix) -> bool:
    try:
        _ldl(m)
        return True
    except ValueError:
        return False


def _ldl(m: Matrix) -> Tuple[List[Fraction], List[List[Fraction]]]:
    """Triangular decomposition of a positive definite symmetric matrix:

        Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2

    with exact rational d_i > 0, u_ij.  Raises ValueError if not positive
    definite.
    """
    n = len(m)
    work = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = work[i][i]
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = work[i][j] / d[i]
        for r in range(i + 1, n):
            for s in range(r, n):
                work[r][s] -= d[i] * u[i][r] * u[i][s]
                work[s][r] = work[r][s]
    return d, u


def _invert_fraction(m: Matrix) -> List[List[Fraction]]:
    """Exact inverse via Gauss-Jordan over Fractions."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def form_inverse(q: IntegerQuadraticForm) -> List[List[Fraction]]:
    return _invert_fraction(q.matrix)


def _solve_parity(m: Matrix) -> List[int]:
    """Solve A x = diag(A) (mod 2); for |det A| odd the solution class is
    unique mod 2, so this pins the characteristic coset xi0 + 2 Lambda."""
    n = len(m)
    rows = [[m[i][j] & 1 for j in range(n)] + [m[i][i] & 1] for i in range(n)]
    piv_of_col = [-1] * n
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(n):
            if i != r and rows[i][col]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        piv_of_col[col] = r
        r += 1
    x = [0] * n
    for col in range(n):
        if piv_of_col[col] >= 0:
            x[col] = rows[piv_of_col[col]][n]
        # free columns (singular mod 2) default to 0; callers require
        # unimodular input where this does not occur
    return x


def _min_norm_search(
    d: List[Fraction],
    u: List[List[Fraction]],
    parity: Optional[List[int]],
    bound: Fraction,
    skip_zero: bool = False,
) -> Tuple[Optional[Fraction], Optional[List[int]]]:
    """Minimum of Q(x) = sum d_i (x_i + sum_{j>i} u_ij x_j)^2 over integer
    vectors (optionally constrained to x_i = parity_i mod 2), among
    vectors with Q <= bound; optionally ignoring x = 0.

    Depth-first from the last coordinate with exact zig-zag enumeration:
    at each level candidates move outward from the real minimizer until
    the level cost alone exhausts the remaining budget.
    """
    n = len(d)
    best: List[Optional[Fraction]] = [None]
    witness: List[Optional[List[int]]] = [None]
    x = [0] * n

    def descend(i: int, used: Fraction) -> None:
        if i < 0:
            if skip_zero and all(v == 0 for v in x):
                return
            if best[0] is None or used < best[0]:
                best[0] = used
                witness[0] = list(x)
            return
        budget = (bound if best[0] is None else min(bound, best[0])) - used
        if budget < 0:
            return
        center = -sum(u[i][j] * x[j] for j in range(i + 1, n))
        # nearest admissible integer to the real minimizer
        t0 = round(center)
        if parity is not None and (t0 - parity[i]) % 2 != 0:
            t0 += 1 if center >= t0 else -1
        step = 2 if parity is not None else 1
        for direction in (step, -step):
            t = t0 if direction > 0 else t0 - step
            while True:
                cost = d[i] * (t - center) ** 2
                if cost > budget:
                    break
                x[i] = t
                descend(i - 1, used + cost)
                # best may have shrunk; recompute the admissible window
                budget = (bound if best[0] is None else min(bound, best[0])) - used
                t += direction
        x[i] = 0

    descend(n - 1, Fraction(0))
    return best[0], witness[0]


def _ordered_by_diagonal(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Symmetric permutation so the search assigns coordinates of largest
    |diagonal| first (the last index is assigned first)."""
    n = len(m)
    order = sorted(range(n), key=lambda i: abs(m[i][i]))
    pm = tuple(tuple(m[order[i]][order[j]] for j in range(n)) for i in range(n))
    return pm, order


def theta_invariant(q: IntegerQuadraticForm) -> int:
    """Theta(q) = rk(q) + max q(xi, xi) over characteristic vectors xi,
    for q negative definite and unimodular."""
    if not q.is_negative_definite():
        raise ValueError("theta_invariant requires a negative definite form")
    if not q.is_unimodular():
        raise ValueError("theta_invariant requires a unimodular form")
    n = q.rank
    if n == 0:
        return 0
    m, order = _ordered_by_diagonal(q.matrix)
    parity_orig = _solve_parity(q.matrix)
    parity = [parity_orig[order[i]] for i in range(n)]
    minus = _negate(m)
    d, u = _ldl(minus)
    # a valid characteristic vector gives the initial bound
    start = Fraction(
        sum(minus[i][j] * parity[i] * parity[j] for i in range(n) for j in range(n))
    )
    norm, _ = _min_norm_search(d, u, parity, start)
    if norm is None or norm.denominator != 1:
        raise InvariantError(f"characteristic minimum {norm} is not an integer")
    theta = n - int(norm)
    if theta % 8 != 0:
        raise InvariantError(f"Theta = {theta} must be divisible by 8")
    if not 0 <= theta <= n:
        raise InvariantError(f"Theta = {theta} must lie in [0, {n}]")
    if (theta == n) != is_even(q):
        raise InvariantError(f"Theta = {theta} must equal rk = {n} exactly for even forms")
    return theta


def _norm_one_vector(q: IntegerQuadraticForm) -> Optional[List[int]]:
    """An integer vector v with q(v, v) = -1, or None."""
    minus = _negate(q.matrix)
    d, u = _ldl(minus)
    norm, witness = _min_norm_search(d, u, None, Fraction(1), skip_zero=True)
    if norm == 1:
        return witness
    return None


def _kernel_basis_of_functional(c: List[int]) -> List[List[int]]:
    """Basis of {x : sum c_i x_i = 0} for a primitive integer covector c
    (gcd of entries 1), via unimodular column reduction."""
    n = len(c)
    work = list(c)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]  # cols[j] = basis vec
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


def _orthogonal_complement(q: IntegerQuadraticForm, v: List[int]) -> IntegerQuadraticForm:
    """Gram matrix of q restricted to the orthogonal complement of a
    q-norm -1 vector v; the complement is again unimodular."""
    n = q.rank
    pairings = [sum(q.matrix[i][j] * v[j] for j in range(n)) for i in range(n)]
    basis = _kernel_basis_of_functional(pairings)
    g = [
        [
            sum(bi[r] * q.matrix[r][s] * bj[s] for r in range(n) for s in range(n))
            for bj in basis
        ]
        for bi in basis
    ]
    out = IntegerQuadraticForm(_freeze(g))
    if not out.is_unimodular():
        raise InvariantError("complement of a unimodular vector must be unimodular")
    return out


def hnk_split_diagonalize(
    q: IntegerQuadraticForm,
) -> Tuple[int, Optional[IntegerQuadraticForm]]:
    """Split off <-1> summands while norm -1 vectors exist.

    Returns (number of <-1> summands, residual form or None).  The
    residual, when present, contains no vectors of norm -1; for the
    plumbing families computed here it is even (and -E8-isometric when of
    rank 8).
    """
    if not q.is_negative_definite():
        raise ValueError("hnk_split_diagonalize requires a negative definite form")
    if not q.is_unimodular():
        raise ValueError("hnk_split_diagonalize requires a unimodular form")
    diag_rank = 0
    current = q
    while current.rank > 0:
        v = _norm_one_vector(current)
        if v is None:
            break
        current = _orthogonal_complement(current, v)
        diag_rank += 1
    if current.rank == 0:
        return diag_rank, None
    return diag_rank, current


def is_minus_e8(q: IntegerQuadraticForm) -> bool:
    """Recognize -E8 among negative definite forms by its invariants:
    rank 8, even, unimodular (these characterize it)."""
    return (
        q.rank == 8
        and q.is_unimodular()
        and is_even(q)
        and q.is_negative_definite()
    )
