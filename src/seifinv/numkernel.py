"""Exact rational primitives and arbitrary-precision zeta evaluation.

Exact layer (fractions.Fraction throughout):

    {x}      fractional part in [0, 1)
    ((x))    sawtooth: {x} - 1/2 off the integers, 0 on them
    psi2(x)  second Bernoulli polynomial evaluated on {x}:
             B2(z) = z^2 - z + 1/6

Numeric layer (integer fixed point; a BigFloat is an exact rational value
with an explicit decimal-digit precision and a carried absolute error
estimate eps, 0 for an exact value):

    hurwitz_zeta(s, a)    zeta(s, a) = sum_{n>=0} (n + a)^(-s), a > 0
                          rational, by one Euler-Maclaurin pass; exact at
                          integer s <= 0
    riemann_zeta(s)       zeta(s, 1)
    hurwitz_sum(series)   sum of W/Q p^(-s) zeta(s, a) over integer row
                          sets (below): the one kernel every eta series
                          is folded into
    BigFloat.within(x, tol)
                          |value - x| <= tol for an exact x, exactly

Every operation runs on Python integers alone: no floating-point library
is imported.  BigFloat.value and BigFloat.eps hand out mpmath numbers for
oracle code that wants them, and import mpmath only when read.

At an integer s = -n <= 0 both zeta operations are exact,

    zeta(-n, a) = -B_{n+1}(a) / (n + 1)

with B_m the Bernoulli polynomials.  hurwitz_sum sums the rows of such
an s from the signed moments below, as B_m(1/2 + h) = sum C(m, j)
B_(m-j)(1/2) h^j over j = m mod 2 (m = n + 1): at an odd n only the even
moments enter, which vanish on signed pairs.  Such values are exact,
with eps 0, and print their correctly rounded digits.

Powers.  seifinv.fixedpoint.power(n, d, s, F) returns (n/d)^(-s) in
units of 2^-F, with a count of units that bounds its error: the exact
integer sd-th root of the rational power for s = sn/sd with sd <= 8
(within 1 unit), fixed-point log and exp with argument reduction for any
other s, such as 0.37 or 1 + 10^-29 (within 2 or 3 counted units).

Cost of hurwitz_sum.  The keys of one (s, p) come as one row set
(D, Q, {U: (W+, W-)}): weight W+/Q at a = 1/2 + U/D and W-/Q at
a = 1/2 - U/D.  For 0 < a <= 1, |h| / (5/2) <= 1/5 with h = a - 1/2, and

    zeta(s, a) = a^(-s) + (1 + a)^(-s)
                 + sum_{j>=0} (-1)^j (s)_j / j! zeta(s + j, 5/2) h^j,

the Taylor expansion about a fixed centre (after Johansson, Rigorous
high-precision computation of the Hurwitz zeta function and its
derivatives, Numer. Algorithms 2015).  The rows of one s fold into the
integer moments sum (W+ + (-1)^j W-) U^j, so each centre value
zeta(s + j, 5/2) is evaluated once for all keys.  The expansion stops at a
J set by s and the precision alone, so the number of Hurwitz evaluations
does not grow with the number of keys (with alpha, for an eta series).  A
signed pair w zeta(s, x) - w zeta(s, 1 - x), of which every eta series at s
is made, is a row with W- = -W+: its even moments vanish exactly and their
centre values are never evaluated.  The coefficients (s)_j / j! are exact
rationals; the powers a^(-s), (1 + a)^(-s) (two per key) and p^(-s) are
the fixed-point ones above.  All the centre values of an s come from one
Euler-Maclaurin pass (below).  One hurwitz_zeta call per distinct a is
made instead where those are at most 1/8 of the centre values they would
need (such as the one or two s - 1 keys of an eta series), unless the
weights of some p sum to zero: its zeroth moment cancels the residues of
zeta(s, a) at s = 1 exactly, which per-key values each carry, so an eta
series is summed at s = 1 too.  Where s + j meets the pole near an integer
s <= 0, (s)_j has the factor s + j - 1, and their product stays finite.

Euler-Maclaurin pass.  Every non-exact Hurwitz value, the centre values
and the per-key values alike, comes from _em_shifts, which returns
zeta(s + j, a) for a run of shifts j from one pass over a = p/q:

    zeta(s, a) = sum_{k<N} (k + a)^-s + X^(1-s) / (s - 1) + X^-s / 2
                 + sum_{m=1}^{M} B_2m / (2m)! (s)_(2m-1) X^(1-s-2m) + R,

with X = N + a and (s)_n the rising factorial.  The N + 1 powers
(k + a)^-s come from fixedpoint.power, in units of 2^-F.  Each shift
multiplies every power by q / (qk + p), the Bernoulli terms run through
the exact rising factorials, and B_2m / (2m)! comes from the tangent numbers
(Brent-Harvey), cached per (M, P), at a relative precision P = F + log2
of the largest power + 16 bits.  N is chosen once per pass, and M as the
least at each shift, so that Johansson's bound for real s with
s + 2M - 1 > 0,

    |R| <= 4 |(s)_2M| / (2 pi)^2M X^(1-s-2M) / (s + 2M - 1),

is at most 2^-T at every shift, 2^-T ~ 10^-(precision+15) times the scale
of the value (max(1, a^-s) for s > 1, 1 otherwise); F is T plus 10 guard
bits.  The log2 of the largest power in P is what keeps a value accurate
when the sum cancels, as it does at negative s, where the powers grow
with k and the value does not.

The error estimate eps.  The eps of a Hurwitz value is that remainder
bound plus a count of its fixed-point roundings times 2^-F (the power
routine's count per power, one more per shift and per integer product,
weighted by how the later products scale them).  The value is the exact
fixed-point sum; it is not rounded again.  hurwitz_sum adds, at a fixed
point 2^-G with G = F of the centre pass,

  - per key the power counts of a^-s and (1 + a)^-s times |w|, and per
    centre value one unit for the floor of its exact-rational product;
  - the centre values' own eps, weighted by |(s)_j / j!| sum |w| |h|^j;
  - the truncation tail, explicit: past J each term is at most
    |(s)_j / j!| zb(s + j) 2^-j sum |w| with
    zb(x) = (5/2)^-x (1 + (5/2)/(x - 1)) >= zeta(x, 5/2), and the terms
    shrink by about 1/5 per step once j > |s|;
  - or, for keys evaluated one by one, per key |w| times the value's eps
    and one unit for the floor of the product;

and each total over one p is scaled by p^-s / Q at a precision whose own
rounding stays below 2^-15 of that total's.  The scaled totals, values
and eps alike, and the exact sums of any integer s <= 0 are added as
exact rationals.  These are counts of integer roundings, not a proof
(ROADMAP item 6).

tests/test_numkernel.py checks the power routine against mpmath over a
seeded corpus of bases, exponents and fixed points, every shift of the
pass and the per-value eps against mpmath's independent rational-a route
at 2p+20 digits, over a seeded corpus of s in [-25, 25] and a in (0, 2],
and the moments of hurwitz_sum against per-key values; tests/test_eta.py
checks the eps of whole eta series against a term-by-term reference,
also at and near s = 1 and the integers s <= 0.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, gcd, inf, log2, log10, pi
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

from seifinv.fixedpoint import ceil_shift, floor_shift, power, to_str

if TYPE_CHECKING:
    import mpmath

Rational = Union[int, Fraction]


class InvariantError(RuntimeError):
    """A production invariant check failed: a value the mathematics
    guarantees (a bound, a parity, an integrality) did not hold.

    Raised instead of ``assert`` so the checks survive ``python -O``.
    """


def integers(values: Iterable, what: str) -> Tuple[int, ...]:
    """values through operator.index, never truncated: ValueError otherwise."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


_GUARD_DIGITS = 15


def frac(x: Rational) -> Fraction:
    """Fractional part {x} in [0, 1); x - {x} is an integer."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def sawtooth(x: Rational) -> Fraction:
    """Sawtooth ((x)): {x} - 1/2 for non-integer x, 0 for integer x."""
    f = frac(x)
    if f == 0:
        return Fraction(0)
    return f - Fraction(1, 2)


def psi2(x: Rational) -> Fraction:
    """B2({x}) where B2(z) = z^2 - z + 1/6 is the second Bernoulli polynomial."""
    f = frac(x)
    return f * f - f + Fraction(1, 6)


# ---------------------------------------------------------------------------
# BigFloat: an exact rational value and its error estimate


def _mpf(x: Fraction) -> mpmath.mpf:
    """x as an mpmath mpf: exact for a dyadic x, else rounded to nearest at
    the working precision.  mpmath is imported here only."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp, from_rational

    n, d = x.numerator, x.denominator
    if d & (d - 1):
        return mp.make_mpf(from_rational(n, d, mp.prec, "n"))
    return mp.make_mpf(from_man_exp(n, 1 - d.bit_length()))


def _fixed(n: int, F: int) -> Fraction:
    """n 2^-F, for any integer F."""
    return Fraction(n, 1 << F) if F >= 0 else Fraction(n << -F)


class BigFloat:
    """An exact rational value tagged with its decimal precision and an
    absolute error estimate eps >= 0, also rational: 0 for an exact value.

    ``digits`` is the precision every producing operation was asked for;
    ``eps`` estimates |value - exact| from the counted roundings (see the
    module docstring); it is not a rigorous bound.  str, float, equality
    and ``within`` are exact rational code; ``value`` and ``eps`` are
    mpmath views for oracle code, exact for a dyadic value, built (and
    mpmath imported) on each read.
    """

    # read-only fields, but not a tuple: a number must not unpack or serialise as a JSON array
    __slots__ = ("_value", "_digits", "_eps")

    def __init__(self, value: Rational, digits: int, eps: Rational):
        self._value, self._digits, self._eps = Fraction(value), digits, Fraction(eps)

    @property
    def digits(self) -> int:
        return self._digits

    @property
    def value(self) -> mpmath.mpf:
        return _mpf(self._value)

    @property
    def eps(self) -> mpmath.mpf:
        return _mpf(self._eps)

    def _key(self):
        return self._value, self._digits, self._eps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"BigFloat(value={self.value!r}, digits={self._digits!r}, eps={self.eps!r})"

    def __str__(self) -> str:
        x = self._value
        return f"{to_str(x.numerator, x.denominator, self._digits)}@{self._digits}"

    def __float__(self) -> float:
        """Rounded to nearest; +-inf past the float range, as mpmath gives."""
        try:
            return float(self._value)
        except OverflowError:
            return inf if self._value > 0 else -inf

    def within(self, x: Rational, tol: Rational) -> bool:
        """|value - x| <= tol, exactly."""
        return abs(self._value - x) <= tol


# ---------------------------------------------------------------------------
# Hurwitz zeta


def _nonpositive_integer(s) -> bool:
    return s <= 0 and s == int(s)


@lru_cache(maxsize=8)
def _tangent_numbers(n: int) -> Tuple[int, ...]:
    """T_1, ..., T_n, with tan x = sum_k T_k x^(2k-1) / (2k-1)!, by the
    all-integer recurrence of Brent and Harvey (Fast computation of
    Bernoulli, tangent and secant numbers, 2011): O(n^2) additions and
    small multiplications, no division."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[1 : n + 1])


@lru_cache(maxsize=64)
def _bernoulli_numbers(m: int) -> Tuple[Fraction, ...]:
    """B_0, ..., B_m (B_1 = -1/2), from the tangent numbers:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), B_odd = 0 past B_1."""
    b = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (m - 1)
    for k, t in enumerate(_tangent_numbers(m // 2), start=1):
        b[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t, (4**k) * (4**k - 1))
    return tuple(b[: m + 1])


def _moments(
    rows: List[Tuple[int, int, int]], orders: List[int], step: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """signed[j] = sum (W+ + (-1)^j W-) U^j and magnitude[j] =
    sum (|W+| + |W-|) U^j over rows (U, W+, W-), for j in orders (spaced by step)."""
    signed, magnitude = dict.fromkeys(orders, 0), dict.fromkeys(orders, 0)
    for U, wp, wm in rows:
        e, o, m = wp + wm, wp - wm, abs(wp) + abs(wm)
        x, U_step = U ** orders[0], U**step
        for j in orders:
            signed[j] += (o if j % 2 else e) * x
            magnitude[j] += m * x
            x *= U_step
    return signed, magnitude


def _exact_sum(n: int, p: int, D: int, Q: int, rows: List[Tuple[int, int, int]]) -> Fraction:
    """sum W/Q p^n zeta(-n, a) over the keys a = 1/2 +- U/D of rows, exactly,
    with m = n + 1 and B_k(1/2) = (2^(1-k) - 1) B_k (module docstring)."""
    m = n + 1
    b = _bernoulli_numbers(m)
    signed, _ = _moments(rows, list(range(m % 2, m + 1, 2)), 2)
    # C(m, k) B_k(1/2) signed[m - k] D^k over even k, all over D^m
    total = sum(comb(m, k) * b[k] * (2 - 2**k) / 2**k * signed[m - k] * D**k for k in range(0, m + 1, 2))
    return -(p**n) * total / (m * Q * D**m)


#: Bits of the fixed point below the requested accuracy 2^-T of a value:
#: the roundings of a pass, a few hundred units of 2^-F, stay below 2^-T.
_EM_GUARD_BITS = 10

_LOG2_2PI = log2(2 * pi)
_LOG2_10 = log2(10)


def _log2(x: Fraction) -> float:
    """log2 |x| of a nonzero rational, from its integers (no float overflow
    or underflow)."""
    return log2(abs(x.numerator)) - log2(x.denominator)


@lru_cache(maxsize=16)
def _em_coefficients(M: int, P: int) -> Tuple[Tuple[int, int], ...]:
    """(c, e) with B_2m / (2m)! = c 2^-e to a relative 2^(1-P), m = 1..M."""
    tangent = _tangent_numbers(M)
    out = []
    fact = 1  # (2m - 1)!
    for m in range(1, M + 1):
        if m > 1:
            fact *= (2 * m - 2) * (2 * m - 1)
        # B_2m / (2m)! = (-1)^(m-1) T_m / ((2m - 1)! 4^m (4^m - 1))
        den = (fact << 2 * m) * ((1 << 2 * m) - 1)
        e = P + den.bit_length() - tangent[m - 1].bit_length()
        c = (tangent[m - 1] << e) // den
        out.append((c if m % 2 else -c, e))
    return tuple(out)


def _em_shifts(
    s, a: Rational, J: int, precision: int, step: int = 1
) -> Tuple[int, List[Tuple[int, int]]]:
    """(F, [(v, e)]): zeta(s + step i, a) = v 2^-F with eps e 2^-F for
    i < J, from one Euler-Maclaurin pass over the rational a = p/q > 0
    (module docstring).

    The N + 1 powers (k + a)^-s, k <= N, come from fixedpoint.power in
    units of 2^-F; every later shift multiplies them by (q / (qk + p))^step
    in integer fixed point.  Each v is its exact fixed-point sum; e is the
    remainder bound at its shift plus its count of fixed-point roundings."""
    s, a = Fraction(s), Fraction(a)
    p, q = a.numerator, a.denominator
    sn, sd = s.numerator, s.denominator
    sigmas = [s + step * i for i in range(J)]
    if 1 in sigmas:
        raise ValueError("hurwitz_zeta: s too close to the pole at s = 1")
    fs = sn / sd
    # T: the value is wanted to 2^-T times its scale, max(1, a^-s) for s > 1
    # (every term is then positive) and 1 otherwise; F: the fixed-point unit
    T = ceil((precision + _GUARD_DIGITS) * _LOG2_10)
    if s > 1 and a < 1:
        T -= int(-fs * _log2(a))
    F = T + _EM_GUARD_BITS
    lsd = log2(sd)
    logs = [0.0]  # logs[t] = log2 |(s)_t|

    def log_rising(u, n):
        while len(logs) <= u + n:
            t = len(logs) - 1
            logs.append(logs[t] + log2(abs(sn + t * sd)) - lsd)
        return logs[u + n] - logs[u]

    # X = N + a and M: Johansson's bound on the remainder after M Bernoulli
    # terms at s' = s + u, for s' + 2M - 1 > 0,
    #   |R| <= 4 |(s')_2M| / (2 pi)^2M X^(1 - s' - 2M) / (s' + 2M - 1),
    # must be at most 2^-T at every shift.  N ~ 0.13 T balances the powers
    # against the integer Bernoulli terms; 2 pi X > 2 |s'| keeps the
    # terms falling.  Should they stop falling above 2^-T, N grows by half.
    N = max(1, ceil(max(0.13 * max(T, 16), max(abs(float(x)) for x in sigmas) / pi) + 1 - a))
    shifts = range(0, step * J, step)
    while True:
        xn = q * N + p  # X = xn / q
        lX = log2(xn) - log2(q)

        def log_bound(u, M):
            x = sn + (u + 2 * M - 1) * sd  # (s' + 2M - 1) sd
            return 2 + log_rising(u, 2 * M) - 2 * M * _LOG2_2PI - (x / sd) * lX - log2(x) + lsd

        # per shift, (M, bound) for the least M with s' + 2M - 1 > 0 that
        # meets 2^-T, climbing only while the bound falls (it is convex in M)
        plan = []
        for u in shifts:
            M = max(1, (sd - sn - u * sd) // (2 * sd) + 1)
            bound = log_bound(u, M)
            while bound > -T and (following := log_bound(u, M + 1)) < bound:
                M, bound = M + 1, following
            if bound > -T:
                break
            plan.append((M, bound))
        else:
            break
        N += (N + 1) // 2

    # P: the relative precision of the Bernoulli coefficients, F plus log2
    # of the largest power, so that each product with them is exact to
    # 2^-F however much the sum cancels
    P = max(F + ceil(max(-fs * _log2(a), -fs * lX)), 0) + 16
    Pc = -(-P // 64) * 64
    coeffs = _em_coefficients(-(-max(M for M, _ in plan) // 64) * 64, Pc)
    powers, e0 = [], 1
    for k in range(N + 1):
        v, e = power(q * k + p, q, s, F)
        powers.append(v)
        e0 = max(e0, e)
    tX = powers.pop()
    dens = [(q * k + p) ** step for k in range(N)]
    qs, xs = q**step, xn**step
    X2 = sd * sd * xn * xn
    out = []
    # per-unit rounding counts: each power starts within e0 units, and a
    # shift by q / (qk + p) adds one; only k = 0 with a < 1 grows them
    small = a < 1
    for i, (Mi, bound) in enumerate(plan):
        u = step * i
        su = sn + u * sd  # sigma = su / sd
        e_X = e0 + i
        count = (N - small) * e_X + (small and e_X * 2.0 ** (-u * _log2(a)))
        total = sum(powers) + (tX >> 1) + tX * xn * sd // (q * (su - sd))
        count += e_X / 2 + 2
        # the pole term's e_X X / |sigma - 1| in integers: sigma may lie
        # within float range of 1
        pole = -(-e_X * xn * sd // (q * abs(su - sd)))
        # r_m = (sigma)_(2m-1) X^(1 - sigma - 2m); w bounds its rounding
        # error over (2 pi)^2m, and |B_2m / (2m)!| <= 3.3 (2 pi)^-2m
        r = tX * su * q // (sd * xn)
        w = (e_X * abs(su / sd) * q / xn + 1) / (2 * pi) ** 2
        size = 0
        for m in range(1, Mi + 1):
            c, e = coeffs[m - 1]
            t = (r * c) >> e
            total += t
            size += abs(t)
            count += 3.3 * w + 1
            A = (su + (2 * m - 1) * sd) * (su + 2 * m * sd)
            r = r * A * q * q // X2
            w = w * (abs(A) * q * q / X2) / (2 * pi) ** 2 + (2 * pi) ** (-2 * m - 2)
        # the coefficients' own rounding, a relative 2^(1-Pc) per term
        count += (size >> (Pc - 1)) + Mi
        # the remainder bound 2^bound, in units of 2^-F rounded up
        remainder = 1 << max(ceil(bound + 1e-6) + F, 0)
        out.append((total, ceil(count) + pole + remainder))
        if i + 1 < J:
            powers = [t * qs // d for t, d in zip(powers, dens)]
            tX = tX * qs // xs
    return F, out


def hurwitz_zeta(s, a: Rational, precision: int = 30) -> BigFloat:
    """zeta(s, a) = sum_{n>=0} (n + a)^(-s) for a > 0, s != 1.

    a must be rational.  At an integer s <= 0 the value is the exact
    -B_{1-s}(a) / (1 - s), with eps 0; elsewhere it is one Euler-Maclaurin
    pass, _em_shifts(s, a, 1, precision), aimed at 10^-(precision+15)
    times max(1, a^-s) for s > 1 and absolute otherwise.  eps is Johansson's
    remainder bound plus the pass's counted fixed-point roundings (module
    docstring).  eps is checked against mpmath's independent rational-a
    route over a tested corpus.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    a = Fraction(a)
    if a <= 0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got a = {a}")
    if _nonpositive_integer(s):
        # a = 1/2 + (2 num - den) / (2 den) as a one-key row
        row = [(2 * a.numerator - a.denominator, 1, 0)]
        return BigFloat(_exact_sum(-int(s), 1, 2 * a.denominator, 1, row), precision, 0)
    if abs(Fraction(s) - 1) < Fraction(1, 10**precision):
        raise ValueError("hurwitz_zeta: s too close to the pole at s = 1")
    F, [(v, e)] = _em_shifts(s, a, 1, precision)
    return BigFloat(_fixed(v, F), precision, _fixed(e, F))


def riemann_zeta(s, precision: int = 30) -> BigFloat:
    """zeta(s) = zeta(s, 1), with the same pole guard at s = 1."""
    return hurwitz_zeta(s, 1, precision)


#: The Taylor centre of hurwitz_sum: zeta(s, a) for 0 < a <= 1 is expanded
#: about zeta(s, 5/2) in h = a - 1/2, |h| / (5/2) <= 1/5.
_CENTRE = Fraction(5, 2)

#: One Euler-Maclaurin pass for the centre values of a group costs about as
#: much as one per-key value for every 4-6 orders it carries: on keys
#: k/(n + 1) with weights (-1)^k / k at s = -3/4 and 1/2, 15-40 digits and
#: 39-77 orders (best of 5, in process, 2 CPUs), the two routes cost the
#: same at 10-15 keys.  So 8 takes the moments up to 1.55x early, by about
#: 0.5 ms.
_PASS_ORDERS_PER_KEY = 8


def _taylor_length(s, digits: int) -> Tuple[int, float]:
    """(J, log10 t): the expansion is cut after j < J, and every later term
    is at most t * sum |w p^-s|, their sum at most 2 t <= 2 10^-digits.

    t_j = |(s)_j / j!| zb(s + j) 2^-j with zb(x) = (5/2)^-x (1 + (5/2)/(x - 1))
    >= zeta(x, 5/2) for x > 1, and |h| <= 1/2.  Once s + j >= 2 and
    s + j <= (5/2)(j + 1), t_{j+1} / t_j <= (1/5)(s + j)/(j + 1) <= 1/2 for
    every later j, so the tail from J on is at most 2 t_J.  J depends on s
    and digits only.  s + j = xn / sd is taken in integers, so that an
    s + j within float range of 0 still counts."""
    s = Fraction(s)
    sn, sd = s.numerator, s.denominator
    log_c = 0.0  # log10 |(s)_j / j!|
    j = 0
    while True:
        xn = sn + j * sd
        if 2 * sd <= xn and 2 * xn <= 5 * (j + 1) * sd:
            x = xn / sd
            log_t = log_c + log10(1 + 2.5 / (x - 1)) - x * log10(2.5) - j * log10(2)
            if log_t <= -digits:
                return j, log_t
        log_c += log10(abs(xn)) - log10(sd * (j + 1))
        j += 1


#: One row set of hurwitz_sum, (D, Q, {U: (W+, W-)}): the keys
#: a = 1/2 + U/D with weight W+/Q and a = 1/2 - U/D with weight W-/Q.
Rows = Tuple[int, int, Mapping[int, Sequence[int]]]


def _keys(D: int, rows: List[Tuple[int, int, int]]) -> Iterator[Tuple[int, int, int]]:
    """(n, d, W) per key with a nonzero weight, a = n/d in lowest terms."""
    d = 2 * D
    for U, wp, wm in rows:
        for n, w in ((D + 2 * U, wp), (D - 2 * U, wm)):
            if w:
                g = gcd(n, d)
                yield n // g, d // g, w


def _group_sum(
    s, parts: Mapping[int, Tuple[int, int, list]], precision: int
) -> Tuple[Fraction, Fraction]:
    """(value, eps) of the sum over the row sets p -> (D, Q, rows) of one s.

    Each p is one bracket in units of 2^-G, G the F of the centre pass,
    scaled by p^-s / Q.  The bracket sums the moment expansion (module
    docstring), its centre values zeta(s + j, 5/2) from one _em_shifts
    pass, unless the distinct a are at most 1/_PASS_ORDERS_PER_KEY of the
    orders it would need and the weights of no p sum to zero; then it sums
    one hurwitz_zeta value per distinct a, each product floored into the
    bracket."""
    s = Fraction(s)
    even = any(wp + wm for _, _, rows in parts.values() for _, wp, wm in rows)
    odd = any(U and wp - wm for _, _, rows in parts.values() for U, wp, wm in rows)
    wd = precision + _GUARD_DIGITS
    J, log_tail = _taylor_length(s, wd)
    orders = [j for j in range(J) if (even, odd)[j % 2]]
    # a row holds a distinct a of its p: only short rows need the count;
    # a p whose weights sum to zero takes the moments (module docstring)
    limit = len(orders) // _PASS_ORDERS_PER_KEY
    keys = all(len(rows) <= limit and sum(wp + wm for _, wp, wm in rows) for *_, rows in parts.values())
    keys = keys and {key[:2] for D, _, rows in parts.values() for key in _keys(D, rows)}
    G = ceil(wd * _LOG2_10) + _EM_GUARD_BITS
    if keys and len(keys) <= limit:
        values = {a: hurwitz_zeta(s, Fraction(*a), precision) for a in keys}
    else:
        values = None
        sn, sd = s.numerator, s.denominator
        cn, cd = [1], [1]  # (-1)^j (s)_j / j! = cn[j] / cd[j], exactly
        for j in range(1, J):
            cn.append(-cn[-1] * (sn + (j - 1) * sd))
            cd.append(cd[-1] * j * sd)
        step = 2 if even != odd else 1
        F, zs = _em_shifts(s + orders[0], _CENTRE, len(orders), precision, step)
        centre = dict(zip(orders, zs))
        # the tail past J, 2 10^log_tail per unit of weight, in units of
        # 2^-G: tn / td exactly, so that it scales a weight sum of any size
        tn, td = (2.0 ** (log_tail * _LOG2_10 + G + 1)).as_integer_ratio()
    value = eps = Fraction(0)
    for p, (D, Q, rows) in parts.items():
        part = err = 0
        if values:
            for n, d, W in _keys(D, rows):
                z = values[n, d]
                v, e = z._value, z._eps
                part += floor_shift(W * v.numerator, v.denominator, G)
                err += 1 + ceil_shift(abs(W) * e.numerator, e.denominator, G)
        else:
            # exact integer moments of h = +-U/D, weights over Q
            signed, magnitude = _moments(rows, orders, step)
            weight0 = sum(abs(wp) + abs(wm) for _, wp, wm in rows)
            err = -(-tn * weight0 // td) + 1
            for n, d, W in _keys(D, rows):
                h0, e0 = power(n, d, s, G)
                h1, e1 = power(n + d, d, s, G)
                part += W * (h0 + h1)
                err += abs(W) * (e0 + e1)
            for j in orders:
                (v, e), den = centre[j], cd[j] * D**j
                part += floor_shift(cn[j] * signed[j] * v, den, G - F)
                err += 1 + ceil_shift(abs(cn[j]) * magnitude[j] * e, den, G - F)
        # p^-s with 16 bits more than the bracket over Q, so its rounding
        # stays below 2^-15 of the bracket's; the product is floored once
        Gs = 16 + part.bit_length() + Q.bit_length() + max(0, ceil(float(s) * log2(p)))
        c, ec = power(p, 1, s, Gs)
        value += _fixed((part * c) // Q, G + Gs)
        eps += _fixed(1 + ceil_shift(abs(part) * ec + (c + ec) * err, Q, 0), G + Gs)
    return value, eps


def hurwitz_sum(series: Mapping[Rational, Mapping[int, Rows]], precision: int = 30) -> BigFloat:
    """sum of W/Q p^(-s) zeta(s, a) over the row sets s -> p -> (D, Q, rows)
    (``Rows``), every key a in (0, 1] (ValueError otherwise); zero weights
    are skipped.

    The rows of an integer s <= 0 are summed exactly.  Those of any other
    s share the centre values of one Euler-Maclaurin pass, unless their
    distinct a are few and no p's weights sum to zero: then each costs one
    hurwitz_zeta call.  Signed pairs are therefore summed at s = 1 too.
    The value is the exact sum of the exact rows and of the fixed-point
    products of the others; eps sums the products' counted roundings, the
    centre values' own eps, the explicit truncation tail, and the
    per-value eps of keys evaluated one by one (module docstring).
    """
    groups: Dict[object, Dict[int, Tuple[int, int, list]]] = {}
    for s, parts in series.items():
        for p, (D, Q, rows) in parts.items():
            # the weights over the least common denominator of the W/Q
            g = gcd(Q, *(w for ws in rows.values() for w in ws))
            kept = [(U, wp // g, wm // g) for U, (wp, wm) in rows.items() if wp or wm]
            for U, _, wm in kept:
                if U < 0 or 2 * U > D or (2 * U == D and wm):
                    raise ValueError(f"hurwitz_sum requires 0 < a <= 1, got a = 1/2 +- {U}/{D}")
            if kept:
                groups.setdefault(s, {})[p] = (D, Q // g, kept)
    value = eps = Fraction(0)
    for s, parts in groups.items():
        if _nonpositive_integer(s):
            value += sum(_exact_sum(-int(s), p, *part) for p, part in parts.items())
        else:
            v, e = _group_sum(s, parts, precision)
            value, eps = value + v, eps + e
    return BigFloat(value, precision, eps)
