"""Exact rational primitives and arbitrary-precision zeta evaluation.

Exact layer (fractions.Fraction throughout):

    {x}      fractional part in [0, 1)
    ((x))    sawtooth: {x} - 1/2 off the integers, 0 on them
    psi2(x)  second Bernoulli polynomial evaluated on {x}:
             B2(z) = z^2 - z + 1/6

Numeric layer (mpmath-backed BigFloat with an explicit decimal-digit
precision and a carried absolute error estimate):

    hurwitz_zeta(s, a)    zeta(s, a) = sum_{n>=0} (n + a)^(-s), a > 0,
                          by mpmath.zeta; exact at integer s <= 0
    riemann_zeta(s)       zeta(s, 1)
    hurwitz_sum(terms)    sum of w p^(-s) zeta(s, a) over a mapping
                          (s, p, a) -> exact weight w: the one kernel
                          every eta series is folded into
    BigFloat.within(x, tol)
                          |value - x| <= tol for an exact x, compared at
                          the value's working precision

mpmath is imported inside these operations, on the first numeric call, not
when the module loads: the exact layers, and every command that needs only
them, never import it.

At an integer s = -n <= 0 both zeta operations are exact,

    zeta(-n, a) = -B_{n+1}(a) / (n + 1)

with B_m the Bernoulli polynomials (zeta(0, a) = 1/2 - a and
zeta(-1, a) = -1/12 + a(1 - a)/2 are the cases the exact pipeline
consumes).  hurwitz_sum adds the keys of such s as Fractions; when every
key is of this kind it returns the exact sum, rounded once.

Cost of hurwitz_sum.  Callers add the exact weights of equal keys first.
For 0 < a <= 1 and h = a - 1/2, so that |h| / (5/2) <= 1/5,

    zeta(s, a) = a^(-s) + (1 + a)^(-s)
                 + sum_{j>=0} (-1)^j (s)_j / j! zeta(s + j, 5/2) h^j,

the Taylor expansion about a fixed centre (after Johansson, Rigorous
high-precision computation of the Hurwitz zeta function and its
derivatives, Numer. Algorithms 2015).  The keys of one s fold into the
moments M_j = sum w p^(-s) h^j, so each centre value zeta(s + j, 5/2) is
evaluated once for all keys.  The expansion stops at a J set by s and the
precision alone, so the number of Hurwitz evaluations does not grow with
the number of keys (with alpha, for an eta series).  The keys are paired by
|h|: a signed pair w zeta(s, x) - w zeta(s, 1 - x), of which every eta
series at s is made, has h and -h, so its even moments vanish exactly and
their centre values are never evaluated.  The moments are exact integer
power sums over a common denominator; only the powers a^(-s), (1 + a)^(-s)
and p^(-s) are floating, two per key.  The centre values go through
hurwitz_zeta, with its pole guard and its eps.  One hurwitz_zeta call per
distinct a is made instead for a group of keys no larger than the centre
values it would need (such as the one or two s - 1 keys of an eta series),
for keys with a > 1, and for s within 1/100 of an integer <= 1, where some
s + j meets or grazes the pole.

The error estimate eps is not a rigorous bound.  Each Hurwitz value is one
mpmath.zeta evaluation at precision + 15 working digits, which raises its
own working precision until the Euler-Maclaurin sum shows no cancellation;
its eps is 10^-(precision+12) relative to max(1, |value|), three digits
short of that working precision.  hurwitz_sum works at the same
precision + 15 digits; its eps adds

  - 10^-(precision+12) times the sum of the magnitudes of every term it
    adds: |w p^-s a^-s| and |w p^-s (1 + a)^-s| per key, and
    |(s)_j / j!| |zeta(s + j, 5/2)| sum |w p^-s| |h|^j per centre value;
  - the centre values' own eps, weighted by |(s)_j / j!| sum |w p^-s| |h|^j;
  - the truncation tail, explicit: past J each term is at most
    |(s)_j / j!| zb(s + j) 2^-j sum |w p^-s| with
    zb(x) = (5/2)^-x (1 + (5/2)/(x - 1)) >= zeta(x, 5/2), and the terms
    shrink by about 1/5 per step once j > |s|;
  - for keys evaluated one by one, |w p^-s| times each value's eps.

tests/test_numkernel.py checks the per-value eps against a 2p+20-digit
reference over a seeded corpus of s in [-25, 25] and a in (0, 2], and the
moments of hurwitz_sum against per-key values; tests/test_eta.py checks the
eps of whole eta series against a term-by-term reference.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, log10
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Mapping, Tuple, Union

if TYPE_CHECKING:
    import mpmath

Rational = Union[int, Fraction]


class InvariantError(RuntimeError):
    """A production invariant check failed: a value the mathematics
    guarantees (a bound, a parity, an integrality) did not hold.

    Raised instead of ``assert`` so the checks survive ``python -O``.
    """

#: The numeric operations run under mpmath's process-global context; this
#: reentrant lock serializes the precision switches so callers can invoke
#: them from multiple threads without any synchronization of their own.
MP_LOCK = threading.RLock()

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


def sawtooth_pq(p: int, q: int) -> Fraction:
    """((p/q)) for integers p, q with q > 0, without building intermediates.

    Hot path for the Dedekind-Rademacher direct sums.
    """
    r = p % q
    if r == 0:
        return Fraction(0)
    return Fraction(2 * r - q, 2 * q)


def psi2(x: Rational) -> Fraction:
    """B2({x}) where B2(z) = z^2 - z + 1/6 is the second Bernoulli polynomial."""
    f = frac(x)
    return f * f - f + Fraction(1, 6)


class BigFloat:
    """An mpmath float tagged with its decimal precision and an absolute
    error estimate.

    ``digits`` is the precision every producing operation was asked for;
    ``eps`` estimates |value - exact| from the working precision (see the
    module docstring); it is not a rigorous bound.
    """

    # read-only fields, but not a tuple: a number must not unpack or serialise as a JSON array
    __slots__ = ("_value", "_digits", "_eps")
    value = property(attrgetter("_value"))
    digits = property(attrgetter("_digits"))
    eps = property(attrgetter("_eps"))

    def __init__(self, value: mpmath.mpf, digits: int, eps: mpmath.mpf):
        self._value, self._digits, self._eps = value, digits, eps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._value, self._digits, self._eps) == (other._value, other._digits, other._eps)

    def __hash__(self):
        return hash((self._value, self._digits, self._eps))

    def __repr__(self) -> str:
        return f"BigFloat(value={self._value!r}, digits={self._digits!r}, eps={self._eps!r})"

    def __str__(self) -> str:
        from mpmath import mp

        return f"{mp.nstr(self.value, self.digits)}@{self.digits}"

    def __float__(self) -> float:
        return float(self.value)

    def within(self, x: Rational, tol: Rational) -> bool:
        """|value - x| <= tol, compared at the working precision
        digits + 15 of the operations that produced the value."""
        from mpmath import mp

        with MP_LOCK, mp.workdps(self.digits + _GUARD_DIGITS):
            return abs(self.value - _as_mpf(x)) <= _as_mpf(tol)


def _as_mpf(x: Rational) -> mpmath.mpf:
    from mpmath import mp

    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def bigfloat_from_rational(x: Rational, precision: int = 30) -> BigFloat:
    """x rounded to precision + 15 working digits; eps = 10^-(precision+12) |x|
    covers the rounding (and is 0 for x = 0, which is exact)."""
    from mpmath import mp

    x = Fraction(x)
    with MP_LOCK, mp.workdps(precision + _GUARD_DIGITS):
        v = mp.mpf(x.numerator) / x.denominator
        return BigFloat(v, precision, mp.mpf(10) ** (-(precision + _GUARD_DIGITS - 3)) * abs(v))


def _nonpositive_integer(s) -> bool:
    return s <= 0 and s == int(s)


@lru_cache(maxsize=64)
def _bernoulli_numbers(m: int) -> Tuple[Fraction, ...]:
    """B_0, ..., B_m (B_1 = -1/2), from sum_{k<=n} C(n+1, k) B_k = 0."""
    b = [Fraction(1)]
    for n in range(1, m + 1):
        b.append(-sum(comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    return tuple(b)


def _zeta_nonpositive(n: int, a: Fraction) -> Fraction:
    """zeta(-n, a) = -B_{n+1}(a) / (n + 1), exactly, for an integer n >= 0."""
    m = n + 1
    b = _bernoulli_numbers(m)
    return -sum(comb(m, k) * b[k] * a ** (m - k) for k in range(m + 1)) / m


def hurwitz_zeta(s, a: Rational, precision: int = 30) -> BigFloat:
    """zeta(s, a) = sum_{n>=0} (n + a)^(-s) for a > 0, s != 1.

    At an integer s <= 0 the value is the exact -B_{1-s}(a) / (1 - s);
    elsewhere it is one mpmath.zeta evaluation at precision + 15 working
    digits, with the error estimate eps = 10^-(precision+12) max(1, |value|).
    eps is checked against a high-precision reference over a tested corpus;
    it is not a rigorous bound.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    a = Fraction(a)
    if a <= 0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got a = {a}")
    if _nonpositive_integer(s):
        return bigfloat_from_rational(_zeta_nonpositive(-int(s), a), precision)
    from mpmath import mp

    with MP_LOCK, mp.workdps(precision + _GUARD_DIGITS):
        s_mpf = _as_mpf(s)
        if abs(s_mpf - 1) < mp.mpf(10) ** (-precision):
            raise ValueError("hurwitz_zeta: s too close to the pole at s = 1")
        value = mp.zeta(s_mpf, _as_mpf(a))
        eps = mp.mpf(10) ** (-(precision + _GUARD_DIGITS - 3)) * max(1, abs(value))
        return BigFloat(value, precision, eps)


def riemann_zeta(s, precision: int = 30) -> BigFloat:
    """zeta(s) = zeta(s, 1), with the same pole guard at s = 1."""
    return hurwitz_zeta(s, 1, precision)


#: The Taylor centre of hurwitz_sum: zeta(s, a) for 0 < a <= 1 is expanded
#: about zeta(s, 5/2) in h = a - 1/2, |h| / (5/2) <= 1/5.
_CENTRE = Fraction(5, 2)


def _taylor_length(s, digits: int) -> Tuple[int, float]:
    """(J, log10 t): the expansion is cut after j < J, and every later term
    is at most t * sum |w p^-s|, their sum at most 2 t <= 2 10^-digits.

    t_j = |(s)_j / j!| zb(s + j) 2^-j with zb(x) = (5/2)^-x (1 + (5/2)/(x - 1))
    >= zeta(x, 5/2) for x > 1, and |h| <= 1/2.  Once s + j >= 2 and
    s + j <= (5/2)(j + 1), t_{j+1} / t_j <= (1/5)(s + j)/(j + 1) <= 1/2 for
    every later j, so the tail from J on is at most 2 t_J.  J depends on s
    and digits only."""
    s = float(s)
    log_c = 0.0  # log10 |(s)_j / j!|
    j = 0
    while True:
        x = s + j
        if x >= 2 and x <= 2.5 * (j + 1):
            log_t = log_c + log10(1 + 2.5 / (x - 1)) - x * log10(2.5) - j * log10(2)
            if log_t <= -digits:
                return j, log_t
        log_c += log10(abs(x) / (j + 1))
        j += 1


def _near_pole(s) -> bool:
    """s within 1/100 of an integer n <= 1: some s + j of the expansion
    would meet or graze the pole of zeta at 1."""
    n = round(s)
    return n <= 1 and abs(s - n) < Fraction(1, 100)


def _per_key_sum(s, keys: Mapping[Tuple[int, Fraction], Fraction], precision: int):
    """(sum, eps) of w p^-s zeta(s, a) over keys (p, a) -> w, one
    hurwitz_zeta call per distinct a."""
    from mpmath import mp

    total = eps = mp.mpf(0)
    scales, values = {}, {}
    for (p, a), w in keys.items():
        if p not in scales:
            scales[p] = mp.mpf(p) ** (-_as_mpf(s))
        if a not in values:
            values[a] = hurwitz_zeta(s, a, precision)
        z = values[a]
        wp = _as_mpf(w) * scales[p]
        total += wp * z.value
        eps += abs(wp) * z.eps
    return total, eps


def _group_sum(s, keys: Mapping[Tuple[int, Fraction], Fraction], precision: int, centre: dict):
    """(sum, eps) of w p^-s zeta(s, a) over the keys (p, a) -> w of one s.

    Keys with 0 < a <= 1 go through the moment expansion (module docstring)
    unless they are no more than the centre values it would need; the rest
    cost one hurwitz_zeta call each.  ``centre`` caches zeta(s + j, 5/2) by
    s + j across the groups of one hurwitz_sum."""
    from mpmath import mp

    # pair the keys of each p by |h|, h = a - 1/2: p -> {|h|: [w at +|h|, w at -|h|]}
    pairs: Dict[int, Dict[Fraction, list]] = defaultdict(dict)
    rest = {}
    for (p, a), w in keys.items():
        if a > 1:
            rest[p, a] = w
            continue
        h = a - Fraction(1, 2)
        pairs[p].setdefault(abs(h), [0, 0])[h < 0] += w
    rows = [(u, wp, wm) for by_u in pairs.values() for u, (wp, wm) in by_u.items()]
    even = any(wp + wm for _, wp, wm in rows)
    odd = any(u and wp - wm for u, wp, wm in rows)
    if _near_pole(s):
        return _per_key_sum(s, keys, precision)
    wd = precision + _GUARD_DIGITS
    J, log_tail = _taylor_length(s, wd)
    orders = [j for j in range(J) if (even, odd)[j % 2]]
    if len({a for _, a in keys if a <= 1}) <= len(orders):
        return _per_key_sum(s, keys, precision)

    total, eps = _per_key_sum(s, rest, precision)
    ms = -_as_mpf(s)
    coeff = [mp.mpf(1)]  # (-1)^j (s)_j / j!
    for j in range(1, J):
        coeff.append(-coeff[-1] * _as_mpf(s + (j - 1)) / j)
    for j in orders:
        if s + j not in centre:
            centre[s + j] = hurwitz_zeta(s + j, _CENTRE, precision)
    step = 2 if even != odd else 1
    size = tail_weight = centre_eps = mp.mpf(0)
    for p, by_u in pairs.items():
        # exact integer moments over the common denominators D of h and Q of w
        D = lcm(*(u.denominator for u in by_u))
        Q = lcm(*(Fraction(w).denominator for ws in by_u.values() for w in ws))
        signed, magnitude = dict.fromkeys(orders, 0), dict.fromkeys(orders, 0)
        weight0 = 0
        for u, (wp, wm) in by_u.items():
            U = int(u * D)
            e, o, m = int((wp + wm) * Q), int((wp - wm) * Q), int((abs(wp) + abs(wm)) * Q)
            weight0 += m
            x, U_step = U ** orders[0], U**step
            for j in orders:
                signed[j] += (o if j % 2 else e) * x
                magnitude[j] += m * x
                x *= U_step
        part = part_size = part_eps = mp.mpf(0)
        for u, (wp, wm) in by_u.items():
            for a, w in ((Fraction(1, 2) + u, wp), (Fraction(1, 2) - u, wm)):
                if w:
                    heads = _as_mpf(a) ** ms + _as_mpf(1 + a) ** ms
                    W = int(w * Q)
                    part += W * heads
                    part_size += abs(W) * heads
        for j in orders:
            z, scale = centre[s + j], mp.mpf(D) ** j
            part += coeff[j] * z.value * signed[j] / scale
            part_size += abs(coeff[j] * z.value) * magnitude[j] / scale
            part_eps += abs(coeff[j]) * z.eps * magnitude[j] / scale
        scale = mp.mpf(p) ** ms / Q
        total += scale * part
        size += scale * part_size
        centre_eps += scale * part_eps
        tail_weight += scale * weight0
    eps += mp.mpf(10) ** (3 - wd) * size + centre_eps + 2 * mp.mpf(10) ** log_tail * tail_weight
    return total, eps


def hurwitz_sum(
    terms: Mapping[Tuple[Rational, int, Rational], Rational], precision: int = 30
) -> BigFloat:
    """sum of w p^(-s) zeta(s, a) over the terms (s, p, a) -> w, with
    exact rational weights w.

    Zero weights are skipped.  The keys of an integer s <= 0 are summed
    exactly.  The keys of any other s share the centre values
    zeta(s + j, 5/2), j < J, of the moment expansion, J set by s and the
    precision alone: the number of hurwitz_zeta calls does not grow with
    the number of keys.  Where the keys of an s are no more than the centre
    values they would need, each costs one call instead.

    eps sums 10^-(precision+12) times the magnitude of every term added,
    the centre values' own eps, the explicit truncation tail, and the
    per-value eps of keys evaluated one by one (module docstring).
    """
    groups: Dict[object, Dict[Tuple[int, Fraction], Fraction]] = {}
    for (s, p, a), w in terms.items():
        if w == 0:
            continue
        a = Fraction(a)
        if a <= 0:
            raise ValueError(f"hurwitz_sum requires a > 0, got a = {a}")
        groups.setdefault(s, {})[p, a] = Fraction(w)
    exact = Fraction(0)
    for s in [s for s in groups if _nonpositive_integer(s)]:
        n = -int(s)
        exact += sum(w * p**n * _zeta_nonpositive(n, a) for (p, a), w in groups.pop(s).items())
    head = bigfloat_from_rational(exact, precision)
    if not groups:
        return head
    from mpmath import mp

    with MP_LOCK, mp.workdps(precision + _GUARD_DIGITS):
        total, eps = head.value, head.eps
        centre: dict = {}
        for s, keys in groups.items():
            part, part_eps = _group_sum(s, keys, precision, centre)
            total += part
            eps += part_eps
        return BigFloat(total, precision, eps)
