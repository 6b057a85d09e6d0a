"""Exact rational primitives and arbitrary-precision zeta evaluation.

Exact layer (fractions.Fraction throughout):

    {x}      fractional part in [0, 1)
    ((x))    sawtooth: {x} - 1/2 off the integers, 0 on them
    psi2(x)  second Bernoulli polynomial evaluated on {x}:
             B2(z) = z^2 - z + 1/6

Numeric layer (mpmath-backed BigFloat with an explicit decimal-digit
precision and a carried absolute error estimate):

    hurwitz_zeta(s, a)    zeta(s, a) = sum_{n>=0} (n + a)^(-s), a > 0,
                          by mpmath.zeta
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

Callers add the exact weights of equal keys before calling hurwitz_sum,
so a value that several terms share (zeta(s, x) and zeta(s, 1 - x) of a
signed split at rho = 1/2 land on the same keys) is evaluated once, and
terms that cancel exactly are never evaluated.

At s = 0 and s = -1 the zeta operations return the classical closed forms

    zeta(0, a) = 1/2 - a        zeta(-1, a) = -1/12 + a(1 - a)/2

converted to BigFloat, bypassing the series; these are the only points the
exact pipeline consumes.

The error estimate eps is not a rigorous bound.  Each Hurwitz value is one
mpmath.zeta evaluation at precision + 15 working digits, which raises its
own working precision until the Euler-Maclaurin sum shows no cancellation;
eps is 10^-(precision+12) relative to max(1, |value|), three digits short of
that working precision.  tests/test_numkernel.py checks that eps covers the
error against a 2p+20-digit reference over a seeded corpus of s in
[-25, 25] and a in (0, 2].
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Tuple, Union

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


@dataclass(frozen=True)
class BigFloat:
    """An mpmath float tagged with its decimal precision and an absolute
    error estimate.

    ``digits`` is the precision every producing operation was asked for;
    ``eps`` estimates |value - exact| from the working precision (see the
    module docstring); it is not a rigorous bound.
    """

    value: mpmath.mpf
    digits: int
    eps: mpmath.mpf

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
    from mpmath import mp

    x = Fraction(x)
    with MP_LOCK, mp.workdps(precision + _GUARD_DIGITS):
        v = mp.mpf(x.numerator) / x.denominator
        return BigFloat(v, precision, mp.mpf(10) ** (-(precision + _GUARD_DIGITS - 3)))


def hurwitz_zeta(s, a: Rational, precision: int = 30) -> BigFloat:
    """zeta(s, a) = sum_{n>=0} (n + a)^(-s) for a > 0, s != 1.

    Closed forms are returned at s = 0 and s = -1; elsewhere the value is
    one mpmath.zeta evaluation at precision + 15 working digits, with the
    error estimate eps = 10^-(precision+12) max(1, |value|).  eps is checked
    against a high-precision reference over a tested corpus; it is not a
    rigorous bound.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    a = Fraction(a)
    if a <= 0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got a = {a}")
    if s == 0:
        return bigfloat_from_rational(Fraction(1, 2) - a, precision)
    if s == -1:
        return bigfloat_from_rational(Fraction(-1, 12) + a * (1 - a) / 2, precision)
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


def hurwitz_sum(
    terms: Mapping[Tuple[Rational, int, Rational], Rational], precision: int = 30
) -> BigFloat:
    """sum of w p^(-s) zeta(s, a) over the terms (s, p, a) -> w, with
    exact rational weights w.

    Zero weights are skipped, p^(-s) is computed once per (s, p), and each
    remaining key costs one ``hurwitz_zeta`` call; eps is the weighted sum
    of the per-value eps.  Callers merge equal keys before the call, so
    every distinct Hurwitz value is evaluated once.
    """
    from mpmath import mp

    with MP_LOCK, mp.workdps(precision + _GUARD_DIGITS):
        total = mp.mpf(0)
        eps = mp.mpf(0)
        scales = {}
        for (s, p, a), w in terms.items():
            if w == 0:
                continue
            if (s, p) not in scales:
                scales[s, p] = mp.mpf(p) ** (-_as_mpf(s))
            z = hurwitz_zeta(s, a, precision)
            wp = _as_mpf(w) * scales[s, p]
            total += wp * z.value
            eps += abs(wp) * z.eps
        return BigFloat(total, precision, eps)
