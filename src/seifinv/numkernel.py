"""Exact rational primitives and arbitrary-precision zeta evaluation.

Exact layer (fractions.Fraction throughout):

    {x}      fractional part in [0, 1)
    ((x))    sawtooth: {x} - 1/2 off the integers, 0 on them
    psi2(x)  second Bernoulli polynomial evaluated on {x}:
             B2(z) = z^2 - z + 1/6

Numeric layer (mpmath-backed BigFloat with an explicit decimal-digit
precision and a carried absolute error bound):

    hurwitz_zeta(s, a)    zeta(s, a) = sum_{n>=0} (n + a)^(-s), a > 0,
                          by Euler-Maclaurin summation
    riemann_zeta(s)       zeta(s, 1)
    periodic_dirichlet_split(f, s)
                          sum_{n>=1} f(n)/n^s for a p-periodic f, folded
                          into Hurwitz values:
                          sum_{r=1}^{p} f(r) p^(-s) zeta(s, r/p)
    signed_periodic_split(f, rho, s)
                          sum over mu in rho + Z of sign(mu) f(mu - rho)/|mu|^s,
                          folded as
                          sum_{k=0}^{p-1} f(k) p^(-s)
                              (zeta(s, {(k+rho)/p}) - zeta(s, 1 - {(k+rho)/p}))

At s = 0 and s = -1 the zeta operations return the classical closed forms

    zeta(0, a) = 1/2 - a        zeta(-1, a) = -1/12 + a(1 - a)/2

converted to BigFloat, bypassing the series; these are the only points the
exact pipeline consumes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import mpmath
from mpmath import mp

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

#: Bernoulli numbers B_2, B_4, ..., B_16 (the Euler-Maclaurin correction
#: terms), plus B_18 which drives the truncation-error bound.
_BERNOULLI_EVEN = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)
_BERNOULLI_NEXT = Fraction(43867, 798)
_NUM_CORRECTIONS = len(_BERNOULLI_EVEN)

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
    error bound.

    ``digits`` is the precision every producing operation was asked for;
    ``eps`` bounds |value - exact|.
    """

    value: mpmath.mpf
    digits: int
    eps: mpmath.mpf

    def __str__(self) -> str:
        return f"{mpmath.nstr(self.value, self.digits)}@{self.digits}"

    def __float__(self) -> float:
        return float(self.value)


def _as_mpf(x) -> mpmath.mpf:
    if isinstance(x, BigFloat):
        return x.value
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _exact_special_value(s) -> "Fraction | None":
    """Detect s = 0 / s = -1 exactly (int, Fraction or exact mpf)."""
    if isinstance(s, BigFloat):
        s = s.value
    if s == 0:
        return Fraction(0)
    if s == -1:
        return Fraction(-1)
    return None


def bigfloat_from_rational(x: Rational, precision: int = 30) -> BigFloat:
    x = Fraction(x)
    with MP_LOCK, mp.workdps(precision + _GUARD_DIGITS):
        v = mp.mpf(x.numerator) / x.denominator
        return BigFloat(v, precision, mp.mpf(10) ** (-(precision + _GUARD_DIGITS - 3)))


def _em_hurwitz(s: mpmath.mpf, a: mpmath.mpf, precision: int) -> tuple:
    """Euler-Maclaurin core: value and error bound, at current working dps.

    Shift index N starts at max(precision, 2|s|) and doubles until the
    first omitted Bernoulli term falls below 10^-(precision+2); eight
    correction terms are used throughout.
    """
    target = mp.mpf(10) ** (-(precision + 2))
    n_shift = max(precision, int(2 * abs(s)) + 1)

    b_next = mp.mpf(_BERNOULLI_NEXT.numerator) / _BERNOULLI_NEXT.denominator
    fact_next = math.factorial(2 * _NUM_CORRECTIONS + 2)

    def omitted_term_bound(n: int) -> mpmath.mpf:
        prod = mp.mpf(1)
        for i in range(2 * _NUM_CORRECTIONS + 1):
            prod *= abs(s + i)
        return 4 * abs(b_next) / fact_next * prod * (n + a) ** (-s - 2 * _NUM_CORRECTIONS - 1)

    for _ in range(64):
        err = omitted_term_bound(n_shift)
        if err < target:
            break
        n_shift *= 2

    direct = mp.fsum((n + a) ** (-s) for n in range(n_shift))
    base = n_shift + a
    tail = base ** (1 - s) / (s - 1) + base ** (-s) / 2

    correction = mp.mpf(0)
    rising = mp.mpf(1)  # s (s+1) ... (s + 2j - 2)
    for j, b2j in enumerate(_BERNOULLI_EVEN, start=1):
        if j == 1:
            rising = s
        else:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
        coeff = mp.mpf(b2j.numerator) / b2j.denominator / math.factorial(2 * j)
        correction += coeff * rising * base ** (-s - 2 * j + 1)

    rounding = mp.mpf(10) ** (-(precision + _GUARD_DIGITS - 3))
    return direct + tail + correction, err + rounding


def hurwitz_zeta(s, a: Rational, precision: int = 30) -> BigFloat:
    """zeta(s, a) = sum_{n>=0} (n + a)^(-s) for a > 0, s != 1.

    Closed forms are returned at s = 0 and s = -1; elsewhere the value is
    an Euler-Maclaurin evaluation with absolute error below
    10^-(precision+2).
    """
    a = Fraction(a)
    if a <= 0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got a = {a}")
    special = _exact_special_value(s)
    if special == 0:
        return bigfloat_from_rational(Fraction(1, 2) - a, precision)
    if special == -1:
        return bigfloat_from_rational(Fraction(-1, 12) + a * (1 - a) / 2, precision)
    with MP_LOCK, mp.workdps(precision + _GUARD_DIGITS):
        s_mpf = _as_mpf(s)
        if abs(s_mpf - 1) < mp.mpf(10) ** (-precision):
            raise ValueError("hurwitz_zeta: s too close to the pole at s = 1")
        a_mpf = _as_mpf(a)
        value, eps = _em_hurwitz(s_mpf, a_mpf, precision)
        return BigFloat(value, precision, eps)


def riemann_zeta(s, precision: int = 30) -> BigFloat:
    """zeta(s) = zeta(s, 1), with the same pole guard at s = 1."""
    return hurwitz_zeta(s, 1, precision)


def periodic_dirichlet_split(f: Sequence[Rational], s, precision: int = 30) -> BigFloat:
    """sum_{n>=1} f(n)/n^s for f of integer period p, given by its table
    f(1), ..., f(p).

    Folds the series into Hurwitz values: sum_r f(r) p^(-s) zeta(s, r/p).
    """
    p = len(f)
    if p < 1:
        raise ValueError("periodic table must have length >= 1")
    with MP_LOCK, mp.workdps(precision + _GUARD_DIGITS):
        s_mpf = _as_mpf(s)
        total = mp.mpf(0)
        eps = mp.mpf(0)
        scale = mp.mpf(p) ** (-s_mpf)
        for r, fr in enumerate(f, start=1):
            fr = Fraction(fr)
            if fr == 0:
                continue
            z = hurwitz_zeta(s, Fraction(r, p), precision)
            w = _as_mpf(fr) * scale
            total += w * z.value
            eps += abs(w) * z.eps
        return BigFloat(total, precision, eps)


def signed_periodic_split(
    f: Sequence[Rational], rho: Rational, s, precision: int = 30
) -> BigFloat:
    """Two-sided signed series of a p-periodic f over the shifted lattice
    rho + Z:

        sum_{mu in rho+Z} sign(mu) f(mu - rho) / |mu|^s
        = sum_{k=0}^{p-1} f(k) p^(-s)
              (zeta(s, {(k+rho)/p}) - zeta(s, 1 - {(k+rho)/p}))

    The table lists f(0), ..., f(p-1); requires 0 < rho < 1.
    """
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"signed_periodic_split requires 0 < rho < 1, got {rho}")
    p = len(f)
    if p < 1:
        raise ValueError("periodic table must have length >= 1")
    with MP_LOCK, mp.workdps(precision + _GUARD_DIGITS):
        s_mpf = _as_mpf(s)
        total = mp.mpf(0)
        eps = mp.mpf(0)
        scale = mp.mpf(p) ** (-s_mpf)
        for k, fk in enumerate(f):
            fk = Fraction(fk)
            if fk == 0:
                continue
            x = frac(Fraction(k + rho, p))
            zp = hurwitz_zeta(s, x, precision)
            zm = hurwitz_zeta(s, 1 - x, precision)
            w = _as_mpf(fk) * scale
            total += w * (zp.value - zm.value)
            eps += abs(w) * (zp.eps + zm.eps)
        return BigFloat(total, precision, eps)
