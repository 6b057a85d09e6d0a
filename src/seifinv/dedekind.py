"""Generalized Dedekind-Rademacher sums.

The basic object is

    s(beta, alpha; x, y) = sum_{r=1}^{alpha} ((x + beta (r+y)/alpha)) (((r+y)/alpha))

for coprime integers (beta, alpha), alpha > 0, and rational shifts x, y;
(( )) is the sawtooth.  The value depends on x and y only mod 1.

Three evaluation routes are provided:

  * ``dr_sum_direct`` -- the defining sum, term by term.  This is the
    module's brute-force oracle.
  * ``reciprocity_R`` -- the right hand side of the two-case reciprocity
    law:

      x, y both integers:
          s(b,a;x,y) + s(a,b;y,x) = -1/4 + (a^2 + b^2 + 1)/(12 a b)
      otherwise:
          s(b,a;x,y) + s(a,b;y,x) =
              ((x))((y)) + (b^2 psi2(y) + psi2(b y + a x) + a^2 psi2(x)) / (2 a b)

  * ``dr_sum_fast`` -- Euclid-style evaluation in O(log alpha) steps,
    alternating the shift identity
        s(beta, alpha; x, y) = s(beta - m alpha, alpha; x + m y, y),
    the reciprocity swap, and the base case
        s(beta, 1; x, y) = ((beta y + x)) ((y)).

On top of these sit the composite sums consumed by the eta-invariant
formulas: the Dedekind reductions S and d of the singular fibers' corner
sums, and the holonomy-twisted variants S_rho and F_rho.  These run on
``dr_sum_fast`` only: one production route, O(log alpha) per fiber.  The
O(alpha) forms (``dr_sum_direct`` and the corner sums ``corner_sum``) are
oracles, run by ``seifinv verify`` and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from seifinv.numkernel import Rational, frac, psi2, sawtooth, sawtooth_pq


def _validate(beta: int, alpha: int) -> None:
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if gcd(beta, alpha) != 1:
        raise ValueError(f"beta and alpha must be coprime, got ({beta}, {alpha})")


def dr_sum_direct(beta: int, alpha: int, x: Rational = 0, y: Rational = 0) -> Fraction:
    """The defining sum, evaluated term by term over a full period.

    Runs in O(alpha); serves as the independent oracle for dr_sum_fast.
    """
    _validate(beta, alpha)
    x, y = Fraction(x), Fraction(y)
    # ((x + beta(r+y)/alpha)) has denominator d1 = alpha*qx*qy (common form),
    # (((r+y)/alpha)) has denominator d2 = alpha*qy; accumulate one integer
    # numerator over the fixed denominator 4*d1*d2.
    px, qx = x.numerator, x.denominator
    py, qy = y.numerator, y.denominator
    d1 = alpha * qx * qy
    d2 = alpha * qy
    total = 0
    for r in range(1, alpha + 1):
        n2 = r * qy + py
        m2 = n2 % d2
        if m2 == 0:
            continue
        m1 = (px * alpha * qy + beta * n2 * qx) % d1
        if m1 == 0:
            continue
        total += (2 * m1 - d1) * (2 * m2 - d2)
    return Fraction(total, 4 * d1 * d2)


def reciprocity_R(beta: int, alpha: int, x: Rational = 0, y: Rational = 0) -> Fraction:
    """Right hand side of the reciprocity law, R(beta, alpha; x, y).

    Symmetric under (beta, alpha; x, y) -> (alpha, beta; y, x).  Requires
    beta > 0 since the law pairs s(beta, alpha; x, y) with
    s(alpha, beta; y, x), where beta acts as a modulus.
    """
    _validate(beta, alpha)
    if beta <= 0:
        raise ValueError(f"reciprocity_R requires beta > 0, got {beta}")
    x, y = Fraction(x), Fraction(y)
    if x.denominator == 1 and y.denominator == 1:
        return Fraction(-1, 4) + Fraction(alpha * alpha + beta * beta + 1, 12 * alpha * beta)
    quad = beta * beta * psi2(y) + psi2(beta * y + alpha * x) + alpha * alpha * psi2(x)
    return sawtooth(x) * sawtooth(y) + quad / (2 * alpha * beta)


def _fast(beta: int, alpha: int, x: Fraction, y: Fraction) -> Fraction:
    # invariants: gcd(beta, alpha) = 1, alpha >= 1, x, y in [0, 1)
    if alpha == 1:
        return sawtooth(beta * y + x) * sawtooth(y)
    # balanced residue of beta mod alpha, in (-alpha/2, alpha/2]
    b = beta % alpha
    if 2 * b > alpha:
        b -= alpha
    if b != beta:
        m = (beta - b) // alpha
        x = frac(x + m * y)
    if b < 0:
        # s(-b, alpha; x, y) = -s(b, alpha; x, -y)
        return -_fast(-b, alpha, x, frac(-y))
    # now 1 <= b <= alpha/2: reciprocity swap, then Euclid descends
    return reciprocity_R(b, alpha, x, y) - _fast(alpha, b, y, x)


def dr_sum_fast(beta: int, alpha: int, x: Rational = 0, y: Rational = 0) -> Fraction:
    """Euclid-style evaluation of s(beta, alpha; x, y); equals
    dr_sum_direct exactly, in O(log alpha) recursion depth."""
    _validate(beta, alpha)
    return _fast(beta, alpha, frac(Fraction(x)), frac(Fraction(y)))


def _inverse_mod(beta: int, alpha: int) -> int:
    if alpha == 1:
        return 0
    return pow(beta % alpha, -1, alpha)


def corner_sum(alpha: int, beta: int, gamma: int, sign: int = 1) -> Fraction:
    """Singular-fiber corner sum, evaluated term by term in O(alpha):

        S^sign = sum_{r=1}^{alpha} {(gamma + sign r beta)/alpha} ((r/alpha)).

    An oracle, like ``dr_sum_direct``: it equals the Dedekind reduction

        S^sign = s(sign beta, alpha; gamma/alpha, 0)
                 + sign/2 ((q gamma / alpha)),   q beta = 1 mod alpha,

    which is what production evaluates.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _validate(beta, alpha)
    gamma %= alpha
    # {.} = m1/alpha, ((r/alpha)) = (2 m2 - alpha)/(2 alpha); accumulate the
    # integer numerator over the fixed denominator 2 alpha^2.
    acc = 0
    for r in range(1, alpha + 1):
        m2 = r % alpha
        if m2 == 0:
            continue
        acc += ((gamma + sign * r * beta) % alpha) * (2 * m2 - alpha)
    return Fraction(acc, 2 * alpha * alpha)


def _validate_vectors(alphas: Sequence[int], betas: Sequence[int], gammas: Sequence[int]):
    if not len(alphas) == len(betas) == len(gammas):
        raise ValueError("alphas, betas, gammas must have equal length")
    for a, b in zip(alphas, betas):
        _validate(b, a)


def S_composite(
    alphas: Sequence[int], betas: Sequence[int], gammas: Sequence[int]
) -> Fraction:
    """S(betas, alphas; gammas) = sum_i s(beta_i, alpha_i; gamma_i/alpha_i, 0).

    This is the multi-fiber Dedekind sum entering the eta invariant as
    eta = ell/6 - 2S - d.  The shift argument of each term is
    gamma_i/alpha_i (the singularity weight over its own isotropy order),
    the only normalization consistent with the corner-sum reduction.
    """
    _validate_vectors(alphas, betas, gammas)
    total = Fraction(0)
    for a, b, g in zip(alphas, betas, gammas):
        total += dr_sum_fast(b, a, Fraction(g % a, a), 0)
    return total


def d_composite(
    alphas: Sequence[int], betas: Sequence[int], gammas: Sequence[int]
) -> Fraction:
    """d(betas, alphas; gammas) = sum_i ((q_i gamma_i / alpha_i)) with
    q_i the inverse of beta_i mod alpha_i."""
    _validate_vectors(alphas, betas, gammas)
    total = Fraction(0)
    for a, b, g in zip(alphas, betas, gammas):
        total += sawtooth_pq(_inverse_mod(b, a) * (g % a), a)
    return total


def S_rho(
    alphas: Sequence[int],
    betas: Sequence[int],
    gammas: Sequence[int],
    rho: Rational,
) -> Fraction:
    """Holonomy-twisted composite sum

        S_rho = sum_i s(beta_i, alpha_i; (gamma_i + beta_i rho)/alpha_i, -rho)

    for a fractional fiber holonomy 0 < rho < 1.
    """
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"S_rho requires 0 < rho < 1, got {rho}")
    _validate_vectors(alphas, betas, gammas)
    total = Fraction(0)
    for a, b, g in zip(alphas, betas, gammas):
        total += dr_sum_fast(b, a, Fraction(g % a + b * rho, a), -rho)
    return total


def F_rho(alpha: int, beta: int, gamma: int, rho: Rational) -> Fraction:
    """F_rho(alpha, beta, gamma) = {(q gamma + rho)/alpha}, q beta = 1 mod alpha."""
    rho = Fraction(rho)
    if not 0 < rho < 1:
        raise ValueError(f"F_rho requires 0 < rho < 1, got {rho}")
    _validate(beta, alpha)
    q = _inverse_mod(beta, alpha)
    return frac(Fraction(q * (gamma % alpha) + rho, alpha))


def F_rho_total(
    alphas: Sequence[int], betas: Sequence[int], gammas: Sequence[int], rho: Rational
) -> Fraction:
    """Componentwise sum of F_rho over all singular fibers."""
    _validate_vectors(alphas, betas, gammas)
    return sum(
        (F_rho(a, b, g, rho) for a, b, g in zip(alphas, betas, gammas)),
        Fraction(0),
    )
