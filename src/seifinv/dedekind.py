"""Generalized Dedekind-Rademacher sums.

The basic object is

    s(beta, alpha; x, y) = sum_{r=1}^{alpha} ((x + beta (r+y)/alpha)) (((r+y)/alpha))

for coprime integers (beta, alpha), alpha > 0, and rational shifts x, y;
(( )) is the sawtooth.  The value depends on x and y only mod 1.

Three evaluation routes are provided:

  * ``dr_sum_direct`` -- the defining sum over a full period.  This is the
    module's oracle.  Its one non-closed part, the moment of the residues
    (beta r + c) mod alpha against r, is summed over arithmetic-progression
    runs of a residue class mod a stride m ~ sqrt(alpha): O(sqrt(alpha))
    time, O(1) memory, and no reciprocity or Euclid descent.
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
defining forms (``dr_sum_direct`` and the corner sums ``corner_sum``) are
oracles, run by ``seifinv verify``, ``seifinv dedekind --method direct``
or ``both``, and the tests.  Each stays the defining sum, with no use of
reciprocity: the parts that a period sums in closed form (a permutation
of the residues, an arithmetic progression) are closed forms, and the one
residue moment left is summed by ``_residue_moment`` in O(sqrt(alpha))
time and O(1) memory.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from seifinv.numkernel import Rational, frac, psi2, sawtooth


def _validate(beta: int, alpha: int) -> None:
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if gcd(beta, alpha) != 1:
        raise ValueError(f"beta and alpha must be coprime, got ({beta}, {alpha})")


def _residue_moment(c: int, step: int, alpha: int) -> int:
    """sum_{r=0}^{alpha-1} ((c + step r) mod alpha) r, in O(sqrt(alpha)) steps.

    A stride m <= isqrt(alpha) + 1 is chosen by a plain scan to make
    m + |delta| least, with delta = m step mod alpha taken balanced; some m
    has |delta| < sqrt(alpha) (Dirichlet), and the choice changes only the
    speed, never the value.  Along a residue class r = j + m q the residue
    steps by delta, t_q = (t_0 + delta q) mod alpha, so it runs in maximal
    runs that do not wrap, on which r and t are both arithmetic
    progressions and sum_k (r + m k)(t + delta k) is a closed form.  A
    class of n terms wraps about n |delta| / alpha times: about m + |delta|
    runs in all (one a class when delta = 0, for a step not coprime to
    alpha).  No reciprocity and no Euclid descent, and O(1) memory.
    """
    if alpha == 1:
        return 0
    c, step = c % alpha, step % alpha
    m, delta, cost = 1, step, alpha
    for k in range(1, isqrt(alpha) + 2):
        d = k * step % alpha
        if 2 * d > alpha:
            d -= alpha
        if k + abs(d) < cost:
            m, delta, cost = k, d, k + abs(d)
    # with delta < 0 sum the reflected residues alpha - 1 - t instead:
    # they are (-1 - c - step r) mod alpha, which step by -delta > 0
    flip = delta < 0
    if flip:
        c, step, delta = alpha - 1 - c, -step, -delta
    linear = squares = 0
    for j in range(m):
        r, n = j, (alpha - 1 - j) // m + 1
        t = (c + j * step) % alpha
        while n:
            run = min(n, (alpha - 1 - t) // delta + 1) if delta else n
            tri = run * (run - 1) // 2
            linear += run * r * t + (r * delta + m * t) * tri
            squares += tri * (2 * run - 1) // 3
            r += m * run
            t = (t + delta * run) % alpha
            n -= run
    total = linear + m * delta * squares
    return (alpha - 1) * (alpha * (alpha - 1) // 2) - total if flip else total


def dr_sum_direct(beta: int, alpha: int, x: Rational = 0, y: Rational = 0) -> Fraction:
    """The defining sum over a full period.

    Runs in O(sqrt(alpha)) time and O(1) memory, and serves as the
    independent oracle for dr_sum_fast: no reciprocity, no Euclid descent.
    The one sum that is not a closed form, of m1 m2 below, is a residue
    moment (``_residue_moment``), summed over arithmetic-progression runs;
    the sums of m1 and m2 alone and the at most two dropped terms are
    closed forms.
    """
    _validate(beta, alpha)
    x, y = Fraction(x), Fraction(y)
    # Term r is (2 m1 - d1)(2 m2 - d2) over the fixed denominator 4 d1 d2,
    # with ((x + beta(r+y)/alpha)) = (2 m1 - d1)/(2 d1), d1 = alpha qx qy, and
    # (((r+y)/alpha)) = (2 m2 - d2)/(2 d2), d2 = alpha qy; a term with
    # m1 = 0 or m2 = 0 (an integral argument) is dropped.  With x, y
    # reduced mod 1 and r taken mod alpha (r = alpha is r = 0):
    #   m2 = r qy + py,
    #   m1 = k0 + qx qy ((k1 + beta r) mod alpha),
    # where (k1, k0) = divmod(px alpha qy + beta qx py, qx qy); as r runs
    # over a period, m1 runs over k0 + qx qy t, t = 0..alpha-1, once each.
    qx, qy = x.denominator, y.denominator
    px, py = x.numerator % qx, y.numerator % qy
    qxy = qx * qy
    d1, d2 = alpha * qxy, alpha * qy
    k1, k0 = divmod(px * alpha * qy + beta * qx * py, qxy)
    tri = alpha * (alpha - 1) // 2
    sum_m1 = alpha * k0 + qxy * tri
    sum_m2 = qy * tri + alpha * py
    sum_m1m2 = k0 * sum_m2 + qxy * (qy * _residue_moment(k1, beta, alpha) + py * tri)
    total = 4 * sum_m1m2 - 2 * d2 * sum_m1 - 2 * d1 * sum_m2 + alpha * d1 * d2
    dropped = {-k1 * _inverse_mod(beta, alpha) % alpha} if k0 == 0 else set()  # m1 = 0
    if py == 0:
        dropped.add(0)  # m2 = 0: y integral, r = alpha
    for r in dropped:
        m1 = k0 + qxy * ((k1 + beta * r) % alpha)
        total -= (2 * m1 - d1) * (2 * (r * qy + py) - d2)
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
    """Singular-fiber corner sum, from its defining sum through one
    residue moment, O(sqrt(alpha)) time and O(1) memory:

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
    # {.} = t_r/alpha with t_r = (gamma + sign r beta) mod alpha, and
    # ((r/alpha)) = (2r - alpha)/(2 alpha) for 0 < r < alpha, 0 at r = alpha:
    # the integer numerator over 2 alpha^2 is sum_{r<alpha} t_r (2r - alpha).
    # t_r runs over every residue once and t_0 = gamma, so the sum of t_r
    # over 0 < r < alpha is closed and only the sum of t_r r is a moment.
    sum_t = alpha * (alpha - 1) // 2 - gamma
    acc = 2 * _residue_moment(gamma, sign * beta, alpha) - alpha * sum_t
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
        total += sawtooth(Fraction(_inverse_mod(b, a) * g % a, a))
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

