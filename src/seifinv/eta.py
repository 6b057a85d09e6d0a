"""Eta invariants of adiabatic Dirac operators on Seifert fibrations.

Let N be the unit circle bundle of a line V-bundle L0 of rational degree
ell != 0 over a 2-orbifold, and let D be the adiabatic Dirac operator
coupled with a connection on (the pullback of) a line V-bundle
L(c; gammas).  Two coupling regimes are covered.

Pullback connections.  The eta function is

    eta(s) = -2 ell zeta(s-1)
             + sum_i alpha_i^(-s) sum_{r=1}^{alpha_i - 1}
               ({(gamma_i + r beta_i)/alpha_i} - {(gamma_i - r beta_i)/alpha_i})
               zeta(s, r/alpha_i)

and the spectral asymmetry at s = 0 reduces to Dedekind-Rademacher sums:

    eta(0) = ell/6 - sum_i (S_i^+ - S_i^-)
           = ell/6 - 2 S(betas, alphas; gammas) - d(betas, alphas; gammas).

Determinant-flat connections with fractional fiber holonomy rho in (0,1)
(L the canonical representative of its class, rho = (deg K - 2c)/(2 ell)):

    eta(s) = (deg K - deg|K|)/2 (zeta(s, rho) - zeta(s, 1-rho))
             - sum_i alpha_i^(-s) sum_{k=0}^{alpha_i - 1}
               {(gamma_i - k beta_i)/alpha_i}
               (zeta(s, {(k+rho)/alpha_i}) - zeta(s, 1 - {(k+rho)/alpha_i}))
             - ell zeta(s-1, rho) - ell zeta(s-1, 1-rho)

with value at 0

    eta(0) = (deg K - deg|K|)/2 (1 - 2 rho)
             - sum_i sum_k {(gamma_i - k beta_i)/alpha_i}(1 - 2{(k+rho)/alpha_i})
             - ell rho (1 - rho) + ell/6
           = (deg K - deg|K|)/2 (1 - 2 rho) - ell rho (1 - rho) + ell/6
             + m rho - 2 S_rho - sum_i F_rho(alpha_i, beta_i, gamma_i).

``flat_context`` takes L and rho from ``orbifold.canonical_representative``,
whose rho is ``orbifold.holonomy_rho``.  ``trivial_flat_context`` is the one
derivation of the trivial class's flat context, which is also the
reducible that ``swfloer`` measures its gradings from.

Production evaluates eta(0) along one route only, the Dedekind forms
above, in O(sum log alpha_i) through ``dedekind.dr_sum_fast``.  The
corner-sum and closed forms, O(sqrt(alpha)) per fiber through
``dedekind._residue_moment`` and free of reciprocity, are kept as the oracles
``eta_zero_pullback_direct`` and ``eta_zero_flat_direct``; they are run by
``seifinv verify eta-consistency`` and the tests, never by production.

On a homology sphere the adiabatic invariant of the unique spin structure
feeds the metric-independent quantity

    F(N) = 4 eta(0) + ell/3 - sign(ell) - 4 S(betas, alphas)

which Rohlin's theorem forces into 8Z; the signature operator's eta for
the fiber-rescaled metric (fiber length 2 pi r) and the Levi-Civita Dirac
correction are exposed as well, and their r-dependence cancels in F.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Dict, List

from seifinv import dedekind
from seifinv.numkernel import BigFloat, Rational, Rows, hurwitz_sum
from seifinv.orbifold import (
    VLineBundle,
    canonical_bundle,
    canonical_representative,
    euler_characteristic,
    holonomy_rho,
    rational_degree,
    subtract_bundles,
    trivial_bundle,
)
from seifinv.seifert import SeifertData, defining_bundle, is_homology_sphere

#: Largest sum of the fiber orders alpha_i whose eta series `eta --at`
#: evaluates; larger ones exit 2.  The series has O(sum alpha_i) rows, and
#: its peak memory grows by about 0.19 KB per unit: 35 MB at 10^5, 54 MB at 2 * 10^5.
MAX_SERIES_ALPHA_SUM = 2 * 10**5

#: Largest |s| at which `eta --at` evaluates the series; larger ones exit 2.
#: At negative s time and peak memory grow about as s^2: on Sigma(2,3,5) at
#: 30 digits s = -5000 takes about 56 s and 43 MB, s = -10^4 about 400 s
#: and 140 MB.
MAX_SERIES_ABS_S = 10**4


class EtaContext(namedtuple("EtaContext", "fibration coupling rho")):
    """A Seifert fibration together with a coupling bundle and the fiber
    holonomy rho of the determinant-flat connection.

    For the flat regime, rho must equal ``holonomy_rho`` of the canonical
    representative; build such contexts with ``flat_context``, whose
    ``canonical_representative`` certifies this.
    """

    __slots__ = ()

    def __new__(cls, fibration: SeifertData, coupling: VLineBundle, rho: Rational = Fraction(0)):
        rho = Fraction(rho)
        if fibration.ell == 0:
            raise ValueError("eta invariants require ell != 0")
        if coupling.base != fibration.base:
            raise ValueError("coupling bundle must live over the fibration's base")
        if not 0 <= rho < 1:
            raise ValueError(f"rho must lie in [0, 1), got {rho}")
        return super().__new__(cls, fibration, coupling, rho)

    @property
    def is_canonical_flat(self) -> bool:
        return holonomy_rho(self.coupling, defining_bundle(self.fibration)) == self.rho


def pullback_context(N: SeifertData, L: VLineBundle) -> EtaContext:
    """Context for the Dirac operator coupled with the pullback of L."""
    return EtaContext(N, L, Fraction(0))


def flat_context(N: SeifertData, class_rep: VLineBundle) -> EtaContext:
    """Context of the determinant-flat connection on the class of
    ``class_rep`` mod Z L0: the canonical representative plus its rho,
    which ``canonical_representative`` certifies."""
    rep, _, rho = canonical_representative(class_rep, defining_bundle(N))
    return EtaContext(N, rep, rho)


def trivial_flat_context(N: SeifertData) -> EtaContext:
    """Flat context of the trivial bundle class (unique class on a
    homology sphere): the reducible of the Seiberg-Witten gradings, whose
    flat data every other module reads from here."""
    return flat_context(N, trivial_bundle(N.base))


def eta_zero_pullback(ctx: EtaContext) -> Fraction:
    """eta(0) for a pullback coupling: ell/6 - 2S - d."""
    N = ctx.fibration
    gammas = ctx.coupling.gammas
    return (
        N.ell / 6
        - 2 * dedekind.S_composite(N.alphas, N.betas, gammas)
        - dedekind.d_composite(N.alphas, N.betas, gammas)
    )


def eta_zero_pullback_direct(ctx: EtaContext) -> Fraction:
    """Oracle for ``eta_zero_pullback``: the corner-sum form
    ell/6 - sum_i (S_i^+ - S_i^-), in O(sum sqrt(alpha_i))."""
    N = ctx.fibration
    total = N.ell / 6
    for a, b, g in zip(N.alphas, N.betas, ctx.coupling.gammas):
        total -= dedekind.corner_sum(a, b, g, +1) - dedekind.corner_sum(a, b, g, -1)
    return total


def _head_weight(N: SeifertData) -> Fraction:
    """(deg K - deg|K|)/2, the weight of the flat head term."""
    return Fraction(rational_degree(canonical_bundle(N.base)) - (2 * N.base.genus - 2), 2)


def _flat_head(ctx: EtaContext) -> Fraction:
    """(deg K - deg|K|)/2 (1 - 2 rho) - ell rho (1 - rho) + ell/6, the
    part of the flat eta(0) shared by both of its forms."""
    N, rho = ctx.fibration, ctx.rho
    return _head_weight(N) * (1 - 2 * rho) - N.ell * rho * (1 - rho) + N.ell / 6


def _require_canonical_flat(ctx: EtaContext) -> None:
    if not ctx.is_canonical_flat:
        raise ValueError("flat eta requires the canonical representative context")


def eta_zero_flat(ctx: EtaContext) -> Fraction:
    """eta(0) for the determinant-flat connection of the context's class.

    rho = 0 delegates to the pullback formula; for rho in (0, 1) it is
    head + m rho - 2 S_rho - sum_i F_rho(alpha_i, beta_i, gamma_i).
    """
    _require_canonical_flat(ctx)
    if ctx.rho == 0:
        return eta_zero_pullback(ctx)
    N, rho = ctx.fibration, ctx.rho
    alphas, betas, gammas = N.alphas, N.betas, ctx.coupling.gammas
    return (
        _flat_head(ctx)
        + len(alphas) * rho
        - 2 * dedekind.S_rho(alphas, betas, gammas, rho)
        - sum(dedekind.F_rho(a, b, g, rho) for a, b, g in zip(alphas, betas, gammas))
    )


def eta_zero_flat_direct(ctx: EtaContext) -> Fraction:
    """Oracle for ``eta_zero_flat``: for rho in (0, 1) the closed form

        head - sum_i sum_{k=0}^{alpha_i-1} {(gamma_i - k beta_i)/alpha_i}
                                           (1 - 2 {(k + rho)/alpha_i}),

    through one residue moment per fiber, O(sum sqrt(alpha_i)) time and
    O(1) memory; for rho = 0 the corner-sum oracle."""
    _require_canonical_flat(ctx)
    if ctx.rho == 0:
        return eta_zero_pullback_direct(ctx)
    N = ctx.fibration
    pr, qr = ctx.rho.numerator, ctx.rho.denominator
    total = _flat_head(ctx)
    for a, b, g in zip(N.alphas, N.betas, ctx.coupling.gammas):
        d = qr * a
        # {(gamma - k beta)/alpha} = m1/alpha with m1 = (gamma - k beta) mod
        # alpha, and {(k + rho)/alpha} = m2/d with m2 = k qr + pr < d, no mod.
        # m1 runs over every residue once, so only the sum of m1 k is a moment.
        acc = (d - 2 * pr) * (a * (a - 1) // 2) - 2 * qr * dedekind._residue_moment(g, -b, a)
        total -= Fraction(acc, a * d)
    return total


def _add(rows: Dict[int, List[int]], H: int, w: int) -> None:
    """Add the weight w of the key a = 1/2 + H/D to rows {|H|: [W+, W-]}."""
    rows.setdefault(abs(H), [0, 0])[H < 0] += w


def series_rows(ctx: EtaContext, s) -> Dict[Rational, Dict[int, Rows]]:
    """The eta series of the context at s as the integer row sets
    s' -> p -> (D, Q, rows) of ``numkernel.hurwitz_sum``, s' in {s, s - 1}
    (module docstring).  The pullback expansion is the holonomy-twisted one
    at rho = 0, read with zeta(s', 0) = zeta(s', 1): its head cancels, its
    s - 1 keys meet at a = 1, and the fiber pair at k = 0 cancels.

    A fiber's keys (k + rho)/alpha and their mirrors, rho = p/q, are
    a = 1/2 +- U/D with U = |2(k q + p) - alpha q| and D = 2 alpha q, their
    weights integers over Q = alpha; fibers of equal alpha share one row set.
    """
    N, rho = ctx.fibration, ctx.rho
    if rho:
        _require_canonical_flat(ctx)
    pr, qr = rho.numerator, rho.denominator
    head, en, ed = _head_weight(N), N.ell.numerator, N.ell.denominator
    # H of the keys rho and 1 - rho, over D = 2 q
    ends = (2 * pr - qr, qr - 2 * pr) if rho else (qr, qr)
    head_rows, tail_rows = {}, {}
    for H, sign in zip(ends, (1, -1)):
        _add(head_rows, H, sign * head.numerator)
        _add(tail_rows, H, -en)
    series = {s: {1: (2 * qr, head.denominator, head_rows)}, s - 1: {1: (2 * qr, ed, tail_rows)}}
    for a, b, g in zip(N.alphas, N.betas, ctx.coupling.gammas):
        rows = series[s].setdefault(a, (2 * a * qr, a, {}))[2]
        for k in range(rho == 0, a):
            H = 2 * (k * qr + pr) - a * qr
            w = (g - k * b) % a
            _add(rows, H, -w)
            _add(rows, -H, w)
    return series


def eta_series(ctx: EtaContext, s, precision: int = 30) -> BigFloat:
    """Numeric eta(s): the ``series_rows`` of the context summed by one
    ``hurwitz_sum`` call.  Every fiber and head row is a signed pair
    w (zeta(s, x) - zeta(s, 1 - x)), W- = -W+, so the kernel evaluates only
    the odd Taylor centre values of the s keys; at an integer s <= 0 the
    sum is exact."""
    return hurwitz_sum(series_rows(ctx, s), precision)


def _require_trivial_homology_sphere(ctx: EtaContext) -> None:
    if not is_homology_sphere(ctx.fibration):
        raise ValueError("requires a Seifert homology sphere")
    if ctx != trivial_flat_context(ctx.fibration):
        raise ValueError("requires the trivial class's canonical flat context")


def eta_dirac_levicivita(ctx: EtaContext, r: Rational) -> Fraction:
    """eta of the Levi-Civita Dirac operator of the unique spin structure,
    for the metric with fibers rescaled to length 2 pi r:

        eta_LC(r) = eta(0) + (ell/6)(ell^2 r^4 - chi r^2),

    chi the rational Euler characteristic of the base.
    """
    r = Fraction(r)
    if not 0 < r <= 1:
        raise ValueError(f"fiber scale r must lie in (0, 1], got {r}")
    _require_trivial_homology_sphere(ctx)
    ell = ctx.fibration.ell
    chi = euler_characteristic(ctx.fibration.base)
    return eta_zero_flat(ctx) + (ell / 6) * (ell**2 * r**4 - chi * r**2)


def eta_signature(N: SeifertData, r: Rational) -> Fraction:
    """eta of the odd signature operator for the fiber-rescaled metric:

        -(2 ell / 3)(ell^2 r^4 - chi r^2) + ell/3 - sign(ell) - 4 S(betas, alphas).
    """
    r = Fraction(r)
    ell = N.ell
    if ell == 0:
        raise ValueError("eta_signature requires ell != 0")
    chi = euler_characteristic(N.base)
    sign = 1 if ell > 0 else -1
    zeros = (0,) * len(N.alphas)
    s_sum = dedekind.S_composite(N.alphas, N.betas, zeros)
    return -Fraction(2, 3) * ell * (ell**2 * r**4 - chi * r**2) + ell / 3 - sign - 4 * s_sum


def froyshov_F(N: SeifertData) -> Fraction:
    """F(N) = 4 eta(0) + ell/3 - sign(ell) - 4 S(betas, alphas), the
    r-independent combination 4 eta_LC(r) + eta_sign(r)."""
    if not is_homology_sphere(N):
        raise ValueError("froyshov_F requires a Seifert homology sphere")
    ell = N.ell
    sign = 1 if ell > 0 else -1
    zeros = (0,) * len(N.alphas)
    s_sum = dedekind.S_composite(N.alphas, N.betas, zeros)
    eta0 = eta_zero_flat(trivial_flat_context(N))
    return 4 * eta0 + ell / 3 - sign - 4 * s_sum


def rohlin_check(N: SeifertData) -> bool:
    """True iff F(N) is divisible by 8 (it always is, by Rohlin's theorem)."""
    f = froyshov_F(N)
    return f.denominator == 1 and f.numerator % 8 == 0


def serre_dual_coupling(ctx: EtaContext) -> EtaContext:
    """Pullback context coupled with K - L; eta(0) is invariant under this."""
    k = canonical_bundle(ctx.fibration.base)
    return pullback_context(ctx.fibration, subtract_bundles(k, ctx.coupling))
