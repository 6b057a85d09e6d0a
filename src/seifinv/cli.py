"""Command-line interface.

Subcommands:

    dedekind   evaluate a Dedekind-Rademacher sum (fast and direct routes)
    eta        eta invariants of a Seifert fibration (exact and series)
    swf        simplex, gradings and Poincare polynomial of a Brieskorn sphere
    froyshov   F, 8m and the bound Z for a Brieskorn sphere
    plumbing   Hirzebruch-Jung intersection form, Theta, diagonalization
    table      batch rows (F, 8m, Z, P) over triples or a one-parameter family
    verify     self-check suites; nonzero exit on the first exact mismatch

Exit codes: 0 ok, 1 verification mismatch (a failed verify suite, or an
``InvariantError`` from a production invariant check), 2 usage error
(including triples whose weight box exceeds ``swfloer.MAX_BOX_POINTS``).
Rationals are printed as "p/q" (or "p" for integers) everywhere, so JSON
output round-trips losslessly.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from seifinv import dedekind as ded
from seifinv import eta as eta_mod
from seifinv import lattice as lat
from seifinv import swfloer as swf
from seifinv.numkernel import InvariantError
from seifinv.orbifold import Orbifold, VLineBundle, trivial_bundle
from seifinv.seifert import SeifertData, brieskorn, is_homology_sphere


def _parse_fraction(text: str, parser: argparse.ArgumentParser, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        parser.error(f"{flag}: cannot parse rational {text!r} (expected p/q)")


def _parse_triple(text: str, parser: argparse.ArgumentParser) -> Tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        parser.error(f"triple {text!r}: expected three comma-separated integers")
    values = []
    for p in parts:
        try:
            values.append(int(p))
        except ValueError:
            parser.error(f"triple {text!r}: {p!r} is not an integer")
    a, b, c = values
    return a, b, c


def _parse_seifert(text: str, parser: argparse.ArgumentParser) -> SeifertData:
    """General form g:b:a1/b1,a2/b2,..."""
    parts = text.split(":")
    if len(parts) != 3:
        parser.error(f"--seifert {text!r}: expected g:b:a1/b1,a2/b2,...")
    try:
        g, b = int(parts[0]), int(parts[1])
    except ValueError:
        parser.error(f"--seifert {text!r}: genus and degree must be integers")
    alphas, betas = [], []
    if parts[2]:
        for item in parts[2].split(","):
            m = re.fullmatch(r"(\d+)/(\d+)", item)
            if not m:
                parser.error(f"--seifert {text!r}: bad fiber {item!r} (expected a/b)")
            alphas.append(int(m.group(1)))
            betas.append(int(m.group(2)))
    try:
        return SeifertData(Orbifold(g, tuple(alphas)), tuple(betas), b)
    except ValueError as exc:
        parser.error(f"--seifert {text!r}: {exc}")


_FAMILY_TOKEN = re.compile(r"^(\d*)([ks])([+-]\d+)?$")


def _parse_family(spec: str, parser: argparse.ArgumentParser):
    """Family grammar: comma-separated tokens, each an integer or
    (coef)(k|s)(+-off), e.g. '2,3,6k+1' or '3,3s+1,3s+2'."""
    fns = []
    for token in spec.split(","):
        token = token.strip()
        if re.fullmatch(r"-?\d+", token):
            fns.append(lambda k, v=int(token): v)
            continue
        m = _FAMILY_TOKEN.match(token)
        if not m:
            parser.error(f"--family {spec!r}: cannot parse token {token!r}")
        coef = int(m.group(1)) if m.group(1) else 1
        off = int(m.group(3)) if m.group(3) else 0
        fns.append(lambda k, c=coef, o=off: c * k + o)
    if len(fns) != 3:
        parser.error(f"--family {spec!r}: expected three components")
    return lambda k: (fns[0](k), fns[1](k), fns[2](k))


def _parse_range(text: str, parser: argparse.ArgumentParser) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            parser.error(f"--k {text!r}: empty range")
        return range(lo, hi + 1)
    if re.fullmatch(r"\d+", text):
        v = int(text)
        return range(v, v + 1)
    parser.error(f"--k {text!r}: expected N or LO..HI")


# ---------------------------------------------------------------------------
# report rows


class ReportRow(namedtuple("ReportRow", "triple F eight_m Z P")):
    __slots__ = ()

    def __new__(cls, triple: Tuple[int, int, int], F: Fraction, eight_m: int, Z: Fraction,
                P: swf.LaurentPolynomial):
        if Z != eight_m + F:
            raise InvariantError(f"row {triple} inconsistent: Z = {Z} != 8m + F = {eight_m + F}")
        return super().__new__(cls, triple, F, eight_m, Z, P)


def compute_row(a: int, b: int, c: int) -> ReportRow:
    P = swf.poincare_polynomial(a, b, c)
    F = eta_mod.froyshov_F(brieskorn(a, b, c))
    eight_m = 8 * swf.gap_m(P)
    return ReportRow((a, b, c), F, eight_m, eight_m + F, P)


def _row_json(r: ReportRow) -> dict:
    return {
        "triple": list(r.triple),
        "F": str(r.F),
        "eight_m": r.eight_m,
        "Z": str(r.Z),
        "P": r.P.to_json(),
    }


def _report_json(rows: Sequence[ReportRow]) -> str:
    return json.dumps([_row_json(r) for r in rows], indent=2)


def _report_csv(rows: Sequence[ReportRow]) -> str:
    import csv  # only --csv pays for the import

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["a", "b", "c", "F", "eight_m", "Z", "P"])
    for r in rows:
        writer.writerow([*r.triple, str(r.F), r.eight_m, str(r.Z), str(r.P)])
    return buf.getvalue().rstrip("\n")


def _report_latex(rows: Sequence[ReportRow]) -> str:
    lines = [
        r"\begin{tabular}{||c|c|c|c||} \hline",
        r"$(a,b,c)$    & ${\bf F}$ &  $8m$   & $Z$   \\ \hline\hline",
    ]
    for r in rows:
        a, b, c = r.triple
        lines.append(
            f"$({a},{b},{c})$    &  ${r.F}$    &  ${r.eight_m}$    & ${r.Z}$     \\\\ \\hline"
        )
    lines.append(r"\end{tabular}")
    return "\n".join(lines)


def _report_text(rows: Sequence[ReportRow]) -> str:
    lines = [f"{'(a,b,c)':>14} {'F':>8} {'8m':>4} {'Z':>6}  P"]
    for r in rows:
        lines.append(
            f"{str(r.triple):>14} {str(r.F):>8} {r.eight_m:>4} {str(r.Z):>6}  {r.P}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand drivers


def _cmd_dedekind(args, parser) -> int:
    x = _parse_fraction(args.x, parser, "--x")
    y = _parse_fraction(args.y, parser, "--y")
    try:
        if args.method in ("fast", "both"):
            fast = ded.dr_sum_fast(args.beta, args.alpha, x, y)
        if args.method in ("direct", "both"):
            direct = ded.dr_sum_direct(args.beta, args.alpha, x, y)
    except ValueError as exc:
        parser.error(str(exc))
    if args.method == "both":
        if fast != direct:
            print(f"MISMATCH fast={fast} direct={direct}")
            return 1
        print(fast)
    else:
        print(fast if args.method == "fast" else direct)
    return 0


def _base_data(args, parser) -> SeifertData:
    if args.brieskorn and args.seifert:
        parser.error("give one of --brieskorn / --seifert, not both")
    if args.brieskorn:
        a, b, c = _parse_triple(args.brieskorn, parser)
        try:
            return brieskorn(a, b, c)
        except ValueError as exc:
            parser.error(f"--brieskorn {args.brieskorn!r}: {exc}")
    if args.seifert:
        return _parse_seifert(args.seifert, parser)
    parser.error("one of --brieskorn / --seifert is required")


def _cmd_eta(args, parser) -> int:
    if args.digits < 1:
        parser.error(f"--digits {args.digits}: must be >= 1")
    N = _base_data(args, parser)
    if N.ell == 0:
        parser.error("the fibration has degree ell = 0; eta invariants need ell != 0")
    out = {"ell": str(N.ell)}
    if args.brieskorn:
        out["triple"] = list(N.alphas)

    gammas: Optional[Tuple[int, ...]] = None
    if args.gammas is not None:
        try:
            gammas = tuple(int(t) for t in args.gammas.split(","))
        except ValueError:
            parser.error(f"--gammas {args.gammas!r}: expected comma-separated integers")
        if len(gammas) != len(N.alphas):
            parser.error(
                f"--gammas {args.gammas!r}: expected {len(N.alphas)} weights"
            )
        gammas = tuple(g % a for g, a in zip(gammas, N.alphas))

    rho_flag = (
        _parse_fraction(args.rho, parser, "--rho") if args.rho is not None else None
    )

    if gammas is not None and rho_flag is None:
        ctx = eta_mod.pullback_context(
            N, VLineBundle(N.base, 0, gammas)
        )
        out["gammas"] = list(gammas)
        out["eta0"] = str(eta_mod.eta_zero_pullback(ctx))
    else:
        rep_seed = (
            VLineBundle(N.base, 0, gammas) if gammas is not None else trivial_bundle(N.base)
        )
        ctx = eta_mod.flat_context(N, rep_seed)
        if rho_flag is not None and rho_flag != ctx.rho:
            parser.error(
                f"--rho {args.rho}: the canonical representative has rho = {ctx.rho}"
            )
        out["rho"] = str(ctx.rho)
        out["gammas"] = list(ctx.coupling.gammas)
        out["eta0"] = str(eta_mod.eta_zero_flat(ctx))
        if gammas is None and is_homology_sphere(N):
            out["F"] = str(eta_mod.froyshov_F(N))

    if args.at is not None:
        s = _parse_fraction(args.at, parser, "--at")
        if abs(s) > eta_mod.MAX_SERIES_ABS_S:
            parser.error(
                f"--at {args.at}: |s| exceeds {eta_mod.MAX_SERIES_ABS_S}: "
                "the eta series is too large to evaluate"
            )
        if sum(N.alphas) > eta_mod.MAX_SERIES_ALPHA_SUM:
            parser.error(
                f"--at {args.at}: sum of alphas {sum(N.alphas)} exceeds "
                f"{eta_mod.MAX_SERIES_ALPHA_SUM}: the eta series is too large to evaluate"
            )
        try:
            val = eta_mod.eta_series(ctx, s, args.digits)
        except ValueError as exc:
            parser.error(
                f"--at {args.at}: the series meets the pole of zeta(s, a) or zeta(s - 1, a) ({exc})"
            )
        out["eta_at"] = {"s": str(s), "digits": args.digits, "value": str(val)}

    print(json.dumps(out, indent=2))
    return 0


def _cmd_swf(args, parser) -> int:
    a, b, c = _parse_triple(args.brieskorn, parser)
    try:
        graded = swf.graded_delta(a, b, c)
    except ValueError as exc:
        parser.error(f"--brieskorn {args.brieskorn!r}: {exc}")
    P = swf.LaurentPolynomial.from_exponents(n for _, n in graded)
    if args.latex:
        print(f"\\Sigma({a},{b},{c})        & P ={P.latex()}")
        return 0
    rows = zip(graded, swf.energies([p for p, _ in graded], a, b, c))
    if args.json:
        payload = {
            "triple": [a, b, c],
            "delta": [
                {"point": list(p), "energy": str(e), "n_plus": n}
                for (p, n), e in rows
            ],
            "P": P.to_json(),
            "m": swf.gap_m(P),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"Sigma({a},{b},{c}): |Delta| = {len(graded)}")
    for (p, n), e in rows:
        print(f"  {tuple(p)}: n_+ = {n}, E = {str(e)}")
    print(f"P = {P}")
    return 0


def _cmd_froyshov(args, parser) -> int:
    a, b, c = _parse_triple(args.brieskorn, parser)
    try:
        row = compute_row(a, b, c)
    except ValueError as exc:
        parser.error(f"--brieskorn {args.brieskorn!r}: {exc}")
    print(json.dumps(_row_json(row), indent=2))
    return 0


def _cmd_plumbing(args, parser) -> int:
    a, b, c = _parse_triple(args.brieskorn, parser)
    try:
        q = lat.plumbing_form(a, b, c)
    except ValueError as exc:
        parser.error(f"--brieskorn {args.brieskorn!r}: {exc}")
    out = {"triple": [a, b, c], "rank": q.rank, "det": q.determinant}
    if args.matrix:
        out["matrix"] = q.matrix
    if args.theta:
        out["theta"] = lat.theta_invariant(q)
    if args.diagonalize:
        diag_rank, residual = lat.hnk_split_diagonalize(q)
        out["diagonal_rank"] = diag_rank
        if residual is None:
            out["residual"] = None
        else:
            out["residual"] = {
                "rank": residual.rank,
                "even": lat.is_even(residual),
                "is_minus_e8": lat.is_minus_e8(residual),
            }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_table(args, parser) -> int:
    if args.k is not None and args.family is None:
        parser.error("--k needs --family")
    triples: List[Tuple[int, int, int]] = []
    if args.triples:
        triples.extend(_parse_triple(t, parser) for t in args.triples)
    if args.family is not None:
        fam = _parse_family(args.family, parser)
        ks = _parse_range(args.k, parser) if args.k is not None else range(1, 2)
        triples.extend(fam(k) for k in ks)
    rows = []
    for a, b, c in triples:
        try:
            rows.append(compute_row(a, b, c))
        except ValueError as exc:
            parser.error(f"triple ({a},{b},{c}): {exc}")
    if args.json:
        print(_report_json(rows))
    elif args.csv:
        print(_report_csv(rows))
    elif args.latex:
        print(_report_latex(rows))
    else:
        print(_report_text(rows))
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _random_fraction(rng: random.Random, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randrange(den), den)


def _verify_dedekind_oracle(seed: int, cases: int) -> Optional[str]:
    rng = random.Random(seed)
    for i in range(cases):
        alpha = rng.randint(1, 200)
        beta = rng.choice([b for b in range(1, 2 * alpha + 2) if gcd(b, alpha) == 1])
        x = _random_fraction(rng, 12)
        y = _random_fraction(rng, 12)
        direct = ded.dr_sum_direct(beta, alpha, x, y)
        fast = ded.dr_sum_fast(beta, alpha, x, y)
        if direct != fast:
            return f"case {i}: fast != direct at s({beta},{alpha};{x},{y})"
        swapped = ded.dr_sum_direct(alpha, beta, y, x)
        if direct + swapped != ded.reciprocity_R(beta, alpha, x, y):
            return f"case {i}: reciprocity fails at (beta,alpha,x,y)=({beta},{alpha},{x},{y})"
    return None


def _random_seifert(rng: random.Random, max_m: int = 3) -> SeifertData:
    while True:
        m = rng.randint(0, max_m)
        alphas = tuple(rng.randint(2, 12) for _ in range(m))
        betas = tuple(
            rng.choice([b for b in range(1, a) if gcd(a, b) == 1]) for a in alphas
        )
        g = rng.randint(0, 2)
        b = rng.randint(-3, 3)
        N = SeifertData(Orbifold(g, alphas), betas, b)
        if N.ell != 0:
            return N


#: verify eta-consistency checks the series on its first SERIES_CASES
#: cases: at s = 0 for equality with the exact eta(0), on the pullback and
#: the flat context, and at a seeded non-integer s at SERIES_DIGITS
#: digits, few enough that numkernel.hurwitz_sum takes its Taylor-moment
#: route on every s with more than two keys.
SERIES_CASES = 5
SERIES_DIGITS = 15


def _seeded_s(rng: random.Random) -> Fraction:
    """A non-integer s in [-5/2, 5/2], at least 1/8 from the poles 1 and 2."""
    while True:
        q = rng.randint(2, 8)
        s = Fraction(rng.randint(-5 * q // 2, 5 * q // 2), q)
        if s.denominator > 1 and min(abs(s - 1), abs(s - 2)) >= Fraction(1, 8):
            return s


def _series_matches_per_key_sum(ctx: eta_mod.EtaContext, s: Fraction, digits: int) -> bool:
    """eta_series at s against the per-key sum over its row keys, each
    zeta(s', a) by mpmath.zeta at digits + 25, an implementation
    independent of numkernel's Euler-Maclaurin pass: |difference| <= the
    series' eps plus 10^-(digits+20) times the reference's magnitude.

    a goes in as an mpf, not as the pair (p, q): at s' < 0 mpmath's
    rational-a route reflects over q values, and the random fibrations
    here reach denominators in the thousands."""
    from mpmath import mp

    got = eta_mod.eta_series(ctx, s, digits)
    with mp.workdps(digits + 25):
        ref = size = mp.mpf(0)
        for s1, parts in eta_mod.series_rows(ctx, s).items():
            s1_mpf = mp.mpf(s1.numerator) / s1.denominator
            for p, (D, Q, rows) in parts.items():
                for U, ws in rows.items():
                    for n, w in zip((D + 2 * U, D - 2 * U), ws):
                        if w:
                            z = mp.zeta(s1_mpf, mp.mpf(n) / (2 * D))
                            wp = mp.mpf(w) / Q * mp.power(p, -s1_mpf)
                            ref += wp * z
                            size += abs(wp * z)
        return abs(got.value - ref) <= got.eps + mp.mpf(10) ** -(digits + 20) * size


def _verify_eta_consistency(seed: int, cases: int) -> Optional[str]:
    rng = random.Random(seed)
    s_rng = random.Random(f"{seed}:s")
    for i in range(cases):
        N = _random_seifert(rng)
        gammas = tuple(rng.randrange(a) for a in N.alphas)
        L = VLineBundle(N.base, rng.randint(-2, 2), gammas)
        ctx = eta_mod.pullback_context(N, L)
        eta0 = eta_mod.eta_zero_pullback(ctx)
        if eta0 != eta_mod.eta_zero_pullback_direct(ctx):
            return f"case {i}: Dedekind and corner-sum eta(0) differ on {N} with gammas {gammas}"
        dual = eta_mod.eta_zero_pullback(eta_mod.serre_dual_coupling(ctx))
        if eta0 != dual:
            return f"case {i}: Serre symmetry fails on {N} with gammas {gammas}"
        flat = eta_mod.flat_context(N, L)
        exact = eta_mod.eta_zero_flat(flat)
        if exact != eta_mod.eta_zero_flat_direct(flat):
            return f"case {i}: Dedekind and closed-form flat eta(0) differ on {N} with {L}"
        if i >= SERIES_CASES:
            continue
        if not all(eta_mod.eta_series(c, 0, 30).within(x, 0) for c, x in ((ctx, eta0), (flat, exact))):
            return f"case {i}: series at s=0 drifts from exact eta(0) on {N}"
        s = _seeded_s(s_rng)
        if not _series_matches_per_key_sum(flat, s, SERIES_DIGITS):
            return f"case {i}: series at s={s} differs from the per-key Hurwitz sum on {N}"
    return None


#: The plumbing matrix of Sigma(2,3,7): central -1 vertex joined to
#: the chains (-2), (-3), (-7).
PLUMBING_237 = ((-1, 1, 1, 1), (1, -2, 0, 0), (1, 0, -3, 0), (1, 0, 0, -7))

#: The paper's (F, 8m, Z) table, keyed by Brieskorn triple.
PAPER_TABLE = {
    (2, 3, 5): (8, 0, 8),
    (2, 3, 7): (-8, 8, 0),
    (2, 3, 11): (0, 8, 8),
    (2, 3, 13): (0, 0, 0),
    (2, 3, 17): (8, 0, 8),
    (3, 5, 7): (0, 8, 8),
    (3, 5, 11): (0, 8, 8),
    (3, 5, 13): (8, 0, 8),
    (5, 7, 9): (0, 0, 0),
}


def _verify_froyshov_table() -> Optional[str]:
    for triple, (f_exp, m_exp, z_exp) in PAPER_TABLE.items():
        row = compute_row(*triple)
        if (row.F, row.eight_m, row.Z) != (f_exp, m_exp, z_exp):
            return (
                f"triple {triple}: got (F, 8m, Z) = "
                f"({row.F}, {row.eight_m}, {row.Z}), want ({f_exp}, {m_exp}, {z_exp})"
            )
    return None


def _verify_families(k_max: int) -> Optional[str]:
    for k in range(1, k_max + 1):
        # Sigma(2, 3, 6k+1): P = j T^-1 (k = 2j-1) or j T (k = 2j); Z = 0
        row = compute_row(2, 3, 6 * k + 1)
        j, odd = (k + 1) // 2, k % 2 == 1
        expect_p = swf.LaurentPolynomial({-1 if odd else 1: j})
        expect_f = -8 if odd else 0
        if row.P != expect_p or row.F != expect_f or row.Z != 0:
            return f"family 2,3,6k+1 fails at k={k}: P={row.P}, F={row.F}, Z={row.Z}"
        # Sigma(2, 3, 6k-1): P = j T^-1 (k = 2j) or j T (k = 2j+1); Z = 8
        row = compute_row(2, 3, 6 * k - 1)
        if k % 2 == 0:
            expect_p = swf.LaurentPolynomial({-1: k // 2})
            expect_f = 0
        else:
            expect_p = swf.LaurentPolynomial({1: (k - 1) // 2})
            expect_f = 8
        if row.P != expect_p or row.F != expect_f or row.Z != 8:
            return f"family 2,3,6k-1 fails at k={k}: P={row.P}, F={row.F}, Z={row.Z}"
    return None


#: Plumbing forms of rank <= 13 whose Theta `verify lattice` recomputes by
#: the full-rank characteristic search: Sigma(2,3,6k+-1) for k <= 2, the
#: odd norm-1-free form of Sigma(3,5,7), and Sigma(3,11,13), which splits
#: off one <-1> and leaves an odd residual.
LATTICE_ORACLE_TRIPLES = ((2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 3, 13), (3, 5, 7), (3, 11, 13))

#: Triples on which `verify lattice` checks Theta = Z: the oracle triples
#: and the rest of the Sigma(2,3,6k+-1), k <= 4, whose splittings it checks.
LATTICE_Z_TRIPLES = LATTICE_ORACLE_TRIPLES + ((2, 3, 17), (2, 3, 19), (2, 3, 23), (2, 3, 25))


def _verify_lattice() -> Optional[str]:
    q = lat.plumbing_form(2, 3, 7)
    if q.matrix != PLUMBING_237:
        return f"plumbing_form(2,3,7) != golden matrix: {q.matrix}"
    if lat.theta_invariant(lat.minus_e8()) != 8:
        return "Theta(-E8) != 8"
    if lat.theta_invariant(q) != 0:
        return "Theta(Gamma_{2,3,7}) != 0"
    for k in range(1, 5):
        diag_rank, residual = lat.hnk_split_diagonalize(lat.plumbing_form(2, 3, 6 * k + 1))
        if residual is not None:
            return f"Gamma_(2,3,{6*k+1}) did not fully diagonalize"
        diag_rank, residual = lat.hnk_split_diagonalize(lat.plumbing_form(2, 3, 6 * k - 1))
        if residual is None or not lat.is_minus_e8(residual):
            return f"Gamma_(2,3,{6*k-1}) residual is not -E8"
    e8 = lat.minus_e8()
    q1 = lat.diagonal_form([-1, -1, -1])
    if lat.theta_invariant(lat.direct_sum(q1, e8)) != 0 + 8:
        return "P4 fails on <-1>^3 + -E8"
    # production Theta goes through the <-1> split; the oracle does not
    for t in LATTICE_ORACLE_TRIPLES:
        q = lat.plumbing_form(*t)
        theta, oracle = lat.theta_invariant(q), lat._theta_search(q)
        if theta != oracle:
            return f"Theta(Gamma_{t}) = {theta}, but the full-rank search gives {oracle}"
    for t in LATTICE_Z_TRIPLES:
        theta, z = lat.theta_invariant(lat.plumbing_form(*t)), swf.froyshov_Z(*t)
        if theta != z:
            return f"Theta(Gamma_{t}) = {theta}, but Z = {z}"
    return None


def _cmd_verify(args, parser) -> int:
    for flag, value in (("--cases", args.cases), ("--k-max", args.k_max)):
        if value < 1:
            parser.error(f"{flag} {value}: must be >= 1")
    seed, cases, k_max = args.seed, args.cases, args.k_max
    eta_cases = min(cases, 50)
    # suite -> (check, what it checked)
    suites = {
        "dedekind-oracle": (
            lambda: _verify_dedekind_oracle(seed, cases),
            f"seed {seed}, {cases} cases",
        ),
        "eta-consistency": (
            lambda: _verify_eta_consistency(seed, eta_cases),
            f"seed {seed}, {eta_cases} cases; series against exact eta(0) and, at a seeded "
            f"s in [-5/2, 5/2], the per-key Hurwitz sum on {min(eta_cases, SERIES_CASES)}",
        ),
        "froyshov-table": (_verify_froyshov_table, f"{len(PAPER_TABLE)} triples"),
        "families": (
            lambda: _verify_families(k_max),
            f"Sigma(2,3,6k+-1) for k = 1..{k_max}, {2 * k_max} triples",
        ),
        "lattice": (
            _verify_lattice,
            "Gamma(2,3,7) matrix, 3 Theta values, 8 splittings, "
            f"Theta against the full-rank search on {len(LATTICE_ORACLE_TRIPLES)} forms, "
            f"Theta = Z on {len(LATTICE_Z_TRIPLES)} triples",
        ),
    }
    if args.suite not in suites:
        parser.error(f"unknown suite {args.suite!r} (choose from {sorted(suites)})")
    check, checked = suites[args.suite]
    failure = check()
    if failure is None:
        print(f"verify {args.suite}: ok ({checked})")
        return 0
    print(f"verify {args.suite}: FAIL: {failure}")
    return 1


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifinv",
        description="Exact invariants of Seifert fibered homology spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dedekind", help="Dedekind-Rademacher sum s(beta, alpha; x, y)")
    p.add_argument("beta", type=int)
    p.add_argument("alpha", type=int)
    p.add_argument("--x", default="0", help="rational shift, p/q")
    p.add_argument("--y", default="0", help="rational shift, p/q")
    p.add_argument(
        "--method",
        choices=["fast", "direct", "both"],
        default="fast",
        help="fast: O(log alpha) (default); direct: the O(sqrt(alpha)) defining sum; both: compare",
    )
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("eta", help="eta invariants of a Seifert fibration")
    p.add_argument("--brieskorn", help="a,b,c")
    p.add_argument("--seifert", help="g:b:a1/b1,a2/b2,...")
    p.add_argument("--gammas", help="coupling weights g1,g2,...")
    p.add_argument("--rho", help="expected fiber holonomy (validated)")
    p.add_argument("--at", help="also evaluate the eta series at this s")
    p.add_argument("--digits", type=int, default=30)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("swf", help="simplex, gradings, Poincare polynomial")
    p.add_argument("--brieskorn", required=True, help="a,b,c")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_swf)

    p = sub.add_parser("froyshov", help="F, 8m and Z of a Brieskorn sphere")
    p.add_argument("--brieskorn", required=True, help="a,b,c")
    p.set_defaults(func=_cmd_froyshov)

    p = sub.add_parser("plumbing", help="Hirzebruch-Jung plumbing form")
    p.add_argument("--brieskorn", required=True, help="a,b,c")
    p.add_argument("--theta", action="store_true")
    p.add_argument("--diagonalize", action="store_true")
    p.add_argument("--matrix", action="store_true")
    p.set_defaults(func=_cmd_plumbing)

    p = sub.add_parser("table", help="batch table of (F, 8m, Z, P)")
    p.add_argument("--triples", nargs="*", help="triples a,b,c")
    p.add_argument("--family", help="e.g. 2,3,6k+1 or 3,3s+1,3s+2")
    p.add_argument("--k", help="family parameter range LO..HI")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--csv", action="store_true")
    group.add_argument("--latex", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument(
        "suite",
        help="dedekind-oracle | eta-consistency | froyshov-table | families | lattice",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--k-max", dest="k_max", type=int, default=50)
    p.set_defaults(func=_cmd_verify)

    return parser


#: Options whose value is a rational that may be negative.
_SIGNED_RATIONAL_OPTIONS = ("--at", "--x", "--y")


def _is_negative_number(arg: str) -> bool:
    """Whether arg starts with "-" and reads as a Fraction literal, such as
    -11/2 or -2.5e-1 (-1/0 included: it is refused once it is joined)."""
    if not arg.startswith("-"):
        return False
    try:
        Fraction(arg)
    except ValueError:
        return False
    except ZeroDivisionError:
        pass
    return True


def _join_negative_values(argv: Sequence[str]) -> List[str]:
    """Rewrite "--at -11/2" as "--at=-11/2".  argparse takes a separate
    "-11/2" or "-1e-3" for an option (only plain negative numbers count as
    values), so the flag would be left without its argument."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_RATIONAL_OPTIONS and _is_negative_number(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args, parser)
    except InvariantError as exc:
        print(f"seifinv: invariant check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
