"""Output checkers that do not depend on the program's own code.

Every expected value here is either an external fact (the paper's
tables, the Sigma(2, 3, 6k +- 1) closed forms, the Dedekind reciprocity
law, Rohlin's theorem) or is recomputed in this file from the problem
statement (lattice points of Delta, the first gap m(P), the energies,
the eta series from ``mpmath.zeta``).  The checkers read the CLI's
printed output, so they stay valid across any refactor that keeps the
output format.

``check_pass`` takes the commands of one pass with their outputs and
returns, per command, the list of problems found (empty when correct).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import floor
from typing import Dict, List, Optional, Sequence, Tuple

Triple = Tuple[int, int, int]
Poly = Dict[int, int]

# (F, 8m, Z) of the paper's table.
PAPER_TABLE: Dict[Triple, Tuple[int, int, int]] = {
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
# P(Sigma(5, 7, 9)) = 2T + T^3 + T^7 + T^9 + T^25
P_579: Poly = {1: 2, 3: 1, 7: 1, 9: 1, 25: 1}


# ---------------------------------------------------------------------------
# independent arithmetic


def parse_laurent(text: str) -> Poly:
    """'2T + T^3 - T^-1 + 4' -> {1: 2, 3: 1, -1: -1, 0: 4}; '0' -> {}."""
    text = text.strip()
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    out: Poly = {}
    for sign, term in zip(["+"] + parts[1::2], parts[0::2]):
        m = re.fullmatch(r"(\d*)T(?:\^(-?\d+))?|(\d+)", term)
        if not m:
            raise ValueError(f"cannot parse term {term!r} of {text!r}")
        if m.group(3) is not None:
            exp, coeff = 0, int(m.group(3))
        else:
            exp = int(m.group(2)) if m.group(2) is not None else 1
            coeff = int(m.group(1)) if m.group(1) else 1
        if exp in out:
            raise ValueError(f"repeated exponent {exp} in {text!r}")
        out[exp] = -coeff if sign == "-" else coeff
    return out


def delta_bound(a: int, b: int, c: int) -> int:
    """(x, y, z) lies in Delta iff 2(x bc + y ac + z ab) < abc - bc - ac - ab,
    i.e. x/a + y/b + z/c < kappa/2 with kappa = 1 - 1/a - 1/b - 1/c."""
    return a * b * c - b * c - a * c - a * b


def delta_count(a: int, b: int, c: int) -> int:
    """|Delta(a, b, c)|, counting the z-column in closed form."""
    bound = delta_bound(a, b, c)
    total = 0
    for x in range(a):
        for y in range(b):
            rest = bound - 2 * (x * b * c + y * a * c)
            if rest <= 0:
                break
            total += min(c, (rest - 1) // (2 * a * b) + 1)
    return total


def in_delta(p: Sequence[int], a: int, b: int, c: int) -> bool:
    x, y, z = p
    if not (0 <= x < a and 0 <= y < b and 0 <= z < c):
        return False
    return 2 * (x * b * c + y * a * c + z * a * b) < delta_bound(a, b, c)


def energy(p: Sequence[int], a: int, b: int, c: int) -> Fraction:
    """E(p) = nu^2 / ell with nu = x/a + y/b + z/c - kappa/2, ell = -1/abc."""
    x, y, z = p
    kappa = 1 - Fraction(1, a) - Fraction(1, b) - Fraction(1, c)
    nu = Fraction(x, a) + Fraction(y, b) + Fraction(z, c) - kappa / 2
    return -(a * b * c) * nu * nu


def gap_m(P: Poly) -> int:
    """Least m >= 0 whose coefficient at T^-(2m+1) vanishes."""
    m = 0
    while P.get(-(2 * m + 1), 0) != 0:
        m += 1
    return m


def family(t: Triple) -> Optional[Tuple[int, int]]:
    """(sign, k) if sorted t = (2, 3, 6k + sign), else None."""
    a, b, c = sorted(t)
    if (a, b) != (2, 3) or c % 6 not in (1, 5):
        return None
    return (1, (c - 1) // 6) if c % 6 == 1 else (-1, (c + 1) // 6)


def family_row(sign: int, k: int) -> Tuple[int, int, Poly]:
    """(F, Z, P) of Sigma(2, 3, 6k + sign).

    6k+1: Z = 0; F = -8, P = ((k+1)/2) T^-1 for odd k; F = 0, P = (k/2) T for even k.
    6k-1: Z = 8; F = 8, P = ((k-1)/2) T for odd k; F = 0, P = (k/2) T^-1 for even k.
    """
    odd = k % 2 == 1
    if sign == 1:
        return (-8, 0, {-1: (k + 1) // 2}) if odd else (0, 0, {1: k // 2})
    P = {1: (k - 1) // 2} if odd else {-1: k // 2}
    return (8 if odd else 0, 8, {e: c for e, c in P.items() if c})


def brieskorn_flat_data(t: Triple):
    """Seifert data of Sigma(a, b, c) and the trivial class's canonical flat
    connection: (betas, ell, rho, gammas).

    beta_i (abc/alpha_i) = -1 mod alpha_i, ell = -1/abc.  The canonical
    representative is k L0 with k = floor(t), t = deg K / (2 ell), rho = {t};
    its weights are k beta_i mod alpha_i.
    """
    abc = t[0] * t[1] * t[2]
    betas = tuple((-pow((abc // a) % a, -1, a)) % a for a in t)
    ell = Fraction(-1, abc)
    deg_k = -2 + sum(Fraction(a - 1, a) for a in t)
    shift = deg_k / (2 * ell)
    k = floor(shift)
    gammas = tuple((k * b) % a for a, b in zip(t, betas))
    return betas, ell, shift - k, gammas


def _frac(x: Fraction) -> Fraction:
    return x - floor(x)


def eta_series_reference(t: Triple, s: Fraction, digits: int):
    """eta(s) of the trivial class's flat connection on Sigma(a, b, c),
    summed from ``mpmath.zeta(s, a)`` at 2*digits + 20 decimal digits.

    rho = 0:  -2 ell zeta(s-1) + sum_i alpha_i^-s sum_{r=1}^{alpha_i-1}
              ({(g_i + r b_i)/alpha_i} - {(g_i - r b_i)/alpha_i}) zeta(s, r/alpha_i)
    rho > 0:  w (zeta(s, rho) - zeta(s, 1-rho))
              - sum_i alpha_i^-s sum_{k=0}^{alpha_i-1} {(g_i - k b_i)/alpha_i}
                (zeta(s, x_ik) - zeta(s, 1 - x_ik)),  x_ik = {(k + rho)/alpha_i}
              - ell (zeta(s-1, rho) + zeta(s-1, 1-rho)),
              w = sum_i (alpha_i - 1)/(2 alpha_i).
    """
    import mpmath
    from mpmath import mp

    betas, ell, rho, gammas = brieskorn_flat_data(t)
    with mp.workdps(2 * digits + 20):
        def q(x: Fraction):
            return mp.mpf(x.numerator) / x.denominator

        S = q(s)
        zeta = mpmath.zeta
        if rho == 0:
            total = -2 * q(ell) * zeta(S - 1)
            for a, b, g in zip(t, betas, gammas):
                scale = mp.mpf(a) ** (-S)
                for r in range(1, a):
                    f = _frac(Fraction(g + r * b, a)) - _frac(Fraction(g - r * b, a))
                    if f:
                        total += q(f) * scale * zeta(S, q(Fraction(r, a)))
        else:
            w = sum(Fraction(a - 1, 2 * a) for a in t)
            total = q(w) * (zeta(S, q(rho)) - zeta(S, q(1 - rho)))
            for a, b, g in zip(t, betas, gammas):
                scale = mp.mpf(a) ** (-S)
                for k in range(a):
                    f = _frac(Fraction(g - k * b, a))
                    if f:
                        x = _frac((k + rho) / a)
                        total -= q(f) * scale * (zeta(S, q(x)) - zeta(S, q(1 - x)))
            total -= q(ell) * (zeta(S - 1, q(rho)) + zeta(S - 1, q(1 - rho)))
        return +total


# ---------------------------------------------------------------------------
# per-output checks; each returns a list of problems


def check_row(t: Triple, F: Fraction, eight_m: int, Z: Fraction, P: Poly) -> List[str]:
    """One (F, 8m, Z, P) row of Sigma(t)."""
    errs = []
    if F.denominator != 1 or F.numerator % 8:
        errs.append(f"F = {F} is not in 8Z")
    if any(e % 2 == 0 for e in P):
        errs.append(f"P = {P} has an even exponent")
    if any(c <= 0 for c in P.values()):
        errs.append(f"P = {P} has a nonpositive coefficient")
    count = delta_count(*t)
    if sum(P.values()) != count:
        errs.append(f"P has {sum(P.values())} terms, |Delta| = {count}")
    m = gap_m(P)
    if eight_m != 8 * m:
        errs.append(f"8m = {eight_m}, but P gives m = {m}")
    if Z - F != 8 * m:
        errs.append(f"Z - F = {Z - F}, but 8m(P) = {8 * m}")
    fam = family(t)
    if fam is not None:
        f_exp, z_exp, p_exp = family_row(*fam)
        if (F, Z, P) != (f_exp, z_exp, p_exp):
            errs.append(f"family 6k{fam[0]:+d}, k={fam[1]}: got F={F}, Z={Z}, P={P}; "
                        f"want F={f_exp}, Z={z_exp}, P={p_exp}")
    key = tuple(sorted(t))
    if key in PAPER_TABLE and (F, eight_m, Z) != PAPER_TABLE[key]:
        errs.append(f"(F, 8m, Z) = ({F}, {eight_m}, {Z}), paper has {PAPER_TABLE[key]}")
    if key == (5, 7, 9) and P != P_579:
        errs.append(f"P(5,7,9) = {P}, paper has {P_579}")
    return errs


def parse_table_text(out: str) -> List[Tuple[Triple, Fraction, int, Fraction, Poly]]:
    rows = []
    for line in out.splitlines()[1:]:
        m = re.fullmatch(r"\s*\((\d+), (\d+), (\d+)\)\s+(\S+)\s+(\S+)\s+(\S+)  (.*)", line)
        if not m:
            raise ValueError(f"unparsable table row {line!r}")
        t = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
        rows.append((t, Fraction(m.group(4)), int(m.group(5)), Fraction(m.group(6)),
                     parse_laurent(m.group(7))))
    return rows


def _row_from_json(r: dict):
    return (tuple(r["triple"]), Fraction(r["F"]), int(r["eight_m"]), Fraction(r["Z"]),
            {int(e): int(c) for e, c in r["P"].items()})


def parse_swf(out: str, as_json: bool):
    """-> (triple, [(point, n_plus, energy)], P, m or None)."""
    if as_json:
        d = json.loads(out)
        pts = [(tuple(p["point"]), int(p["n_plus"]), Fraction(p["energy"])) for p in d["delta"]]
        return tuple(d["triple"]), pts, {int(e): int(c) for e, c in d["P"].items()}, int(d["m"])
    lines = out.splitlines()
    head = re.fullmatch(r"Sigma\((\d+),(\d+),(\d+)\): \|Delta\| = (\d+)", lines[0])
    if not head or not lines[-1].startswith("P = "):
        raise ValueError("unparsable swf output")
    pts = []
    for line in lines[1:-1]:
        m = re.fullmatch(r"  \((\d+), (\d+), (\d+)\): n_\+ = (-?\d+), E = (\S+)", line)
        if not m:
            raise ValueError(f"unparsable swf point {line!r}")
        pts.append(((int(m.group(1)), int(m.group(2)), int(m.group(3))), int(m.group(4)),
                    Fraction(m.group(5))))
    if len(pts) != int(head.group(4)):
        raise ValueError(f"swf prints |Delta| = {head.group(4)} but {len(pts)} points")
    t = (int(head.group(1)), int(head.group(2)), int(head.group(3)))
    return t, pts, parse_laurent(lines[-1][4:]), None


def check_swf(t: Triple, pts, P: Poly, m: Optional[int]) -> List[str]:
    errs = []
    count = delta_count(*t)
    if len(pts) != count:
        errs.append(f"{len(pts)} points printed, |Delta| = {count}")
    if len({p for p, _, _ in pts}) != len(pts):
        errs.append("a point of Delta is printed twice")
    agg: Poly = {}
    for p, n, e in pts:
        if not in_delta(p, *t):
            errs.append(f"{p} is not in Delta{t}")
        if n % 2 == 0:
            errs.append(f"grading n_+ = {n} at {p} is even")
        if e != energy(p, *t):
            errs.append(f"E{p} = {e}, want {energy(p, *t)}")
        agg[n] = agg.get(n, 0) + 1
    if agg != P:
        errs.append(f"gradings aggregate to {agg}, but P = {P}")
    if m is not None and m != gap_m(P):
        errs.append(f"m = {m}, but P gives {gap_m(P)}")
    return errs[:5]


def check_plumbing(d: dict) -> List[str]:
    errs = []
    t, rk, theta, split = tuple(d["triple"]), d["rank"], d["theta"], d["diagonal_rank"]
    res = d["residual"]
    if d["det"] != (-1) ** rk:
        errs.append(f"det = {d['det']}, a negative definite unimodular form has {(-1) ** rk}")
    if theta % 8 or not 0 <= theta <= rk:
        errs.append(f"Theta = {theta} is not a multiple of 8 in [0, {rk}]")
    res_rank = 0 if res is None else res["rank"]
    if split + res_rank != rk:
        errs.append(f"{split} splits + residual rank {res_rank} != rank {rk}")
    if (theta == 0) != (res is None):
        errs.append(f"Theta = {theta} but residual is {res}")
    if res is not None:
        if res["even"] and theta != res["rank"]:
            errs.append(f"even residual of rank {res['rank']} but Theta = {theta}")
        if not res["even"] and theta >= res["rank"]:
            errs.append(f"odd residual of rank {res['rank']} but Theta = {theta}")
        if res["is_minus_e8"] != (res["rank"] == 8 and res["even"]):
            errs.append(f"residual {res} mislabelled as -E8 or not")
    fam = family(t)
    if fam is not None and fam[0] == -1:
        if (theta, res_rank, split) != (8, 8, rk - 8) or not (res and res["is_minus_e8"]):
            errs.append(f"6k-1 family: want Theta 8, -E8 residual, {rk - 8} splits; got {d}")
    if fam is not None and fam[0] == 1 and (theta, res, split) != (0, None, rk):
        errs.append(f"6k+1 family: want Theta 0, no residual, {rk} splits; got {d}")
    return errs


def check_series(t: Triple, d: dict, traced: Optional[Tuple[object, object]]) -> List[str]:
    """The printed digits of eta(s) against the mpmath reference; with the
    traced (value, eps) also |value - ref| <= eps."""
    from mpmath import mp

    at = d["eta_at"]
    s, digits = Fraction(at["s"]), int(at["digits"])
    _, _, rho, gammas = brieskorn_flat_data(t)
    if (Fraction(d["rho"]), tuple(d["gammas"])) != (rho, gammas):
        return [f"flat connection (rho, gammas) = ({d['rho']}, {d['gammas']}), want ({rho}, {gammas})"]
    text, _, printed_digits = at["value"].partition("@")
    if int(printed_digits) != digits:
        return [f"value printed at {printed_digits} digits, {digits} asked"]
    ref = eta_series_reference(t, s, digits)
    errs = []
    with mp.workdps(2 * digits + 20):
        ulp = mp.mpf(10) ** (int(mp.floor(mp.log10(abs(ref)))) - digits + 1)
        err = abs(mp.mpf(text) - ref)
        if err > ulp:
            errs.append(f"eta({s}) printed {text}, reference {mp.nstr(ref, digits + 3)}")
        if traced is not None:
            value, eps = traced
            if abs(value - ref) > eps:
                errs.append(f"eta({s}) at {digits} digits: error {mp.nstr(abs(value - ref), 3)} "
                            f"exceeds the reported eps {mp.nstr(eps, 3)}")
    return errs


# ---------------------------------------------------------------------------
# one pass


def _opt(argv: Sequence[str], flag: str) -> Optional[str]:
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return None


def _triple_arg(text: str) -> Triple:
    return tuple(int(x) for x in text.split(","))


def check_pass(
    argvs: Sequence[Sequence[str]],
    outputs: Sequence[str],
    traced_series: Optional[Sequence[Optional[Tuple[object, object]]]] = None,
) -> List[List[str]]:
    """Problems found in each command's output.  Cross-command properties
    (Dedekind reciprocity, Serre duality, swf against table) are charged to
    every command they involve; a command whose partner is missing from
    the pass is a problem too."""
    errs: List[List[str]] = [[] for _ in argvs]
    dedekind: Dict[Tuple[int, int], Tuple[int, Fraction]] = {}
    pullbacks: Dict[Tuple[Triple, Tuple[int, ...]], Tuple[int, Fraction]] = {}
    table_P: Dict[Triple, Poly] = {}
    swf_P: List[Tuple[int, Triple, Poly]] = []

    for i, (argv, out) in enumerate(zip(argvs, outputs)):
        try:
            cmd = argv[0]
            if cmd == "dedekind":
                beta, alpha = int(argv[1]), int(argv[2])
                dedekind[(beta, alpha)] = (i, Fraction(out.strip()))
            elif cmd == "eta":
                d = json.loads(out)
                t = _triple_arg(_opt(argv, "--brieskorn"))
                if tuple(d["triple"]) != t or Fraction(d["ell"]) != Fraction(-1, t[0] * t[1] * t[2]):
                    errs[i].append(f"triple/ell echo {d['triple']}, {d['ell']}")
                if _opt(argv, "--gammas") is not None:
                    pullbacks[(t, tuple(d["gammas"]))] = (i, Fraction(d["eta0"]))
                else:
                    F = Fraction(d["F"])
                    if F.denominator != 1 or F.numerator % 8:
                        errs[i].append(f"F = {F} is not in 8Z")
                    fam = family(t)
                    if fam is not None and F != family_row(*fam)[0]:
                        errs[i].append(f"F = {F}, family 6k{fam[0]:+d} k={fam[1]} has {family_row(*fam)[0]}")
                if "eta_at" in d:
                    traced = traced_series[i] if traced_series else None
                    errs[i] += check_series(t, d, traced)
            elif cmd == "froyshov":
                row = _row_from_json(json.loads(out))
                if row[0] != _triple_arg(_opt(argv, "--brieskorn")):
                    errs[i].append(f"triple echo {row[0]}")
                errs[i] += check_row(*row)
                table_P[row[0]] = row[4]
            elif cmd == "table":
                rows = ([_row_from_json(r) for r in json.loads(out)] if "--json" in argv
                        else parse_table_text(out))
                asked = [_triple_arg(x) for x in argv[argv.index("--triples") + 1:]]
                if [r[0] for r in rows] != asked:
                    errs[i].append(f"rows for {[r[0] for r in rows]}, asked {asked}")
                for row in rows:
                    errs[i] += check_row(*row)
                    table_P[row[0]] = row[4]
            elif cmd == "swf":
                t, pts, P, m = parse_swf(out, "--json" in argv)
                if t != _triple_arg(_opt(argv, "--brieskorn")):
                    errs[i].append(f"triple echo {t}")
                errs[i] += check_swf(t, pts, P, m)
                swf_P.append((i, t, P))
            elif cmd == "plumbing":
                d = json.loads(out)
                if tuple(d["triple"]) != _triple_arg(_opt(argv, "--brieskorn")):
                    errs[i].append(f"triple echo {d['triple']}")
                errs[i] += check_plumbing(d)
            else:
                errs[i].append(f"no checker for {cmd!r}")
        except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
            errs[i].append(f"unparsable output: {exc!r}")

    for (beta, alpha), (i, s1) in dedekind.items():
        if (alpha, beta) not in dedekind:
            errs[i].append("reciprocal partner missing from the pass")
            continue
        j, s2 = dedekind[(alpha, beta)]
        if s1 + s2 != Fraction(-1, 4) + Fraction(
            alpha * alpha + beta * beta + 1, 12 * alpha * beta
        ):
            errs[i].append(f"s({beta},{alpha}) + s({alpha},{beta}) = {s1 + s2} breaks reciprocity")
    for (t, g), (i, eta0) in pullbacks.items():
        dual = tuple(a - 1 - x for a, x in zip(t, g))
        if (t, dual) not in pullbacks:
            errs[i].append("Serre dual coupling missing from the pass")
        elif pullbacks[(t, dual)][1] != eta0:
            errs[i].append(f"eta(0) = {eta0} differs from its Serre dual {pullbacks[(t, dual)][1]}")
    for i, t, P in swf_P:
        if t not in table_P:
            errs[i].append("no table row for this triple in the pass")
        elif table_P[t] != P:
            errs[i].append(f"swf P = {P}, table P = {table_P[t]}")
    return errs
