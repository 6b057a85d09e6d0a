"""Seeded command lines for the four benchmark workloads.

Each workload is a fixed list of slots; the seed picks the concrete
inputs inside each slot.  A slot's inputs are drawn from a narrow size
window (and a fixed parity pattern where the program's route depends on
parity), so the work of one pass barely changes from seed to seed while
the numbers the program sees do.

Every workload also carries one or two tiny probe commands that reach
the layers its main commands do not (``froyshov`` on a small triple for
swfloer/eta/dedekind, ``plumbing`` on a small family member for
lattice).  They keep every per-layer metric a measured, nonzero value on
every workload, and cost one process start each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Triple = Tuple[int, int, int]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the argument list after ``seifinv``, and the
    sum of the moduli it names (the alphas of its triple, or the alpha of
    a Dedekind sum), which is the size its O(alpha) work scales with."""

    argv: Tuple[str, ...]
    alpha_sum: int


# The paper's tabulated triples, (F, 8m, Z) known for each.
PAPER_TRIPLES: Tuple[Triple, ...] = (
    (2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 3, 13), (2, 3, 17),
    (3, 5, 7), (3, 5, 11), (3, 5, 13), (5, 7, 9),
)

# Triples with exponents <= 13 whose plumbing lattice keeps a norm-1-free
# residual after splitting (odd of rank 12, or even of rank 8, 16 or 24);
# Theta and the split each take under 0.1 s on all of them.
NORM1_FREE_POOL: Tuple[Triple, ...] = (
    (2, 7, 11), (4, 5, 9), (5, 6, 11), (5, 7, 13), (7, 9, 13), (8, 9, 13),
    (3, 11, 13), (2, 7, 13), (4, 7, 9), (6, 7, 13), (6, 11, 13), (2, 11, 13),
    (5, 12, 13), (8, 9, 11),
)


def _fmt_triple(t: Sequence[int]) -> str:
    return ",".join(str(x) for x in t)


def _pairwise_coprime(t: Sequence[int]) -> bool:
    return all(gcd(t[i], t[j]) == 1 for i in range(len(t)) for j in range(i + 1, len(t)))


def _triple_in_window(
    rng: random.Random, lo: int, hi: int, parities: Tuple[Optional[int], ...]
) -> Triple:
    """Pairwise coprime distinct exponents in [lo, hi]; parities[i] is the
    required residue mod 2 of the i-th exponent, or None."""
    while True:
        t = tuple(
            rng.randrange(lo + ((p - lo) % 2), hi + 1, 2) if p is not None else rng.randint(lo, hi)
            for p in parities
        )
        if len(set(t)) == 3 and _pairwise_coprime(t):
            return t


def _triple_with_product(
    rng: random.Random, lo: int, hi: int, abc_lo: int, abc_hi: int
) -> Triple:
    """Pairwise coprime exponents in [lo, hi] with abc in [abc_lo, abc_hi]."""
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        c_lo = max(lo, -(-abc_lo // (a * b)))
        c_hi = min(hi, abc_hi // (a * b))
        if c_lo > c_hi:
            continue
        t = tuple(sorted((a, b, rng.randint(c_lo, c_hi))))
        if len(set(t)) == 3 and _pairwise_coprime(t):
            return t


def _triple_with_sum(rng: random.Random, total_lo: int, total_hi: int, one_even: bool) -> Triple:
    """Pairwise coprime exponents >= 2 with a + b + c in [total_lo, total_hi];
    exactly one even exponent if one_even, else all odd.  On a Brieskorn
    sphere this fixes the trivial class's holonomy: rho = 1/2 with an even
    exponent, rho = 0 with none."""
    while True:
        total = rng.randint(total_lo, total_hi)
        a = rng.randint(2, total // 3)
        b = rng.randint(2, total - a - 2)
        t = (a, b, total - a - b)
        evens = sum(1 for x in t if x % 2 == 0)
        if evens == (1 if one_even else 0) and len(set(t)) == 3 and _pairwise_coprime(t):
            return tuple(sorted(t))


def _family_member(rng: random.Random, c_lo: int, c_hi: int) -> Triple:
    """Sigma(2, 3, 6k +- 1) with c in [c_lo, c_hi], sign drawn at random."""
    while True:
        c = rng.randint(c_lo, c_hi)
        if c % 6 in (1, 5):
            return (2, 3, c)


def _probe_froyshov(rng: random.Random) -> Command:
    while True:
        t = tuple(sorted(rng.sample(range(2, 14), 3)))
        if _pairwise_coprime(t):
            return Command(("froyshov", "--brieskorn", _fmt_triple(t)), sum(t))


def _probe_plumbing(rng: random.Random) -> Command:
    return _plumbing(_family_member(rng, 5, 25))  # rank <= 11


def _eta(t: Triple, *extra: str) -> Command:
    return Command(("eta", "--brieskorn", _fmt_triple(t), *extra), sum(t))


def _plumbing(t: Triple) -> Command:
    return Command(("plumbing", "--brieskorn", _fmt_triple(t), "--theta", "--diagonalize"), sum(t))


def exact_eta(rng: random.Random) -> List[Command]:
    """Exact eta(0) and F, pullback couplings beside their Serre duals, and
    Dedekind sums beside their reciprocal partners, at alpha up to 5*10^5."""
    cmds = [
        # all-odd exponents: rho = 0, the pullback (corner-sum) route
        _eta(_triple_in_window(rng, 68_000, 70_000, (1, 1, 1))),
        # one even exponent: rho = 1/2, the flat (double-sum) route
        _eta(_triple_in_window(rng, 68_000, 70_000, (0, 1, 1))),
        _eta(_family_member(rng, 490_000, 500_000)),
    ]
    t = _triple_in_window(rng, 4_900, 5_000, (None, None, None))
    gammas = tuple(rng.randrange(a) for a in t)
    dual = tuple(a - 1 - g for a, g in zip(t, gammas))
    cmds += [_eta(t, "--gammas", _fmt_triple(gammas)), _eta(t, "--gammas", _fmt_triple(dual))]
    while True:
        alpha = rng.randint(490_000, 500_000)
        beta = rng.randint(40 * alpha // 100, 45 * alpha // 100)
        if gcd(alpha, beta) == 1:
            break
    cmds += [
        Command(("dedekind", str(beta), str(alpha), "--method", "both"), alpha),
        Command(("dedekind", str(alpha), str(beta), "--method", "both"), beta),
    ]
    return cmds + [_probe_froyshov(rng), _probe_plumbing(rng)]


def swf_table(rng: random.Random) -> List[Command]:
    """Batch tables with every exponent <= 110, and swf on two triples
    with abc ~ 6*10^3 (once as text, once as JSON)."""
    big = _triple_with_product(rng, 90, 110, 1_050_000, 1_100_000)
    mids = [_triple_with_product(rng, 30, 60, 90_000, 100_000) for _ in range(2)]
    fams = [_family_member(rng, 5, 600) for _ in range(4)]
    swf1 = _triple_with_product(rng, 12, 30, 6_000, 6_300)
    swf2 = _triple_with_product(rng, 12, 30, 6_000, 6_300)
    batch = list(PAPER_TRIPLES) + fams + mids + [swf1, swf2]
    return [
        Command(("table", "--triples", _fmt_triple(big)), sum(big)),
        Command(
            ("table", "--json", "--triples", *(_fmt_triple(t) for t in batch)),
            sum(sum(t) for t in batch),
        ),
        Command(("swf", "--brieskorn", _fmt_triple(swf1)), sum(swf1)),
        Command(("swf", "--json", "--brieskorn", _fmt_triple(swf2)), sum(swf2)),
        _probe_plumbing(rng),
    ]


# (s, digits, alpha-sum window, one even exponent).  s and digits are
# fixed per slot because the cost of a Hurwitz evaluation jumps with them;
# s stays in [-3/2, 5/2] and digits <= 40, where the reported eps covers
# the error.
_SERIES_SLOTS = (
    ("-3/2", 15, (100, 106), True),
    ("-3/4", 30, (36, 40), False),
    ("-1/2", 40, (26, 30), True),
    ("1/4", 20, (70, 76), False),
    ("1/2", 30, (144, 150), True),  # the largest case
    ("7/4", 25, (46, 50), False),
    ("5/2", 20, (80, 86), True),
)


def eta_series(rng: random.Random) -> List[Command]:
    """Numeric eta(s) at non-integer s through the Hurwitz series, over
    triples with sum of exponents <= 150."""
    cmds = []
    for s, digits, (lo, hi), one_even in _SERIES_SLOTS:
        t = _triple_with_sum(rng, lo, hi, one_even)
        cmds.append(_eta(t, f"--at={s}", "--digits", str(digits)))
    return cmds + [_probe_froyshov(rng), _probe_plumbing(rng)]


def lattice_theta(rng: random.Random) -> List[Command]:
    """Theta and the <-1> splitting on a rank ladder up to 18, plus
    lattices that keep a norm-1-free residual."""
    fixed = [(3, 5, 7), (2, 5, 9), (2, 3, 53), (2, 3, 65)]
    seeded = [_family_member(rng, 5, 30), rng.choice(NORM1_FREE_POOL)]
    return [_plumbing(t) for t in seeded + fixed] + [_probe_froyshov(rng)]


WORKLOADS: Dict[str, Callable[[random.Random], List[Command]]] = {
    "exact-eta": exact_eta,
    "swf-table": swf_table,
    "eta-series": eta_series,
    "lattice-theta": lattice_theta,
}


def build(workload: str, seed: int) -> List[Command]:
    """The command list of one pass; the same (workload, seed) always
    gives the same commands."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
