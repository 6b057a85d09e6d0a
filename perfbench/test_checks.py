"""Each checker accepts the program's real output and rejects a corrupted one.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from seifinv import cli  # noqa: E402


def run(*argv: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def problems(*pairs):
    """check_pass over (argv, output) pairs; the problems of each command."""
    return checks.check_pass([a for a, _ in pairs], [o for _, o in pairs])


def edit_json(out: str, **changes) -> str:
    d = json.loads(out)
    d.update(changes)
    return json.dumps(d)


# ---------------------------------------------------------------------------
# independent arithmetic


def test_delta_count_matches_brute_force():
    for t in [(2, 3, 5), (3, 5, 13), (5, 7, 9), (7, 11, 13)]:
        brute = sum(
            1 for x in range(t[0]) for y in range(t[1]) for z in range(t[2])
            if checks.in_delta((x, y, z), *t)
        )
        assert checks.delta_count(*t) == brute


def test_parse_laurent():
    assert checks.parse_laurent("2T + T^3 + T^7 + T^9 + T^25") == checks.P_579
    assert checks.parse_laurent("3T^-1 - T + 4") == {-1: 3, 1: -1, 0: 4}
    assert checks.parse_laurent("0") == {}
    with pytest.raises(ValueError):
        checks.parse_laurent("2T + junk")


# ---------------------------------------------------------------------------
# Dedekind reciprocity


def test_dedekind_reciprocity():
    a1, a2 = ("dedekind", "5", "17", "--method", "both"), ("dedekind", "17", "5", "--method", "both")
    o1, o2 = run(*a1), run(*a2)
    assert problems((a1, o1), (a2, o2)) == [[], []]
    bad = str(Fraction(o1.strip()) + Fraction(1, 17)) + "\n"
    assert all(problems((a1, bad), (a2, o2)))
    assert problems((a1, o1))[0]  # partner missing


# ---------------------------------------------------------------------------
# F, families, paper table, P(T)


def test_rohlin():
    argv = ("eta", "--brieskorn", "5,7,11")
    out = run(*argv)
    assert problems((argv, out)) == [[]]
    F = Fraction(json.loads(out)["F"])
    assert problems((argv, edit_json(out, F=str(F + 4))))[0]


@pytest.mark.parametrize("c", [7, 13, 11, 17, 31, 29])
def test_family_rows(c):
    argv = ("table", "--triples", f"2,3,{c}")
    out = run(*argv)
    assert problems((argv, out)) == [[]]
    (t, F, eight_m, Z, P), = checks.parse_table_text(out)
    # shift F and Z together: still in 8Z and Z - F = 8m, only the family rule sees it
    assert checks.check_row(t, F + 8, eight_m, Z + 8, P)
    assert not checks.check_row(t, F, eight_m, Z, P)


@pytest.mark.parametrize("c", [6 * 41 + 1, 6 * 41 - 1, 6 * 40 + 1])
def test_family_F_of_eta(c):
    argv = ("eta", "--brieskorn", f"2,3,{c}")
    out = run(*argv)
    assert problems((argv, out)) == [[]]
    F = Fraction(json.loads(out)["F"])
    assert problems((argv, edit_json(out, F=str(F + 8 if F < 8 else F - 8))))[0]


def test_paper_table_and_P579():
    argv = ("table", "--json", "--triples", *(",".join(map(str, t)) for t in checks.PAPER_TABLE))
    out = run(*argv)
    assert problems((argv, out)) == [[]]
    rows = json.loads(out)
    r357 = next(r for r in rows if r["triple"] == [3, 5, 7])
    r357["F"], r357["Z"] = "8", "16"  # consistent with Rohlin and Z - F = 8m
    assert problems((argv, json.dumps(rows)))[0]
    rows = json.loads(out)
    r579 = next(r for r in rows if r["triple"] == [5, 7, 9])
    r579["P"] = {"1": 2, "3": 1, "7": 1, "9": 1, "23": 1}  # same count, odd, same m
    assert problems((argv, json.dumps(rows)))[0]


def test_P_properties():
    argv = ("froyshov", "--brieskorn", "7,11,13")
    out = run(*argv)
    assert problems((argv, out)) == [[]]
    d = json.loads(out)
    P = {int(e): c for e, c in d["P"].items()}
    e0 = max(P)
    even = dict(P)
    even[e0 + 1] = even.pop(e0)
    extra = dict(P)
    extra[e0 + 2] = 1
    for bad in (
        edit_json(out, P={str(e): c for e, c in even.items()}),  # an even exponent
        edit_json(out, P={str(e): c for e, c in extra.items()}),  # more terms than |Delta|
        edit_json(out, eight_m=d["eight_m"] + 8, Z=str(Fraction(d["Z"]) + 8)),  # m not from P
        edit_json(out, Z=str(Fraction(d["Z"]) + 8)),  # Z - F != 8m
    ):
        assert problems((argv, bad))[0]


# ---------------------------------------------------------------------------
# swf against its own Delta and the table


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_swf_against_table(fmt):
    t = "5,7,13"
    swf_argv = ("swf", *fmt, "--brieskorn", t)
    table_argv = ("table", "--triples", t)
    swf_out, table_out = run(*swf_argv), run(*table_argv)
    assert problems((swf_argv, swf_out), (table_argv, table_out)) == [[], []]
    assert problems((swf_argv, swf_out))[0]  # no table row to compare with
    if fmt:
        d = json.loads(swf_out)
        d["delta"][0]["n_plus"] += 2
        graded = json.dumps(d)
        d = json.loads(swf_out)
        d["delta"][0]["energy"] = "0"
        energy = json.dumps(d)
        d = json.loads(swf_out)
        d["delta"] = d["delta"][1:]
        missing = json.dumps(d)
    else:
        lines = swf_out.splitlines()
        n = int(lines[1].split("n_+ = ")[1].split(",")[0])
        graded = "\n".join([lines[0], lines[1].replace(f"n_+ = {n},", f"n_+ = {n + 2},"), *lines[2:]])
        energy = "\n".join([lines[0], lines[1].split(", E = ")[0] + ", E = 0", *lines[2:]])
        missing = "\n".join([lines[0].replace(f"= {len(lines) - 2}", f"= {len(lines) - 3}"), *lines[2:]])
    for bad in (graded, energy, missing):
        assert problems((swf_argv, bad), (table_argv, table_out))[0]


# ---------------------------------------------------------------------------
# eta series against mpmath


def test_eta_series_reference():
    argv = ("eta", "--brieskorn", "2,3,7", "--at=1/2", "--digits", "20")
    out = run(*argv)
    assert problems((argv, out)) == [[]]
    d = json.loads(out)
    text, _, digits = d["eta_at"]["value"].partition("@")
    last = int(text[-1])
    wrong = text[:-1] + str((last + 5) % 10)
    assert problems((argv, edit_json(out, eta_at=dict(d["eta_at"], value=f"{wrong}@{digits}"))))[0]


def test_eta_series_all_odd_triple():
    argv = ("eta", "--brieskorn", "3,5,7", "--at=-3/4", "--digits", "15")
    assert problems((argv, run(*argv))) == [[]]


def test_eta_series_traced_eps():
    from mpmath import mp

    from seifinv import eta
    from seifinv.seifert import brieskorn

    argv = ("eta", "--brieskorn", "2,3,7", "--at=3/2", "--digits", "15")
    out = run(*argv)
    val = eta.eta_series(eta.trivial_flat_context(brieskorn(2, 3, 7)), Fraction(3, 2), 15)
    assert checks.check_pass([argv], [out], [(val.value, val.eps)]) == [[]]
    off = val.value + 100 * val.eps
    with mp.workdps(60):
        assert checks.check_pass([argv], [out], [(off, val.eps)])[0]


# ---------------------------------------------------------------------------
# Theta and the splitting


@pytest.mark.parametrize("c", [29, 31])
def test_theta_families(c):
    argv = ("plumbing", "--brieskorn", f"2,3,{c}", "--theta", "--diagonalize")
    out = run(*argv)
    assert problems((argv, out)) == [[]]
    d = json.loads(out)
    if d["residual"] is None:  # 6k+1: Theta 0, fully split
        bad = [edit_json(out, theta=8),
               edit_json(out, diagonal_rank=d["rank"] - 8,
                         residual={"rank": 8, "even": True, "is_minus_e8": True}, theta=8)]
    else:  # 6k-1: Theta 8, -E8 left over
        bad = [edit_json(out, theta=0), edit_json(out, theta=16),
               edit_json(out, residual=dict(d["residual"], is_minus_e8=False))]
    for b in bad:
        assert problems((argv, b))[0]


def test_theta_odd_residual():
    argv = ("plumbing", "--brieskorn", "3,5,7", "--theta", "--diagonalize")
    out = run(*argv)
    assert problems((argv, out)) == [[]]
    d = json.loads(out)
    for bad in (
        edit_json(out, theta=0),  # Theta 0 with a residual left
        edit_json(out, theta=d["residual"]["rank"]),  # an odd residual cannot reach its rank
        edit_json(out, diagonal_rank=d["diagonal_rank"] + 1),  # ranks do not add up
        edit_json(out, det=-d["det"]),
    ):
        assert problems((argv, bad))[0]
