"""CLI surface: subcommands, emitters, exit codes, verify suites."""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from seifinv import cli, dedekind, lattice, swfloer
from seifinv import eta as eta_mod
from seifinv.cli import PLUMBING_237, main
from seifinv.numkernel import BigFloat
from seifinv.seifert import brieskorn
from seifinv.swfloer import LaurentPolynomial
from tests.test_eta import _series_oracle

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args, limit_bytes=None):
    """Run a fresh interpreter on the package sources, optionally under an
    address-space limit."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=limit if limit_bytes else None,
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dedekind_command(capsys):
    code, out = run(capsys, "dedekind", "4", "7", "--x", "2/7")
    assert code == 0
    assert out.strip() == "-3/28"


def test_dedekind_default_never_runs_the_oracle(capsys, monkeypatch):
    # the defining sum runs only under --method direct or both
    def refuse(*args):
        raise AssertionError("dr_sum_direct called")

    monkeypatch.setattr(dedekind, "dr_sum_direct", refuse)
    assert run(capsys, "dedekind", "4", "7", "--x", "2/7") == (0, "-3/28\n")
    assert run(capsys, "dedekind", "1", "1000000007") == (0, "166666668500000005/2000000014\n")


def test_dedekind_both_reports_mismatch(capsys, monkeypatch):
    direct = dedekind.dr_sum_direct
    monkeypatch.setattr(dedekind, "dr_sum_direct", lambda *args: direct(*args) + Fraction(1, 7))
    code, out = run(capsys, "dedekind", "4", "7", "--x", "2/7", "--method", "both")
    assert (code, out) == (1, "MISMATCH fast=-3/28 direct=1/28\n")


def test_dedekind_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dedekind", "2", "4"])
    assert exc.value.code == 2


def test_eta_command_trivial_class(capsys):
    code, out = run(capsys, "eta", "--brieskorn", "2,3,5")
    assert code == 0
    data = json.loads(out)
    assert data["rho"] == "1/2"
    assert data["eta0"] == "539/360"
    assert data["F"] == "8"
    assert data["ell"] == "-1/30"


def test_eta_command_pullback_gammas(capsys):
    code, out = run(capsys, "eta", "--brieskorn", "2,3,5", "--gammas", "0,0,0")
    data = json.loads(out)
    assert data["eta0"] == "91/180"


def test_eta_command_series(capsys):
    code, out = run(capsys, "eta", "--brieskorn", "2,3,5", "--at", "0", "--digits", "30")
    data = json.loads(out)
    assert data["eta_at"]["value"].startswith("1.4972")


def test_eta_series_golden_at_negative_s(capsys):
    code, out = run(capsys, "eta", "--brieskorn", "2,3,5", "--at=-11/2", "--digits", "30")
    assert code == 0
    assert json.loads(out)["eta_at"]["value"] == "-33.0316443302059493324835865566@30"


@pytest.mark.parametrize(
    "extra, value",
    [
        (("--at=1/2", "--digits", "20"), "2.1173413008190310637@20"),
        (("--gammas", "1,2,0", "--at=-7/4", "--digits", "25"), "0.05858624119082855290242163@25"),
    ],
)
def test_eta_series_golden_with_equal_order_fibers(capsys, extra, value):
    # two fibers of order 4: their terms share the keys of p = 4
    code, out = run(capsys, "eta", "--seifert", "0:-1:4/1,4/3,3/1", *extra)
    assert code == 0
    assert json.loads(out)["eta_at"]["value"] == value


@pytest.mark.parametrize(
    "at, value",
    [
        # eta(-n) is a finite sum of Bernoulli polynomial values: exact,
        # with no rounding noise printed as significant digits
        ("-1", "0.0@20"),
        ("-3", "0.0@20"),
        ("-2", "2.2062962962962962963@20"),  # 5957/2700
    ],
)
def test_eta_series_exact_at_negative_integers(capsys, at, value):
    code, out = run(capsys, "eta", "--brieskorn", "3,5,7", f"--at={at}", "--digits", "20")
    assert code == 0
    assert json.loads(out)["eta_at"]["value"] == value


@pytest.mark.parametrize(
    "argv",
    [
        ("eta", "--brieskorn", "2,3,5", "--at", "-1/2"),
        ("dedekind", "4", "7", "--x", "-1/2"),
        # decimals with an exponent, which argparse does not take as values
        ("eta", "--brieskorn", "2,3,5", "--at", "-1e-3"),
        ("dedekind", "4", "7", "--x", "-2.5e-1"),
        ("dedekind", "4", "7", "--y", "-.5E+0"),
    ],
)
def test_negative_rational_as_separate_argument(capsys, argv):
    joined = run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert joined[0] == 0
    assert run(capsys, *argv) == joined


@pytest.mark.parametrize("digits", ["0", "-5"])
def test_eta_digits_below_one_exit_2(capsys, digits):
    with pytest.raises(SystemExit) as exc:
        main(["eta", "--brieskorn", "2,3,5", "--at=1/2", "--digits", digits])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"seifinv: error: --digits {digits}: must be >= 1"


@pytest.mark.parametrize("triple, at", [("2,3,5", "2"), ("3,5,7", "2")])
def test_eta_series_pole_exit_2(capsys, triple, at):
    # s = 2 meets the pole of zeta(s - 1, a), with residue -2 ell != 0
    with pytest.raises(SystemExit) as exc:
        main(["eta", "--brieskorn", triple, f"--at={at}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"seifinv: error: --at {at}: ")


def test_eta_series_at_one_against_reference(capsys):
    # eta is regular at s = 1: the residues of zeta(s, a) cancel in each
    # signed pair, and the reference takes the Laurent constants -psi(a)
    code, out = run(capsys, "eta", "--brieskorn", "2,3,5", "--at=1", "--digits", "30")
    ctx = eta_mod.trivial_flat_context(brieskorn(2, 3, 5))
    got = eta_mod.eta_series(ctx, 1, 30)
    assert code == 0 and json.loads(out)["eta_at"]["value"] == str(got)
    with mpmath.mp.workdps(80):
        ref = _series_oracle(ctx, Fraction(1), 30)
        assert abs(ref - mpmath.mpf("3.72421027150801347780741048263")) < mpmath.mpf(10) ** -29
        assert abs(got.value - ref) <= got.eps


@pytest.mark.parametrize(
    "at, like",
    [
        ("1e-400", "0"),  # eta(0) = 539/360
        ("0.5" + "0" * 162 + "1", "1/2"),
        ("1." + "0" * 399 + "1", "1"),
        ("0." + "9" * 400, "1"),
    ],
    ids=["1e-400", "1/2+1e-163", "1+1e-400", "1-1e-400"],
)
def test_eta_series_at_huge_denominators(capsys, at, like):
    # s within 10^-160 of a simpler s prints the digits there: the pass
    # carries its Bernoulli-term scale and its pole count in integers, so
    # no float overflows on the denominator of s

    def eta_at(s):
        code, out = run(capsys, "eta", "--brieskorn", "2,3,5", f"--at={s}", "--digits", "30")
        assert code == 0
        return json.loads(out)["eta_at"]

    got = eta_at(at)
    assert got["s"] == str(Fraction(at)) and got["value"] == eta_at(like)["value"]


def test_eta_series_near_minus_3_at_huge_denominator(capsys):
    # s + 3 = 10^-400: the Taylor orders take log |s + j| from the exact s
    at = "-2." + "9" * 400
    code, out = run(capsys, "eta", "--brieskorn", "2,3,5", f"--at={at}", "--digits", "30")
    got = eta_mod.eta_series(eta_mod.trivial_flat_context(brieskorn(2, 3, 5)), Fraction(at), 30)
    assert code == 0 and json.loads(out)["eta_at"]["value"] == str(got)
    # eta(-3) = 0 on Sigma(2,3,5), and eta(s) lies about 10^-400 from it
    with mpmath.mp.workdps(450):
        assert abs(got.value) <= got.eps + mpmath.mpf(10) ** -390


@pytest.mark.parametrize("extra", [(), ("--gammas", ""), ("--at=1/2",)])
def test_eta_degree_zero_exit_2(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["eta", "--seifert", "0:0:", *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "seifinv: error: the fibration has degree ell = 0; eta invariants need ell != 0"
    )


def test_eta_rho_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eta", "--brieskorn", "2,3,5", "--rho", "1/3"])
    assert exc.value.code == 2
    code, _ = run(capsys, "eta", "--brieskorn", "2,3,5", "--rho", "1/2")
    assert code == 0


def test_eta_general_seifert(capsys):
    code, out = run(capsys, "eta", "--seifert", "0:-2:2/1,3/2,5/4")
    data = json.loads(out)
    assert data["ell"] == "-1/30"
    assert data["eta0"] == "539/360"


def test_swf_command(capsys):
    code, out = run(capsys, "swf", "--brieskorn", "3,5,13", "--json")
    data = json.loads(out)
    assert data["P"] == {"3": 1, "5": 1, "9": 1}
    assert data["m"] == 0
    assert len(data["delta"]) == 3


def test_swf_latex(capsys):
    code, out = run(capsys, "swf", "--brieskorn", "5,7,9", "--latex")
    assert code == 0
    assert "2T+T^3+T^7+T^9+T^{25}" in out


def test_froyshov_command(capsys):
    code, out = run(capsys, "froyshov", "--brieskorn", "2,3,7")
    data = json.loads(out)
    assert (data["F"], data["eight_m"], data["Z"]) == ("-8", 8, "0")


def test_plumbing_command(capsys):
    code, out = run(
        capsys, "plumbing", "--brieskorn", "2,3,7", "--matrix", "--theta", "--diagonalize"
    )
    data = json.loads(out)
    assert data["matrix"] == [list(row) for row in PLUMBING_237]
    assert data["theta"] == 0
    assert data["diagonal_rank"] == 4
    assert data["residual"] is None


def test_table_triples_golden(capsys):
    code, out = run(capsys, "table", "--triples", "2,3,5", "2,3,7", "5,7,9", "--json")
    rows = json.loads(out)
    got = [(tuple(r["triple"]), r["F"], r["eight_m"], r["Z"]) for r in rows]
    assert got == [
        ((2, 3, 5), "8", 0, "8"),
        ((2, 3, 7), "-8", 8, "0"),
        ((5, 7, 9), "0", 0, "0"),
    ]


def test_table_family(capsys):
    code, out = run(capsys, "table", "--family", "2,3,6k+1", "--k", "1..3", "--json")
    rows = json.loads(out)
    assert [r["Z"] for r in rows] == ["0", "0", "0"]
    assert [tuple(r["triple"]) for r in rows] == [(2, 3, 7), (2, 3, 13), (2, 3, 19)]


def test_table_family_s_variable(capsys):
    code, out = run(capsys, "table", "--family", "3,3s+1,3s+2", "--k", "1..2", "--json")
    rows = json.loads(out)
    assert [tuple(r["triple"]) for r in rows] == [(3, 4, 5), (3, 7, 8)]


def test_table_empty(capsys):
    code, out = run(capsys, "table", "--triples")
    assert code == 0


def test_table_csv_and_latex(capsys):
    code, out = run(capsys, "table", "--triples", "2,3,5", "--csv")
    assert out.splitlines()[0] == "a,b,c,F,eight_m,Z,P"
    assert "2,3,5,8,0,8,0" in out
    code, out = run(capsys, "table", "--triples", "2,3,5", "--latex")
    assert out.startswith(r"\begin{tabular}{||c|c|c|c||}")
    assert "$(2,3,5)$" in out


def test_table_json_round_trip(capsys):
    code, out = run(capsys, "table", "--triples", "3,5,11", "--json")
    row = json.loads(out)[0]
    assert Fraction(row["F"]) == 0
    assert row["P"] == LaurentPolynomial({-1: 1, 1: 1, 5: 1}).to_json()


def assert_refused(capsys, *argv):
    """The command exits 2 with one `seifinv: error:` line and no output."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("seifinv: error:")]
    assert exc.value.code == 2 and len(errors) == 1 and captured.out == "", argv


def test_table_bad_triple_exit_2(capsys):
    assert_refused(capsys, "table", "--triples", "2,3")
    assert_refused(capsys, "table", "--triples", "2,x,5")
    # a non-ASCII digit passes str.isdigit but not int
    assert_refused(capsys, "froyshov", "--brieskorn", "2,3,\u00b2")
    assert_refused(capsys, "table", "--triples", "2,3,\u00b2")


def test_bad_family_exit_2(capsys):
    assert_refused(capsys, "table", "--family", "2,3,6q+1", "--k", "1..2")
    # an empty family spec is refused, not read as no family
    assert_refused(capsys, "table", "--family", "")
    assert_refused(capsys, "table", "--triples", "2,3,5", "--family", "")
    assert_refused(capsys, "table", "--k", "1..2", "--family", "")
    assert_refused(capsys, "table", "--family", "2,3,\u00b2")
    assert_refused(capsys, "table", "--family", "2,3,6k+1", "--k", "\u00b2")
    assert_refused(capsys, "table", "--family", "2,3,6k+1", "--k", "")


ETA_SERIES_CHECKED = (
    "series against exact eta(0) and, at a seeded s in [-5/2, 5/2], the per-key Hurwitz sum"
)


def test_verify_suites_pass(capsys):
    # each PASS line says what the suite checked
    for argv, checked in [
        (("dedekind-oracle", "--seed", "7", "--cases", "40"), "seed 7, 40 cases"),
        (("eta-consistency", "--cases", "8"), f"seed 7, 8 cases; {ETA_SERIES_CHECKED} on 5"),
        # eta-consistency runs at most 50 cases, whatever --cases asks for
        (
            ("eta-consistency", "--seed", "3", "--cases", "60"),
            f"seed 3, 50 cases; {ETA_SERIES_CHECKED} on 5",
        ),
        (("eta-consistency", "--cases", "2"), f"seed 7, 2 cases; {ETA_SERIES_CHECKED} on 2"),
        (("froyshov-table",), "9 triples"),
        (("families", "--k-max", "6"), "Sigma(2,3,6k+-1) for k = 1..6, 12 triples"),
        (
            ("lattice",),
            "Gamma(2,3,7) matrix, 3 Theta values, 8 splittings, "
            "Theta against the full-rank search on 6 forms, Theta = Z on 10 triples",
        ),
    ]:
        assert run(capsys, "verify", *argv) == (0, f"verify {argv[0]}: ok ({checked})\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("dedekind-oracle", "--cases", "-3"),
        ("eta-consistency", "--cases", "0"),
        ("families", "--k-max", "0"),
    ],
)
def test_verify_refuses_to_check_nothing(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"seifinv: error: {argv[1]} {argv[2]}: must be >= 1"


def test_verify_families_refuses_k_past_the_weight_box(capsys, monkeypatch):
    # Sigma(2,3,6k+1) has abc > swfloer.MAX_BOX_POINTS from k = 277778 on,
    # so such a --k-max is refused before any triple is computed
    def reached(k_max):
        raise AssertionError("families suite reached")

    monkeypatch.setattr(cli, "_verify_families", reached)
    assert 6 * (6 * 277777 + 1) <= swfloer.MAX_BOX_POINTS < 6 * (6 * 277778 + 1)
    for k_max in (277778, 10**9):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "families", "--k-max", str(k_max)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"seifinv: error: --k-max {k_max}: must be <= 277777, the largest k for which "
            "Sigma(2,3,6k+1) has abc <= 10000000"
        )


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_swf_builds_one_level_table(capsys, monkeypatch):
    calls = []
    build = swfloer._level_table

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(swfloer, "_level_table", counted)
    code, out = run(capsys, "swf", "--json", "--brieskorn", "5,7,9")
    assert code == 0 and len(json.loads(out)["delta"]) == 6
    assert calls == [(5, 7, 9)]


def test_oversized_triple_exit_2():
    # abc ~ 1.04e9: the weight box would need ~50 GB, so the command must be
    # refused before allocating; the address-space cap turns any attempt
    # into a MemoryError (exit 1) instead of exhausting the machine
    proc = _python(
        "-m", "seifinv.cli", "froyshov", "--brieskorn", "1009,1013,1019", limit_bytes=1 << 30
    )
    assert proc.returncode == 2, proc.stderr
    assert "exceeds" in proc.stderr and proc.stdout == ""


def test_oversized_plumbing_exit_2():
    # rank 16674: the 2.8e8-cell intersection form must be refused from the
    # plumbing graph alone, before any matrix is built
    proc = _python(
        "-m", "seifinv.cli", "plumbing", "--brieskorn", "2,3,100001", limit_bytes=1 << 30
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("seifinv: error:")]
    assert len(errors) == 1 and "rank 16674 exceeds" in errors[0]


def test_oversized_plumbing_refused_from_its_rank_alone():
    # rank 16666666675: the arms' continued fractions alone would hold that
    # many weights, so the rank is read off the regular continued fractions
    # and the refusal costs no more than start-up
    start = time.perf_counter()
    assert _python("-m", "seifinv.cli", "--help").returncode == 0
    startup = time.perf_counter() - start
    start = time.perf_counter()
    proc = _python("-m", "seifinv.cli", "plumbing", "--brieskorn", "2,3,100000000007")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        "seifinv: error: --brieskorn '2,3,100000000007': plumbing rank 16666666675 exceeds "
        "2000: the intersection form of (2,3,100000000007) is too large to build"
    )
    assert elapsed < startup + 0.5, (elapsed, startup)


def test_oversized_eta_series_exit_2():
    # Sigma(2,3,10^7+1): the series would need about 2 GB, so --at must be
    # refused before any term is built; Sigma(2,3,100003), the size the
    # series is measured at, stays accepted
    proc = _python(
        "-m", "seifinv.cli", "eta", "--brieskorn", "2,3,10000001", "--at=1/2", limit_bytes=1 << 30
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("seifinv: error:")]
    assert errors == [
        "seifinv: error: --at 1/2: sum of alphas 10000006 exceeds 200000: "
        "the eta series is too large to evaluate"
    ]
    assert 2 + 3 + 100003 <= eta_mod.MAX_SERIES_ALPHA_SUM < 10000006


@pytest.mark.parametrize("at", ["1e400", "1e20", "-1e6", "-10001"])
def test_eta_series_large_s_exit_2(capsys, monkeypatch, at):
    # the series cost grows about as s^2 (hours at |s| = 10^5), and 1e400
    # overflows a float: |s| > 10^4 is refused before any term is built
    def reached(*args):
        raise AssertionError("eta_series reached")

    monkeypatch.setattr(eta_mod, "eta_series", reached)
    with pytest.raises(SystemExit) as exc:
        main(["eta", "--brieskorn", "2,3,5", f"--at={at}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"seifinv: error: --at {at}: |s| exceeds 10000: the eta series is too large to evaluate"
    )


def test_report_row_check_survives_optimize():
    code = (
        "from fractions import Fraction\n"
        "from seifinv import InvariantError\n"
        "from seifinv.cli import ReportRow\n"
        "from seifinv.swfloer import LaurentPolynomial\n"
        "try:\n"
        "    ReportRow((2, 3, 5), Fraction(8), 0, Fraction(0), LaurentPolynomial())\n"
        "except InvariantError:\n"
        "    print('InvariantError')\n"
    )
    proc = _python("-O", "-c", code)
    assert proc.stdout.strip() == "InvariantError", proc.stderr


def test_invariant_error_exit_1(capsys, monkeypatch):
    # a non-integral reducible level origin must fail the production check
    monkeypatch.setattr(swfloer, "_reducible_data", lambda N: (Fraction(1, 5), Fraction(1, 2)))
    assert main(["swf", "--brieskorn", "2,3,7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "invariant check failed" in captured.err


def test_invariant_error_exit_1_on_wrong_representative(capsys, monkeypatch):
    # the seed with weights (1, 2, 4) needs k = 59 copies of L0; dropping
    # them must fail the production check
    monkeypatch.setattr("seifinv.orbifold.add_bundles", lambda L1, L2: L1)
    assert main(["eta", "--brieskorn", "2,3,5", "--gammas", "1,2,4", "--rho", "1/2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "invariant check failed" in captured.err


def test_verify_lattice_catches_wrong_split(capsys, monkeypatch):
    # a split that loses the odd residual of Sigma(3,11,13) (rank 13) gives
    # Theta = 0, which only the full-rank oracle can tell from 8
    split = lattice._split

    def drops_residual(q):
        k, residual = split(q)
        return (k, None) if q.rank == 13 else (k, residual)

    monkeypatch.setattr(lattice, "_split", drops_residual)
    code, out = run(capsys, "verify", "lattice")
    assert code == 1
    assert "(3, 11, 13)" in out and "full-rank search gives 8" in out


def test_verify_lattice_checks_theta_against_Z(capsys, monkeypatch):
    z = swfloer.froyshov_Z
    monkeypatch.setattr(swfloer, "froyshov_Z", lambda a, b, c: z(a, b, c) + 8 * (c == 23))
    code, out = run(capsys, "verify", "lattice")
    assert (code, out) == (1, "verify lattice: FAIL: Theta(Gamma_(2, 3, 23)) = 8, but Z = 16\n")


def test_verify_eta_consistency_catches_fast_route_error(capsys, monkeypatch):
    # the defining-sum oracles in the suite must notice one wrong fast sum
    seen = []
    fast = dedekind.dr_sum_fast

    def recording(*args):
        seen.append(args)
        return fast(*args)

    monkeypatch.setattr(dedekind, "dr_sum_fast", recording)
    assert run(capsys, "verify", "eta-consistency", "--cases", "20")[0] == 0
    target = seen[len(seen) // 2]

    def off_by_a_seventh(*args):
        return fast(*args) + (Fraction(1, 7) if args == target else 0)

    monkeypatch.setattr(dedekind, "dr_sum_fast", off_by_a_seventh)
    code, out = run(capsys, "verify", "eta-consistency", "--cases", "20")
    assert code == 1
    assert "FAIL" in out and "differ" in out


def test_exact_commands_never_import_mpmath():
    # numkernel runs on Python integers alone, so no command loads mpmath,
    # the eta series (--at) included, at any s and magnitude: only the
    # verify oracles do.  No command loads dataclasses or inspect (about
    # 15-20 ms of start-up): the value types are namedtuples; and none but
    # --csv loads csv (about 1 ms), which none of these runs.  Modules are
    # counted as added to a snapshot taken before the import, so whatever
    # site loaded before it does not count.
    commands = [
        ["plumbing", "--brieskorn", "2,3,65", "--theta", "--diagonalize"],
        ["froyshov", "--brieskorn", "5,9,11"],
        ["eta", "--brieskorn", "2,3,7"],
        ["dedekind", "3", "7"],
        ["table", "--triples", "2,3,5"],
        ["eta", "--brieskorn", "2,3,5", "--at=1/2"],
        ["eta", "--brieskorn", "2,3,5", "--at=-3/4", "--digits", "30"],
        ["eta", "--brieskorn", "2,3,5", "--at=5/2", "--digits", "20"],
        # the log/exp power route, and a value past 2^3500 (about 2e+1348)
        ["eta", "--brieskorn", "2,3,5", "--at=0.37", "--digits", "20"],
        ["eta", "--brieskorn", "2,3,5", "--at=-600", "--digits", "5"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "known = set(sys.modules)\n"
        "def added():\n"
        "    new = set(sys.modules) - known\n"
        "    known.update(new)\n"
        "    return sorted(new & {'dataclasses', 'inspect', 'csv'})\n"
        "from seifinv.cli import main\n"
        "seen = ['mpmath' in sys.modules]\n"
        "heavy = [added()]\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        seen.append((main(argv), 'mpmath' in sys.modules))\n"
        "    heavy.append(added())\n"
        "print(seen)\n"
        "print(heavy)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    seen, heavy = proc.stdout.strip().splitlines()
    loaded = [False] + [(0, False)] * len(commands)
    assert seen == repr(loaded)
    assert heavy == repr([[]] * (1 + len(commands)))


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["eta", "--brieskorn", "2,3,5", "--seifert", "0:0:2/1"],
            "give one of --brieskorn / --seifert, not both",
        ),
        (["eta"], "one of --brieskorn / --seifert is required"),
        (["table", "--k", "1..3"], "--k needs --family"),
        (["table", "--triples", "2,3,5", "--k", "1..3"], "--k needs --family"),
    ],
)
def test_ignored_option_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"seifinv: error: {message}"]


@pytest.mark.parametrize(
    "shift, rho_zero, passes",
    [(0, True, True), (Fraction(1, 10**400), True, False), (-Fraction(1, 10**400), False, False)],
    ids=["unshifted", "pullback", "flat"],
)
def test_verify_eta_consistency_drift_tolerance(capsys, monkeypatch, shift, rho_zero, passes):
    # the series at s = 0 is the exact eta(0): a shift of 10^-400 fails on
    # case 0's pullback context (rho = 0) and on its flat one (rho = 11/42)
    series = eta_mod.eta_series

    def shifted(ctx, s, precision=30):
        v = series(ctx, s, precision)
        if s != 0 or (ctx.rho == 0) != rho_zero:
            return v
        return BigFloat(v._value + shift, v.digits, v._eps)

    monkeypatch.setattr(eta_mod, "eta_series", shifted)
    code, out = run(capsys, "verify", "eta-consistency", "--cases", "5")
    if passes:
        assert (code, out) == (
            0,
            f"verify eta-consistency: ok (seed 7, 5 cases; {ETA_SERIES_CHECKED} on 5)\n",
        )
    else:
        assert code == 1
        assert out.startswith(
            "verify eta-consistency: FAIL: case 0: series at s=0 drifts from exact eta(0) on "
        )


def test_verify_eta_consistency_checks_series_off_zero(capsys, monkeypatch):
    # a series value off by 100 eps at the seeded non-integer s fails the
    # per-key check, even though the series at s = 0 is exact
    series = eta_mod.eta_series

    def shifted(ctx, s, precision=30):
        v = series(ctx, s, precision)
        if s == 0:
            return v
        return BigFloat(v._value + 100 * v._eps, v.digits, v._eps)

    monkeypatch.setattr(eta_mod, "eta_series", shifted)
    code, out = run(capsys, "verify", "eta-consistency", "--cases", "5")
    assert code == 1
    assert out.startswith("verify eta-consistency: FAIL: case 0: series at s=")
    assert "differs from the per-key Hurwitz sum" in out
