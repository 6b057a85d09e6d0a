"""The record contract of the package's nine value types: read-only fields,
equality and hash by value, the ``Name(field=value, ...)`` repr, and the
lexicographic order of Delta points."""

from fractions import Fraction

import pytest

from seifinv.cli import ReportRow
from seifinv.eta import flat_context, pullback_context
from seifinv.lattice import IntegerQuadraticForm, plumbing_graph
from seifinv.numkernel import BigFloat
from seifinv.orbifold import Orbifold, VLineBundle, trivial_bundle
from seifinv.seifert import brieskorn
from seifinv.swfloer import DeltaPoint, LaurentPolynomial

POINCARE = (
    "SeifertData(base=Orbifold(genus=0, alphas=(2, 3, 5)), betas=(1, 2, 4), smooth_degree=-2)"
)
TRIVIAL = "VLineBundle(base=Orbifold(genus=0, alphas=(2, 3, 5)), smooth_degree=0, gammas=(0, 0, 0))"

# (build a fresh instance, its fields, its repr); each call of the builder
# makes new field objects, so equality is by value, not by identity
RECORDS = [
    (
        lambda: BigFloat(Fraction(3, 2), 30, 0),
        ("digits",),
        "BigFloat(value=mpf('1.5'), digits=30, eps=mpf('0.0'))",
    ),
    (
        lambda: Orbifold(0, [2, 3, 5]),
        ("genus", "alphas"),
        "Orbifold(genus=0, alphas=(2, 3, 5))",
    ),
    (
        lambda: VLineBundle(Orbifold(0, (2, 3)), 0, [1, 2]),
        ("base", "smooth_degree", "gammas"),
        "VLineBundle(base=Orbifold(genus=0, alphas=(2, 3)), smooth_degree=0, gammas=(1, 2))",
    ),
    (lambda: brieskorn(2, 3, 5), ("base", "betas", "smooth_degree"), POINCARE),
    (
        lambda: pullback_context(brieskorn(2, 3, 5), trivial_bundle(Orbifold(0, (2, 3, 5)))),
        ("fibration", "coupling", "rho"),
        f"EtaContext(fibration={POINCARE}, coupling={TRIVIAL}, rho=Fraction(0, 1))",
    ),
    (
        lambda: flat_context(brieskorn(2, 3, 5), trivial_bundle(Orbifold(0, (2, 3, 5)))),
        ("fibration", "coupling", "rho"),
        f"EtaContext(fibration={POINCARE}, coupling={TRIVIAL}, rho=Fraction(1, 2))",
    ),
    (lambda: DeltaPoint(1, 2, 3), ("x", "y", "z"), "DeltaPoint(x=1, y=2, z=3)"),
    (
        lambda: plumbing_graph(2, 3, 5),
        ("center_weight", "arms"),
        "PlumbingGraph(center_weight=-2, arms=((-2,), (-2, -2), (-2, -2, -2, -2)))",
    ),
    (
        lambda: IntegerQuadraticForm([[-2, 1], [1, -2]]),
        ("matrix",),
        "IntegerQuadraticForm(matrix=((-2, 1), (1, -2)))",
    ),
    (
        lambda: ReportRow((2, 3, 5), Fraction(-8), 8, Fraction(0), LaurentPolynomial({1: 1})),
        ("triple", "F", "eight_m", "Z", "P"),
        "ReportRow(triple=(2, 3, 5), F=Fraction(-8, 1), eight_m=8, Z=Fraction(0, 1), "
        "P=LaurentPolynomial({1: 1}))",
    ),
]


@pytest.mark.parametrize("build, fields, text", RECORDS, ids=[t.split("(")[0] for _, _, t in RECORDS])
def test_record_contract(build, fields, text):
    r, twin = build(), build()
    assert r is not twin and r == twin and hash(r) == hash(twin)
    assert repr(r) == text
    for name in fields:
        value = getattr(r, name)
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        assert getattr(r, name) is value
    with pytest.raises(AttributeError):
        r.extra = 0


def test_records_differ_by_field():
    assert Orbifold(0, (2, 3, 5)) != Orbifold(1, (2, 3, 5))
    assert DeltaPoint(1, 2, 3) != DeltaPoint(1, 2, 4)
    assert IntegerQuadraticForm([[-1]]) != IntegerQuadraticForm([[-2]])
    assert BigFloat(1, 30, 0) != BigFloat(1, 31, 0)


def test_delta_points_sort_lexicographically():
    points = [DeltaPoint(1, 0, 0), DeltaPoint(0, 2, 1), DeltaPoint(0, 1, 5), DeltaPoint(0, 1, 2)]
    assert sorted(points) == [
        DeltaPoint(0, 1, 2), DeltaPoint(0, 1, 5), DeltaPoint(0, 2, 1), DeltaPoint(1, 0, 0)
    ]
    assert DeltaPoint(0, 9, 9) < DeltaPoint(1, 0, 0)
