"""Rules on the package source itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seifinv"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_in_package(path):
    # invariant checks raise InvariantError or ValueError: an assert
    # vanishes under python -O
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


#: The only functions that may read the n^2 cells of a form's dense
#: `.matrix` view: those that print or compare the cells.
MATRIX_READERS = {
    ("cli.py", "_cmd_plumbing"),
    ("cli.py", "_verify_lattice"),
    ("lattice.py", "IntegerQuadraticForm.__repr__"),
}


def _attribute_reads(tree: ast.AST, attr: str):
    """(qualified name of the enclosing def or class, line) of every read of .attr."""
    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                if child.attr == attr:
                    reads.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return reads


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_dense_matrix_is_read_only_where_printed(path):
    # a plumbing form is its sparse rows; the dense n^2 view stays opt-in
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = _attribute_reads(tree, "matrix")
    stray = [(scope, line) for scope, line in reads if (path.name, scope) not in MATRIX_READERS]
    assert not stray, f"{path.name}: .matrix read at {stray}"


#: The only functions that may read a BigFloat's mpmath views `.value` and
#: `.eps`: the verify oracle and the repr.  Production works on the exact
#: rationals behind them.
MPMATH_VIEW_READERS = {
    ("cli.py", "_series_matches_per_key_sum"),
    ("numkernel.py", "BigFloat.__repr__"),
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_mpmath_views_are_read_only_by_oracles(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = _attribute_reads(tree, "value") + _attribute_reads(tree, "eps")
    stray = [(scope, line) for scope, line in reads if (path.name, scope) not in MPMATH_VIEW_READERS]
    assert not stray, f"{path.name}: .value or .eps read at {stray}"
