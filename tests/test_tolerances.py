"""The threshold policy of the package, checked on its source.

Every small threshold is a ``Tolerances`` field or a named private module
constant, and the Hermitian deviation ‖x − x*‖ is computed in one function.
"""

import ast
from pathlib import Path

import pytest

import decomap

SOURCES = sorted(Path(decomap.__file__).parent.glob("*.py"))
SMALL = 0.1         # a nonzero float literal below this reads as a threshold


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_number(node):
    """A number written out: a literal, or arithmetic on literals."""
    return all(isinstance(sub, (ast.Constant, ast.UnaryOp, ast.BinOp, ast.operator,
                                ast.unaryop)) for sub in ast.walk(node))


def _exempt_nodes(tree, path):
    """Nodes where a small literal is a named threshold: ``Tolerances``
    fields, module-level ``_NAME = number`` constants and the probe's
    sampling ridge."""
    roots = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Tolerances":
            roots.append(node)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id.startswith("_") and _is_number(node.value)):
            roots.append(node)
        elif (path.name == "cones.py" and isinstance(node, ast.FunctionDef)
              and node.name == "probe_finite_dim_equality"):
            roots.extend(kw for kw in ast.walk(node)
                         if isinstance(kw, ast.keyword) and kw.arg == "ridge")
    return {id(sub) for root in roots for sub in ast.walk(root)}


def _small_literals(path):
    tree = _tree(path)
    exempt = _exempt_nodes(tree, path)
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0.0 < abs(node.value) < SMALL and id(node) not in exempt]
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def _is_adjoint(node):
    """``<expr>.conj().T`` or ``<expr>.conj().mT``."""
    return (isinstance(node, ast.Attribute) and node.attr in ("T", "mT")
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "conj")


def _deviation_sites(path):
    """(function, line) of every ``x − x*`` difference in the file."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and _is_adjoint(node.right)):
            sites.append((f"{path.name}:{function}", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(_tree(path), None)
    return sites


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_threshold_literal(path):
    assert _small_literals(path) == []


def test_guard_sees_a_bare_literal(tmp_path):
    src = tmp_path / "module.py"
    src.write_text("_FLOOR = 1e-12\n_TABLE = {'tol': 1e-9}\n\n"
                   "def f(x, tol=1e-8):\n    return x > 0.0 and x > 1e-10 * tol\n")
    assert _small_literals(src) == ["module.py:2: 1e-09", "module.py:4: 1e-08",
                                    "module.py:5: 1e-10"]


def test_one_hermitian_deviation():
    sites = [site for path in SOURCES for site in _deviation_sites(path)]
    assert [name for name, _ in sites] == ["linalg.py:hermitian_deviation"]
