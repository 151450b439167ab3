"""The threshold policy of the package, checked on its source.

Every small threshold is a ``Tolerances`` field or a named private module
constant, and the Hermitian deviation ‖x − x*‖ is computed in one function.
The entry points that hold a residual against a ``tol`` reject one that is
not finite and positive, and those that take a count, an iteration cap or a
seed reject one that is not an integer of its least value or more, all with
``InvalidOption`` raised from one of three functions.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import decomap
from decomap import cones, dykstra, maps, modular, stormer
from decomap.errors import InvalidOption
from decomap.linalg import TensorLayout

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


def _sites(path, hit):
    """(file:qualified function, line) of every node of the file that
    ``hit`` accepts."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if hit(node):
            sites.append((f"{path.name}:{scope}", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(_tree(path), None)
    return sites


def _deviation_sites(path):
    """(function, line) of every ``x − x*`` difference in the file."""
    return _sites(path, lambda node: isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Sub) and _is_adjoint(node.right))


def _raises_invalid_option(node):
    """``raise InvalidOption(...)``, ``raise errors.InvalidOption(...)`` or
    the class raised bare."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None)) == "InvalidOption"


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


def test_invalid_option_raised_in_three_places():
    """A tol goes through ``_check_tol`` and a count, cap or seed through
    ``_check_count``; only a Δ exponent has a rule of its own."""
    sites = [site for path in SOURCES for site in _sites(path, _raises_invalid_option)]
    assert [name for name, _ in sites] == [
        "linalg.py:_check_tol", "linalg.py:_check_count", "linalg.py:_check_count",
        "modular.py:ModularData.delta"]


def test_guard_sees_a_hand_written_check(tmp_path):
    src = tmp_path / "module.py"
    src.write_text("from . import errors\nfrom .errors import InvalidOption\n\n"
                   "def f(samples):\n    if samples < 1:\n"
                   "        raise InvalidOption('samples')\n\n"
                   "class C:\n    def g(self, n):\n        if n < 0:\n"
                   "            raise errors.InvalidOption('n')\n        raise InvalidOption\n"
                   "    def h(self):\n        raise ValueError('not counted')\n")
    assert _sites(src, _raises_invalid_option) == [
        ("module.py:f", 6), ("module.py:C.g", 11), ("module.py:C.g", 12)]


_PAIR = dykstra.PPTPair(TensorLayout((2, 2)), 2)
_TRACIAL = modular.tensor_modular(*[modular.build_modular(np.eye(2) / 2)] * 2)
_TOL_ENTRY_POINTS = {
    "split_sum": lambda tol: dykstra.split_sum(np.eye(4), _PAIR, tol=tol),
    "project_intersection": lambda tol: dykstra.project_intersection(np.eye(4), _PAIR, tol=tol),
    "cone_membership": lambda tol: cones.cone_membership(
        _TRACIAL, cones.ConeSpec(cones.NATURAL_TENSOR), np.eye(4) / 2, tol=tol),
    "global_positivity_test": lambda tol: maps.global_positivity_test(
        maps.identity_map(2), tol=tol),
    "k_positivity_search": lambda tol: maps.k_positivity_search(
        maps.transposition_map(2), 2, tol=tol),
    "build_local_decomposition": lambda tol: stormer.build_local_decomposition(
        maps.identity_map(2), [1.0, 0.0], tol=tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", list(_TOL_ENTRY_POINTS))
def test_tol_not_finite_and_positive_rejected(entry, tol):
    """A NaN tol compares false with every residual and a tol of zero or
    below admits nothing: each would answer wrong, so each is an error."""
    with pytest.raises(InvalidOption):
        _TOL_ENTRY_POINTS[entry](tol)


_MD = modular.build_modular(np.diag([0.7, 0.3]))
_SYM, _FACE = stormer.symmetric_face_example()
_LOCDEC = stormer.build_local_decomposition(_SYM, _FACE.eta)
# entry -> (call taking one option as a keyword, the others at valid defaults;
#           each option's least value)
_COUNT_ENTRY_POINTS = {
    "split_sum": (lambda max_iter: dykstra.split_sum(np.eye(4), _PAIR, max_iter=max_iter),
                  {"max_iter": 1}),
    "project_intersection": (lambda max_iter: dykstra.project_intersection(
        np.eye(4), _PAIR, max_iter=max_iter), {"max_iter": 1}),
    "cone_membership": (lambda max_iter: cones.cone_membership(
        _TRACIAL, cones.ConeSpec(cones.HULL), np.eye(4) / 2, max_iter=max_iter),
        {"max_iter": 1}),
    "decompose": (lambda max_iter: maps.decompose(maps.identity_map(2), max_iter=max_iter),
                  {"max_iter": 1}),
    "k_positivity_search": (lambda restarts=2, seed=0: maps.k_positivity_search(
        maps.transposition_map(2), 1, restarts=restarts, seed=seed),
        {"restarts": 1, "seed": 0}),
    "sk_sampler": (lambda trials=2, seed=0: maps.sk_sampler(
        maps.identity_map(2), 1, trials=trials, seed=seed), {"trials": 1, "seed": 0}),
    "cone_criterion_check": (lambda trials=2, seed=0: maps.cone_criterion_check(
        maps.identity_map(2), modular.build_modular(np.eye(2) / 2), 1, trials=trials,
        seed=seed), {"trials": 1, "seed": 0}),
    "probe_finite_dim_equality": (lambda m=2, n=2, rho_seed=0, trials=2:
                                  cones.probe_finite_dim_equality(m, n, rho_seed, trials),
                                  {"m": 1, "n": 1, "rho_seed": 0, "trials": 1}),
    "sample_cone": (lambda seed: cones.sample_cone(
        _TRACIAL, cones.ConeSpec(cones.NATURAL_TENSOR), seed), {"seed": 0}),
    "check_identities": (lambda samples=2, seed=0: modular.check_identities(
        _MD, samples, seed), {"samples": 1, "seed": 0}),
    "verify_locdec": (lambda samples=2, seed=0: stormer.verify_locdec(
        _SYM, _LOCDEC, samples, seed=seed), {"samples": 1, "seed": 0}),
    "sample_face_map": (lambda terms=2, seed=0: stormer.sample_face_map(
        _FACE, terms, seed), {"terms": 1, "seed": 0}),
}
_COUNT_CASES = [(entry, option, value)
                for entry, (_, least) in _COUNT_ENTRY_POINTS.items()
                for option in least
                for value in (True, 2.5, None, least[option] - 1)]


@pytest.mark.parametrize("entry,option,value", _COUNT_CASES,
                         ids=[f"{e}-{o}={v!r}" for e, o, v in _COUNT_CASES])
def test_count_not_an_integer_of_its_least_rejected(entry, option, value):
    """A count, cap or seed that is a bool, a float, None or below its least
    value would reach ``range`` or the generator as it came, or run a search
    that tests nothing: each is an error, from the one check."""
    with pytest.raises(InvalidOption, match=f"{option} must be"):
        _COUNT_ENTRY_POINTS[entry][0](**{option: value})
