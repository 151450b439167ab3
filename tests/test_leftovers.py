"""The no-leftovers policy of the package, checked on its source.

Every function and method defined in ``src/decomap`` is referenced somewhere
else in the package (called, passed or looked up as an attribute), unless
it is one of the few public entry points that only callers outside the
package use.  A helper whose last caller went away fails this test.
"""

import ast
import textwrap
from pathlib import Path

import decomap

SOURCES = sorted(Path(decomap.__file__).parent.glob("*.py"))

# public samplers and examples with no caller inside the package; sk_sampler
# is the S_k sampler that acceptance criterion 7 and the benchmark call,
# project_intersection the nearest-point solve that the benchmark calls (it
# wraps it by name), and the two generator functions are criterion 4's
ENTRY_POINTS = {"sample_face_map", "symmetric_face_example", "state_of_cone_vector",
                "transposed_tensor_generator", "fit_transposed_generator",
                "sample_unitary", "sk_sampler", "project_intersection"}


def _unreferenced(paths):
    """``file:line: name`` of every function or method, dunders aside, that
    no node of ``paths`` uses: a method counts as used only when an attribute
    of that name is read (``x.name``), so a local variable of the same name
    does not hide it; a function counts as used by its bare name as well."""
    methods, functions, names, attributes = [], [], set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_class = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                    for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                (methods if id(node) in in_class else functions).append((path.name, node))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = [(name, node) for name, node in methods if node.name not in attributes]
    names |= attributes
    unused += [(name, node) for name, node in functions if node.name not in names]
    return [f"{name}:{node.lineno}: {node.name}"
            for name, node in sorted(unused, key=lambda item: (item[0], item[1].lineno))
            if node.name not in ENTRY_POINTS
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_definition_is_referenced():
    assert _unreferenced(SOURCES) == []


def test_guard_sees_a_leftover(tmp_path):
    src = tmp_path / "module.py"
    src.write_text(textwrap.dedent("""\
        class Pair:
            def used(self):
                return self.spare

            def spare(self):
                return 1

            def dead(self):
                return 2


        def helper():
            dead = Pair().used()
            return dead


        def sample_unitary():
            return helper()


        def unused():
            return 3
        """))
    assert _unreferenced([src]) == ["module.py:8: dead", "module.py:21: unused"]
