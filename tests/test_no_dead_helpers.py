"""Every module-level def and class in src/ellmotive, and every method of
its classes, is used by src itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ellmotive"

# referenced only by the tests: the GL2 character oracle and the closed form
# it checks, the decoration-point fixture, and the grading check on chains
TEST_ONLY = {
    "clebsch_gordan_by_characters",
    "plethysm2",
    "plethysm2_by_characters",
    "fixed_points",
    "grading_coherent",
}

# methods and properties only the tests read (a method counts as used when
# src names its name as an attribute anywhere outside its own body)
TEST_ONLY_METHODS = {
    "ParamCycle.codim",
    "ParamCycle.negate_ecoord",
    "ParamCycle.permute_ecoords",
    "ParamCycle.permute_qcoords",
    "GroupMatchReport.scalars",
    "PureMotive.weight",
    "PureMotive.effective",
    "MotiveSum.dimension",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _referenced(node):
    """Names a node refers to: bare names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _unreferenced():
    """Module-level defs and classes of src that nothing else in src names
    (a def's own body does not count)."""
    trees = _trees()
    out = set()
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            elsewhere = set()
            for other in trees.values():
                for top in other.body:
                    if top is not node:
                        elsewhere |= _referenced(top)
            if node.name not in elsewhere:
                out.add(node.name)
    return out


def test_no_dead_helpers():
    assert _unreferenced() - TEST_ONLY == set()


def test_test_only_list_is_current():
    # a name that src starts to use again leaves the list
    assert TEST_ONLY <= _unreferenced()


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _unreferenced_methods():
    """Class.method for every non-dunder def in a class body of src whose
    name src names as an attribute only inside that def."""
    trees = _trees().values()
    named = sum((_attributes(tree) for tree in trees), Counter())
    out = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if named[name] == _attributes(node)[name]:
                    out.add(f"{cls.name}.{name}")
    return out


def test_no_dead_methods():
    assert _unreferenced_methods() - TEST_ONLY_METHODS == set()


def test_test_only_method_list_is_current():
    assert TEST_ONLY_METHODS <= _unreferenced_methods()
