"""Every module-level def and class in src/ellmotive, and every method of
its classes, is used by src itself, every def reads its parameters, every
defaulted parameter is set by some src call, and no def imports: src has
no import cycle to break, so imports sit at the top."""

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
    tops = [node for tree in _trees().values() for node in tree.body]
    refs = [_referenced(node) for node in tops]
    # how many top-level nodes name each name
    naming = Counter(name for names in refs for name in names)
    return {
        node.name
        for node, names in zip(tops, refs)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and naming[node.name] == (node.name in names)
    }


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


def _unused_parameters():
    """module:def:parameter for every parameter of a non-dunder def in src
    that its body never reads (self and cls aside)."""
    out = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                sub.id
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            out.update(
                f"{module}:{node.name}:{a.arg}"
                for a in params
                if a.arg not in ("self", "cls") and a.arg not in read
            )
    return out


def test_no_unused_parameters():
    assert _unused_parameters() == set()


def _local_imports():
    """module:def for every def in src whose body holds an import statement."""
    return {
        f"{module}:{node.name}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(sub, (ast.Import, ast.ImportFrom)) for sub in ast.walk(node))
    }


def test_no_function_local_imports():
    assert _local_imports() == set()


# defaulted parameters that keep their default at every src call site on
# purpose: the console-script entry point reads sys.argv through argv=None,
# and the n = 0 pairing test is the one caller that sets the fixed points
ONE_VALUE_EXEMPT = {
    "cli.py:main:argv",
    "barcx.py:build_motive_chain:fixed",
}


def _defs(tree):
    """(qualified name, def) for every module-level def and method."""
    scopes = [("", tree.body)]
    scopes += [(f"{c.name}.", c.body) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
    for prefix, body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node


def _defaulted_parameters(trees):
    """(module:def:parameter, called name, positional index or None) for
    every defaulted parameter of a non-dunder def or __init__ in src; an
    __init__ is called through its class name."""
    out = []
    for module, tree in trees.items():
        for qual, node in _defs(tree):
            owner, _, name = qual.rpartition(".")
            if name == "__init__":
                called = owner
            elif name.startswith("__") and name.endswith("__"):
                continue
            else:
                called = name
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if owner and not static:
                positional = positional[1:]  # self or cls
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
            kwonly = zip(args.kwonlyargs, args.kw_defaults)
            params += [(a.arg, None) for a, d in kwonly if d is not None]
            out += [(f"{module}:{qual}:{param}", called, param, i) for param, i in params]
    return out


def _calls(trees) -> dict:
    """called name -> [(call, module:def holding it, or None at module level)]
    for every call in src through a bare name or an attribute."""
    owners = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                owners[node] = None
        for qual, node in _defs(tree):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    owners[sub] = f"{module}:{qual}"
    calls = {}
    for call, owner in owners.items():
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        calls.setdefault(name, []).append((call, owner))
    return calls


def _passed(call, param, index):
    """What a call passes for param: a keyword (or **kwargs), the argument
    at its positional index (or a *args before it), or None."""
    for kw in call.keywords:
        if kw.arg in (param, None):
            return kw.value
    if index is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or i == index:
                return arg
    return None


def _one_value_parameters():
    """module:def:parameter for every defaulted parameter of a def that src
    calls, where no src call sets it (a def only the tests call is on the
    TEST_ONLY list).  Forwarding a one-value parameter of the calling def
    sets nothing, so the set grows to a fixed point."""
    trees = _trees()
    calls = _calls(trees)
    params = [p for p in _defaulted_parameters(trees) if p[1] in calls]

    def sets(call, owner, param, index, flagged):
        value = _passed(call, param, index)
        if value is None:
            return False
        return not (isinstance(value, ast.Name) and f"{owner}:{value.id}" in flagged)

    flagged = set()
    while True:
        found = {
            pid
            for pid, called, param, index in params
            if not any(sets(call, owner, param, index, flagged) for call, owner in calls[called])
        }
        if found == flagged:
            return found
        flagged = found


def test_no_one_value_parameters():
    assert _one_value_parameters() - ONE_VALUE_EXEMPT == set()


def test_one_value_exemptions_are_current():
    assert ONE_VALUE_EXEMPT <= _one_value_parameters()
