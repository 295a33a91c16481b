"""The benchmark tracer's hooks must still find every layer entry point.

`perfbench/trace.py` wraps functions and methods from outside by looking
them up in the owner's `__dict__`.  A refactor that moves a method (say, a
dataclass rebuilt with `slots=True`) would otherwise leave a layer silently
unhooked and its counter at zero.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_PATH = ROOT / "perfbench" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves():
    trace = _load_trace()
    for mod_name, attr, name, _ in trace.ENTRY_POINTS:
        owner = importlib.import_module(f"ellmotive.{mod_name}")
        *cls_path, fname = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert fname in owner.__dict__, f"{name}: {mod_name}.{attr} is not defined there"
        assert callable(owner.__dict__[fname]), name


_COUNT_HOOKS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_trace", sys.argv[1])
trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace)
import ellmotive
tracer = trace.Tracer()
tracer.install(ellmotive)
from ellmotive.fixtures import generator, rank_one_curve
E = rank_one_curve()
P = generator(E)
# a read of a counted hook may step it: a bare second read measures that
reads = [tracer.metrics(), tracer.metrics()]
hash(P), hash(P)
reads.append(tracer.metrics())
E.key(), E.field.key(P.x)
reads.append(tracer.metrics())
print(json.dumps(reads))
from ellmotive import cycles
t = cycles.PointExpr.param(E, "t")
cycle = cycles.ParamCycle(E, ("t",), (t, t + cycles.PointExpr.constant(P)), ())
cycles.canonical_term(cycle), cycles.canonical_term(cycle)
print(json.dumps(tracer.metrics()))
"""


def test_hot_hooks_count_calls():
    # install the tracer in a child so this process keeps unwrapped functions
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_HOOKS, str(TRACE_PATH)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stdout.splitlines()
    # the two hash(P) calls add exactly 2 beyond what a bare read adds, so
    # hashing elsewhere (say, while points are built) leaves this count alone
    reads = json.loads(lines[0])
    hashes = [m["curves.point_hash.calls"] for m in reads]
    assert (hashes[2] - hashes[1]) - (hashes[1] - hashes[0]) == 2
    metrics = reads[-1]
    assert metrics["curves.curve_key.calls"] >= 1
    assert metrics["fields.key.calls"] >= 1
    # one miss and one hit of canonical_term
    metrics = json.loads(lines[1])
    assert metrics["cycles.canonical_term.calls"] == 2
    assert metrics["cycles.canonical_term.misses"] == 1


def test_canonical_cache_grows_by_one_per_miss():
    # trace.py counts misses as the growth of cycles._canonical_cache, which
    # it looks up by name: a renamed cache would read as 0 misses
    from ellmotive import cycles
    from ellmotive.fixtures import generator, rank_one_curve

    E = rank_one_curve()
    t = cycles.PointExpr.param(E, "cache_probe") + cycles.PointExpr.constant(generator(E))
    cycle = cycles.ParamCycle(E, ("cache_probe",), (t,), ())
    assert isinstance(cycles._canonical_cache, dict)
    before = len(cycles._canonical_cache)
    result = cycles.canonical_term(cycle)
    assert len(cycles._canonical_cache) == before + 1
    assert cycles.canonical_term(cycle) is result
    assert len(cycles._canonical_cache) == before + 1
