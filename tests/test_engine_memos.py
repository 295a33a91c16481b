"""Where the cycle engine's memos live and how long they live.

The family context owns every memo: a boundary per descriptor, and the
bar differential's boundary per slot and product per slot pair.
`cycles.boundary` and `cycles.external_product` scan each raw face or
product once and keep nothing, and `cycles._canonical_cache` grows only
from family construction.  Products with a point-class factor are merged
without a scan, and every product the suites and builds make has one.
"""

import gc
import sys
import weakref

from ellmotive import cycles, formulas
from ellmotive.barcx import build_motive_chain
from ellmotive.config import default_config
from ellmotive.fixtures import fixed_points, standard_functions
from ellmotive.formulas import FamilyContext
from ellmotive.report import emit_report
from ellmotive.suites import run_suite


def test_boundary_keeps_no_raw_face(monkeypatch):
    faces = []
    real = cycles.term_faces

    def term_faces(cycle):
        out = real(cycle)
        faces.extend(face for _, face in out)
        return out

    monkeypatch.setattr(cycles, "term_faces", term_faces)
    # other tests may canonicalize faces themselves: look at what this run adds
    before = set(cycles._canonical_cache)
    rep = run_suite(default_config(), "boundaries")
    added = cycles._canonical_cache.keys() - before
    assert not rep.failed and faces
    assert not any(face in added for face in faces)
    assert not hasattr(cycles, "_face_cache")


def test_canonical_cache_grows_only_from_family_construction():
    curve, gs = standard_functions(2)
    a, b = fixed_points(2)
    ctx = FamilyContext(curve, gs)
    eta = ("eta", (a,), ctx.names)
    eta_sum, pt_sum = ctx.materialize(eta), ctx.materialize(("pt", a))
    (nu_term,) = ctx.materialize(("nu", 1, a, b, ctx.names))
    before = len(cycles._canonical_cache)
    cycles.boundary(ctx.boundary(eta))
    cycles.external_product(eta_sum, pt_sum)
    ctx.slots.boundary(nu_term)
    ctx.slots.product(nu_term, next(iter(pt_sum)))
    assert len(cycles._canonical_cache) == before


def test_context_boundary_is_computed_once():
    curve, gs = standard_functions(2)
    a, _ = fixed_points(2)
    ctx = FamilyContext(curve, gs)
    desc = ("mu", a, ctx.names)
    first = ctx.boundary(desc)
    assert ctx.boundary(desc) is first
    assert first == cycles.boundary(ctx.materialize(desc))


def test_runs_repeat_and_leave_no_context_behind(monkeypatch):
    # every memo lives on a context, so when a run returns its memos go with
    # it: a second run starts from empty memos and gives the same bytes
    contexts = []
    real_init = FamilyContext.__init__

    def init(self, curve, gs, mode="fbar"):
        real_init(self, curve, gs, mode)
        assert not (self._cache or self._boundaries or self._reports)
        assert not (self.slots._boundaries or self.slots._products)
        contexts.append(weakref.ref(self))

    monkeypatch.setattr(formulas.FamilyContext, "__init__", init)
    cfg = default_config()
    first = emit_report(run_suite(cfg, "all"), "json")
    second = emit_report(run_suite(cfg, "all"), "json")
    assert first == second
    gc.collect()
    assert contexts and all(ref() is None for ref in contexts)


def test_products_are_merged_without_a_scan(monkeypatch):
    # every product the boundaries suite and the n=2 build make has a point
    # class factor: a change that routes them back through the orbit scan
    # fails here instead of only slowing down
    callers = []
    real = cycles._scan

    def scan(cycle, rows):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "external_product":
            frame = frame.f_back
        callers.append(frame is not None)
        return real(cycle, rows)

    monkeypatch.setattr(cycles, "_scan", scan)
    rep = run_suite(default_config(), "boundaries")
    curve, gs = standard_functions(2)
    mc = build_motive_chain(curve, gs)
    assert not rep.failed and mc.context.slots._products
    assert not any(callers)
