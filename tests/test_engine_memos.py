"""Where the cycle engine's memos live and how long they live.

The family context owns every memo, one per fact: a sum and a match
report per descriptor, a boundary per canonical cycle and a product per
ordered pair of them, which the boundary-formula checks and the bar
differential share.
`cycles.boundary` scans each raw face once and `cycles.external_product`
merges each product without a scan; both keep nothing, and
`cycles._canonical_cache` grows only from family construction.  Every
product the suites and builds make has a point-class factor.
"""

import gc
import weakref

from ellmotive import cycles, formulas
from ellmotive.barcx import BarChain, bar_faces, build_motive_chain
from ellmotive.config import default_config
from ellmotive.fixtures import standard_functions
from ellmotive.formulas import FamilyContext
from ellmotive.report import emit_report
from ellmotive.suites import run_suite
from reference import fixed_points


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
    ctx.cycle_boundary(nu_term)
    ctx.product(nu_term, next(iter(pt_sum)))
    assert len(cycles._canonical_cache) == before


def test_context_boundary_is_computed_once():
    curve, gs = standard_functions(2)
    a, _ = fixed_points(2)
    ctx = FamilyContext(curve, gs)
    desc = ("mu", a, ctx.names)
    (Y,) = ctx.materialize(desc)
    first = ctx.boundary(desc)
    assert list(ctx._boundaries) == [Y]  # kept per cycle, not per descriptor
    assert ctx.cycle_boundary(Y) is ctx._boundaries[Y]
    assert ctx.boundary(desc) == first == cycles.boundary(ctx.materialize(desc))


def test_family_boundary_is_shared_with_the_bar_faces(monkeypatch):
    # the formula checks and the bar differential read one memo: Y's
    # boundary is computed once when ctx.boundary and the faces of a word
    # holding Y both ask for it
    calls = []
    real = cycles.boundary

    def counted(s):
        calls.append(s)
        return real(s)

    for module in (cycles, formulas):
        monkeypatch.setattr(module, "boundary", counted)
    curve, gs = standard_functions(2)
    a, _ = fixed_points(2)
    ctx = FamilyContext(curve, gs)
    mu = ("mu", a, ctx.names)
    (Y,) = ctx.materialize(mu)
    word = BarChain.from_cycle_sums([ctx.materialize(("pt", a)), ctx.materialize(mu)])
    assert not ctx.boundary(mu).is_zero()
    assert not bar_faces(word, ctx).is_zero()
    assert not ctx.boundary(mu).is_zero()
    cycles_asked = [next(iter(s)) for s in calls]
    assert cycles_asked.count(Y) == 1
    assert len(cycles_asked) == len(set(cycles_asked)) == len(ctx._boundaries)


def test_runs_repeat_and_leave_no_context_behind(monkeypatch):
    # every memo lives on a context, so when a run returns its memos go with
    # it: a second run starts from empty memos and gives the same bytes
    contexts = []
    real_init = FamilyContext.__init__

    def init(self, curve, gs, mode="fbar"):
        real_init(self, curve, gs, mode)
        assert not (self._cache or self._reports or self._boundaries or self._products)
        memos = {name for name, value in vars(self).items() if isinstance(value, dict)}
        assert memos == {"gs", "_cache", "_reports", "_boundaries", "_products"}
        contexts.append(weakref.ref(self))

    monkeypatch.setattr(formulas.FamilyContext, "__init__", init)
    cfg = default_config()
    first = emit_report(run_suite(cfg, "all"), "json")
    second = emit_report(run_suite(cfg, "all"), "json")
    assert first == second
    gc.collect()
    assert contexts and all(ref() is None for ref in contexts)


def test_products_are_merged_without_a_scan():
    # every product the boundaries suite and the n=2 build make has a point
    # class factor, so each is merged; a pair without one would raise
    # (`test_cycles.py::test_product_without_a_point_class_raises`) and fail
    # a record or the build
    rep = run_suite(default_config(), "boundaries")
    curve, gs = standard_functions(2)
    mc = build_motive_chain(curve, gs)
    assert not rep.failed and mc.context._products
    for pair in mc.context._products:
        assert any(not (z.params or z.qcoords) for z in pair)
