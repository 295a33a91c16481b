"""Outside-in tracer for one ``ellmotive`` CLI invocation.

Run as ``python perfbench/trace.py METRICS SPANS -- <cli arguments>`` with
``src`` on PYTHONPATH.  The process imports ``ellmotive``, wraps the public
layer entry points from outside (no file under ``src/`` changes), runs
``ellmotive.cli.main`` on the arguments and writes the report to stdout
exactly as the CLI does.  Spans stay in memory and are written to SPANS
when the run ends; the per-layer metrics go to METRICS as JSON.

A span records name, start, end and parent span.  "self" time is a span's
duration minus the time of the timed calls nested directly in it.  The hot
dunders and key functions get counters only.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, metric name, kind): "span" records a span, "timed"
# only adds self time and a call count (too hot for a span record), "count"
# only counts calls.  An attribute "Class.method" wraps a method.
ENTRY_POINTS = (
    ("suites", "_suite_projectors", "suites.projectors", "span"),
    ("suites", "_suite_divisors", "suites.divisors", "span"),
    ("suites", "_suite_boundaries", "suites.boundaries", "span"),
    ("suites", "_suite_bar", "suites.bar", "span"),
    ("barcx", "_solve_exact", "barcx.solve", "span"),
    ("barcx", "build_motive_chain", "barcx.build_motive_chain", "span"),
    ("barcx", "bar_differential", "barcx.bar_differential", "span"),
    ("barcx", "comultiply_report", "barcx.comultiply_report", "span"),
    ("barcx", "comodule_span", "barcx.comodule_span", "span"),
    ("barcx", "kill_certificates", "barcx.kill_certificates", "span"),
    ("cycles", "canonical_term", "cycles.canonical_term", "span"),
    ("cycles", "term_faces", "cycles.term_faces", "span"),
    ("cycles", "boundary", "cycles.boundary", "span"),
    ("cycles", "external_product", "cycles.external_product", "span"),
    ("cycles", "build_family", "cycles.build_family", "span"),
    ("cycles", "decorate", "cycles.decorate", "span"),
    ("formulas", "verify_boundary_formulas", "formulas.verify_boundary_formulas", "span"),
    ("divisors", "restrict_to_fiber", "divisors.restrict_to_fiber", "span"),
    ("divisors", "is_principal", "divisors.is_principal", "span"),
    ("report", "emit_report", "report.emit", "span"),
    ("config", "load_config", "config.load", "span"),
    ("config", "default_config", "config.load", "span"),
    ("curves", "ec_add", "curves.ec_add", "timed"),
    ("symgrp", "GroupAlgebraElement.__mul__", "symgrp.ga_mul", "timed"),
    ("curves", "ec_scalar_mul", "curves.ec_scalar_mul", "count"),
    ("curves", "CurvePoint.__hash__", "curves.point_hash", "count"),
    ("curves", "EllipticCurve.key", "curves.curve_key", "count"),
    ("fields", "RationalField.key", "fields.key", "count"),
    ("fields", "PrimeField.key", "fields.key", "count"),
)

ROOT = "cli.main"


class Tracer:
    """Span store and per-name aggregates for one traced process."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        # one column per span field, so a million spans stay small
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.stack = []  # [recorded span id of the frame, seconds in timed children]
        self.calls = Counter()
        self.counters = {}  # name -> itertools.count of the counted calls
        self.uncounted = Counter()  # counter steps the tracer itself caused
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = Counter()  # counts the wrappers derive from arguments and results
        self.extra_s = defaultdict(float)  # self times split by an argument
        self.solves = []  # (rows, cols, nnz) of every contraction solve

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def timed(self, name, fn, record=True, after=None):
        """Wrap fn so each call adds to name's calls, total and self time;
        record=True also stores a span, after(args, result, self_s) runs on
        return."""
        nid = self._name_id(name)
        stack, calls, total_s, self_s = self.stack, self.calls, self.total_s, self.self_s
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][0] if stack else -1
            if record:
                sid = len(span_start)
                span_name.append(nid)
                span_start.append(0.0)
                span_end.append(0.0)
                span_parent.append(parent)
            else:
                sid = parent
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                total_s[name] += dur
                self_s[name] += own
                if record:
                    span_start[sid] = t0
                    span_end[sid] = t1
            if after is not None:
                after(args, result, own)
            return result

        return wrapper

    def counted(self, name, fn):
        # next() on an itertools.count is the cheapest counter there is
        counter = self.counters.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args):
            next(counter)
            return fn(*args)

        return wrapper

    # per-call extras ------------------------------------------------------

    def _canonical_after(self, cycles_mod):
        extra, extra_s = self.extra, self.extra_s
        state = {"size": 0}

        def after(args, result, own):
            size = len(getattr(cycles_mod, "_canonical_cache", ()))
            if size > state["size"]:
                extra["cycles.canonical_term.misses"] += size - state["size"]
            state["size"] = size
            extra_s[f"cycles.canonical_term.self_s.b{args[0].b}"] += own

        return after

    def _solve_after(self, args, result, own):
        # the row count hashes every word, which runs the counted hash and
        # key functions: take those calls back out of the counters
        before = {name: next(c) for name, c in self.counters.items()}
        columns, rhs = args
        keys = set(rhs)
        for col in columns:
            keys.update(col)
        nnz = sum(1 for col in columns for v in col.values() if v != 0)
        self.solves.append((len(keys), len(columns), nnz))
        for name, c in self.counters.items():
            self.uncounted[name] += next(c) - before[name] + 1

    def _faces_after(self, args, result, own):
        self.extra["cycles.term_faces.faces"] += len(result)

    def _bar_after(self, args, result, own):
        self.extra["barcx.bar_differential.words_out"] += len(result.terms)

    def _chain_after(self, args, result, own):
        words = len(result.chain.terms)
        self.extra["barcx.chain.words"] = max(self.extra["barcx.chain.words"], words)

    # installation ---------------------------------------------------------

    def install(self, package):
        """Wrap every entry point at every ellmotive module attribute bound
        to the same function object (barcx, formulas and config import some
        of them by name)."""
        modules = {
            info.name: importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        }
        afters = {
            "cycles.canonical_term": self._canonical_after(modules["cycles"]),
            "barcx.solve": self._solve_after,
            "cycles.term_faces": self._faces_after,
            "barcx.bar_differential": self._bar_after,
            "barcx.build_motive_chain": self._chain_after,
        }
        for mod_name, attr, name, kind in ENTRY_POINTS:
            owner = modules[mod_name]
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[fname]
            if kind == "count":
                wrapped = self.counted(name, original)
            else:
                wrapped = self.timed(name, original, kind == "span", afters.get(name))
            if cls_path:
                setattr(owner, fname, wrapped)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # output ---------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, counter in self.counters.items():
            out[f"{name}.calls"] = next(counter) - self.uncounted[name]
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            if name in self.total_s:
                out[f"{name}.s"] = self.total_s[name]
                out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.extra)
        out.update(self.extra_s)
        out["barcx.solve.rows"] = sum(s[0] for s in self.solves)
        out["barcx.solve.cols"] = sum(s[1] for s in self.solves)
        out["barcx.solve.nnz"] = sum(s[2] for s in self.solves)
        out["trace.spans"] = len(self.span_start)
        return out

    def dump_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                    "parent": self.span_parent.tolist(),
                },
                fh,
            )


def main(argv) -> int:
    metrics_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace.py METRICS SPANS -- <cli arguments>")
    import ellmotive
    import ellmotive.cli

    tracer = Tracer()
    tracer.install(ellmotive)
    code = tracer.timed(ROOT, ellmotive.cli.main)(cli_args)
    sys.stdout.flush()
    tracer.dump_spans(spans_path)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": tracer.metrics(), "solves": tracer.solves}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
