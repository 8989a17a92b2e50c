"""Span tracer for the benchmark's traced run.

The tracer wraps public forcinglab functions from outside the library, at
every module attribute that binds them, and keeps one span per outermost
call: (name, start, end, parent span, unit id).  A call that re-enters the
function it is already inside (recursion, or mutual recursion under one span
name) is counted but folded into the enclosing span, so recursive
evaluators produce one span per top-level call.  Hot leaf operations
(algebra ops, Name and HFSet construction) are only counted.

Spans are held in flat arrays and written out once, at the end of the run.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

clock = time.perf_counter

# span name -> (module, attribute)
SPANNED = (
    ("iteration.canonicalize_condition", "forcinglab.iteration", "canonicalize_condition"),
    ("iteration.build_iteration", "forcinglab.iteration", "build_iteration"),
    ("iteration.extend_stage", "forcinglab.iteration", "extend_stage"),
    ("iteration.check_lemma1", "forcinglab.iteration", "check_lemma1"),
    ("generic.enumerate_generics", "forcinglab.generic", "enumerate_generics"),
    ("boolalg.ro_algebra", "forcinglab.boolalg", "ro_algebra"),
    ("boolalg.check_complete_hom", "forcinglab.boolalg", "check_complete_hom"),
    ("names.evaluate", "forcinglab.names", "evaluate"),
    ("names.universe", "forcinglab.names", "name_universe"),
    ("names.universe", "forcinglab.names", "sampled_universe"),
    ("projection.make_context", "forcinglab.projection", "make_context"),
    ("projection.verify_projection_lemmas", "forcinglab.projection", "verify_projection_lemmas"),
    ("projection.verify_theorem2", "forcinglab.projection", "verify_theorem2"),
    ("projection.verify_corollary15", "forcinglab.projection", "verify_corollary15"),
    ("projection.factor_generic", "forcinglab.projection", "factor_generic"),
    ("cli.generate_instances", "forcinglab.cli", "generate_instances"),
    ("cli.execute", "forcinglab.cli", "execute"),
    ("cli.run_cifs_suite", "forcinglab.cli", "run_cifs_suite"),
    ("cli.write_report", "forcinglab.cli", "write_report"),
)

# span name -> (module, class, method)
SPANNED_METHODS = (
    ("projection.pi_second", "forcinglab.projection", "ProjectionContext", "pi_second"),
    ("names.TruthSession", "forcinglab.names", "TruthSession", "member_value"),
    ("names.TruthSession", "forcinglab.names", "TruthSession", "equal_value"),
    ("report.SuiteReport.to_jsonl", "forcinglab.report", "SuiteReport", "to_jsonl"),
)

# counter name -> (module, attribute)
COUNTED = (
    ("poset.regularize.calls", "forcinglab.poset", "regularize"),
    ("poset.complement_cut.calls", "forcinglab.poset", "complement_cut"),
    ("generic.dense_subsets.calls", "forcinglab.generic", "dense_subsets"),
    ("formula.parse_formula.calls", "forcinglab.formula", "parse_formula"),
)

# counter name -> (module, class, method)
COUNTED_METHODS = (
    ("boolalg.BoolAlgebra.ops", "forcinglab.boolalg", "BoolAlgebra", "meet"),
    ("boolalg.BoolAlgebra.ops", "forcinglab.boolalg", "BoolAlgebra", "join"),
    ("boolalg.BoolAlgebra.ops", "forcinglab.boolalg", "BoolAlgebra", "complement"),
    ("boolalg.BoolAlgebra.ops", "forcinglab.boolalg", "BoolAlgebra", "sum"),
    ("boolalg.BoolAlgebra.ops", "forcinglab.boolalg", "BoolAlgebra", "product"),
    ("names.Name.constructions", "forcinglab.names", "Name", "__init__"),
)


class Tracer:
    """In-memory span store plus call counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.unit_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.unit = -1
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.observed: dict[str, int] = {}
        self._keep: list = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    # -- wrappers -------------------------------------------------------------

    def spanned(self, name: str, fn, on_call=None, on_return=None):
        """Wrap fn so each outermost call records a span.  on_call(args,
        kwargs) runs on entry to each outermost call, on_return(args, kwargs,
        result) after each one that returns."""
        nid = self._id(name)
        calls, stack = self.calls, self.stack
        name_of, parent, unit_of = self.name_of, self.parent, self.unit_of
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if stack and name_of[stack[-1]] == nid:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            unit_of.append(self.unit)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def note_distinct(self, name: str, key, keep=None):
        """Record one observation of key under name; keep pins an object
        whose id() is part of the key, so the id cannot be reused."""
        seen = self.distinct.setdefault(name, set())
        self.observed[name] = self.observed.get(name, 0) + 1
        if key not in seen:
            seen.add(key)
            if keep is not None:
                self._keep.append(keep)

    # -- installation -----------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every forcinglab module attribute bound to original at
        wrapper, so `from .x import f` copies are reached too."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "forcinglab" or modname.startswith("forcinglab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        """Wrap every traced function and method.  forcinglab must already
        be imported in full."""
        import forcinglab.cli  # noqa: F401  (loads every traced module)
        from forcinglab.hfset import HFSet

        on_call = {"canonicalize_condition": self._canonicalize_called}
        on_return = {
            "make_context": self._context_returned,
            "check_complete_hom": self._hom_returned,
            "name_universe": self._universe_returned,
            "sampled_universe": self._universe_returned,
        }
        for name, modname, attr in SPANNED:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self.spanned(name, original, on_call.get(attr),
                                                on_return.get(attr)))
        for name, modname, attr in COUNTED:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self.counted(name, original))
        for name, modname, clsname, attr in SPANNED_METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._patch_method(cls, attr, self.spanned(name, cls.__dict__[attr]))
        for name, modname, clsname, attr in COUNTED_METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._patch_method(cls, attr, self.counted(name, cls.__dict__[attr]))
        new = HFSet.__dict__["__new__"]
        self._patch_method(HFSet, "__new__", staticmethod(
            self.counted("hfset.HFSet.constructions", new.__func__)))

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # -- return hooks -------------------------------------------------------------

    def _canonicalize_called(self, args, kwargs):
        raw, iteration, stage_index = args
        self.note_distinct("iteration.canonicalize_condition",
                           (tuple(raw), id(iteration), stage_index), iteration)

    def _context_returned(self, args, kwargs, result):
        # make_context caches on (alpha, gen_index) per iteration, so a first
        # successful call with a key is exactly one new context_cache entry
        iteration, alpha, gen_index = args[:3]
        self.note_distinct("projection.context_cache",
                           (id(iteration), alpha, gen_index), iteration)

    def _hom_returned(self, args, kwargs, result):
        self.counts["boolalg.check_complete_hom.families"] = \
            self.counts.get("boolalg.check_complete_hom.families", 0) + result.families_checked

    def _universe_returned(self, args, kwargs, result):
        algebra, rank = args[0], args[1]
        cap = kwargs.get("cap", args[2] if len(args) > 2 else None)
        self.note_distinct("names.universe", (id(algebra), rank, cap), algebra)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {name: 0.0 for name in self.names}
        names, name_of = self.names, self.name_of
        for i in range(n):
            out[names[name_of[i]]] += end[i] - start[i] - covered[i]
        return out

    def root_seconds(self) -> float:
        """Time inside outermost spans opened during timed units."""
        total = 0.0
        for i in range(len(self.start)):
            if self.parent[i] < 0 and self.unit_of[i] >= 0:
                total += self.end[i] - self.start[i]
        return total

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def distinct_ratio(self, name: str) -> float:
        n = self.observed.get(name, 0)
        return len(self.distinct.get(name, ())) / n if n else 0.0

    def write(self, path: str):
        """Gzip file: one JSON header line, then the arrays' raw bytes in
        header order (int32 name, parent, unit; float64 start, end)."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name_of:i", "parent:i", "unit_of:i",
                             "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.unit_of, self.start, self.end):
                fh.write(arr.tobytes())
