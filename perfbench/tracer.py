"""Per-layer tracing of ``uplan`` from outside the program.

:class:`Tracer` replaces public functions of the ``uplan`` modules with
wrappers while it is installed. Each function is found by object identity:
every attribute of a loaded ``uplan`` module (or of a class defined there)
that is bound to the original function gets the wrapper, so the tracing
follows a function wherever the program imports it from. A name that no
longer exists is reported as absent instead of failing the run.

Coarse calls record spans (name, start, end, parent span, thread); hot
calls only add to a per-thread count and total time, since a span per call
would cost more than the call. Times of hot calls are inclusive: a call
nested in a call of the same function is counted but not timed again.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import Counter
from time import perf_counter

# (module, qualified name, metric prefix)
COARSE = [
    ("uplan.dsl", "parse_domain", "dsl.parse_domain"),
    ("uplan.dsl", "parse_evidence", "dsl.parse_evidence"),
    ("uplan.dsl", "lint_domain", "dsl.lint_domain"),
    ("uplan.evidence", "generate_pstates", "evidence.generate_pstates"),
    ("uplan.evidence", "rank_pstates", "evidence.rank_pstates"),
    ("uplan.planner", "plan_for_pstate", "planner.plan_for_pstate"),
    ("uplan.reapply", "reapply_plan", "reapply.reapply_plan"),
    ("uplan.reapply", "continue_from", "reapply.continue_from"),
    ("uplan.reapply", "merge_plans", "reapply.merge_plans"),
    ("uplan.reapply", "insert_ka_operators", "reapply.insert_ka_operators"),
    ("uplan.serialize", "dumps_superplan", "serialize.dumps_superplan"),
]
HOT = [
    ("uplan.model", "PState.facts", "model.facts"),
    ("uplan.model", "match", "model.match"),
    ("uplan.model", "holds", "model.holds"),
    ("uplan.model", "apply_edits", "model.apply_edits"),
    ("uplan.model", "enforce_compatibility", "model.enforce_compatibility"),
    ("uplan.planner", "match_conjunction", "planner.match_conjunction"),
    ("uplan.planner", "operator_probability", "planner.operator_probability"),
    ("uplan.planner", "deduce_effects", "planner.deduce_effects"),
    ("uplan.planner", "review_decisions", "planner.review_decisions"),
    ("uplan.planner", "Search.run", "planner.search"),
    ("uplan.evidence", "combine", "evidence.combine"),
]
ROOT = 0


def _resolve(module_name, qualname):
    obj = sys.modules.get(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _after(prefix, result, args, extra):
    """Counts read off a coarse call's arguments or result."""
    if prefix == "reapply.reapply_plan":
        kind = getattr(result, "kind", None)
        if kind in ("full", "partial", "none"):
            extra[f"reapply.{kind}"] += 1
    elif prefix == "reapply.merge_plans" and args:
        extra["reapply.library_size"] += len(args[0])
    elif prefix == "evidence.generate_pstates":
        extra["evidence.worlds"] += len(result)
    elif prefix == "serialize.dumps_superplan":
        extra["serialize.superplan_bytes"] += len(result.encode("utf-8"))


class Tracer:
    def __init__(self):
        self._patches = []      # (owner, attribute, original)
        self.absent = []        # metric prefixes whose function is gone
        self._lock = threading.Lock()   # for counts updated from pool threads
        self.reset()

    # -- recording --

    def reset(self):
        self.spans = []         # (id, name, start, end, parent, thread)
        self.extra = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._accs = []
        self.root_span = None

    def _acc(self) -> dict:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = {}
            self._local.stack = []
            self._accs.append(acc)
        return acc

    def _coarse(self, fn, prefix):
        def wrapper(*args, **kwargs):
            self._acc()
            stack = self._local.stack
            span = next(self._ids)
            parent = stack[-1] if stack else ROOT
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span, prefix, start, end, parent,
                                   threading.get_ident()))
            with self._lock:
                _after(prefix, result, args, self.extra)
            return result
        return wrapper

    def _hot(self, fn, prefix):
        def wrapper(*args, **kwargs):
            acc = self._acc()
            rec = acc.get(prefix)
            if rec is None:
                rec = acc[prefix] = [0, 0.0, 0, 0]   # calls, seconds, depth, extra
            rec[0] += 1
            if rec[2]:
                return fn(*args, **kwargs)
            rec[2] = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[1] += perf_counter() - start
                rec[2] = 0
                if prefix == "planner.search":
                    rec[3] += getattr(args[0], "expansions", 0)
            if prefix == "planner.review_decisions":
                rec[3] += len(result)
            return result
        return wrapper

    def call(self, fn, *args):
        """Run ``fn`` as the root span: the plan call whose self time is
        reported as ``cli.self_s``."""
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.root_span = (start, perf_counter())

    # -- installing --

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "uplan" or name.startswith("uplan."))]
        owners = list(modules)
        for m in modules:
            owners.extend(v for v in vars(m).values()
                          if isinstance(v, type) and v.__module__.startswith("uplan"))
        self.absent = []
        for targets, make in ((COARSE, self._coarse), (HOT, self._hot)):
            for module_name, qualname, prefix in targets:
                original = _resolve(module_name, qualname)
                if not callable(original):
                    self.absent.append(prefix)
                    continue
                wrapper = make(original, prefix)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, attr, original))
                            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading --

    def metrics(self) -> dict:
        """Per-layer values of the calls recorded since :meth:`reset`."""
        out = dict(self.extra)
        for _id, prefix, start, end, _parent, _thread in self.spans:
            out[prefix + "_calls"] = out.get(prefix + "_calls", 0) + 1
            out[prefix + "_s"] = out.get(prefix + "_s", 0.0) + (end - start)
        for acc in self._accs:
            for prefix, (calls, seconds, _depth, extra) in acc.items():
                out[prefix + "_calls"] = out.get(prefix + "_calls", 0) + calls
                out[prefix + "_s"] = out.get(prefix + "_s", 0.0) + seconds
                if prefix == "planner.search":
                    out["planner.search_runs"] = out.get("planner.search_runs", 0) + calls
                    out["planner.expansions"] = out.get("planner.expansions", 0) + extra
                elif prefix == "planner.review_decisions":
                    out["planner.review_switches"] = (
                        out.get("planner.review_switches", 0) + extra)
        if self.root_span is not None:
            start, end = self.root_span
            children = sorted((max(s, start), min(e, end))
                              for _i, _n, s, e, parent, _t in self.spans if parent == ROOT)
            covered, reach = 0.0, start
            for s, e in children:
                if e > reach:
                    covered += e - max(s, reach)
                    reach = e
            out["cli.self_s"] = (end - start) - covered
        return out
