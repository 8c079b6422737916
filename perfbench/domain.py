"""The benchmark's own model of a planning domain and of its evidence.

Everything here is written apart from ``uplan``: the workload generators
build a :class:`Domain` and a list of :class:`Frame` values, print them in the
uplan file formats, and the output checks use the same values to decide what
a correct super-plan must contain. Nothing in this module imports ``uplan``.

Facts are ``(level, predicate, args)`` triples; a world state is a frozenset
of facts. A pattern is ``(predicate, args, positive)``; arguments starting
with ``?`` are variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

CHOOSE_ONE = "choose-one"
DO_ALL = "do-all"
HELPER_DEPTH = 3


def pat(predicate, *args, positive=True):
    return (predicate, tuple(args), positive)


def neg(p):
    return (p[0], p[1], not p[2])


def _pat_text(p) -> str:
    inner = "(" + " ".join((p[0],) + p[1]) + ")"
    return inner if p[2] else f"(not {inner})"


# --- evidence ---------------------------------------------------------------

@dataclass
class Frame:
    """A frame of discernment with the facts each element contributes and
    one or more mass lines, each a dict from an element tuple to a mass."""

    name: str
    elements: tuple
    facts: dict = field(default_factory=dict)   # element -> [(level, pred, args)]
    masses: list = field(default_factory=list)

    def text(self) -> str:
        lines = [f"frame {self.name} {{{' '.join(self.elements)}}}"]
        for element in self.elements:
            produced = self.facts.get(element, ())
            if produced:
                props = " ".join(f"{_pat_text((p, a, True))}@{lvl}"
                                 for lvl, p, a in produced)
                lines.append(f"  {element} -> {props}")
        for line in self.masses:
            body = " ".join(f"{{{' '.join(s)}}}={m!r}" for s, m in line.items())
            lines.append(f"mass {self.name} {body}")
        return "\n".join(lines) + "\n"


def evidence_text(frames) -> str:
    return "\n".join(f.text() for f in frames)


def dempster(m1: dict, m2: dict) -> dict:
    """Dempster's rule on two mass dicts keyed by frozensets of elements."""
    out: dict = {}
    conflict = 0.0
    for a, x in m1.items():
        for b, y in m2.items():
            meet = a & b
            if meet:
                out[meet] = out.get(meet, 0.0) + x * y
            else:
                conflict += x * y
    return {s: m / (1.0 - conflict) for s, m in out.items()}


def frame_interval(frame: Frame, element: str) -> tuple:
    """(belief, plausibility) of one element after fusing every mass line;
    a frame without mass lines is vacuous."""
    fused = {frozenset(frame.elements): 1.0}
    for line in frame.masses:
        fused = dempster(fused, {frozenset(s): m for s, m in line.items()})
    bel = sum(m for s, m in fused.items() if s == {element})
    pl = sum(m for s, m in fused.items() if element in s)
    return bel, pl


def expected_worlds(frames, domain: "Domain") -> dict:
    """World id -> (support, plausibility, initial facts) for every element
    combination, with the domain's compatibility relations applied."""
    per_frame = [{e: frame_interval(f, e) for e in f.elements} for f in frames]
    worlds = {}
    for picks in itertools.product(*(f.elements for f in frames)):
        support, plaus = 1.0, 1.0
        facts = set()
        for frame, intervals, element in zip(frames, per_frame, picks):
            bel, pl = intervals[element]
            support *= bel
            plaus *= pl
            facts.update(frame.facts.get(element, ()))
        state = domain.close_compat(frozenset(facts))
        worlds["+".join(picks)] = (support, plaus, state)
    return worlds


# --- domain -----------------------------------------------------------------

@dataclass
class Op:
    name: str
    level: int
    mode: str = DO_ALL
    subgoals: tuple = ()      # (operator name, fulfilment)
    edits: tuple = ()         # ("assert" | "retract", pattern, level)
    necessary: tuple = ()     # (pattern, level)
    satisfiable: tuple = ()   # (pattern, level)
    post: tuple = ()          # (pattern, level)
    probability: tuple = ()   # ((conditions...), value); empty = default 1.0

    @property
    def is_leaf(self) -> bool:
        return bool(self.edits)

    @property
    def variables(self) -> set:
        pats = [p for p, _ in self.necessary + self.satisfiable + self.post]
        pats += [p for _, p, _ in self.edits]
        return {a for p in pats for a in p[1] if a.startswith("?")}


@dataclass
class Domain:
    levels: int
    goal: str
    ops: dict                 # name -> Op, in file order
    rules: tuple = ()         # (name, trigger pattern, effects)
    compat: tuple = ()        # (if pattern, if level, then pattern, then level)
    goal_fulfilment: float = 1000.0
    rho: float = 0.1

    # -- text --

    def text(self) -> str:
        out = [f"levels {self.levels}", f"goal {self.goal} {self.goal_fulfilment!r}",
               f"review rho {self.rho!r}", "coverage 0.0 0.0", ""]
        for p, lvl, q, qlvl in self.compat:
            out.append(f"compat {_pat_text(p)}@{lvl} => {_pat_text(q)}@{qlvl}")
        for name, trigger, effects in self.rules:
            eff = " ".join(f"{op} {_pat_text(p)}@{lvl}" for op, p, lvl in effects)
            out.append(f"rule {name} when {_pat_text(trigger)} then {eff}")
        for op in self.ops.values():
            out.append("")
            out.append(f"operator {op.name}")
            out.append(f"  level {op.level}")
            for slot, pairs in (("necessary", op.necessary),
                                ("satisfiable", op.satisfiable)):
                if pairs:
                    out.append(f"  {slot} " + " ".join(
                        f"{_pat_text(p)}@{lvl}" for p, lvl in pairs))
            out.append(f"  plot {op.mode}")
            for name, fulfilment in op.subgoals:
                out.append(f"    {name} {fulfilment!r}")
            for kind, p, lvl in op.edits:
                out.append(f"    {kind} {_pat_text(p)}@{lvl}")
            if op.probability:
                out.append("  probability")
                for conds, value in op.probability:
                    if conds:
                        c = " ".join(f"{_pat_text(p)}@{lvl}" for p, lvl in conds)
                        out.append(f"    when {c} => {value!r}")
                    else:
                        out.append(f"    default {value!r}")
            if op.post:
                out.append("  postconditions " + " ".join(
                    f"{_pat_text(p)}@{lvl}" for p, lvl in op.post))
            out.append("  planfail backtrack")
        return "\n".join(out) + "\n"

    # -- state semantics --

    @staticmethod
    def bindings_for(p, lvl, fact, b):
        """Extend bindings so pattern ``p`` at ``lvl`` names ``fact``, or None."""
        flvl, fpred, fargs = fact
        if flvl != lvl or fpred != p[0] or len(fargs) != len(p[1]):
            return None
        out = dict(b)
        for x, y in zip(p[1], fargs):
            if x.startswith("?"):
                if out.setdefault(x, y) != y:
                    return None
            elif x != y:
                return None
        return out

    def solutions(self, state, conds, b):
        """Every binding extending ``b`` under which all conditions hold."""
        if not conds:
            yield b
            return
        (p, lvl), rest = conds[0], conds[1:]
        if p[2]:
            args = tuple(b.get(a, a) for a in p[1])
            if not any(a.startswith("?") for a in args):
                if (lvl, p[0], args) in state:
                    yield from self.solutions(state, rest, b)
                return
            for fact in state:
                ext = self.bindings_for(p, lvl, fact, b)
                if ext is not None:
                    yield from self.solutions(state, rest, ext)
            return
        # Negation: no instance of the positive pattern may be present.
        if any(self.bindings_for(neg(p), lvl, f, b) is not None for f in state):
            return
        yield from self.solutions(state, rest, b)

    def holds(self, state, conds, b=None) -> bool:
        return next(self.solutions(state, tuple(conds), b or {}), None) is not None

    def close_compat(self, state):
        changed = True
        while changed:
            changed = False
            for p, lvl, q, qlvl in self.compat:
                for fact in list(state):
                    b = self.bindings_for(p, lvl, fact, {})
                    if b is None:
                        continue
                    new = (qlvl, q[0], tuple(b.get(a, a) for a in q[1]))
                    if new not in state:
                        state = state | {new}
                        changed = True
        return state

    def apply_leaf(self, op: Op, state, b):
        """State after a leaf's edits, the causal rules they trigger and the
        compatibility closure."""
        s = set(state)
        changes = []
        for kind, p, lvl in op.edits:
            fact = (lvl, p[0], tuple(b.get(a, a) for a in p[1]))
            if kind == "assert":
                s.add(fact)
            else:
                s.discard(fact)
            changes.append((kind, fact))
        while changes:
            kind, fact = changes.pop(0)
            for _name, trigger, effects in self.rules:
                if kind != "assert" or trigger[0] != fact[1] or trigger[1] != fact[2]:
                    continue
                for ekind, p, lvl in effects:
                    new = (lvl, p[0], p[1])
                    if ekind == "assert" and new not in s:
                        s.add(new)
                        changes.append((ekind, new))
        return self.close_compat(frozenset(s))

    # -- plan acceptance --

    def helpers_for(self, p, lvl, min_level):
        for op in self.ops.values():
            if op.level < min_level:
                continue
            for q, qlvl in op.post:
                if (qlvl == lvl and q[0] == p[0] and q[2] == p[2]
                        and len(q[1]) == len(p[1])
                        and all(x == y or x.startswith("?") or y.startswith("?")
                                for x, y in zip(q[1], p[1]))):
                    yield op
                    break

    def accepts(self, steps, state, redundant_helpers=False) -> bool:
        """True when ``steps`` (a list of (operator, bindings dict)) is a
        yield of the goal's decomposition from ``state``: every operator's
        preconditions hold where it runs, helper steps appear only where a
        satisfiable precondition is false and leave it true, and every
        operator's postconditions hold where it ends. An operator whose
        postconditions already hold may be skipped, as a replayed plan does.
        With ``redundant_helpers``, a helper may also run where its
        precondition already holds."""
        return any(i == len(steps) for i, _ in
                   self._derive(self.goal, 0, state, steps, HELPER_DEPTH, redundant_helpers))

    def missing_helper(self, steps, state):
        """The name of a variable-free helper operator whose step, inserted
        once anywhere in ``steps``, makes the plan acceptable; None if none
        does."""
        helpers = {h.name for op in self.ops.values() for p, lvl in op.satisfiable
                   for h in self.helpers_for(p, lvl, op.level) if not h.variables}
        for name in sorted(helpers):
            for at in range(len(steps) + 1):
                if self.accepts(steps[:at] + [(name, {})] + steps[at:], state):
                    return name
        return None

    def _derive(self, name, i, state, steps, depth, redundant):
        op = self.ops[name]
        if op.post and self.holds(state, op.post):
            yield i, state
        if op.is_leaf:
            # The leaf's own step, after any helpers, carries its bindings;
            # they must bind every variable the operator mentions.
            for j, s in self._satisfy(op, 0, i, state, {}, steps, depth, redundant):
                if j >= len(steps) or steps[j][0] != name:
                    continue
                b = dict(steps[j][1])
                if (op.variables <= b.keys() and self.holds(state, op.necessary, b)
                        and self.holds(s, op.satisfiable, b)):
                    after = self.apply_leaf(op, s, b)
                    if self.holds(after, op.post, b):
                        yield j + 1, after
            return
        b = next(self.solutions(state, op.necessary, {}), None)
        if b is None:
            return
        for j, s in self._satisfy(op, 0, i, state, b, steps, depth, redundant):
            for k, after in self._plot(op, j, s, steps, depth, redundant):
                if self.holds(after, op.post, b):
                    yield k, after

    def _satisfy(self, op, index, i, state, b, steps, depth, redundant):
        if index == len(op.satisfiable):
            yield i, state
            return
        p, lvl = op.satisfiable[index]
        if self.holds(state, [(p, lvl)], b):
            yield from self._satisfy(op, index + 1, i, state, b, steps, depth, redundant)
            if not redundant:
                return
        if depth <= 0:
            return
        for helper in self.helpers_for(p, lvl, op.level):
            for j, s in self._derive(helper.name, i, state, steps, depth - 1, redundant):
                if self.holds(s, [(p, lvl)], b):
                    yield from self._satisfy(op, index + 1, j, s, b, steps, depth,
                                             redundant)

    def _plot(self, op, i, state, steps, depth, redundant):
        if op.mode == CHOOSE_ONE:
            for child, _f in op.subgoals:
                yield from self._derive(child, i, state, steps, depth, redundant)
            return
        frontier = {(i, state)}
        for child, _f in op.subgoals:
            frontier = {r for j, s in frontier
                        for r in self._derive(child, j, s, steps, depth, redundant)}
            if not frontier:
                return
        yield from frontier
