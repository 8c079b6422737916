"""Core domain types: propositions, layered world states, operators, plan trees.

World states (:class:`PState`) are immutable; editing returns a new value.
Plan trees (:class:`PlanNode`) are the one mutable structure here: a tree is
owned by a single search and holds its operator choices and values only, not
the states the search threaded through it. A tree links parent to child only,
and the search holds the root-to-node path it needs, so a tree holds no
reference cycle and is freed as soon as it is dropped.

Each level of a P-state (:class:`AbstractionLevel`) is indexed by predicate:
a dict maps every predicate to a bucket of that predicate's facts, both
polarities together. Facts are checked for groundness and sorted once, when a
level is built. Matching and lookups touch one predicate's bucket only, and
since propositions order by predicate first, a bucket lists its facts in the
same order as the sorted level does. Within one bucket every fact has the
same predicate, so the key ``(args, polarity)`` orders it as
:class:`Proposition`'s own order does; lookups and edits bisect on that key,
whose comparisons run in C, and find an asserted fact's complement by the key
``(args, not polarity)`` without building it.

A bucket is a persistent sorted sequence (Driscoll, Sarnak, Sleator &
Tarjan, "Making data structures persistent", 1989): a tuple of sorted
chunks of at most :data:`CHUNK` facts. A lookup bisects the chunks on each
one's last key, then the chunk. :func:`apply_edits` shares structure with
the state it edits: untouched levels, untouched buckets of an edited level,
and untouched chunks of an edited bucket are the same objects in both
states. An edit copies one chunk, split in half when it grows past
``CHUNK``, and the bucket's short tuple of chunks, so a state after step n
of a plan costs O(n / CHUNK + CHUNK) new slots, not O(n).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from types import MappingProxyType

from .errors import CompatibilityViolation, LevelRangeError

# Planfail directives understood by the search.
PLANFAIL_BACKTRACK = "backtrack"
PLANFAIL_REJECT_BRANCH = "reject-branch"

# Plot modes.
CHOOSE_ONE = "choose-one"
DO_ALL = "do-all-in-order"


def is_variable(token: str) -> bool:
    """Pattern variables are identifiers starting with '?'."""
    return isinstance(token, str) and token.startswith("?")


def _variables(props) -> set:
    """The variables among the arguments of ``props``."""
    return {a for p in props for a in p.args if is_variable(a)}


@dataclass(frozen=True, order=True, slots=True)
class Proposition:
    """A ground or pattern literal: predicate, arguments, polarity.

    Inside a P-state every proposition is ground. Patterns (with ?variables)
    appear only in operator slots, causal rules and compatibility relations.
    """

    predicate: str
    args: tuple = ()
    polarity: bool = True

    def __post_init__(self):
        if not self.predicate:
            raise ValueError("proposition predicate must be non-empty")

    @property
    def is_ground(self) -> bool:
        return not any(is_variable(a) for a in self.args)

    def positive(self) -> "Proposition":
        return self if self.polarity else Proposition(self.predicate, self.args, True)

    def negated(self) -> "Proposition":
        return Proposition(self.predicate, self.args, not self.polarity)

    def substitute(self, bindings: dict) -> "Proposition":
        if not bindings or self.is_ground:
            return self
        new_args = tuple(bindings.get(a, a) if is_variable(a) else a for a in self.args)
        return Proposition(self.predicate, new_args, self.polarity)

    def __str__(self):
        inner = " ".join([self.predicate] + [str(a) for a in self.args])
        return f"({inner})" if self.polarity else f"(not ({inner}))"


def match(pattern: Proposition, fact: Proposition, bindings: dict | None = None) -> dict | None:
    """Unify a pattern against a ground fact; returns extended bindings or None."""
    if pattern.predicate != fact.predicate or pattern.polarity != fact.polarity:
        return None
    if len(pattern.args) != len(fact.args):
        return None
    out = dict(bindings) if bindings else {}
    for p_arg, f_arg in zip(pattern.args, fact.args):
        if is_variable(p_arg):
            bound = out.get(p_arg)
            if bound is None:
                out[p_arg] = f_arg
            elif bound != f_arg:
                return None
        elif p_arg != f_arg:
            return None
    return out


def patterns_unify(a: Proposition, b: Proposition) -> bool:
    """Could some ground instance match both patterns?

    The two patterns' variables are kept apart, even where their names
    agree; a variable repeated within one pattern must take one value.
    """
    if a.predicate != b.predicate or a.polarity != b.polarity:
        return False
    if len(a.args) != len(b.args):
        return False
    parent = {}  # union-find over (side, variable) terms and constants

    def find(term):
        while term in parent:
            term = parent[term]
        return term

    for x, y in zip(a.args, b.args):
        x = find((0, x) if is_variable(x) else x)
        y = find((1, y) if is_variable(y) else y)
        if x != y:
            if isinstance(x, tuple):
                parent[x] = y
            elif isinstance(y, tuple):
                parent[y] = x
            else:
                return False  # two different constants
    return True


class AbstractionLevel:
    """One layer of a P-state. Index 1 is the most abstract description.

    A value, never modified once built. The facts are held by predicate, each
    predicate's in a bucket: a tuple of sorted chunks (:data:`CHUNK`).
    :meth:`facts_for` returns one predicate's facts as one sorted tuple, and
    :meth:`chunks_for` its bucket. Two levels are equal when their indices and
    facts are, however their buckets are chunked. Setting an attribute raises,
    since :func:`apply_edits` shares levels, and the buckets and chunks inside
    them, between states; the bucket dict is never changed after it is built.
    """

    __slots__ = ("index", "_buckets")

    def __init__(self, index: int, propositions=frozenset()):
        if index < 1:
            raise ValueError("abstraction level indices start at 1")
        grouped = {}
        for p in propositions:
            if not p.is_ground:
                raise ValueError(f"non-ground proposition {p} in abstraction level")
            grouped.setdefault(p.predicate, []).append(p)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_buckets", {pred: make_bucket(facts)
                                              for pred, facts in grouped.items()})

    def __setattr__(self, name, value):
        raise AttributeError(f"AbstractionLevel is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"AbstractionLevel is immutable: cannot delete {name!r}")

    @property
    def propositions(self) -> frozenset:
        """All facts of the level, as a set built on each call."""
        return frozenset(chain.from_iterable(chain.from_iterable(self._buckets.values())))

    def facts_for(self, predicate: str) -> tuple:
        """The facts of one predicate, sorted; empty if there are none. A
        predicate whose facts span more than one chunk gets a new tuple."""
        bucket = self._buckets.get(predicate, ((),))  # absent: one empty chunk
        return bucket[0] if len(bucket) == 1 else tuple(chain.from_iterable(bucket))

    def chunks_for(self, predicate: str) -> tuple:
        """The bucket of one predicate: its facts in sorted chunks, which
        joined in order are :meth:`facts_for`; empty if there are none."""
        return self._buckets.get(predicate, ())

    def __contains__(self, p: Proposition) -> bool:
        bucket = self._buckets.get(p.predicate, ())
        if not bucket:
            return False
        key = (p.args, p.polarity)
        chunk = bucket[bisect_left(bucket, key, 0, len(bucket) - 1, key=_last)]
        i = bisect_left(chunk, key, key=_ORDER)
        return i < len(chunk) and _ORDER(chunk[i]) == key

    def sorted_facts(self) -> list:
        """All facts in sorted order: the buckets joined in predicate order."""
        return [p for pred in sorted(self._buckets) for chunk in self._buckets[pred]
                for p in chunk]

    def _edited(self, op: str, p: Proposition) -> "AbstractionLevel":
        """This level after one assert or retract of a ground proposition.

        Asserting removes the complement. Only ``p``'s predicate gets a new
        bucket; the level itself is returned when nothing changes.
        """
        bucket = self._buckets.get(p.predicate, ())
        if op == "assert":
            new = _without(_with(bucket, p), (p.args, not p.polarity))
        elif op == "retract":
            new = _without(bucket, (p.args, p.polarity))
        else:
            raise ValueError(f"unknown edit op {op!r}")
        if new is bucket:
            return self
        buckets = dict(self._buckets)
        if new:
            buckets[p.predicate] = new
        else:
            del buckets[p.predicate]
        return AbstractionLevel._of(self.index, buckets)

    @staticmethod
    def _of(index: int, buckets: dict) -> "AbstractionLevel":
        """A level over ``buckets``, taken as built: each a non-empty tuple of
        non-empty sorted chunks of one predicate's ground facts, without
        repeats, as :func:`make_bucket` builds them."""
        level = AbstractionLevel.__new__(AbstractionLevel)
        object.__setattr__(level, "index", index)
        object.__setattr__(level, "_buckets", buckets)
        return level

    def __eq__(self, other):
        if not isinstance(other, AbstractionLevel):
            return NotImplemented
        if self.index != other.index or self._buckets.keys() != other._buckets.keys():
            return False
        return all(bucket is other._buckets[pred]
                   or self.facts_for(pred) == other.facts_for(pred)
                   for pred, bucket in self._buckets.items())

    def __hash__(self):
        return hash((self.index, frozenset((pred, self.facts_for(pred))
                                           for pred in self._buckets)))

    def __repr__(self):
        return f"AbstractionLevel({self.index}, {self.sorted_facts()!r})"


# A fact's order within its predicate's bucket: Proposition's order, less
# the predicate that every fact of the bucket shares.
_ORDER = attrgetter("args", "polarity")

# The most facts a chunk of a bucket holds; a chunk that grows past it
# splits in half, and a chunk left empty is dropped.
CHUNK = 64


def _last(chunk: tuple) -> tuple:
    """The key of a chunk's last fact. Bisecting a non-empty bucket on it,
    over every chunk but the last, finds the chunk that holds a key or would
    take it: the first whose last key is not below the key, else the last
    chunk. On a bucket of one chunk, that bisection reads no key at all."""
    return _ORDER(chunk[-1])


def make_bucket(facts) -> tuple:
    """The bucket of ``facts``, ground facts of one predicate: sorted,
    without repeats, in full chunks."""
    facts = sorted(set(facts), key=_ORDER)
    return tuple(tuple(facts[i:i + CHUNK]) for i in range(0, len(facts), CHUNK))


def _with(bucket: tuple, p: Proposition) -> tuple:
    """``bucket`` with ``p`` inserted in order; the same bucket if present.

    Only the chunk that takes ``p`` is copied, and split in half when it
    grows past :data:`CHUNK`; the new bucket shares every other chunk.
    """
    if not bucket:
        return ((p,),)
    key = (p.args, p.polarity)
    c = bisect_left(bucket, key, 0, len(bucket) - 1, key=_last)
    chunk = bucket[c]
    i = bisect_left(chunk, key, key=_ORDER)
    if i < len(chunk) and _ORDER(chunk[i]) == key:
        return bucket
    chunk = chunk[:i] + (p,) + chunk[i:]
    if len(chunk) > CHUNK:
        half = len(chunk) // 2
        return bucket[:c] + (chunk[:half], chunk[half:]) + bucket[c + 1:]
    return bucket[:c] + (chunk,) + bucket[c + 1:]


def _without(bucket: tuple, key: tuple) -> tuple:
    """``bucket`` without the fact whose ``(args, polarity)`` is ``key``;
    the same bucket if absent. Only the chunk that held it is copied, or
    dropped when that leaves it empty."""
    if not bucket:
        return bucket
    c = bisect_left(bucket, key, 0, len(bucket) - 1, key=_last)
    chunk = bucket[c]
    i = bisect_left(chunk, key, key=_ORDER)
    if i == len(chunk) or _ORDER(chunk[i]) != key:
        return bucket
    if len(chunk) == 1:
        return bucket[:c] + bucket[c + 1:]
    return bucket[:c] + (chunk[:i] + chunk[i + 1:],) + bucket[c + 1:]


@dataclass(frozen=True, slots=True)
class EvidentialInterval:
    """A (support, plausibility) pair bounding belief in a P-state."""

    support: float
    plausibility: float

    def __post_init__(self):
        if not (0.0 <= self.support <= self.plausibility <= 1.0):
            raise ValueError(
                f"invalid evidential interval [{self.support}, {self.plausibility}]"
            )

    def meets(self, threshold) -> bool:
        """Whether both bounds reach a (support, plausibility) threshold."""
        min_support, min_plausibility = threshold
        return self.support >= min_support and self.plausibility >= min_plausibility


VACUOUS_INTERVAL = EvidentialInterval(0.0, 1.0)


@dataclass(frozen=True, slots=True)
class PState:
    """A complete possible world described at n abstraction levels."""

    id: str
    levels: tuple
    interval: EvidentialInterval = VACUOUS_INTERVAL

    def __post_init__(self):
        for i, level in enumerate(self.levels, start=1):
            if level.index != i:
                raise ValueError("P-state levels must be indexed 1..n in order")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level(self, index: int) -> AbstractionLevel:
        if not 1 <= index <= len(self.levels):
            raise LevelRangeError(
                f"level {index} out of range 1..{len(self.levels)} for P-state {self.id!r}"
            )
        return self.levels[index - 1]

    def facts(self, index: int):
        """Ground propositions at a level, in sorted order for determinism."""
        return self.level(index).sorted_facts()


def make_pstate(id: str, n_levels: int, interval: EvidentialInterval = VACUOUS_INTERVAL,
                contents: dict | None = None) -> PState:
    """Build a P-state from {level index: iterable of propositions}."""
    contents = contents or {}
    levels = tuple(
        AbstractionLevel(i, contents.get(i, ()))
        for i in range(1, n_levels + 1)
    )
    return PState(id, levels, interval)


def holds(ps: PState, level: int, p: Proposition) -> bool:
    """Closed-world truth of a ground proposition at one level.

    A positive proposition holds iff it is present; a negative one holds iff
    its positive form is absent. Absence of a positive proposition means false
    at that level, each level being a complete description on its own.
    """
    present = p.positive() in ps.level(level)
    return present if p.polarity else not present


def apply_edits(ps: PState, edits) -> PState:
    """Apply (op, proposition, level) edits in order; returns a new P-state.

    Asserting a proposition removes its complement so a level never carries
    both p and (not p). Retracting an absent proposition is a no-op.
    Untouched levels are shared with ``ps``.
    """
    levels = list(ps.levels)
    for op, prop, level_index in edits:
        if not 1 <= level_index <= len(levels):
            raise LevelRangeError(
                f"edit level {level_index} out of range 1..{len(levels)}"
            )
        if not prop.is_ground:
            raise ValueError(f"edit proposition {prop} is not ground")
        levels[level_index - 1] = levels[level_index - 1]._edited(op, prop)
    return PState(ps.id, tuple(levels), ps.interval)


@dataclass(frozen=True, slots=True)
class CompatibilityRelation:
    """A directional cross-level implication used to keep levels consistent."""

    if_at_level: int
    if_pattern: Proposition
    then_at_level: int
    then_pattern: Proposition

    def __post_init__(self):
        unbound = _variables([self.then_pattern]) - _variables([self.if_pattern])
        if unbound:
            raise ValueError(f"compatibility relation {self}: consequent variable(s) "
                             f"{' '.join(sorted(unbound))} not bound by the antecedent")

    def __str__(self):
        return (f"{self.if_pattern}@{self.if_at_level} => "
                f"{self.then_pattern}@{self.then_at_level}")


def enforce_compatibility(ps: PState, rels) -> PState:
    """Propagate compatibility relations to fixpoint by assertion.

    Whenever a relation's antecedent matches at its level and the bound
    consequent, ground since the antecedent binds every variable of it,
    does not hold, the consequent is asserted. If the consequent's
    negation is explicitly present the relation cannot be repaired by
    assertion alone and a :class:`CompatibilityViolation` is raised.
    Idempotent: re-running on the result changes nothing.
    """
    current = ps
    changed = True
    while changed:
        changed = False
        for rel in rels:
            antecedents = current.level(rel.if_at_level).chunks_for(rel.if_pattern.predicate)
            for fact in chain.from_iterable(antecedents):
                bindings = match(rel.if_pattern, fact)
                if bindings is None:
                    continue
                consequent = rel.then_pattern.substitute(bindings)
                if holds(current, rel.then_at_level, consequent):
                    continue
                if consequent.negated() in current.level(rel.then_at_level):
                    raise CompatibilityViolation(
                        f"relation {rel} demands {consequent} at level "
                        f"{rel.then_at_level} but its negation is asserted",
                        relation=rel, level=rel.then_at_level,
                    )
                current = apply_edits(
                    current, [("assert", consequent, rel.then_at_level)]
                )
                changed = True
    return current


@dataclass(frozen=True, slots=True)
class PlotEntry:
    """One step of an operator's plot: a subgoal or a batch of state edits."""

    kind: str  # "subgoal" | "state-edit"
    subgoal_name: str | None = None
    fulfilment: float | None = None
    edits: tuple = ()

    def __post_init__(self):
        if self.kind == "subgoal":
            if not self.subgoal_name or self.fulfilment is None or not self.fulfilment >= 0:
                raise ValueError("subgoal plot entries need a name and a fulfilment >= 0")
        elif self.kind == "state-edit":
            if not self.edits:
                raise ValueError("state-edit plot entries need at least one edit")
        else:
            raise ValueError(f"unknown plot entry kind {self.kind!r}")


def subgoal(name: str, fulfilment: float) -> PlotEntry:
    return PlotEntry("subgoal", subgoal_name=name, fulfilment=fulfilment)


def state_edit(*edits) -> PlotEntry:
    return PlotEntry("state-edit", edits=tuple(edits))


@dataclass(frozen=True, slots=True)
class ProbabilityRule:
    """One conditional clause of an operator's probability table.

    ``conditions`` is a conjunction of (pattern, level) pairs; an empty
    conjunction is the unconditioned default that must close every table.
    """

    conditions: tuple
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability {self.value} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class ReductionOperator:
    """A goal-reduction action schema.

    Abstract operators reduce a goal to subgoals (their plot names child
    operators); lowest-level operators edit the P-state directly. Necessary
    preconditions are observed, never planned for; satisfiable ones may be
    achieved by helper operators of equal or lower abstraction.
    """

    name: str
    abstraction_level: int
    necessary: tuple = ()      # (pattern, level) pairs
    satisfiable: tuple = ()    # (pattern, level) pairs
    plot_mode: str = DO_ALL
    plot: tuple = ()
    probability_rules: tuple = (ProbabilityRule((), 1.0),)
    postconditions: tuple = () # (pattern, level) pairs
    planfail: str = PLANFAIL_BACKTRACK

    def __post_init__(self):
        if self.plot_mode not in (CHOOSE_ONE, DO_ALL):
            raise ValueError(f"operator {self.name!r}: unknown plot mode {self.plot_mode!r}")
        if not self.probability_rules or self.probability_rules[-1].conditions:
            raise ValueError(f"operator {self.name!r}: probability table must end "
                             "with a default")
        # Only positive preconditions bind: a negative one matches by absence.
        bound = _variables(p for p, _ in (*self.necessary, *self.satisfiable) if p.polarity)
        unbound = _variables(p for e in self.plot for _, p, _ in e.edits) - bound
        if unbound:
            raise ValueError(f"operator {self.name!r}: edit variable(s) "
                             f"{' '.join(sorted(unbound))} not bound by a positive "
                             "necessary or satisfiable precondition")

    @property
    def is_leaf(self) -> bool:
        return all(e.kind == "state-edit" for e in self.plot)

    def subgoal_entries(self):
        return [e for e in self.plot if e.kind == "subgoal"]


@dataclass(frozen=True, slots=True)
class CausalRule:
    """A trigger-fired deduction: when a matching change happens and the
    condition holds, apply the effects.

    The trigger carries no level; it matches a change at any level and the
    condition conjunction is evaluated at the level the change occurred,
    unless a condition names its own level explicitly.
    """

    trigger: Proposition
    conditions: tuple = ()  # (pattern, level | None) pairs; None = trigger's level
    effects: tuple = ()     # (op, proposition-pattern, level) triples
    name: str = ""

    def __post_init__(self):
        if not self.effects:
            raise ValueError("causal rules need at least one effect")
        bound = _variables([self.trigger, *(p for p, _ in self.conditions if p.polarity)])
        unbound = _variables(p for _, p, _ in self.effects) - bound
        if unbound:
            raise ValueError(f"rule {self.name or self.trigger}: effect variable(s) "
                             f"{' '.join(sorted(unbound))} not bound by the trigger or "
                             "a positive condition")


# --- plan trees -----------------------------------------------------------

EXPANSION_AND = "AND"
EXPANSION_OR = "OR"
EXPANSION_LEAF = "leaf"
EXPANSION_UNEXPANDED = "unexpanded"

STATUS_NEW = "new"
STATUS_EXPANDED = "expanded"
STATUS_COMPLETE = "complete"
STATUS_FAILED = "failed"
STATUS_REDUNDANT = "redundant"

NO_BINDINGS = MappingProxyType({})  # the bindings of every node that has none


@dataclass(eq=False, slots=True)
class PlanNode:
    """One node of the strategy hierarchy.

    ``base_fulfilment`` is the plot fulfilment assigned at instantiation and
    never changes. ``fulfilment`` and ``probability`` start as that
    fulfilment and the operator's probability, and the update rules revise
    them as the subtree grows; ``ef`` is always their product. Nodes compare
    by identity: a tree belongs to exactly one search, which also keeps the
    P-states threaded through it.
    A node owns its ``children`` and holds no link to its parent; a child's
    ``plot_index`` is its position in its parent's ``children``. Empty fields
    are shared, not allocated per node: ``children`` is ``()`` until the
    search gives the node a list of children, ``helpers`` is a tuple, ``()``
    when there are none, and a node without bindings holds the read-only
    :data:`NO_BINDINGS`. A finished leaf without bindings is one object.
    ``deepest_level`` is the deepest operator abstraction level in the
    subtree (helpers excluded), computed from the children given at
    construction, then refreshed with the values on the search's main tree.
    ``donor`` is the node of a donor plan that this node replays, or None
    outside a replay's scripted region.
    """

    operator: ReductionOperator
    bindings: dict | MappingProxyType = field(default_factory=lambda: NO_BINDINGS)
    base_fulfilment: float = 0.0
    fulfilment: float = 0.0
    probability: float = 1.0
    children: list | tuple = ()
    expansion: str = EXPANSION_UNEXPANDED
    helpers: tuple = ()
    status: str = STATUS_NEW
    selected_index: int | None = None
    node_id: int = -1
    plot_index: int = 0
    recovery_attempted: bool = False
    donor: "PlanNode | None" = field(default=None, repr=False)
    deepest_level: int = field(init=False)

    def __post_init__(self):
        self.deepest_level = max([self.operator.abstraction_level]
                                 + [child.deepest_level for child in self.children])

    @property
    def ef(self) -> float:
        return self.fulfilment * self.probability

    @property
    def name(self) -> str:
        return self.operator.name

    def applicable_children(self):
        return [c for c in self.children if c.status != STATUS_FAILED]

    @property
    def selected_child(self) -> "PlanNode | None":
        if self.selected_index is None:
            return None
        return self.children[self.selected_index]

    def select(self, child: "PlanNode"):
        self.selected_index = self.children.index(child)

    def walk(self):
        """Pre-order traversal of the whole tree (helpers excluded)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(frozen=True, slots=True)
class GroundStep:
    """One executable action: a lowest-level operator with its bindings."""

    operator: str
    bindings: tuple = ()  # sorted (variable, value) pairs

    def __str__(self):
        if not self.bindings:
            return self.operator
        args = " ".join(f"{k}={v}" for k, v in self.bindings)
        return f"{self.operator}[{args}]"


@dataclass
class Plan:
    """A finished plan for one or more possible worlds."""

    root: PlanNode
    worlds: set = field(default_factory=set)
    execution_sequence: tuple = ()

    @property
    def root_ef(self) -> float:
        return self.root.ef


# --- super-plans ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class KnowledgeAcquisitionOperator:
    """An observation step that picks a branch of the super-plan at run time.

    ``observe`` is an ordered tuple of (level, proposition) to test; ``maps``
    sends each truth-value outcome string (e.g. "TF") to an alternative index.
    """

    observe: tuple
    maps: tuple  # sorted (outcome string, alternative index) pairs

    def outcome_for(self, ps: PState) -> str:
        return "".join("T" if holds(ps, lvl, p) else "F" for lvl, p in self.observe)

    def alternative_for(self, ps: PState) -> int | None:
        outcome = self.outcome_for(ps)
        return dict(self.maps).get(outcome)


@dataclass(frozen=True, slots=True)
class SuperPlanAlternative:
    subtree: "SuperPlanNode | None"   # None = this alternative ends here
    worlds: frozenset
    weight: EvidentialInterval | None = None


@dataclass(frozen=True, slots=True)
class SuperPlanNode:
    """A run of action steps and the branch point after it.

    ``steps`` is the run: a shared prefix of the merged plans is one node.
    ``alternatives`` is the branch point that follows it; when empty, the plan
    ends after the run. A branch point carries either a knowledge-acquisition
    operator or per-alternative evidence weights, never neither;
    :func:`uplan.reapply.insert_ka_operators` attaches one or the other as it
    creates each branch point.
    """

    steps: tuple = ()  # GroundSteps
    ka: KnowledgeAcquisitionOperator | None = None
    alternatives: tuple = ()


@dataclass(frozen=True, slots=True)
class SuperPlan:
    root: SuperPlanNode | None
    worlds: tuple  # sorted (world id, EvidentialInterval) pairs

    def branch_points(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not None and node.alternatives:
                out.append(node)
                stack.extend(alt.subtree for alt in node.alternatives)
        return out

    def paths(self):
        """All root-to-leaf action sequences (one per alternative combination)."""
        results = []
        stack = [(self.root, ())]
        while stack:
            node, prefix = stack.pop()
            if node is not None:
                prefix += node.steps
            if node is None or not node.alternatives:
                results.append(prefix)
            else:
                stack.extend((alt.subtree, prefix) for alt in reversed(node.alternatives))
        return results
