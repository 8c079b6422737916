"""Best-first construction of the strategy hierarchy for one possible world.

The search grows an AND/OR tree of plan nodes. Expansion always happens at
the leftmost incomplete point of the *active* subtree: OR nodes contribute
their selected child, AND nodes their children strictly in plot order so that
the P-state threading through state-editing leaves stays well defined.
Expected fulfilment (fulfilment x probability) ranks OR alternatives; after
every expansion the new values are propagated root-ward and earlier OR
selections are reviewed against their siblings, switching only when a sibling
clears the selected branch's value plus an offset that grows with the
abstraction-level gap. Switched-away branches are suspended, never deleted,
so a later review can resume them.

A satisfiable precondition that does not hold is achieved by a helper, drawn
from :meth:`DomainSpec.achievers`: an operator of equal or lower abstraction
with a postcondition at that level that unifies with the precondition.
Achievers are tried best EF first, then by name; each is planned by a greedy
depth-first sub-search with no review, whose choose-one plots keep the first
child that completes with the postconditions true. The first helper that
leaves the precondition true is kept. A helper's subplan is at most
``HELPER_DEPTH`` (3) levels deep, the helper included: each plot reduction
below it takes a level, as each helper nested in it does. A node's helper
steps run before its own.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

from .errors import BudgetExceededError, CompatibilityViolation, PlanFailure, UplanError
from .model import (
    CHOOSE_ONE,
    EXPANSION_AND,
    EXPANSION_LEAF,
    EXPANSION_OR,
    NO_BINDINGS,
    PLANFAIL_BACKTRACK,
    PLANFAIL_REJECT_BRANCH,
    STATUS_COMPLETE,
    STATUS_EXPANDED,
    STATUS_FAILED,
    STATUS_NEW,
    STATUS_REDUNDANT,
    GroundStep,
    Plan,
    PlanNode,
    PState,
    Proposition,
    ReductionOperator,
    apply_edits,
    enforce_compatibility,
    holds,
    match,
)

DEFAULT_NODE_BUDGET = 100_000
# Levels in a helper's subplan, the helper included; a plot reduction and a
# nested helper each take one.
HELPER_DEPTH = 3


@dataclass(frozen=True, slots=True)
class ReviewPolicy:
    """Offset policy for reviewing earlier operator selections.

    A non-selected sibling takes over only when its EF exceeds the selected
    branch's updated EF by more than offset_fraction x level-gap x sibling EF.
    Zero recovers pure best-first behaviour; infinity freezes every selection.
    """

    offset_fraction: float = 0.1

    def __post_init__(self):
        if math.isnan(self.offset_fraction) or self.offset_fraction < 0:
            raise ValueError("offset fraction must be >= 0")


@dataclass(frozen=True, slots=True)
class TraceEvent:
    seq: int
    kind: str  # expand select update review-switch planfail satisfy-precondition
    node_id: int
    operator: str
    level: int
    before: tuple | None = None  # (fulfilment, probability, ef)
    after: tuple | None = None
    detail: str = ""

    def to_line(self) -> str:
        def triple(t):
            return "-" if t is None else f"{t[0]!r}/{t[1]!r}/{t[2]!r}"

        parts = [f"{self.seq:05d}", self.kind, f"node={self.node_id}",
                 f"op={self.operator}", f"level={self.level}",
                 f"before={triple(self.before)}", f"after={triple(self.after)}"]
        if self.detail:
            parts.append(f"detail={self.detail}")
        return " ".join(parts)


class PlanTrace:
    """Ordered event log of one search: the ``after`` values of a node's
    last event are its final values."""

    def __init__(self):
        self.events: list = []

    def record(self, kind, node, before=None, after=None, detail=""):
        self.events.append(TraceEvent(
            seq=len(self.events), kind=kind, node_id=node.node_id,
            operator=node.operator.name, level=node.operator.abstraction_level,
            before=before, after=after, detail=detail,
        ))

    def to_lines(self) -> list:
        return [e.to_line() for e in self.events]

    def __iter__(self):
        return iter(self.events)


def _triple(node: PlanNode) -> tuple:
    return (node.fulfilment, node.probability, node.ef)


# --- value calculus ---------------------------------------------------------

def expected_fulfilment(fulfilment: float, probability: float) -> float:
    """The ranking measure: how much of the goal this action is expected to buy."""
    return fulfilment * probability


def match_conjunction(ps: PState, pairs, bindings: dict | None = None):
    """First consistent binding satisfying every (pattern, level) pair, or None.

    Positive patterns match propositions present at their level (facts are
    tried in sorted order, so the result is deterministic); negative patterns
    succeed when no positive instance exists.
    """
    return _match_from(ps, tuple(pairs), 0, dict(bindings) if bindings else {})


def _match_from(ps: PState, pairs: tuple, i: int, current: dict):
    """:func:`match_conjunction` of ``pairs[i:]`` under the bindings so far."""
    if i == len(pairs):
        return current
    pattern, level = pairs[i]
    p = pattern.substitute(current)
    chunks = ps.level(level).chunks_for(p.predicate)
    if p.polarity:
        for chunk in chunks:
            for fact in chunk:
                extended = match(p, fact, current)
                if extended is not None:
                    result = _match_from(ps, pairs, i + 1, extended)
                    if result is not None:
                        return result
        return None
    positive = p.positive()
    for chunk in chunks:
        for fact in chunk:
            if match(positive, fact) is not None:
                return None
    return _match_from(ps, pairs, i + 1, current)


def operator_probability(op: ReductionOperator, ps: PState) -> float:
    """First probability rule whose condition holds in the P-state fires."""
    for rule in op.probability_rules:
        if not rule.conditions or match_conjunction(ps, rule.conditions) is not None:
            return rule.value
    raise UplanError(f"operator {op.name} has no default probability rule")


def rank_candidates(parent: PlanNode, ps: PState, spec) -> list:
    """Order a choose-one plot's subgoals by EF, ties kept in plot order.

    Returns (plot index, entry, operator, probability, ef) tuples.
    """
    candidates = []
    for index, entry in enumerate(parent.operator.plot):
        if entry.kind != "subgoal":
            continue
        op = spec.operator(entry.subgoal_name)
        probability = operator_probability(op, ps)
        candidates.append(
            (index, entry, op, probability,
             expected_fulfilment(entry.fulfilment, probability))
        )
    candidates.sort(key=lambda c: (-c[4], c[0]))
    return candidates


def update_or_node(parent: PlanNode) -> PlanNode:
    """OR update rules: select the max-EF applicable child, whose values
    the node takes over."""
    applicable = parent.applicable_children()
    if not applicable:
        raise UplanError(f"{parent.name}: all children inapplicable")
    best = applicable[0]
    for child in applicable[1:]:
        if child.ef > best.ef:
            best = child
    parent.select(best)
    return parent


# --- the AND rule and its fold cursors -----------------------------------------
#
# Each AND node keeps in ``PlanNode.fold`` a cursor k at its first child that
# is neither complete nor redundant, and the left fold of children 0..k-1: the
# product of their probabilities and the minimum of their fulfilments. A done
# child's values never change, so update_and_node goes on from the stored
# prefix over children k onward: the same float operations in the same order
# as a fold from the first child, hence the same bits. A node whose cursor
# never moved starts from its first child. The product over the pending tail
# is still recomputed on each update, since a float product regrouped could
# differ in its last bit.

_DONE = (STATUS_COMPLETE, STATUS_REDUNDANT)


def update_and_node(parent: PlanNode) -> PlanNode:
    """AND update rules: probability is the product over the children,
    fulfilment the minimum — one weak link caps the whole conjunction. The
    fold goes on from the node's cursor over the children from it onward."""
    if not parent.children:
        return parent
    k, probability, fulfilment = parent.fold
    for child in islice(parent.children, k, None):
        probability *= child.probability
        if child.fulfilment < fulfilment:  # min(fulfilment, ...), without the call
            fulfilment = child.fulfilment
    parent.fulfilment, parent.probability = fulfilment, probability
    return parent


def pending_child(node: PlanNode) -> PlanNode | None:
    """The first child of the AND ``node`` that is neither complete nor
    redundant, or None when there is none. The search starts at the node's
    cursor and adds each done child it passes to the cursor's fold."""
    k, probability, fulfilment = node.fold
    children = node.children
    start = k
    while k < len(children) and children[k].status in _DONE:
        child = children[k]
        probability *= child.probability
        if child.fulfilment < fulfilment:
            fulfilment = child.fulfilment
        k += 1
    if k != start:
        node.fold = (k, probability, fulfilment)
    return children[k] if k < len(children) else None


def _refresh_node(node: PlanNode, changed: PlanNode | None = None):
    """Recompute one node's deepest level and values from its children,
    honouring the standing OR selection. ``changed``, the only child changed
    since the last refresh, spares the scan when it reaches the deepest level."""
    if changed is not None and changed.deepest_level >= node.deepest_level:
        node.deepest_level = changed.deepest_level
    else:
        node.deepest_level = max([node.operator.abstraction_level]
                                 + [child.deepest_level for child in node.children])
    if node.expansion == EXPANSION_AND:
        update_and_node(node)
    elif node.expansion == EXPANSION_OR:
        selected = node.selected_child
        if selected is not None and selected.status != STATUS_FAILED:
            node.select(selected)


def propagate_updates(path: list, trace: PlanTrace | None = None) -> list:
    """Recompute the ancestors of ``path[-1]`` along its root-to-node
    ``path``, bottom-up until the root or one whose values and deepest level
    both stay the same; returns those whose values changed."""
    touched = []
    for i in range(len(path) - 2, -1, -1):
        current = path[i]
        before, deepest = _triple(current), current.deepest_level
        _refresh_node(current, path[i + 1])
        after = _triple(current)
        if before == after:
            if deepest == current.deepest_level:
                break
            continue
        if trace is not None:
            trace.record("update", current, before=before, after=after)
        touched.append(current)
    return touched


def recompute_values(root: PlanNode):
    """Full bottom-up recomputation of a tree (the propagation oracle)."""
    for node in reversed(list(root.walk())):
        if node.children:
            _refresh_node(node)
    return root


def review_offset(policy: ReviewPolicy, level_gap: int, candidate_ef: float) -> float:
    """Slack a sibling must clear before it may take over a reviewed branch."""
    if math.isinf(policy.offset_fraction):
        return math.inf
    return policy.offset_fraction * max(1, level_gap) * candidate_ef


def review_decisions(path: list, policy: ReviewPolicy,
                     trace: PlanTrace | None = None) -> list:
    """Review the OR ancestors of a freshly expanded node, along its
    root-to-node ``path``.

    At each OR ancestor the non-selected siblings are compared against the
    selected branch's updated EF plus the offset; the best sibling clearing it
    becomes the active branch and the old one is suspended in place. An OR
    of a replay that still holds its donor's choice is pinned: not reviewed.
    Returns the OR nodes whose selection switched.
    """
    switched = []
    start = len(path) - 1 if path[-1].expansion == EXPANSION_OR else len(path) - 2
    for i in range(start, -1, -1):
        current = path[i]
        if current.expansion == EXPANSION_OR and not (
                current.donor is not None
                and current.selected_index == current.donor.selected_index):
            selected = current.selected_child
            best, best_ef = None, selected.ef
            for sibling in current.applicable_children():
                if sibling is selected:
                    continue
                gap = selected.deepest_level - sibling.operator.abstraction_level
                offset = review_offset(policy, gap, sibling.ef)
                if sibling.ef > selected.ef + offset and sibling.ef > best_ef:
                    best, best_ef = sibling, sibling.ef
            if best is not None:
                before = _triple(current)
                current.select(best)
                if trace is not None:
                    trace.record(
                        "review-switch", current, before=before,
                        after=_triple(current),
                        detail=f"{selected.name}->{best.name}",
                    )
                propagate_updates(path[:i + 1], trace)
                switched.append(current)
    return switched


# --- deduction --------------------------------------------------------------

_DEDUCTION_CAP = 10_000


def deduce_effects(ps: PState, rules, changed) -> tuple:
    """Fire triggered causal rules to fixpoint; returns (new state, effect log).

    ``changed`` is the list of (op, proposition, level) edits that were just
    applied. Asserts produce positive change literals, retracts negative ones;
    a rule fires when its trigger matches a change and its condition holds
    (conditions without an explicit level are read at the change's level).
    The trigger and the positive conditions bind every effect variable
    (:class:`CausalRule` checks this), so effects are ground. Effects are
    changes themselves and may trigger later strata. The rule set is
    assumed stratified, so this terminates; a hard cap guards against
    unvetted rule sets.
    """
    if not rules:
        return ps, []
    state = ps
    log = []
    queue = deque(
        (prop if op == "assert" else prop.negated(), level)
        for op, prop, level in changed
    )
    fired = 0
    while queue:
        literal, level = queue.popleft()
        for rule in rules:
            bindings = match(rule.trigger, literal)
            if bindings is None:
                continue
            pairs = [
                (cond, level if cond_level is None else cond_level)
                for cond, cond_level in rule.conditions
            ]
            bound = match_conjunction(state, pairs, bindings)
            if bound is None:
                continue
            for op, prop, effect_level in rule.effects:
                ground = prop.substitute(bound)
                if op == "assert" and holds(state, effect_level, ground):
                    continue
                if op == "retract" and ground not in state.level(effect_level):
                    continue
                state = apply_edits(state, [(op, ground, effect_level)])
                log.append((op, ground, effect_level, rule.name or str(rule.trigger)))
                queue.append(
                    (ground if op == "assert" else ground.negated(), effect_level)
                )
                fired += 1
                if fired > _DEDUCTION_CAP:
                    raise UplanError("causal deduction did not reach a fixpoint")
    return state, log


# --- the search -------------------------------------------------------------

class Search:
    """One planning run over a single P-state.

    With a ``donor`` plan the search replays it, following the donor's tree
    node by node: the root holds the donor's root in ``PlanNode.donor``, a
    reduced node's child ``i`` the donor AND's child ``i``, or the donor
    OR's selected child when ``i`` is its index, and a recovery replacement
    what the node it replaces held; every other node holds None. A node
    that holds one is scripted: it is skipped when its postconditions
    already hold, and a scripted OR selects its donor's choice and is pinned
    against review while it holds it. With ``halt_on_failure`` the search
    raises :class:`ReplayHalt` at the first planfail of a scripted node
    instead of recovering; it records the planfail event first, keeps the
    planfail's arguments as its one halt record, ``_halt``, and
    :meth:`resume` then applies them: it goes on from there exactly as a
    search without ``halt_on_failure`` would have.

    A node whose expansion fails follows its operator's planfail
    directive. A recovery is tried once per node, and never to an operator
    that is already a recovery replacement on the node's own root path: such
    a planfail backtracks instead, so a recovery operator that reduces back
    to the failing one ends the chain rather than deepening the tree until
    the budget runs out.

    A planfail is resolved in the call that raises it: it recovers the
    node, reselects its OR ancestor, fails its AND parent in turn, or
    raises :class:`PlanFailure` at the root. :meth:`_next_point` is thus a
    pure descent, to an AND's pending child and an OR's selection, that
    meets no failed node and no OR without a selection:
    :meth:`_apply_reduction` gives every new OR node one, and a halted
    replay holds a failed node only until :meth:`resume` applies the
    planfail it halted at.

    Plan trees link parent to child only: each step that needs a node's
    ancestors takes the root-to-node ``path`` the search descended along.
    The search owns the states it threads in one map, ``states``, keyed by
    node identity, and holds only those that it can still read: a pending
    reduced node's entry is the state after its helpers, which its children
    thread from, and a completed or skipped node's the state after it.
    :meth:`_done` replaces the one with the other, and releases the entry
    of the node's last (AND) or selected (OR) child and, in an AND, that of
    its previous sibling. A pending node's state to thread from is thus
    held until the node or its parent is done, so a review's switch back, a
    recovery and :meth:`resume` read only entries still held; a finished
    search holds the state after the root and those of branches that were
    suspended or failed. A helper's states are passed along, never held. A
    finished plan's tree holds no state. Each AND node keeps its own fold
    cursor (``PlanNode.fold``, see :func:`pending_child`): :meth:`_next_point`
    finds the pending child from it, and an update goes on from its fold
    over the children from it onward, so an expansion neither rescans the
    completed part of a plot nor computes its fold again.
    """

    def __init__(self, ps: PState, spec, policy: ReviewPolicy | None = None,
                 budget: int = DEFAULT_NODE_BUDGET, trace: PlanTrace | None = None,
                 donor: Plan | None = None,
                 halt_on_failure: bool = False):
        self.initial = ps
        self.spec = spec
        self.policy = policy or spec.review
        self.budget = budget
        self.trace = trace
        self.donor = donor
        self.halt_on_failure = halt_on_failure
        self.expansions = 0
        self._next_id = 0
        self.root: PlanNode | None = None
        self.states: dict = {}
        self._halt = None  # (path, reason, review) of the planfail the search halted at

    # -- node bookkeeping --

    def _instantiate(self, op: ReductionOperator, fulfilment: float,
                     state: PState) -> PlanNode:
        node = PlanNode(op, base_fulfilment=fulfilment, node_id=self._next_id,
                        fulfilment=fulfilment,
                        probability=operator_probability(op, state))
        self._next_id += 1
        return node

    # -- driver --

    def run(self) -> Plan:
        goal_op = self.spec.operator(self.spec.goal)
        self.root = self._instantiate(
            goal_op, self.spec.goal_fulfilment, self.initial
        )
        if self.donor is not None:
            self.root.donor = self.donor.root
        return self._search()

    def resume(self) -> Plan:
        """Go on from the planfail this search halted at, and no longer halt.

        The halted planfail's directive applies, the expansion it interrupted
        is finished, and the search continues: the same steps a search
        without ``halt_on_failure`` takes from that planfail on, since that
        search took the same steps up to it. The tree, node ids, expansion
        count and trace all carry over.
        """
        if self._halt is None:
            raise UplanError("only a halted search can be resumed")
        (path, reason, review), self._halt = self._halt, None
        self.halt_on_failure = False
        self._apply_planfail(path, reason, review)
        return self._search()

    def _search(self) -> Plan:
        while True:
            path = self._next_point()
            if path is None:
                break
            self._expand(path)
        steps = self._collect_steps(self.root)
        return Plan(root=self.root, worlds={self.initial.id}, execution_sequence=steps)

    def _next_point(self) -> list | None:
        """Root-to-node path to the leftmost incomplete node of the active
        subtree, finalizing on the way; None once the root is done."""
        while self.root.status not in _DONE:
            node, path = self.root, [self.root]
            while node.status != STATUS_NEW:
                child = (pending_child(node) if node.expansion == EXPANSION_AND
                         else node.selected_child)
                if child is None or child.status in _DONE:
                    self._finalize(path)
                    break
                node = child
                path.append(node)
            else:
                return path
        return None

    # -- expansion --

    def _count_expansion(self):
        """Charge one expansion, of the main tree or of a helper, to the budget."""
        self.expansions += 1
        if self.expansions > self.budget:
            raise BudgetExceededError(
                f"node budget of {self.budget} exhausted after {self.expansions - 1} expansions"
            )

    def _expand(self, path: list):
        node = path[-1]
        self._count_expansion()
        state = self._thread_state(path)

        if node.donor is not None and self._redundant(path, state):
            return

        before = _triple(node)
        node.probability = operator_probability(node.operator, state)
        if self.trace is not None:
            self.trace.record("expand", node, before=before, after=_triple(node))

        state, reason = self._preconditions(node, state, HELPER_DEPTH)
        if reason is not None:
            self._planfail(path, reason)
            return
        if node.operator.plot_mode == CHOOSE_ONE and not node.operator.plot:
            self._planfail(path, "choose-one plot is empty", review=True)
            return
        if node.operator.is_leaf:
            after = self._apply_leaf(node, state)
            if after is None:
                self._planfail(path, "effects violate compatibility or postconditions",
                               review=True)
                return
            self._done(path, after)
        else:
            self._apply_reduction(node, state)
        self._finish_expansion(path)

    def _finish_expansion(self, path: list):
        """Propagate and review after expanding ``path[-1]``, or after its
        own step failed and it was recovered: then it is the replacement."""
        propagate_updates(path, self.trace)
        review_decisions(path, self.policy, self.trace)

    def _redundant(self, path: list, state: PState) -> bool:
        """During replay, an operator whose postconditions already hold is skipped."""
        node = path[-1]
        post = node.operator.postconditions
        if not post or match_conjunction(state, post) is None:
            return False
        node.status = STATUS_REDUNDANT
        self._done(path, state)
        if self.trace is not None:
            self.trace.record("expand", node, before=_triple(node),
                              after=_triple(node), detail="redundant")
        return True

    def _thread_state(self, path: list) -> PState:
        if len(path) == 1:
            return self.initial
        parent, index = path[-2], path[-1].plot_index
        if parent.expansion == EXPANSION_AND and index > 0:
            return self.states[parent.children[index - 1]]
        return self.states[parent]

    def _preconditions(self, node: PlanNode, state: PState, depth: int) -> tuple:
        """Bind ``node``'s preconditions in ``state``, planning a helper for
        each satisfiable one that does not hold.

        On success sets the node's bindings and its helpers and returns
        (the state the helpers leave, None); otherwise returns (None, why the
        operator does not apply). Only the main tree, whose nodes get the
        full ``depth``, records ``satisfy-precondition`` events.
        """
        op = node.operator
        bindings = match_conjunction(state, op.necessary)
        if bindings is None:
            return None, "necessary preconditions do not hold"
        helpers = []
        for pattern, level in op.satisfiable:
            extended = match_conjunction(state, [(pattern, level)], bindings)
            if extended is None:
                achieved = self._satisfy(node, pattern, level, bindings, state, depth)
                if achieved is None:
                    return None, f"satisfiable precondition {pattern}@{level} unachievable"
                helper, state, extended = achieved
                helpers.append(helper)
                if self.trace is not None and depth == HELPER_DEPTH:
                    self.trace.record("satisfy-precondition", node,
                                      detail=f"{pattern}@{level} via {helper.name}")
            bindings = extended
        node.bindings = bindings or NO_BINDINGS
        node.helpers = tuple(helpers)
        return state, None

    def _satisfy(self, node: PlanNode, pattern: Proposition, level: int,
                 bindings: dict, state: PState, depth: int):
        """A helper that makes one precondition true: (helper node, state
        after it, bindings extended by the precondition), or None."""
        if depth <= 0:
            return None
        target = pattern.substitute(bindings)
        fulfilment = node.base_fulfilment
        achievers = self.spec.achievers(target, level, node.operator.abstraction_level)
        for op in sorted(achievers, key=lambda op: (
                -expected_fulfilment(fulfilment, operator_probability(op, state)), op.name)):
            helper = self._instantiate(op, fulfilment, state)
            outcome = self._expand_to_completion(helper, state, depth - 1)
            if outcome is not None:
                extended = match_conjunction(outcome, [(pattern, level)], bindings)
                if extended is not None:
                    return helper, outcome, extended
        return None

    def _expand_to_completion(self, helper: PlanNode, state: PState,
                              depth: int) -> PState | None:
        """Greedy depth-first completion of a helper subplan, with no review;
        returns the state after it, or None when it cannot complete."""
        self._count_expansion()
        state, reason = self._preconditions(helper, state, depth)
        if reason is not None:
            return None
        op = helper.operator
        if op.plot_mode == CHOOSE_ONE and not op.plot:
            return None
        if op.is_leaf:
            return self._apply_leaf(helper, state)
        if depth <= 0:
            return None
        if op.plot_mode == CHOOSE_ONE:
            helper.expansion = EXPANSION_OR
            helper.selected_index = 0
            for _, entry, child_op, _, _ in rank_candidates(helper, state, self.spec):
                child = self._instantiate(child_op, entry.fulfilment, state)
                helper.children = [child]
                outcome = self._expand_to_completion(child, state, depth - 1)
                if outcome is not None and self._complete(helper, outcome):
                    return outcome
            return None
        helper.expansion = EXPANSION_AND
        helper.children = []
        for entry in op.subgoal_entries():
            child = self._instantiate(self.spec.operator(entry.subgoal_name),
                                      entry.fulfilment, state)
            child.plot_index = len(helper.children)
            helper.children.append(child)
            state = self._expand_to_completion(child, state, depth - 1)
            if state is None:
                return None
        return state if self._complete(helper, state) else None

    def _apply_leaf(self, node: PlanNode, state: PState) -> PState | None:
        """Apply a leaf's edits, deduce side effects and re-enforce
        compatibility; the leaf completes if its postconditions then hold.
        Returns the state after it, or None when it does not complete."""
        edits = [(op, prop.substitute(node.bindings), level)
                 for entry in node.operator.plot for op, prop, level in entry.edits]
        after = apply_edits(state, edits)
        after, _ = deduce_effects(after, self.spec.causal_rules, edits)
        try:
            after = enforce_compatibility(after, self.spec.compat)
        except CompatibilityViolation:
            return None
        if not self._complete(node, after):
            return None
        node.expansion = EXPANSION_LEAF
        return after

    def _apply_reduction(self, node: PlanNode, state: PState):
        op = node.operator
        node.status = STATUS_EXPANDED
        self.states[node] = state  # what its children thread from
        choose_one = op.plot_mode == CHOOSE_ONE
        if choose_one:
            # Instantiated best EF first, which fixes the node ids; kept in plot order.
            by_index = {index: self._instantiate(child_op, entry.fulfilment, state)
                        for index, entry, child_op, _, _
                        in rank_candidates(node, state, self.spec)}
            children = [by_index[i] for i in sorted(by_index)]
        else:
            children = [self._instantiate(self.spec.operator(entry.subgoal_name),
                                          entry.fulfilment, state)
                        for entry in op.subgoal_entries()]
        donor = node.donor
        for index, child in enumerate(children):
            child.plot_index = index
            if donor is None:
                continue
            if donor.expansion == EXPANSION_AND and index < len(donor.children):
                child.donor = donor.children[index]
            elif donor.expansion == EXPANSION_OR and index == donor.selected_index:
                child.donor = donor.selected_child
        node.children = children
        node.expansion = EXPANSION_OR if choose_one else EXPANSION_AND
        before = _triple(node)
        if choose_one:
            forced = None if donor is None else donor.selected_index
            if forced is not None and 0 <= forced < len(children):
                node.selected_index = forced
            else:
                update_or_node(node)
        _refresh_node(node)
        if self.trace is not None:
            if choose_one:
                self.trace.record("select", node, after=_triple(node),
                                  detail=node.selected_child.name)
            else:
                self.trace.record("update", node, before=before, after=_triple(node))

    # -- completion and failure --

    def _complete(self, node: PlanNode, state: PState) -> bool:
        """Mark ``node`` complete if its postconditions hold in ``state``."""
        if match_conjunction(state, node.operator.postconditions, node.bindings) is None:
            return False
        node.status = STATUS_COMPLETE
        return True

    def _done(self, path: list, state: PState):
        """Keep ``state`` as the one after ``path[-1]``, a main-tree node
        just completed or skipped, in place of the one its children threaded
        from, and release the states that only the node's own expansion
        read: the one its last (AND) or selected (OR) child left and, in an
        AND, the one its previous sibling left. No pending node threads from
        any of them, so a suspended branch keeps what a switch back to it
        reads."""
        node = path[-1]
        self.states[node] = state
        if node.expansion in (EXPANSION_AND, EXPANSION_OR):
            self._release(self.states, node.children[-1]
                          if node.expansion == EXPANSION_AND else node.selected_child)
        if node.plot_index > 0 and path[-2].expansion == EXPANSION_AND:
            self._release(self.states, path[-2].children[node.plot_index - 1])

    @staticmethod
    def _release(states: dict, node: PlanNode):
        """Drop ``node``'s entry from ``states``, the search's state map.
        Reads index the map, so a read of a released entry raises
        ``KeyError`` rather than change a plan."""
        del states[node]

    def _finalize(self, path: list):
        node = path[-1]
        last = node.children[-1] if node.expansion == EXPANSION_AND else node.selected_child
        state = self.states[last]
        if self._complete(node, state):
            self._done(path, state)
        else:
            self._planfail(path, "postconditions do not hold after reduction")

    def _reselect(self, path: list):
        or_node = path[-1]
        applicable = or_node.applicable_children()
        if not applicable:
            self._planfail(path, "all children inapplicable")
            return
        before = _triple(or_node)
        update_or_node(or_node)
        if self.trace is not None:
            self.trace.record("select", or_node, before=before, after=_triple(or_node),
                              detail=or_node.selected_child.name)
        propagate_updates(path, self.trace)

    def _planfail(self, path: list, reason: str, review: bool = False):
        """Record a planfail of ``path[-1]``, then halt there if the search
        halts on the failure of a scripted node and this one is, or else
        apply the node's directive."""
        node = path[-1]
        if self.trace is not None:
            self.trace.record("planfail", node, before=_triple(node), detail=reason)
        if self.halt_on_failure and node.donor is not None:
            self._halt = (path, reason, review)
            raise ReplayHalt(node, reason)
        self._apply_planfail(path, reason, review)

    def _apply_planfail(self, path: list, reason: str, review: bool = False):
        """Carry out ``path[-1]``'s planfail directive: recover it once, or
        fail it and backtrack to its OR ancestor or reject that whole branch.
        A recovery to an operator that already replaced a node on ``path``
        backtracks instead. A recovery with ``review``, which :meth:`_expand`
        sets when the node's own step failed, finishes that expansion at
        once; any other is reviewed once the replacement is expanded."""
        node = path[-1]
        directive = node.operator.planfail
        if directive not in (PLANFAIL_BACKTRACK, PLANFAIL_REJECT_BRANCH):
            if not node.recovery_attempted and not any(
                    n.recovery_attempted and n.operator.name == directive for n in path):
                self._recover(path, directive)
                if review:
                    self._finish_expansion(path)
                return
            directive = PLANFAIL_BACKTRACK
        node.status = STATUS_FAILED
        target = len(path) - 1
        if directive == PLANFAIL_REJECT_BRANCH:
            # Kill the whole alternative under the nearest OR ancestor.
            while target > 0 and path[target - 1].expansion != EXPANSION_OR:
                target -= 1
            path[target].status = STATUS_FAILED
        if target == 0:
            raise PlanFailure(f"goal {self.root.name!r} cannot be reduced to a plan: {reason}")
        if path[target - 1].expansion == EXPANSION_OR:
            self._reselect(path[:target])
        else:
            self._planfail(path[:target], f"child {path[target].name} failed")

    def _recover(self, path: list, recovery_name: str):
        """Swap the failed ``path[-1]`` for its named recovery operator, tried
        once, in the tree and in ``path``, which stays the tree path."""
        node = path[-1]
        recovery_op = self.spec.operator(recovery_name)
        replacement = self._instantiate(recovery_op, node.base_fulfilment,
                                        self._thread_state(path))
        replacement.recovery_attempted = True
        replacement.plot_index = node.plot_index
        replacement.donor = node.donor
        path[-1] = replacement
        if len(path) == 1:
            self.root = replacement
        else:
            parent = path[-2]
            parent.children[node.plot_index] = replacement
            if parent.expansion == EXPANSION_OR and parent.selected_index == node.plot_index:
                # The OR takes its values over with no update event: go on from it.
                _refresh_node(parent)
                path = path[:-1]
        if self.trace is not None:
            self.trace.record("select", replacement, after=_triple(replacement),
                              detail=f"recovery for {node.name}")
        propagate_updates(path, self.trace)

    # -- plan extraction --

    @staticmethod
    def _collect_steps(root: PlanNode) -> tuple:
        """The steps under ``root`` in execution order: a node's helpers, then
        its own step (a leaf), children (an AND) or selection (an OR). The
        walk keeps its own stack, so no plan is too deep to extract."""
        steps, stack = [], [root]
        while stack:
            node = stack.pop()
            if isinstance(node, GroundStep):
                steps.append(node)
                continue
            if node.status != STATUS_REDUNDANT:  # pushed first: popped after the helpers
                if node.expansion == EXPANSION_LEAF:
                    stack.append(GroundStep(node.operator.name,
                                            tuple(sorted(node.bindings.items()))))
                elif node.expansion == EXPANSION_AND:
                    stack.extend(reversed(node.children))
                elif node.expansion == EXPANSION_OR:
                    stack.append(node.selected_child)
            stack.extend(reversed(node.helpers))
        return tuple(steps)


class ReplayHalt(UplanError):
    """Raised in assess mode when a scripted replay hits its first failure."""

    def __init__(self, node: PlanNode, reason: str):
        super().__init__(f"replay halted at {node.name}: {reason}")
        self.node = node
        self.reason = reason


def plan_for_pstate(ps: PState, spec, policy: ReviewPolicy | None = None,
                    budget: int = DEFAULT_NODE_BUDGET,
                    trace: PlanTrace | None = None, donor: Plan | None = None) -> Plan:
    """Construct a plan for one possible world, replaying ``donor``'s
    choices where they still work (see :class:`Search`) if one is given.

    Raises :class:`PlanFailure` when the goal cannot be reduced and
    :class:`BudgetExceededError` when the node budget runs out.
    """
    return Search(ps, spec, policy=policy, budget=budget, trace=trace, donor=donor).run()
