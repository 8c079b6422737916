"""Randomized search robustness: arbitrary small domains with failing
preconditions, helpers, recovery operators and review churn must always end
in a plan, a clean failure, or budget exhaustion, deterministically."""

import gc
import itertools
import random
import types
from collections import Counter
from contextlib import contextmanager

import pytest

from uplan import plan_superplan
from uplan.dsl import DomainSpec, parse_domain, parse_evidence
from uplan.errors import BudgetExceededError, PlanFailure, UplanError
from uplan.model import (
    CHOOSE_ONE,
    DO_ALL,
    EXPANSION_OR,
    STATUS_FAILED,
    AbstractionLevel,
    PlanNode,
    ProbabilityRule,
    PState,
    Proposition,
    ReductionOperator,
    make_pstate,
    state_edit,
    subgoal,
)
from uplan.planner import PlanTrace, ReviewPolicy, Search, plan_for_pstate, recompute_values
from uplan.reapply import continue_from, reapply_plan

import test_helper_corpus
import test_replay_corpus

PROPS = [Proposition(f"p{i}") for i in range(6)]


def random_domain(rng):
    names = [f"Op{i}" for i in range(rng.randint(1, 10))]
    operators = []
    for i, name in enumerate(names):
        level = rng.randint(1, 3) if i else 1

        def pick_pairs(k):
            out = []
            for _ in range(k):
                p = rng.choice(PROPS)
                if rng.random() < 0.3:
                    p = p.negated()
                out.append((p, rng.randint(1, 3)))
            return tuple(out)

        deeper = names[i + 1:]
        leaf = level == 3 or not deeper or rng.random() < 0.4
        if leaf:
            plot = tuple(
                state_edit((rng.choice(["assert", "retract"]), rng.choice(PROPS), 3))
                for _ in range(rng.randint(0, 2))
            )
            mode = DO_ALL
            if plot:
                level = 3
        else:
            plot = tuple(subgoal(rng.choice(deeper), rng.uniform(10, 1000))
                         for _ in range(rng.randint(1, 3)))
            mode = rng.choice([CHOOSE_ONE, DO_ALL])
        recoveries = [rng.choice(names)] if rng.random() < 0.2 else []
        operators.append(ReductionOperator(
            name=name, abstraction_level=level,
            necessary=pick_pairs(rng.randint(0, 1)),
            satisfiable=pick_pairs(rng.randint(0, 1)),
            plot_mode=mode, plot=plot,
            probability_rules=(ProbabilityRule((), rng.uniform(0.1, 1.0)),),
            postconditions=pick_pairs(rng.randint(0, 1)),
            planfail=rng.choice(["backtrack", "reject-branch"] + recoveries),
        ))
    return DomainSpec(
        n_levels=3, operators=tuple(operators), goal="Op0",
        goal_fulfilment=1000.0,
        review=ReviewPolicy(rng.choice([0.0, 0.1, 1.0])),
    )


def corpus():
    """200 (domain, initial P-state) pairs, the same on every call."""
    rng = random.Random(424242)
    for _ in range(200):
        spec = random_domain(rng)
        contents = {
            level: [p for p in PROPS if rng.random() < 0.4]
            for level in (1, 2, 3)
        }
        yield spec, make_pstate("w", 3, contents=contents)


def test_random_domains_terminate_cleanly_and_deterministically():
    outcomes = {"plan": 0, "failure": 0, "budget": 0}
    for spec, ps in corpus():
        try:
            first, second = PlanTrace(), PlanTrace()
            plan = plan_for_pstate(ps, spec, budget=300, trace=first)
            again = plan_for_pstate(ps, spec, budget=300, trace=second)
            assert first.to_lines() == second.to_lines()
            assert plan.execution_sequence == again.execution_sequence
            for n in plan.root.walk():
                assert abs(n.ef - n.fulfilment * n.probability) <= 1e-9
            outcomes["plan"] += 1
        except PlanFailure:
            outcomes["failure"] += 1
        except BudgetExceededError:
            outcomes["budget"] += 1
    # The generator must actually exercise all three outcomes.
    assert outcomes["plan"] > 20
    assert outcomes["failure"] > 20


def reference_deepest_level(node):
    """The subtree walk that the stored ``PlanNode.deepest_level`` replaced."""
    deepest = node.operator.abstraction_level
    for n in node.walk():
        if n.operator.abstraction_level > deepest:
            deepest = n.operator.abstraction_level
    return deepest


def recovery_operators_repeat(root) -> bool:
    """Whether some root-to-node path holds two recovery replacements of
    one operator."""
    stack = [(root, frozenset())]
    while stack:
        node, seen = stack.pop()
        if node.recovery_attempted:
            if node.operator.name in seen:
                return True
            seen = seen | {node.operator.name}
        stack.extend((child, seen) for child in node.children)
    return False


class CheckedSearch(Search):
    """A search that checks that each path it expands along is the tree
    path from the root to the node, before the expansion and, unless the
    node failed, after it, and compares every node's stored deepest level
    with the walk after each expansion. It also checks that no path
    recovers twice to one operator."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0

    def assert_tree_path(self, path):
        assert path[0] is self.root
        for parent, child in zip(path, path[1:]):
            assert parent.children[child.plot_index] is child, child.name

    def _expand(self, path):
        self.assert_tree_path(path)
        super()._expand(path)
        # A failure walks up along slices of the path, so a recovery above
        # the failed node may swap out a node that ``path`` still holds.
        if path[-1].status != STATUS_FAILED:
            self.assert_tree_path(path)
        for n in self.root.walk():
            assert n.deepest_level == reference_deepest_level(n), n.name
            self.checked += 1
        assert not recovery_operators_repeat(self.root)


def recovery_drops_deepest_subtree():
    """Op0 -> Op1 (do-all: Op2@3, Op3@2); Op3's necessary precondition
    fails, so Op1 fails and its recovery Op4@1 replaces the only level-3
    subtree."""
    operators = (
        ReductionOperator("Op0", 1, plot=(subgoal("Op1", 1000.0),)),
        ReductionOperator("Op1", 1, plot=(subgoal("Op2", 1000.0), subgoal("Op3", 1000.0)),
                          planfail="Op4"),
        ReductionOperator("Op2", 3, plot=(state_edit(("assert", PROPS[0], 3)),)),
        ReductionOperator("Op3", 2, necessary=((PROPS[1], 3),)),
        ReductionOperator("Op4", 1),
    )
    spec = DomainSpec(n_levels=3, operators=operators, goal="Op0")
    return spec, make_pstate("w", 3)


def deepest_leaf_recovers_to_a_lower_level():
    """Root@1 do-all {Deep@2}: Deep's effects miss its postconditions, and
    its recovery Shallow@1, swapped in during Deep's expansion, leaves Root
    with no level-2 node."""
    spec = parse_domain("""
levels 2
goal Root 100.0
operator Root
  level 1
  plot do-all
    Deep 100.0
operator Deep
  level 2
  plot do-all
    assert (deep)@2
  postconditions (done)@2
  planfail recover Shallow
operator Shallow
  level 1
  plot do-all
    assert (done)@1
  postconditions (done)@1
""")
    return spec, make_pstate("w", 2)


def layered_domain(rng):
    """Op0@1 do-all over five plots at level 1 or 2, each over four or five
    do-all steps at level 2, each over three or four leaves at level 3. A
    leaf whose necessary precondition is missing recovers through the
    level-1 Shallow, which cannot fail, so no recovery loops. Grows trees of
    about a hundred nodes."""
    def leaf(name):
        needs = rng.random() < 0.3
        return ReductionOperator(
            name, 3, necessary=((rng.choice(PROPS), 3),) if needs else (),
            plot=(state_edit((rng.choice(["assert", "retract"]), rng.choice(PROPS), 3)),),
            probability_rules=(ProbabilityRule((), rng.uniform(0.1, 1.0)),),
            planfail="Shallow" if needs else "backtrack")

    def reduction(name, level, children, mode=DO_ALL):
        return ReductionOperator(name, level, plot_mode=mode, plot=tuple(
            subgoal(child.name, rng.uniform(10, 1000)) for child in children))

    operators, mids = [ReductionOperator("Shallow", 1)], []
    for i in range(5):
        steps = []
        for j in range(rng.randint(4, 5)):
            leaves = [leaf(f"Leaf{i}_{j}_{k}") for k in range(rng.randint(3, 4))]
            steps.append(reduction(f"Step{i}_{j}", 2, leaves))
            operators += leaves
        mids.append(reduction(f"Mid{i}", rng.randint(1, 2), steps,
                              rng.choice([DO_ALL, DO_ALL, CHOOSE_ONE])))
        operators += steps
    operators += [reduction("Op0", 1, mids), *mids]
    return DomainSpec(n_levels=3, operators=tuple(operators), goal="Op0",
                      goal_fulfilment=1000.0, review=ReviewPolicy(0.1))


def test_a_recovery_that_reduces_to_the_failing_operator_ends():
    # Try recovers through Again, a do-all over Try: the first Try under
    # Again may not recover to Again a second time, so it backtracks, and
    # the search fails at once instead of nesting until the budget runs out.
    spec = parse_domain("""
levels 1
goal Root 100.0
operator Root
  level 1
  plot do-all
    Try 100.0
operator Try
  level 1
  necessary (ready)@1
  plot do-all
    assert (done)@1
  planfail recover Again
operator Again
  level 1
  plot do-all
    Try 100.0
    Try 100.0
""")
    trace = PlanTrace()
    search = Search(make_pstate("w", 1), spec, budget=1000, trace=trace)
    with pytest.raises(PlanFailure):
        search.run()
    assert [e.detail for e in trace if e.detail.startswith("recovery")] == ["recovery for Try"]
    assert search.expansions == 4  # Root, Try, Again, Try
    assert not recovery_operators_repeat(search.root)


def test_stored_deepest_level_matches_subtree_walk():
    checked = recoveries = 0
    rng = random.Random(2026)
    layered = [(layered_domain(rng), make_pstate("w", 3, contents={3: PROPS[:3]}))
               for _ in range(4)]
    for spec, ps in [*corpus(), *layered, recovery_drops_deepest_subtree(),
                     deepest_leaf_recovers_to_a_lower_level()]:
        search = CheckedSearch(ps, spec, budget=300)
        try:
            search.run()
        except (PlanFailure, BudgetExceededError):
            pass
        checked += search.checked
        recoveries += sum(n.recovery_attempted for n in search.root.walk())
    # The corpus must grow trees that span levels and swap in recoveries.
    assert checked > 10_000
    assert recoveries > 5


# --- stored values equal a full recomputation ----------------------------------

def value_copy(root: PlanNode) -> PlanNode:
    """A copy of ``root``'s tree with only what the update rules read."""
    copies = {}
    for node in reversed(list(root.walk())):
        copies[id(node)] = PlanNode(
            operator=node.operator, fulfilment=node.fulfilment,
            probability=node.probability,
            children=[copies[id(child)] for child in node.children],
            expansion=node.expansion, status=node.status,
            selected_index=node.selected_index)
    return copies[id(root)]


def tree_values(root: PlanNode) -> list:
    return [(n.name, n.fulfilment, n.probability) for n in root.walk()]


@contextmanager
def values_checked():
    """Inside the block, every search checks after each expansion (its
    review included), recovery, reselection and resumed expansion that its
    stored values equal :func:`recompute_values` on a copy of its tree.
    Yields a counter of the checks and of the recoveries made under an OR
    that selects the failed node."""
    stats = Counter()
    originals = {name: getattr(Search, name)
                 for name in ("_expand", "_recover", "_reselect", "_finish_expansion")}

    def check(search, where):
        want = value_copy(search.root)
        recompute_values(want)
        assert tree_values(search.root) == tree_values(want), where
        stats["checks"] += 1

    def checked(name):
        def method(self, path, *args):
            if name == "_recover" and len(path) > 1:
                parent = path[-2]
                stats["recoveries under a selecting OR"] += (
                    parent.expansion == EXPANSION_OR
                    and parent.selected_child is path[-1])
            originals[name](self, path, *args)
            check(self, f"after {name} of {path[-1].name}")
        return method

    for name in originals:
        setattr(Search, name, checked(name))
    try:
        yield stats
    finally:
        for name, method in originals.items():
            setattr(Search, name, method)


def recovery_under_a_selecting_or():
    """Root do-all {Pick choose-one {Fast 100, Slow 5}}: against (jam) the
    selected Fast fails its postconditions and recovers through Crawl
    (probability 0.1), which Pick then selects."""
    spec = parse_domain("""
levels 1
goal Root 100.0
operator Root
  level 1
  plot do-all
    Pick 100.0
operator Pick
  level 1
  plot choose-one
    Fast 100.0
    Slow 5.0
operator Fast
  level 1
  plot do-all
    assert (fast)@1
  postconditions (fast)@1 (not (jam))@1
  planfail recover Crawl
operator Crawl
  level 1
  plot do-all
    assert (fast)@1
  probability
    default 0.1
  postconditions (fast)@1
operator Slow
  level 1
  plot do-all
    assert (slow)@1
  postconditions (slow)@1
""")
    return spec, make_pstate("w", 1, contents={1: [Proposition("jam")]})


def test_a_recovery_under_a_selecting_or_updates_every_ancestor():
    spec, ps = recovery_under_a_selecting_or()
    with values_checked() as stats:
        plan = plan_for_pstate(ps, spec)
    assert [s.operator for s in plan.execution_sequence] == ["Crawl"]
    assert stats["recoveries under a selecting OR"] == 1
    assert plan.root_ef == 10.0
    assert tree_values(plan.root) == tree_values(recompute_values(value_copy(plan.root)))


def test_stored_values_equal_recompute_after_every_tree_change():
    cases = [(spec, ps, 300) for spec, ps in corpus()]
    cases += list(test_helper_corpus.corpus())
    # Replays, and searches resumed from a halted replay, as well.
    replays = [case for case in itertools.islice(test_replay_corpus.cases(), 1000)
               if case[1] is not None]
    with values_checked() as stats:
        for spec, ps, budget in cases:
            try:
                Search(ps, spec, budget=budget).run()
            except UplanError:
                pass
        for spec, donor, world, budget in replays:
            try:
                result = reapply_plan(donor, world, spec, budget=budget)
                if result.kind == "partial":
                    stats["resumed"] += 1
                    continue_from(result)
            except UplanError:
                pass
    assert stats["checks"] > 3_000, stats
    assert stats["resumed"] >= 10, stats
    assert stats["recoveries under a selecting OR"] >= 3, stats


# --- plan trees and worlds hold no reference cycle -----------------------------

def live(cls) -> int:
    return sum(isinstance(o, cls) for o in gc.get_objects())


def test_dropped_plan_trees_are_freed_without_the_cyclic_collector(
        air_combat_spec, air_combat_evidence):
    spec, _ = recovery_under_a_selecting_or()
    jam = parse_evidence("frame road {jam}\n  jam -> (jam)@1\nmass road {jam}=1.0\n")
    gc.disable()
    try:
        before = live(PlanNode), live(PState)
        superplan, library = plan_superplan(air_combat_spec, air_combat_evidence)
        assert len(library) > 1
        del superplan, library
        superplan, library = plan_superplan(spec, jam)
        assert [s.operator for s in library[0].execution_sequence] == ["Crawl"]
        del superplan, library
        assert (live(PlanNode), live(PState)) == before
    finally:
        gc.enable()


def chain_mission(segments=6, per_segment=10):
    """A do-all of segments of leaf steps whose two worlds part at a choice in
    the last segment, as in the benchmark's long-chain workload."""
    lines = ["levels 1", "goal Mission 1000.0", "operator Mission", "  level 1",
             "  plot do-all", *(f"    Seg{k} 1000.0" for k in range(segments))]
    for k in range(segments):
        steps = [f"S{k}_{j}" for j in range(per_segment)]
        if k == segments - 1:
            steps[per_segment // 2] = "Pick"
        lines += [f"operator Seg{k}", "  level 1", "  plot do-all",
                  *(f"    {step} 1000.0" for step in steps)]
        lines += [line for step in steps if step != "Pick" for line in (
            f"operator {step}", "  level 1", "  plot do-all", f"    assert (done {step})@1")]
    lines += ["operator Pick", "  level 1", "  plot choose-one", "    North 1000.0",
              "    South 900.0"]
    for alt, route in (("North", "n"), ("South", "s")):
        lines += [f"operator {alt}", "  level 1", f"  necessary (route {route})@1",
                  "  plot do-all", f"    assert (done {alt})@1"]
    evidence = ("frame route {n s}\n  n -> (route n)@1\n  s -> (route s)@1\n"
                "mass route {n}=0.6 {s}=0.4\n")
    return parse_domain("\n".join(lines) + "\n"), parse_evidence(evidence)


def reachable_types(*roots) -> set:
    """The types of every object reachable from ``roots`` through
    ``gc.get_referents``, not entering classes or modules."""
    seen, kinds, stack = set(), set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        kinds.add(type(obj))
        stack.extend(gc.get_referents(obj))
    return kinds


def test_a_plan_library_holds_no_state(air_combat_spec, air_combat_evidence):
    # The search keeps the states it threads; a finished plan is structure
    # and values only.
    for spec, evidence in ((air_combat_spec, air_combat_evidence), chain_mission()):
        superplan, library = plan_superplan(spec, evidence)
        assert len(library) > 1 and superplan.branch_points()
        kinds = reachable_types(superplan, library)
        assert PlanNode in kinds
        assert PState not in kinds and AbstractionLevel not in kinds
        # A node's values are two floats, not a tuple subclass the collector
        # keeps tracking.
        assert {kind for kind in kinds if issubclass(kind, tuple)} <= {tuple}
