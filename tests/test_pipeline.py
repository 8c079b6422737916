import random
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

import uplan.pipeline
from uplan import plan_superplan
from uplan.cli import main
from uplan.dsl import parse_domain, parse_evidence
from uplan.errors import BudgetExceededError, PlanFailure, UplanError
from uplan.evidence import EvidenceSet, Frame, generate_pstates, mass_function, rank_pstates
from uplan.model import (
    EXPANSION_AND,
    EXPANSION_OR,
    PLANFAIL_BACKTRACK,
    PLANFAIL_REJECT_BRANCH,
    STATUS_COMPLETE,
    STATUS_FAILED,
    STATUS_REDUNDANT,
    CausalRule,
    CompatibilityRelation,
    Plan,
    PlanNode,
    Proposition,
    PState,
    make_pstate,
)
from uplan.planner import (
    DEFAULT_NODE_BUDGET,
    PlanTrace,
    ReviewPolicy,
    Search,
    plan_for_pstate,
)
from uplan.reapply import (
    ReapplyResult,
    continue_from,
    merge_plans,
    reapply_plan,
    reuse_rank,
)
from uplan.serialize import dumps_superplan

from conftest import fixture_text
from test_helper_corpus import FACTS as HELPER_FACTS, LEVELS, PATTERNS, random_domain
from test_search_robustness import (
    PROPS as LAYERED_FACTS,
    deepest_leaf_recovers_to_a_lower_level,
    layered_domain,
    random_domain as random_search_domain,
    recovery_drops_deepest_subtree,
    recovery_under_a_selecting_or,
)


def test_pipeline_matches_cli_bytes(air_combat_spec, air_combat_evidence, tmp_path):
    domain, evidence, out = (tmp_path / "air.domain", tmp_path / "air.evidence",
                             tmp_path / "sp.json")
    domain.write_text(fixture_text("air_combat.domain"))
    evidence.write_text(fixture_text("air_combat.evidence"))
    assert main(["plan", str(domain), str(evidence), "--out", str(out)]) == 0
    superplan, library = plan_superplan(air_combat_spec, air_combat_evidence)
    assert dumps_superplan(superplan) == out.read_text(encoding="utf-8")
    assert [sorted(p.worlds) for p in library] == \
        [["fighter+radar_contact"], ["bomber+radar_contact"]]


def test_pipeline_trace_lines(air_combat_spec, air_combat_evidence):
    lines = []
    plan_superplan(air_combat_spec, air_combat_evidence, trace=lines.append)
    assert all(line.startswith("; ") for line in lines)
    assert any("world bomber+radar_contact: resumed after" in line for line in lines)
    assert any(line.startswith("; fighter+radar_contact 00000 expand") for line in lines)


def test_pipeline_budget_error_names_world(air_combat_spec, air_combat_evidence):
    with pytest.raises(BudgetExceededError) as info:
        plan_superplan(air_combat_spec, air_combat_evidence, budget=1)
    assert info.value.world_id == "fighter+radar_contact"


def test_pipeline_plan_failure_names_world():
    spec = parse_domain("""
levels 1
goal Do 100.0
operator Do
  level 1
  necessary (never true)@1
  plot do-all
    assert (done)@1
  probability
    default 1.0
""")
    evidence = parse_evidence("frame f {only}\nmass f {only}=1.0\n")
    with pytest.raises(PlanFailure) as info:
        plan_superplan(spec, evidence)
    assert info.value.world_id == "only"


_RADAR_FRAME = """
frame radar {on off}
  on -> (radar active)@3

mass radar {on}=0.7 {on off}=0.3
"""


def _world_path(superplan, world_id):
    """The operators a world executes: the alternative holding the world is
    followed at every branch point."""
    ops, node = [], superplan.root
    while node is not None:
        ops.extend(step.operator for step in node.steps)
        node = next((alt.subtree for alt in node.alternatives
                     if world_id in alt.worlds), None)
    return ops


@pytest.mark.xfail(strict=True, reason="a world reused in full gets the donor's "
                   "sequence, not its own replay's helper steps")
def test_pipeline_full_reuse_keeps_helper_steps(air_combat_spec):
    evidence = parse_evidence(fixture_text("air_combat.evidence") + _RADAR_FRAME)
    superplan, _ = plan_superplan(air_combat_spec, evidence)
    # The radar-on worlds rank first, so their plans become the donors.
    assert max(superplan.worlds, key=lambda pair: pair[1].support)[0].endswith("+on")
    for world_id, _ in superplan.worlds:
        if world_id.endswith("+off"):
            ops = _world_path(superplan, world_id)
            assert "Activate_Radar" in ops
            assert "Radar_Lock" not in ops[:ops.index("Activate_Radar")]


# --- one replay per relevance class -------------------------------------------

def reference_plan_superplan(spec, evidence, *, policy=None, budget=DEFAULT_NODE_BUDGET,
                             threshold=None, trace=None) -> tuple:
    """The pipeline that replays every library plan against every world, kept
    as the oracle for replaying once per relevance class."""
    threshold = threshold or spec.coverage_threshold
    worlds = rank_pstates(generate_pstates(evidence, spec.compat, spec.n_levels))
    library: list = []
    for world in worlds:
        if not world.interval.meets(threshold):
            if trace:
                trace(f"; world {world.id}: below the coverage threshold, not planned")
            continue
        try:
            plan = _reference_plan_world(world, library, spec, policy, budget, trace)
        except (PlanFailure, BudgetExceededError) as exc:
            exc.world_id = world.id
            raise
        if plan is not None:
            library.append(plan)
    return merge_plans([(p, p.worlds) for p in library], worlds, threshold), library


def _reference_plan_world(world, library, spec, policy, budget, trace):
    """Plan one world against the library; None when a donor is reused in full."""
    results = [reapply_plan(plan, world, spec, order=i, budget=budget, policy=policy)
               for i, plan in enumerate(library)]
    fulls = [r for r in results if r.kind == "full"]
    if fulls:
        min(fulls, key=reuse_rank).donor.worlds.add(world.id)
        if trace:
            trace(f"; world {world.id}: reusing existing plan in full")
        return None
    partials = [r for r in results if r.kind == "partial"]
    plan_trace = PlanTrace() if trace else None
    try:
        if partials:
            best = min(partials, key=reuse_rank)
            plan = reference_continue_from(best, world, spec, budget=budget,
                                           trace=plan_trace, policy=policy)
            if trace:
                trace(f"; world {world.id}: resumed after a reusable prefix "
                      f"of {best.prefix_length} step(s)")
        else:
            plan = plan_for_pstate(world, spec, policy=policy, budget=budget,
                                   trace=plan_trace)
    finally:
        # Also on failure, so a world that fails shows how far its search got.
        if trace:
            for line in plan_trace.to_lines():
                trace(f"; {world.id} {line}")
    return plan


def reference_continue_from(result: ReapplyResult, ps: PState, spec,
                            budget: int = DEFAULT_NODE_BUDGET, trace=None,
                            policy: ReviewPolicy | None = None) -> Plan:
    """Resume planning for a world whose donor replay failed part-way.

    The donor's choices stay scripted; when one fails, its planfail directive
    applies and the search continues freely from there.

    The oracle for resuming a halted replay: one search that replays the
    donor from the start and never halts.
    """
    search = Search(ps, spec, policy=policy, donor=result.donor,
                    halt_on_failure=False, budget=budget, trace=trace)
    return search.run()


def reference_donor_script(plan: Plan) -> dict:
    """Map every node path (the child indices from the root) of a donor
    plan to its OR choice, or to None at AND nodes and leaves: the script
    that replays once looked nodes up in, kept as the oracle for
    ``PlanNode.donor``."""
    script = {}

    def walk(node: PlanNode, path: tuple):
        script[path] = None
        if node.expansion == EXPANSION_OR:
            selected = node.selected_child
            script[path] = node.selected_index
            walk(selected, path + (selected.plot_index,))
        elif node.expansion == EXPANSION_AND:
            for child in node.children:
                walk(child, path + (child.plot_index,))

    walk(plan.root, ())
    return script


def check_donor_nodes(root: PlanNode, script: dict) -> int:
    """Check that each node of ``root``'s tree holds a donor node exactly
    when ``script`` has its path, and that the donor's choice is the
    script's entry there; returns how many nodes hold one."""
    scripted = 0
    stack = [(root, ())]
    while stack:
        node, path = stack.pop()
        assert (node.donor is not None) == (path in script), path
        if node.donor is not None:
            # None at AND nodes and leaves, on both sides.
            assert node.donor.selected_index == script[path], path
            scripted += 1
        stack.extend((child, path + (child.plot_index,)) for child in node.children)
    return scripted


def reference_relevant_predicates(spec) -> tuple:
    """Every predicate that a proposition anywhere in the operators, causal
    rules or compatibility relations names, found by walking the values."""
    found, stack = set(), [spec.operators, spec.causal_rules, spec.compat]
    while stack:
        value = stack.pop()
        if isinstance(value, Proposition):
            found.add(value.predicate)
        elif isinstance(value, tuple):
            stack.extend(value)
        elif is_dataclass(value):
            stack.extend(getattr(value, f.name) for f in fields(value))
    return tuple(sorted(found))


def relevance_class(world, predicates) -> tuple:
    return tuple(tuple(p for p in world.facts(level) if p.predicate in predicates)
                 for level in range(1, world.n_levels + 1))


@contextmanager
def recorded_replays(module, calls):
    """Append (world, library position) to ``calls`` for every replay that
    ``module`` starts."""
    original = module.reapply_plan

    def recorder(plan, world, spec, order=0, **kwargs):
        calls.append((world, order))
        return original(plan, world, spec, order=order, **kwargs)

    module.reapply_plan = recorder
    try:
        yield
    finally:
        module.reapply_plan = original


def _run(pipeline, module, spec, evidence, budget, threshold, policy):
    """(super-plan bytes and library worlds, or the error), trace lines, replays."""
    lines, calls = [], []
    with recorded_replays(module, calls):
        try:
            superplan, library = pipeline(spec, evidence, policy=policy, budget=budget,
                                          threshold=threshold, trace=lines.append)
            outcome = ("plan", dumps_superplan(superplan),
                       [sorted(p.worlds) for p in library])
        except UplanError as exc:
            outcome = ("error", type(exc).__name__, str(exc),
                       getattr(exc, "world_id", None))
    return outcome, lines, calls


def compare_with_reference(spec, evidence, budget=DEFAULT_NODE_BUDGET, threshold=None,
                           policy=None):
    """Check the pipeline against the reference on one input; returns the
    reference's outcome and the worlds of each relevance class it replayed."""
    predicates = reference_relevant_predicates(spec)
    assert spec.relevant_predicates == predicates
    got, got_lines, got_calls = _run(plan_superplan, uplan.pipeline,
                                     spec, evidence, budget, threshold, policy)
    want, want_lines, want_calls = _run(reference_plan_superplan, sys.modules[__name__],
                                        spec, evidence, budget, threshold, policy)
    assert got == want
    assert got_lines == want_lines
    # One replay per (class, plan) pair that the reference replays at all.
    pairs = [(relevance_class(w, predicates), order) for w, order in got_calls]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {(relevance_class(w, predicates), order)
                          for w, order in want_calls}
    classes = {}
    for world, _ in want_calls:
        classes.setdefault(relevance_class(world, predicates), set()).add(world.id)
    return want, list(classes.values())


# Predicates that no operator, rule or relation names.
_NOISE = [Proposition("noise"), Proposition("tag", ("a",)), Proposition("tag", ("b",))]


@st.composite
def multi_world_cases(draw):
    """A helper-rich random domain, with a compatibility relation and a causal
    rule with a level-less condition added at random, and 2 or 3 evidence
    frames of 2 or 3 elements. Some frames give facts the domain reads, the
    others only facts it never names, so worlds often share a class."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    spec = random_domain(rng)
    compat = tuple(CompatibilityRelation(rng.choice(LEVELS), rng.choice(HELPER_FACTS),
                                         rng.choice(LEVELS), rng.choice(HELPER_FACTS))
                   for _ in range(rng.random() < 0.5))
    rules = spec.causal_rules + tuple(
        CausalRule(rng.choice(HELPER_FACTS), ((rng.choice(PATTERNS), None),),
                   (("assert", rng.choice(HELPER_FACTS), rng.choice(LEVELS)),))
        for _ in range(rng.random() < 0.5))
    spec = replace(spec, compat=compat, causal_rules=rules)
    frames, masses = [], []
    for i in range(draw(st.integers(2, 3))):
        pool = _NOISE if draw(st.booleans()) else HELPER_FACTS
        elements = tuple(f"f{i}e{k}" for k in range(draw(st.integers(2, 3))))
        frame = Frame(f"f{i}", elements, tuple(
            (element, tuple((draw(st.sampled_from(pool)), draw(st.sampled_from(LEVELS)))
                            for _ in range(draw(st.integers(0, 2)))))
            for element in elements))
        weights = [draw(st.integers(1, 9)) for _ in elements]
        frames.append(frame)
        masses.append(mass_function(frame, {(element,): w / sum(weights)
                                            for element, w in zip(elements, weights)}))
    budget = draw(st.sampled_from([4, 8, 15, 30, 1000]))
    threshold = draw(st.sampled_from([None, (0.2, 0.0)]))
    return spec, EvidenceSet(tuple(frames), tuple(masses)), budget, threshold


def test_one_replay_per_relevance_class_matches_a_replay_per_world():
    stats = Counter()

    @settings(max_examples=600, deadline=None)
    @given(multi_world_cases())
    def check(case):
        want, classes = compare_with_reference(*case)
        stats["cases"] += 1
        stats["shared a class"] += any(len(ids) >= 2 for ids in classes)
        stats[want[0]] += 1

    check()
    # The random inputs must share classes often, and both plan and fail.
    assert stats["shared a class"] >= 40, stats
    assert stats["error"] >= 10 and stats["plan"] >= 10, stats


def layered_input(rng) -> tuple:
    """A layered domain of about a hundred nodes
    (:func:`test_search_robustness.layered_domain`) and two frames of two
    elements, each element giving some of the domain's facts at level 3, so
    that leaves' needs hold in some worlds and not others: replays halt
    part-way, and worlds of one relevance class share their replays."""
    spec = layered_domain(rng)
    frames, masses = [], []
    for i in range(2):
        elements = (f"f{i}a", f"f{i}b")
        frame = Frame(f"f{i}", elements, tuple(
            (element, tuple((fact, 3) for fact in LAYERED_FACTS if rng.random() < 0.5))
            for element in elements))
        weight = rng.uniform(0.2, 0.8)
        frames.append(frame)
        masses.append(mass_function(frame, {(elements[0],): weight,
                                            (elements[1],): 1 - weight}))
    return spec, EvidenceSet(tuple(frames), tuple(masses))


@st.composite
def layered_cases(draw):
    """A layered input, with a review offset of zero in some, so review
    switches are frequent."""
    spec, evidence = layered_input(random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    return spec, evidence, draw(st.sampled_from([None, ReviewPolicy(0.0)]))


@contextmanager
def counted_continuations():
    """Count the worlds the pipeline plans on from a partial replay: by
    resuming the halted search of a replay made for the world itself
    ("own"), or, for a replay stored by an earlier world of its class, by
    replaying the donor from the start ("stored"). Yields the counter."""
    counts = Counter()
    resume, plan = uplan.pipeline.continue_from, uplan.pipeline.plan_for_pstate

    def resumed(result):
        counts["own"] += 1
        return resume(result)

    def planned(*args, **kwargs):
        counts["stored"] += kwargs.get("donor") is not None
        return plan(*args, **kwargs)

    uplan.pipeline.continue_from, uplan.pipeline.plan_for_pstate = resumed, planned
    try:
        yield counts
    finally:
        uplan.pipeline.continue_from, uplan.pipeline.plan_for_pstate = resume, plan


def test_continued_worlds_match_a_replay_per_world():
    stats = Counter()

    @settings(max_examples=150, deadline=None)
    @given(layered_cases())
    def check(case):
        spec, evidence, policy = case
        with counted_continuations() as counts:
            want, _ = compare_with_reference(spec, evidence, policy=policy)
        stats.update(counts)
        stats["inputs with a stored replay"] += counts["stored"] > 0
        stats[want[0]] += 1

    check()
    # Both ways of planning on from a partial replay must be compared: about
    # 2.7 worlds an input resume their own replay, and about 3 inputs in 10
    # plan a world on from a replay stored by an earlier world of its class.
    assert stats["own"] >= 250 and stats["plan"] >= 100, stats
    assert stats["inputs with a stored replay"] >= 25, stats


def assert_descent_is_clear(root: PlanNode):
    """Descend from ``root`` as the search does, taking an AND's first child
    that is not done and an OR's selection: no node on the way has failed,
    and every OR node has a selection."""
    node = root
    while node is not None:
        assert node.status != STATUS_FAILED, node.name
        if node.expansion == EXPANSION_OR:
            assert node.selected_child is not None, node.name
            node = node.selected_child
        elif node.expansion == EXPANSION_AND:
            node = next((child for child in node.children if child.status not in (
                STATUS_COMPLETE, STATUS_REDUNDANT)), None)
        else:
            node = None


@contextmanager
def planfails_resolved():
    """Inside the block, every search checks its tree with
    :func:`assert_descent_is_clear` after each planfail it applies and each
    resume that returns. Yields a counter of the planfails checked, by
    outcome, and of the resumed halts."""
    stats = Counter()
    apply_planfail, resume = Search._apply_planfail, Search.resume

    def applied(self, path, reason):
        node = path[-1]
        apply_planfail(self, path, reason)
        if path[-1] is not node:  # a recovery put its replacement in the path
            stats["recoveries"] += 1
        elif node.operator.planfail == PLANFAIL_REJECT_BRANCH:
            stats["reject-branches"] += 1
        else:
            stats["backtracks"] += 1
        assert_descent_is_clear(self.root)

    def resumed(self):
        plan = resume(self)
        stats["resumed halts"] += 1
        assert_descent_is_clear(self.root)
        return plan

    Search._apply_planfail, Search.resume = applied, resumed
    try:
        yield stats
    finally:
        Search._apply_planfail, Search.resume = apply_planfail, resume


def test_a_planfail_is_resolved_where_it_is_raised():
    # The search's descent has no branch for a failed node or an OR node
    # without a selection, so no planfail may leave either on its way.
    # Layered inputs halt and resume replays and recover; random domains
    # backtrack and reject branches.
    rng = random.Random(28)
    layered = [layered_input(rng) for _ in range(40)]
    searches = [(random_search_domain(rng), make_pstate("w", 3, contents={
        level: [fact for fact in LAYERED_FACTS if rng.random() < 0.4]
        for level in (1, 2, 3)})) for _ in range(1000)]
    searches += [recovery_drops_deepest_subtree(), deepest_leaf_recovers_to_a_lower_level(),
                 recovery_under_a_selecting_or()]
    with planfails_resolved() as stats:
        for i, (spec, evidence) in enumerate(layered):
            try:
                plan_superplan(spec, evidence, policy=ReviewPolicy(0.0) if i % 2 else None)
            except UplanError:
                pass
        for spec, ps in searches:
            try:
                Search(ps, spec, budget=300).run()
            except UplanError:
                pass
    # About 1,400 recoveries, 70 backtracks, 50 reject-branches and 110
    # resumed halts.
    assert stats["recoveries"] >= 500 and stats["resumed halts"] >= 50, stats
    assert stats["backtracks"] >= 30 and stats["reject-branches"] >= 20, stats


# Each domain names one predicate, ``x``, in a single place: a compatibility
# relation, a causal rule's level-less condition, or a probability rule. The
# worlds, in rank order, are ``plain``, which gets a fresh plan, ``noisy``,
# which differs from it only in a predicate nothing names, and ``marked``,
# which differs from ``noisy`` only in ``x``: the plan replays in full for
# ``noisy`` but fails for ``marked``.
_WAIT = """
operator Wait
  level {level}
  plot do-all
    assert (waited)@{level}
  postconditions (waited)@{level}
"""
_ONLY_X_DIFFERS = {
    "compat": """
levels 1
goal Act 100.0
compat (x)@1 => (y)@1
operator Act
  level 1
  plot choose-one
    Clear 100.0
    Wait 10.0
operator Clear
  level 1
  plot do-all
    retract (y)@1
  postconditions (not (y))@1
""" + _WAIT.format(level=1),
    "level-less rule condition": """
levels 2
goal Act 100.0
rule alarm when (fired) if (x) then assert (broken)@2
operator Act
  level 1
  plot choose-one
    Fire 100.0
    Wait 10.0
operator Fire
  level 2
  plot do-all
    assert (fired)@2
  postconditions (fired)@2 (not (broken))@2
""" + _WAIT.format(level=2),
    "probability rule": """
levels 1
goal Act 100.0
operator Act
  level 1
  plot choose-one
    Main 100.0
    Wait 10.0
operator Main
  level 1
  satisfiable (ready)@1
  plot do-all
    assert (done)@1
  postconditions (done)@1 (not (spoiled))@1
operator Careful
  level 1
  plot do-all
    assert (ready)@1
  probability
    default 0.5
  postconditions (ready)@1
operator Quick
  level 1
  plot do-all
    assert (ready)@1
    assert (spoiled)@1
  probability
    when (x)@1 => 0.9
    default 0.1
  postconditions (ready)@1
""" + _WAIT.format(level=1),
}


@pytest.mark.parametrize("where", sorted(_ONLY_X_DIFFERS))
def test_a_predicate_named_in_one_place_splits_classes(where):
    spec = parse_domain(_ONLY_X_DIFFERS[where])
    level = spec.n_levels
    evidence = parse_evidence(f"""
frame f {{plain noisy marked}}
  plain -> (y)@{level}
  noisy -> (y)@{level} (noise)@{level}
  marked -> (y)@{level} (noise)@{level} (x)@{level}
mass f {{plain}}=0.5 {{noisy}}=0.3 {{marked}}=0.2
""")
    want, classes = compare_with_reference(spec, evidence)
    assert want[0] == "plan" and want[2] == [["noisy", "plain"], ["marked"]]
    assert classes == [{"noisy"}, {"marked"}]


def test_a_budget_error_inside_a_replay_names_the_first_world_of_its_class():
    # Only ``bare`` and ``noisy`` lack (p0); replaying the plan of ``ready``
    # there needs a chain of helpers longer than the budget.
    spec = parse_domain("""
levels 1
goal Main 100.0
operator Main
  level 1
  satisfiable (p0)@1
  plot do-all
    assert (done)@1
  postconditions (done)@1
operator H0
  level 1
  satisfiable (p1)@1
  plot do-all
    assert (p0)@1
  postconditions (p0)@1
operator H1
  level 1
  plot do-all
    assert (p1)@1
  postconditions (p1)@1
""")
    evidence = parse_evidence("""
frame f {ready bare noisy}
  ready -> (p0)@1
  noisy -> (noise)@1
mass f {ready}=0.5 {bare}=0.3 {noisy}=0.2
""")
    want, classes = compare_with_reference(spec, evidence, budget=2)
    assert want == ("error", "BudgetExceededError",
                    "node budget of 2 exhausted after 2 expansions", "bare")
    assert classes == [{"bare"}]


# --- resuming a halted replay -------------------------------------------------

@contextmanager
def counted_expansions():
    """Count the search expansions made inside the block, helpers included:
    yields a one-item list holding the count."""
    count = [0]
    original = Search._count_expansion

    def counting(self):
        count[0] += 1
        original(self)

    Search._count_expansion = counting
    try:
        yield count
    finally:
        Search._count_expansion = original


def _outcome(call):
    """A search's steps and worlds, or its error."""
    try:
        plan = call()
    except UplanError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("plan", plan.execution_sequence, sorted(plan.worlds))


def _lines(trace):
    return None if trace is None else trace.to_lines()


@st.composite
def resume_cases(draw):
    """A helper-rich random domain in which some operators recover through
    another, a donor plan made for one world, a second world that differs
    in some facts, a budget and whether to trace."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    spec = random_domain(rng)
    names = [op.name for op in spec.operators]
    spec = replace(spec, operators=tuple(
        replace(op, planfail=rng.choice(names)) if rng.random() < 0.2 else op
        for op in spec.operators))
    donor = None
    for _ in range(5):
        facts = {level: set(rng.sample(HELPER_FACTS, rng.randint(0, 5)))
                 for level in LEVELS}
        try:
            donor = plan_for_pstate(make_pstate("donor", 2, contents=facts), spec,
                                    budget=200)
            break
        except UplanError:
            pass
    world = make_pstate("world", 2, contents={
        level: facts[level] ^ {f for f in HELPER_FACTS if rng.random() < 0.25}
        for level in LEVELS})
    budget = draw(st.sampled_from([4, 8, 15, 30, 100, 1000]))
    return spec, donor, world, budget, draw(st.booleans())


def test_resumed_replay_matches_one_search_that_never_halts():
    stats = Counter()

    @settings(max_examples=500, deadline=None)
    @given(resume_cases())
    def check(case):
        spec, donor, world, budget, traced = case
        if donor is None:
            return
        want_trace, trace = (PlanTrace(), PlanTrace()) if traced else (None, None)
        with counted_expansions() as want_count:
            want = _outcome(lambda: reference_continue_from(
                ReapplyResult("partial", donor), world, spec, budget=budget,
                trace=want_trace))
        with counted_expansions() as replay_count:
            try:
                result = reapply_plan(donor, world, spec, budget=budget, trace=trace)
            except UplanError as exc:
                result = ("error", type(exc).__name__, str(exc))
        script = reference_donor_script(donor)
        # The rebuilt tree of a full replay, or the halted tree of a partial one.
        tree = None if isinstance(result, tuple) else result.plan or result.search
        if tree is not None:
            stats["scripted nodes"] += check_donor_nodes(tree.root, script)
        if isinstance(result, tuple) or result.kind == "full":
            # The replay raised or replayed in full: it was the whole search.
            assert (result if isinstance(result, tuple)
                    else _outcome(lambda: result.plan)) == want
            assert _lines(trace) == _lines(want_trace)
            assert replay_count == want_count
            stats["not halted"] += 1
            return
        search = result.search
        resumes = search is not None
        if resumes:
            halted_at = result.resume if result.resume is not None else result.search.root
            stats["halted"] += 1
            stats["recovered"] += (not halted_at.recovery_attempted and
                                   halted_at.operator.planfail not in (
                                       PLANFAIL_BACKTRACK, PLANFAIL_REJECT_BRANCH))
        else:
            # A failure outside the script ended the replay, which keeps no
            # search: the donor is replayed from the start, into a trace of
            # its own.
            assert want[:2] == ("error", "PlanFailure")
            with pytest.raises(UplanError, match="no halted search"):
                continue_from(result)
            trace = PlanTrace() if traced else None
        with counted_expansions() as after:
            got = _outcome(lambda: continue_from(result) if resumes else
                           plan_for_pstate(world, spec, budget=budget, trace=trace,
                                           donor=donor))
        assert got == want
        assert _lines(trace) == _lines(want_trace)
        if resumes:
            stats["scripted nodes"] += check_donor_nodes(search.root, script)
        # A resumed search skips exactly the expansions its replay made.
        assert after[0] == want_count[0] - (replay_count[0] if resumes else 0)
        stats[got[0]] += 1

    check()
    assert stats["halted"] >= 20 and stats["recovered"] >= 5, stats
    assert stats["scripted nodes"] >= 500, stats
    assert stats["plan"] >= 3 and stats["error"] >= 3, stats


def test_continue_from_a_result_without_its_search(air_combat_spec, air_combat_worlds):
    fighter, bomber = air_combat_worlds
    donor = plan_for_pstate(fighter, air_combat_spec)
    want_trace = PlanTrace()
    with counted_expansions() as want_count:
        want = reference_continue_from(ReapplyResult("partial", donor), bomber,
                                       air_combat_spec, trace=want_trace)
    result = reapply_plan(donor, bomber, air_combat_spec)
    assert result.kind == "partial"
    # ``stripped`` is kept as the per-class outcome lists keep a replay, and
    # a full replay keeps no search either: neither can be resumed.
    stripped = ReapplyResult(result.kind, donor, prefix_length=result.prefix_length)
    full = reapply_plan(donor, fighter, air_combat_spec)
    assert full.kind == "full"
    for candidate in (stripped, full):
        with pytest.raises(UplanError, match="no halted search"):
            continue_from(candidate)
    # Planning from the start with the donor scripted is the search the
    # halted replay would have gone on as.
    trace = PlanTrace()
    with counted_expansions() as count:
        plan = plan_for_pstate(bomber, air_combat_spec, trace=trace, donor=stripped.donor)
    assert plan.execution_sequence == want.execution_sequence
    assert plan.worlds == want.worlds
    assert trace.to_lines() == want_trace.to_lines()
    assert count == want_count


def test_continue_from_resumes_a_result_once(air_combat_spec, air_combat_worlds):
    fighter, bomber = air_combat_worlds
    donor = plan_for_pstate(fighter, air_combat_spec)
    want_trace = PlanTrace()
    want = reference_continue_from(ReapplyResult("partial", donor), bomber,
                                   air_combat_spec, trace=want_trace)
    trace = PlanTrace()
    result = reapply_plan(donor, bomber, air_combat_spec, trace=trace)
    search = result.search
    plan = continue_from(result)
    assert plan.execution_sequence == want.execution_sequence
    assert trace.to_lines() == want_trace.to_lines()
    assert result.search is None
    with pytest.raises(UplanError, match="only a halted search"):
        search.resume()
    with pytest.raises(UplanError, match="no halted search"):
        continue_from(result)


def test_resume_finishes_the_expansion_its_halt_interrupted():
    # The donor world lacks (open), so the donor recovers Pick through the
    # do-all Both, and a replay's choose-one Pick is left unpinned. In the
    # new world the scripted Fast fails its postconditions, a weak Crawl
    # recovers it, and the review that ends Fast's expansion switches Pick
    # to Slow before Crawl is expanded.
    spec = parse_domain("""
levels 1
goal Root 100.0
operator Root
  level 1
  plot do-all
    Pick 100.0
operator Pick
  level 1
  necessary (open)@1
  plot choose-one
    Fast 100.0
    Slow 50.0
  planfail recover Both
operator Both
  level 1
  plot do-all
    Fast 100.0
    Slow 50.0
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
    donor = plan_for_pstate(make_pstate("donor", 1), spec)
    world = make_pstate("world", 1, contents={1: [Proposition("open"), Proposition("jam")]})
    trace, want_trace = PlanTrace(), PlanTrace()
    result = reapply_plan(donor, world, spec, trace=trace)
    assert result.kind == "partial" and result.resume.operator.name == "Fast"
    plan = continue_from(result)
    want = reference_continue_from(result, world, spec, trace=want_trace)
    assert [s.operator for s in plan.execution_sequence] == ["Slow"]
    assert plan.execution_sequence == want.execution_sequence
    assert trace.to_lines() == want_trace.to_lines()
    kinds = [(event.kind, event.operator) for event in trace]
    assert kinds[5:9] == [("planfail", "Fast"), ("select", "Crawl"),
                          ("update", "Root"), ("review-switch", "Pick")]
