from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from uplan.errors import CoverageError, PlanFailure
from uplan.model import (
    AbstractionLevel,
    EvidentialInterval,
    GroundStep,
    KnowledgeAcquisitionOperator,
    Plan,
    PlanNode,
    PState,
    SuperPlan,
    SuperPlanAlternative,
    SuperPlanNode,
    holds,
    make_pstate,
    state_edit,
    subgoal,
)
from uplan.planner import ReviewPolicy, plan_for_pstate
from uplan.reapply import (
    ReapplyResult,
    _discriminator,
    continue_from,
    merge_plans,
    reapply_plan,
    reuse_rank,
)
from uplan.serialize import dumps_superplan

from conftest import prop
from test_planner import op, spec_of


def fake_plan(steps, worlds, root_ef=100.0):
    root = PlanNode(operator=op("fake"), base_fulfilment=root_ef,
                    fulfilment=root_ef, probability=1.0)
    return Plan(root=root,
                worlds=set(worlds),
                execution_sequence=tuple(GroundStep(s) for s in steps))


def chain_spec(n=5):
    """A root that applies five leaves in order; leaf k needs (pk)."""
    leaves = [
        op(f"L{k}", level=1, necessary=[(prop(f"(p{k})"), 1)],
           plot=[state_edit(("assert", prop(f"(done{k})"), 1))])
        for k in range(1, n + 1)
    ]
    root = op("Root", level=1, plot=[subgoal(f"L{k}", 100) for k in range(1, n + 1)])
    return spec_of("Root", [root] + leaves, n_levels=1)


def full_state(n=5, missing=None):
    props = [prop(f"(p{k})") for k in range(1, n + 1) if k != missing]
    return make_pstate(f"w-missing-{missing}", 1, contents={1: props})


def test_self_reapplication_is_full(air_combat_spec, air_combat_worlds):
    for world in air_combat_worlds:
        plan = plan_for_pstate(world, air_combat_spec, policy=ReviewPolicy(0.0))
        result = reapply_plan(plan, world, air_combat_spec)
        assert result.kind == "full"
        assert result.plan.execution_sequence == plan.execution_sequence


def test_partial_prefix_three_of_five():
    spec = chain_spec()
    origin = full_state()
    plan = plan_for_pstate(origin, spec)
    assert len(plan.execution_sequence) == 5
    result = reapply_plan(plan, full_state(missing=4), spec)
    assert result.kind == "partial"
    assert result.prefix_length == 3
    assert result.resume.operator.name == "L4"


def test_root_necessary_violation_means_none():
    spec = chain_spec()
    plan = plan_for_pstate(full_state(), spec)
    hostile = make_pstate("w", 1)  # nothing holds, not even L1's needs... but
    # the root itself carries no preconditions; give it one by rebuilding:
    ops = list(spec.operators)
    ops[0] = op("Root", level=1, necessary=[(prop("(rooted)"), 1)],
                plot=[subgoal(f"L{k}", 100) for k in range(1, 6)])
    guarded = spec_of("Root", ops, n_levels=1)
    origin = make_pstate("origin", 1, contents={
        1: [prop("(rooted)")] + [prop(f"(p{k})") for k in range(1, 6)],
    })
    plan = plan_for_pstate(origin, guarded)
    result = reapply_plan(plan, hostile, guarded)
    assert result.kind == "none"


def test_redundant_operator_skipped_without_failing():
    spec = chain_spec()
    origin = full_state()
    plan = plan_for_pstate(origin, spec)
    # (done3) already holds in the new world: L3's postconditions are met,
    # so it is skipped and everything else replays.
    ready = make_pstate("w", 1, contents={
        1: [prop(f"(p{k})") for k in range(1, 6)] + [prop("(done3)")],
    })
    # L3 has no postconditions in chain_spec; rebuild with postconditions.
    ops = [spec.operators[0]] + [
        op(f"L{k}", level=1, necessary=[(prop(f"(p{k})"), 1)],
           plot=[state_edit(("assert", prop(f"(done{k})"), 1))],
           post=[(prop(f"(done{k})"), 1)])
        for k in range(1, 6)
    ]
    spec2 = spec_of("Root", ops, n_levels=1)
    plan2 = plan_for_pstate(origin, spec2)
    result = reapply_plan(plan2, ready, spec2)
    assert result.kind == "full"
    assert [s.operator for s in result.plan.execution_sequence] == \
        ["L1", "L2", "L4", "L5"]


def test_continue_from_failure_point():
    spec = chain_spec()
    origin = full_state()
    donor = plan_for_pstate(origin, spec)
    # In the new world L4's necessary proposition is absent and L4 has no
    # alternative, so continuation must fail the same way fresh planning does.
    result = reapply_plan(donor, full_state(missing=4), spec)
    with pytest.raises(PlanFailure):
        continue_from(result)


def test_continue_resumes_with_donor_strategy(air_combat_spec, air_combat_worlds):
    fighter, bomber = air_combat_worlds
    donor = plan_for_pstate(fighter, air_combat_spec, policy=ReviewPolicy(0.0))
    result = reapply_plan(donor, bomber, air_combat_spec)
    assert result.kind == "partial"
    assert result.resume.operator.name == "BVR_Attack"
    resumed = continue_from(result)
    fresh = plan_for_pstate(bomber, air_combat_spec, policy=ReviewPolicy(0.0))
    assert resumed.execution_sequence == fresh.execution_sequence


def test_reuse_rank_ordering():
    donor_low = fake_plan(["a"], {"w1"}, root_ef=700.0)
    donor_high = fake_plan(["a"], {"w2"}, root_ef=810.0)
    five = ReapplyResult("partial", donor_low, prefix_length=5, order=0)
    two = ReapplyResult("partial", donor_high, prefix_length=2, order=1)
    assert min([two, five], key=reuse_rank) is five

    equal_low = ReapplyResult("partial", donor_low, prefix_length=2, order=0)
    equal_high = ReapplyResult("partial", donor_high, prefix_length=2, order=1)
    assert min([equal_low, equal_high], key=reuse_rank) is equal_high

    # Final tiebreak: earlier donor wins.
    twin_a = ReapplyResult("partial", fake_plan(["a"], {"w"}, 100.0),
                           prefix_length=1, order=0)
    twin_b = ReapplyResult("partial", fake_plan(["b"], {"w"}, 100.0),
                           prefix_length=1, order=1)
    assert min([twin_b, twin_a], key=reuse_rank) is twin_a


def world(id, s=0.5, p=0.5, contents=None):
    return make_pstate(id, 1, EvidentialInterval(s, p), contents or {})


def test_merge_identical_plans_no_branches():
    plans = [(fake_plan(["a", "b"], {f"w{i}"}), {f"w{i}"}) for i in range(4)]
    worlds = [world(f"w{i}") for i in range(4)]
    sp = merge_plans(plans, worlds)
    assert sp.branch_points() == []
    assert sp.paths() == [(GroundStep("a"), GroundStep("b"))]


def test_merge_final_step_differs():
    plans = [
        (fake_plan(["a", "b", "x"], {"w1"}), {"w1"}),
        (fake_plan(["a", "b", "y"], {"w2"}), {"w2"}),
    ]
    sp = merge_plans(plans, [world("w1"), world("w2")])
    points = sp.branch_points()
    assert len(points) == 1
    # The branch sits after the shared a, b prefix, in the same node.
    assert points == [sp.root]
    assert sp.root.steps == (GroundStep("a"), GroundStep("b"))


def test_merge_three_way_divergence_at_step_two():
    plans = [
        (fake_plan(["a", "x"], {"w1"}), {"w1"}),
        (fake_plan(["a", "y"], {"w2"}), {"w2"}),
        (fake_plan(["a", "z"], {"w3"}), {"w3"}),
    ]
    sp = merge_plans(plans, [world(w) for w in ("w1", "w2", "w3")])
    points = sp.branch_points()
    assert len(points) == 1
    assert len(points[0].alternatives) == 3


def test_merge_prefix_plan_gets_end_alternative():
    plans = [
        (fake_plan(["a"], {"w1"}), {"w1"}),
        (fake_plan(["a", "b"], {"w2"}), {"w2"}),
    ]
    sp = merge_plans(plans, [world("w1"), world("w2")])
    assert sorted(sp.paths(), key=len) == [
        (GroundStep("a"),), (GroundStep("a"), GroundStep("b")),
    ]


def test_merge_coverage_error():
    plans = [(fake_plan(["a"], {"w1"}), {"w1"})]
    uncovered = world("w2", s=0.9, p=1.0)
    with pytest.raises(CoverageError) as info:
        merge_plans(plans, [world("w1"), uncovered], threshold=(0.5, 0.5))
    assert info.value.world_id == "w2"
    # Below the threshold the same world may stay unplanned.
    sp = merge_plans(plans, [world("w1"), world("w2", s=0.1, p=0.2)],
                     threshold=(0.5, 0.5))
    assert sp.branch_points() == []


def test_ka_single_forced_discriminator():
    w1 = world("w1", contents={1: [prop("(marker)")]})
    w2 = world("w2")
    plans = [
        (fake_plan(["a", "x"], {"w1"}), {"w1"}),
        (fake_plan(["a", "y"], {"w2"}), {"w2"}),
    ]
    sp = merge_plans(plans, [w1, w2])
    point = sp.branch_points()[0]
    assert point.ka is not None
    assert point.ka.observe == ((1, prop("(marker)")),)
    assert point.ka.alternative_for(w1) == 0
    assert point.ka.alternative_for(w2) == 1


def test_ka_indistinguishable_worlds_get_evidence_weights():
    w1 = world("w1", s=0.6, p=1.0, contents={1: [prop("(same)")]})
    w2 = world("w2", s=0.0, p=0.4, contents={1: [prop("(same)")]})
    plans = [
        (fake_plan(["x"], {"w1"}), {"w1"}),
        (fake_plan(["y"], {"w2"}), {"w2"}),
    ]
    sp = merge_plans(plans, [w1, w2])
    point = sp.branch_points()[0]
    assert point.ka is None
    weights = [alt.weight for alt in point.alternatives]
    assert weights[0] == EvidentialInterval(0.6, 1.0)
    assert weights[1] == EvidentialInterval(0.0, 0.4)


def test_ka_joint_pair_cover():
    # Alternatives separable only by observing p and q together.
    w1 = world("w1", contents={1: [prop("(p)"), prop("(q)")]})
    w2 = world("w2", contents={1: []})
    w3 = world("w3", contents={1: [prop("(p)")]})
    w4 = world("w4", contents={1: [prop("(q)")]})
    plans = [
        (fake_plan(["left"], {"w1", "w2"}), {"w1", "w2"}),
        (fake_plan(["right"], {"w3", "w4"}), {"w3", "w4"}),
    ]
    worlds = [w1, w2, w3, w4]
    sp = merge_plans(plans, worlds)
    point = sp.branch_points()[0]
    assert point.ka is not None
    assert point.ka.observe == ((1, prop("(p)")), (1, prop("(q)")))
    for w, expected in ((w1, 0), (w2, 0), (w3, 1), (w4, 1)):
        assert point.ka.alternative_for(w) == expected


def test_flattened_paths_reproduce_inputs(air_combat_spec, air_combat_worlds):
    plans = []
    for w in air_combat_worlds:
        plan = plan_for_pstate(w, air_combat_spec, policy=ReviewPolicy(0.0))
        plans.append((plan, plan.worlds))
    sp = merge_plans(plans, air_combat_worlds)
    paths = {tuple(p) for p in sp.paths()}
    assert paths == {tuple(p.execution_sequence) for p, _ in plans}


# --- references: the two-pass recursive merge and the greedy pair cover -------

_END = object()


def prepend(step, node):
    """``node`` with ``step`` put in front of its run."""
    if node is None:
        return SuperPlanNode((step,))
    return replace(node, steps=(step,) + node.steps)


def reference_merge_plans(plans, worlds) -> SuperPlan:
    """A plain trie of the sequences, built by one recursive call per step,
    with branch points that carry neither KA operators nor weights."""
    grouped: dict = {}
    for index, (plan, world_ids) in enumerate(plans):
        seq = tuple(plan.execution_sequence)
        if seq in grouped:
            grouped[seq][0] |= set(world_ids)
        else:
            grouped[seq] = [set(world_ids), index]
    entries = sorted(
        ((seq, frozenset(ids), order) for seq, (ids, order) in grouped.items()),
        key=lambda e: e[2],
    )

    def build(entries, depth):
        if not entries:
            return None
        heads = {seq[depth] if depth < len(seq) else _END for seq, _, _ in entries}
        if len(heads) == 1:
            head = next(iter(heads))
            if head is _END:
                return None
            return prepend(head, build(entries, depth + 1))
        buckets: dict = {}
        for seq, ids, order in entries:
            head = seq[depth] if depth < len(seq) else _END
            buckets.setdefault(head, []).append((seq, ids, order))
        ordered = sorted(buckets.values(), key=lambda group: min(g[2] for g in group))
        alternatives = []
        for group in ordered:
            worlds_union = frozenset().union(*(ids for _, ids, _ in group))
            head = group[0][0][depth] if depth < len(group[0][0]) else _END
            if head is _END:
                subtree = None
            else:
                subtree = prepend(head, build(group, depth + 1))
            alternatives.append(SuperPlanAlternative(subtree, worlds_union))
        return SuperPlanNode(alternatives=tuple(alternatives))

    world_index = tuple(sorted(((w.id, w.interval) for w in worlds),
                               key=lambda pair: pair[0]))
    return SuperPlan(root=build(entries, 0), worlds=world_index)


def reference_discriminator(world_sets, by_id) -> KnowledgeAcquisitionOperator | None:
    """Greedy set cover: observations whose truth values tell the world sets
    of every pair of alternatives apart, or None when none exists."""
    pairs = []
    for i in range(len(world_sets)):
        for j in range(i + 1, len(world_sets)):
            for w1 in sorted(world_sets[i]):
                for w2 in sorted(world_sets[j]):
                    pairs.append((w1, w2))
    if not pairs:
        return None
    involved = sorted({w for ws in world_sets for w in ws})
    candidates = []
    seen = set()
    for wid in involved:
        world = by_id[wid]
        for level_index in range(1, world.n_levels + 1):
            for prop in world.facts(level_index):
                key = (level_index, prop)
                if key not in seen:
                    seen.add(key)
                    candidates.append(key)
    candidates.sort(key=lambda c: (c[0], c[1]))

    def separates(candidate, pair):
        level, prop = candidate
        w1, w2 = pair
        return holds(by_id[w1], level, prop) != holds(by_id[w2], level, prop)

    chosen = []
    uncovered = list(pairs)
    while uncovered:
        best, best_covered = None, []
        for candidate in candidates:
            if candidate in chosen:
                continue
            covered = [p for p in uncovered if separates(candidate, p)]
            if len(covered) > len(best_covered):
                best, best_covered = candidate, covered
        if best is None:
            return None  # some pair is observationally indistinguishable
        chosen.append(best)
        uncovered = [p for p in uncovered if p not in best_covered]

    maps = {}
    for index, ws in enumerate(world_sets):
        for wid in sorted(ws):
            outcome = "".join(
                "T" if holds(by_id[wid], lvl, prop) else "F" for lvl, prop in chosen
            )
            existing = maps.get(outcome)
            if existing is not None and existing != index:
                return None  # cover missed a collision; treat as indistinguishable
            maps[outcome] = index
    return KnowledgeAcquisitionOperator(
        observe=tuple(chosen), maps=tuple(sorted(maps.items())),
    )


def reference_weight(world_ids, by_id) -> EvidentialInterval:
    """Capped sums of the worlds' supports and plausibilities."""
    support = min(1.0, sum(by_id[w].interval.support for w in world_ids))
    plausibility = min(1.0, sum(by_id[w].interval.plausibility for w in world_ids))
    return EvidentialInterval(support, max(support, plausibility))


def reference_insert_ka_operators(sp: SuperPlan, worlds) -> SuperPlan:
    """A copy of the trie whose branch points get a KA operator or weights."""
    by_id = {w.id: w for w in worlds}

    def rebuild(node):
        if node is None:
            return None
        if not node.alternatives:
            return node
        alternatives = tuple(
            SuperPlanAlternative(rebuild(alt.subtree), alt.worlds, None)
            for alt in node.alternatives
        )
        ka = reference_discriminator([alt.worlds for alt in alternatives], by_id)
        if ka is not None:
            return SuperPlanNode(node.steps, ka, alternatives)
        weighted = tuple(
            SuperPlanAlternative(alt.subtree, alt.worlds, reference_weight(alt.worlds, by_id))
            for alt in alternatives
        )
        return SuperPlanNode(node.steps, alternatives=weighted)

    return SuperPlan(root=rebuild(sp.root), worlds=sp.worlds)


_FACTS = [prop("(p)"), prop("(q)"), prop("(r)")]
_BOUNDS = [0.0, 0.1, 0.25, 0.5]


@st.composite
def plans_and_worlds(draw):
    """1 to 6 plans over a three-step alphabet (duplicates, prefixes and
    empty sequences are all likely), each serving one or two worlds whose
    facts come from a three-proposition pool, so that some branch points can
    be told apart by observation and some cannot."""
    n_plans = draw(st.integers(1, 6))
    plans, worlds = [], []
    for i in range(n_plans):
        steps = draw(st.lists(st.sampled_from("abc"), max_size=4))
        ids = {f"w{i}.{k}" for k in range(draw(st.integers(1, 2)))}
        plans.append((fake_plan(steps, ids), ids))
        for wid in sorted(ids):
            facts = draw(st.lists(st.sampled_from(_FACTS), unique=True))
            s = draw(st.sampled_from(_BOUNDS))
            worlds.append(world(wid, s=s, p=s + draw(st.sampled_from(_BOUNDS)),
                                contents={1: facts}))
    return plans, worlds


@settings(max_examples=300, deadline=None)
@given(plans_and_worlds())
def test_merge_matches_two_pass_reference(case):
    plans, worlds = case
    expected = reference_insert_ka_operators(reference_merge_plans(plans, worlds),
                                             worlds)
    sp = merge_plans(plans, worlds)
    assert sp == expected
    assert dumps_superplan(sp) == dumps_superplan(expected)
    for point in sp.branch_points():
        assert point.ka is not None or all(alt.weight is not None
                                           for alt in point.alternatives)


# `not (r)` holds exactly where `(r)` does not, so as an observation it splits
# the same pairs; it sorts first and so wins that tie.
_KA_POOL = [prop("(p)"), prop("(q a)"), prop("(r)"), prop("not (r)")]


@st.composite
def disjoint_world_sets(draw):
    """2 to 4 disjoint world sets, some possibly empty, over 2 to 12 worlds
    of 1 or 2 levels. The small fact pool makes worlds of different
    alternatives that no observation tells apart common. A world may take
    an earlier world's level object at an index instead of new facts, as
    the worlds of :func:`uplan.evidence.generate_pstates` share theirs."""
    n_sets = draw(st.integers(2, 4))
    n_worlds = draw(st.integers(2, 12))
    n_levels = draw(st.integers(1, 2))
    owners = draw(st.lists(st.integers(0, n_sets - 1),
                           min_size=n_worlds, max_size=n_worlds))
    worlds = []
    for k in range(n_worlds):
        levels = tuple(
            draw(st.sampled_from(worlds)).levels[index - 1]
            if worlds and draw(st.booleans())
            else AbstractionLevel(index, draw(st.lists(st.sampled_from(_KA_POOL),
                                                       unique=True)))
            for index in range(1, n_levels + 1))
        worlds.append(PState(f"w{k:02d}", levels, EvidentialInterval(0.5, 0.5)))
    world_sets = [frozenset(w.id for w, owner in zip(worlds, owners) if owner == i)
                  for i in range(n_sets)]
    return world_sets, worlds


@settings(max_examples=500, deadline=None)
@given(disjoint_world_sets())
@example(([frozenset({"w00"}), frozenset({"w01"})],  # indistinguishable
          [world("w00", contents={1: [prop("(p)")]}),
           world("w01", contents={1: [prop("(p)")]})]))
@example(([frozenset({"w00"}), frozenset({"w01"})],  # both (r) and (not r) on one level:
          [world("w00", contents={1: [prop("(r)"), prop("not (r)")]}),  # (not r) splits,
           world("w01", contents={1: [prop("not (r)")]})]))  # read as the absence of (r)
@example(([frozenset({"w00", "w01"}), frozenset({"w02", "w03"})],  # needs two observations
          [world("w00", contents={1: [prop("(p)"), prop("(r)")]}),
           world("w01"),
           world("w02", contents={1: [prop("(p)")]}),
           world("w03", contents={1: [prop("(r)")]})]))
@example(([frozenset({"w00"}), frozenset({"w00", "w01"})],  # w00 under both: None
          [world("w00", contents={1: [prop("(p)")]}),
           world("w01")]))
def test_discriminator_matches_greedy_pair_cover(case):
    world_sets, worlds = case
    by_id = {w.id: w for w in worlds}
    assert _discriminator(world_sets, by_id) == reference_discriminator(world_sets, by_id)


def test_merge_and_walks_handle_a_5000_step_plan():
    steps = [f"s{i}" for i in range(5000)]
    sp = merge_plans([(fake_plan(steps, {"w"}), {"w"})], [world("w")])
    assert [s.operator for s in sp.paths()[0]] == steps
    assert sp.branch_points() == []
