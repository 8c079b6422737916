import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from uplan.dsl import DomainSpec
from uplan.errors import BudgetExceededError, PlanFailure
from uplan.model import (
    CHOOSE_ONE,
    DO_ALL,
    STATUS_COMPLETE,
    STATUS_REDUNDANT,
    CausalRule,
    CompatibilityRelation,
    PlanNode,
    ProbabilityRule,
    ReductionOperator,
    make_pstate,
    state_edit,
    subgoal,
)
from uplan.planner import (
    PlanTrace,
    ReviewPolicy,
    Search,
    deduce_effects,
    expected_fulfilment,
    fold_and_node,
    operator_probability,
    pending_child,
    plan_for_pstate,
    propagate_updates,
    rank_candidates,
    recompute_values,
    review_decisions,
    update_and_node,
    update_or_node,
)

from conftest import prop


def op(name, level=1, plot_mode=DO_ALL, plot=(), necessary=(), satisfiable=(),
       rules=((None, 1.0),), post=(), planfail="backtrack"):
    return ReductionOperator(
        name=name, abstraction_level=level,
        necessary=tuple(necessary), satisfiable=tuple(satisfiable),
        plot_mode=plot_mode, plot=tuple(plot),
        probability_rules=tuple(
            ProbabilityRule(() if conds is None else tuple(conds), value)
            for conds, value in rules
        ),
        postconditions=tuple(post), planfail=planfail,
    )


def spec_of(goal, operators, n_levels=3, goal_fulfilment=1000.0, rho=0.0,
            causal_rules=(), compat=()):
    return DomainSpec(
        n_levels=n_levels, operators=tuple(operators),
        causal_rules=tuple(causal_rules), compat=tuple(compat),
        goal=goal, goal_fulfilment=goal_fulfilment,
        review=ReviewPolicy(offset_fraction=rho),
    )


DUMMY = op("dummy")


def node(f, p, expansion="unexpanded", children=(), status="new"):
    for index, child in enumerate(children):
        child.plot_index = index
    n = PlanNode(operator=DUMMY, base_fulfilment=f, fulfilment=f, probability=p,
                 children=list(children))
    n.expansion = expansion
    n.status = status
    return n


# --- expected fulfilment ------------------------------------------------------

def test_expected_fulfilment_examples():
    assert expected_fulfilment(1000, 0.85) == pytest.approx(850, abs=1e-9)
    assert expected_fulfilment(12345, 0.0) == 0.0
    assert expected_fulfilment(0.0, 0.77) == 0.0


# --- operator probability ------------------------------------------------------

def test_probability_default_fallthrough():
    o = op("x", rules=((None, 0.4),))
    assert operator_probability(o, make_pstate("w", 1)) == 0.4


def test_probability_first_matching_rule_fires():
    o = op("x", rules=(
        ([(prop("(a)"), 1)], 0.2),
        ([(prop("(a)"), 1)], 0.9),
        (None, 0.5),
    ))
    ps = make_pstate("w", 1, contents={1: [prop("(a)")]})
    assert operator_probability(o, ps) == 0.2
    assert operator_probability(o, make_pstate("w", 1)) == 0.5


def test_probability_bundled_close_in(air_combat_spec, air_combat_worlds):
    bomber = air_combat_worlds[1]
    close_in = air_combat_spec.operator("Close_In")
    assert operator_probability(close_in, bomber) == 0.85


def test_probability_negative_condition():
    o = op("x", rules=(([(prop("not (a)"), 1)], 0.3), (None, 0.6)))
    assert operator_probability(o, make_pstate("w", 1)) == 0.3


# --- candidate ranking ----------------------------------------------------------

def test_rank_bvr_before_vr(air_combat_spec, air_combat_worlds):
    fighter = air_combat_worlds[0]
    attack = PlanNode(operator=air_combat_spec.operator("Attack"))
    ranked = rank_candidates(attack, fighter, air_combat_spec)
    assert [c[2].name for c in ranked] == ["BVR_Attack", "VR_Attack"]


def test_rank_ties_keep_plot_order():
    a, b = op("A", level=2), op("B", level=2)
    parent = PlanNode(operator=op("P", plot_mode=CHOOSE_ONE,
                                  plot=[subgoal("A", 100), subgoal("B", 100)]))
    spec = spec_of("P", [parent.operator, a, b])
    ranked = rank_candidates(parent, make_pstate("w", 3), spec)
    assert [c[2].name for c in ranked] == ["A", "B"]


def test_rank_singleton():
    a = op("A", level=2)
    parent = PlanNode(operator=op("P", plot_mode=CHOOSE_ONE, plot=[subgoal("A", 5)]))
    spec = spec_of("P", [parent.operator, a])
    ranked = rank_candidates(parent, make_pstate("w", 3), spec)
    assert [c[2].name for c in ranked] == ["A"]


# --- update rules ---------------------------------------------------------------

def test_update_or_takes_max_ef_child():
    parent = node(0, 1, expansion="OR", children=[
        node(900, 0.9), node(1000, 0.7),
    ])
    update_or_node(parent)
    assert parent.fulfilment == 900
    assert parent.probability == 0.9
    assert parent.ef == pytest.approx(810, abs=1e-9)
    assert parent.selected_child.fulfilment == 900


def test_update_or_single_child_copies():
    parent = node(0, 1, expansion="OR", children=[node(123, 0.25)])
    update_or_node(parent)
    assert (parent.fulfilment, parent.probability) == (123, 0.25)


def test_update_or_skips_failed_children():
    best_but_failed = node(1000, 1.0)
    best_but_failed.status = "failed"
    parent = node(0, 1, expansion="OR", children=[best_but_failed, node(500, 0.5)])
    update_or_node(parent)
    assert parent.fulfilment == 500


def test_update_or_lower_fulfilment_propagates_down():
    # The chosen child's fulfilment is below the parent's prior value.
    parent = node(1000, 1.0, expansion="OR", children=[
        node(900, 1.0), node(1000, 0.85),
    ])
    update_or_node(parent)
    assert parent.fulfilment == 900


def test_update_and_product_and_min():
    parent = node(1000, 0.85, expansion="AND", children=[
        node(1000, 0.9), node(1000, 1.0), node(1000, 0.9),
    ])
    update_and_node(parent)
    assert parent.probability == pytest.approx(0.81, abs=1e-12)
    assert parent.fulfilment == 1000
    assert parent.ef == pytest.approx(810, abs=1e-9)


def test_update_and_single_child():
    parent = node(1, 1, expansion="AND", children=[node(777, 0.5)])
    update_and_node(parent)
    assert (parent.fulfilment, parent.probability) == (777, 0.5)


def test_update_and_min_fulfilment():
    parent = node(0, 1, expansion="AND", children=[
        node(1000, 1.0), node(800, 1.0), node(950, 1.0),
    ])
    update_and_node(parent)
    assert parent.fulfilment == 800


# --- propagation -----------------------------------------------------------------

def tree_fig():
    # An OR whose selected branch was expanded into an AND and dropped to
    # EF 810 while a suspended sibling sits at 820.
    leafs = [node(1000, 0.9), node(1000, 1.0), node(1000, 0.9)]
    and_parent = node(1000, 0.85, expansion="AND", children=leafs)
    sibling = node(820, 1.0)
    or_root = node(0, 1, expansion="OR", children=[and_parent, sibling])
    or_root.select(and_parent)
    update_and_node(and_parent)
    or_root.fulfilment, or_root.probability = and_parent.fulfilment, and_parent.probability
    return or_root, and_parent, leafs


def test_propagate_stops_when_unchanged():
    or_root, and_parent, leafs = tree_fig()
    touched = propagate_updates([or_root, and_parent, leafs[0]])
    assert touched == []


def test_propagate_reaches_root():
    or_root, and_parent, leafs = tree_fig()
    leafs[1].fulfilment, leafs[1].probability = 600, 1.0
    touched = propagate_updates([or_root, and_parent, leafs[1]])
    assert and_parent in touched and or_root in touched
    assert and_parent.fulfilment == 600
    assert or_root.fulfilment == 600


def test_propagate_matches_full_recompute():
    or_root, and_parent, leafs = tree_fig()
    leafs[2].fulfilment, leafs[2].probability = 1000, 0.5
    propagate_updates([or_root, and_parent, leafs[2]])
    snapshot = [(n.fulfilment, n.probability)
                for n in or_root.walk()]
    recompute_values(or_root)
    assert snapshot == [(n.fulfilment, n.probability)
                        for n in or_root.walk()]


# --- AND-node fold cursors -------------------------------------------------------

# Zeros of both signs and repeated values test the min's tie order; the
# probabilities are arbitrary floats, so a product taken in another order
# differs in its last bits.
fold_values_st = st.tuples(
    st.one_of(st.sampled_from([0.0, -0.0, 5.0, 1000.0]), st.floats(0, 1000)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))


def exact(n: PlanNode) -> tuple:
    return n.fulfilment.hex(), n.probability.hex()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fold_cursor_equals_the_full_fold(data):
    # An AND node of any width, a completed prefix of any length, then
    # steps that change or complete the pending child: after each step the
    # cursor sits at the first incomplete child, and the values folded from
    # it equal update_and_node's fold from scratch, bit for bit.
    width = data.draw(st.integers(1, 9), label="width")
    children = [node(0, 1) for _ in range(width)]
    for child in children:
        child.fulfilment, child.probability = data.draw(fold_values_st)
    parent = node(0, 1, expansion="AND", children=children)
    for child in children[:data.draw(st.integers(0, width), label="completed")]:
        child.status = data.draw(st.sampled_from([STATUS_COMPLETE, STATUS_REDUNDANT]))
    folds = {}
    steps = data.draw(st.lists(st.sampled_from(["change", "complete", "change and complete"]),
                               max_size=2 * width), label="steps")
    for step in ["look", *steps]:
        pending = pending_child(parent, folds)
        assert pending is next((c for c in children
                                if c.status not in (STATUS_COMPLETE, STATUS_REDUNDANT)), None)
        if pending is None:
            break
        if "change" in step:
            pending.fulfilment, pending.probability = data.draw(fold_values_st)
        if "complete" in step:
            pending.status = STATUS_COMPLETE
        fold_and_node(parent, folds)
        want = update_and_node(node(0, 1, expansion="AND", children=children))
        assert exact(parent) == exact(want), step


# --- review -----------------------------------------------------------------------

def test_review_switches_when_sibling_clears_offset():
    or_root, and_parent, leafs = tree_fig()
    # Selected branch dropped to 810 with the sibling at 820.
    assert or_root.selected_child is and_parent
    switched = review_decisions([or_root, and_parent, leafs[0]], ReviewPolicy(0.0))
    assert switched == [or_root]
    assert or_root.selected_child.fulfilment == 820


def test_review_large_offset_suppresses_switch():
    or_root, and_parent, leafs = tree_fig()
    assert review_decisions([or_root, and_parent, leafs[0]], ReviewPolicy(10.0)) == []
    assert or_root.selected_child is and_parent


def test_review_infinite_offset_never_switches():
    or_root, and_parent, leafs = tree_fig()
    assert review_decisions([or_root, and_parent, leafs[0]], ReviewPolicy(math.inf)) == []


def test_review_no_siblings_is_noop():
    only = node(100, 1.0)
    parent = node(0, 1, expansion="OR", children=[only])
    update_or_node(parent)
    assert review_decisions([parent, only], ReviewPolicy(0.0)) == []


# --- deduction --------------------------------------------------------------------

def test_deduce_no_trigger_is_identity():
    ps = make_pstate("w", 1, contents={1: [prop("(calm)")]})
    rules = [CausalRule(prop("(storm)"), (), ((("assert"), prop("(alert)"), 1),))]
    after, log = deduce_effects(ps, rules, [("assert", prop("(sunny)"), 1)])
    assert after == ps and log == []


def test_deduce_single_rule():
    rules = [CausalRule(prop("(target-locked)"), (),
                        (("assert", prop("(weapons-free)"), 1),))]
    ps = make_pstate("w", 1)
    after, log = deduce_effects(ps, rules, [("assert", prop("(target-locked)"), 1)])
    assert prop("(weapons-free)") in after.level(1).propositions
    assert len(log) == 1 and log[0][0] == "assert"


def test_deduce_two_stratum_chain():
    rules = [
        CausalRule(prop("(a)"), (), (("assert", prop("(b)"), 1),), name="r1"),
        CausalRule(prop("(b)"), (), (("assert", prop("(c)"), 1),), name="r2"),
    ]
    ps = make_pstate("w", 1)
    after, log = deduce_effects(ps, rules, [("assert", prop("(a)"), 1)])
    assert prop("(b)") in after.level(1).propositions
    assert prop("(c)") in after.level(1).propositions
    assert [entry[3] for entry in log] == ["r1", "r2"]


def test_deduce_condition_checked_at_change_level():
    rules = [CausalRule(prop("(fire)"), ((prop("(fuel)"), None),),
                        (("assert", prop("(spread)"), 2),))]
    ps = make_pstate("w", 2, contents={2: [prop("(fuel)")]})
    after, _ = deduce_effects(ps, rules, [("assert", prop("(fire)"), 2)])
    assert prop("(spread)") in after.level(2).propositions
    # Same change at level 1: the condition fails there.
    after, log = deduce_effects(ps, rules, [("assert", prop("(fire)"), 1)])
    assert log == []


def test_deduce_retract_trigger():
    rules = [CausalRule(prop("not (radar active)"), (),
                        (("retract", prop("(target locked)"), 1),))]
    ps = make_pstate("w", 1, contents={1: [prop("(target locked)")]})
    after, _ = deduce_effects(ps, rules, [("retract", prop("(radar active)"), 1)])
    assert prop("(target locked)") not in after.level(1).propositions


# --- preconditions and helpers -------------------------------------------------

def test_all_preconditions_true_no_helpers():
    leaf = op("Leaf", level=1, necessary=[(prop("(ready)"), 1)],
              plot=[state_edit(("assert", prop("(done)"), 1))])
    spec = spec_of("Leaf", [leaf], n_levels=1)
    ps = make_pstate("w", 1, contents={1: [prop("(ready)")]})
    trace = PlanTrace()
    plan = plan_for_pstate(ps, spec, trace=trace)
    assert [e.kind for e in trace if e.kind == "satisfy-precondition"] == []
    assert len(plan.execution_sequence) == 1


def test_false_necessary_rejected_without_subsearch():
    # A helper could assert (ready); necessary preconditions must not plan.
    target = op("Leaf", level=1, necessary=[(prop("(ready)"), 1)],
                plot=[state_edit(("assert", prop("(done)"), 1))])
    helper = op("Helper", level=1, post=[(prop("(ready)"), 1)],
                plot=[state_edit(("assert", prop("(ready)"), 1))])
    spec = spec_of("Leaf", [target, helper], n_levels=1)
    trace = PlanTrace()
    with pytest.raises(PlanFailure):
        plan_for_pstate(make_pstate("w", 1), spec, trace=trace)
    assert [e for e in trace if e.kind == "satisfy-precondition"] == []


def test_satisfiable_precondition_one_step_helper():
    target = op("Main", level=1, satisfiable=[(prop("(ready)"), 1)],
                plot=[state_edit(("assert", prop("(done)"), 1))])
    helper = op("Helper", level=1, post=[(prop("(ready)"), 1)],
                plot=[state_edit(("assert", prop("(ready)"), 1))])
    spec = spec_of("Main", [target, helper], n_levels=1)
    trace = PlanTrace()
    plan = plan_for_pstate(make_pstate("w", 1), spec, trace=trace)
    assert [s.operator for s in plan.execution_sequence] == ["Helper", "Main"]
    assert any(e.kind == "satisfy-precondition" for e in trace)


def test_helper_depth_bound_rejects():
    # A chain of four helpers exceeds the default depth bound of three.
    ops = [op("Main", level=1, satisfiable=[(prop("(p0)"), 1)],
              plot=[state_edit(("assert", prop("(done)"), 1))])]
    for i in range(4):
        ops.append(op(
            f"H{i}", level=1,
            satisfiable=[(prop(f"(p{i + 1})"), 1)] if i < 3 else [],
            post=[(prop(f"(p{i})"), 1)],
            plot=[state_edit(("assert", prop(f"(p{i})"), 1))],
        ))
    spec = spec_of("Main", ops, n_levels=1)
    with pytest.raises(PlanFailure):
        plan_for_pstate(make_pstate("w", 1), spec)


def _helper_chain(length):
    """Main needs (s)@1, which only the chain H -> A1 -> ... -> leaf L of
    ``length`` reductions below the helper H achieves."""
    names = ["H"] + [f"A{i}" for i in range(1, length)] + ["L"]
    ops = [op("G", satisfiable=[(prop("(s)"), 1)],
              plot=[state_edit(("assert", prop("(done)"), 1))]),
           op("L", plot=[state_edit(("assert", prop("(s)"), 1))])]
    ops += [op(name, post=[(prop("(s)"), 1)] if name == "H" else (),
               plot=[subgoal(child, 1000)]) for name, child in zip(names, names[1:])]
    return spec_of("G", ops, n_levels=1)


def test_helper_depth_bounds_the_whole_helper_subplan():
    # HELPER_DEPTH counts the reductions inside a helper, not only how deep
    # helpers nest: H -> A1 -> L fits the budget of three, and one more
    # reduction does not.
    plan = plan_for_pstate(make_pstate("w", 1), _helper_chain(2))
    assert [s.operator for s in plan.execution_sequence] == ["L", "G"]
    with pytest.raises(PlanFailure, match=r"satisfiable precondition \(s\)@1 unachievable"):
        plan_for_pstate(make_pstate("w", 1), _helper_chain(3))


def test_a_helper_with_an_empty_choose_one_plot_is_skipped():
    # Empty ranks first (EF 0.9 against 0.5) but cannot complete.
    goal = op("G", satisfiable=[(prop("(s)"), 1)],
              plot=[state_edit(("assert", prop("(done)"), 1))])
    empty = op("Empty", plot_mode=CHOOSE_ONE, rules=((None, 0.9),), post=[(prop("(s)"), 1)])
    real = op("Real", rules=((None, 0.5),), post=[(prop("(s)"), 1)],
              plot=[state_edit(("assert", prop("(s)"), 1))])
    spec = spec_of("G", [goal, empty, real], n_levels=1)
    plan = plan_for_pstate(make_pstate("w", 1), spec)
    assert [s.operator for s in plan.execution_sequence] == ["Real", "G"]


def test_a_leaf_whose_edits_violate_compatibility_fails():
    # Asserting (a) demands (b), whose negation the world holds.
    bad = op("Bad", plot=[state_edit(("assert", prop("(a)"), 1))])
    good = op("Good", plot=[state_edit(("assert", prop("(c)"), 1))])
    goal = op("G", plot_mode=CHOOSE_ONE, plot=[subgoal("Bad", 900), subgoal("Good", 500)])
    spec = spec_of("G", [goal, bad, good], n_levels=1,
                   compat=[CompatibilityRelation(1, prop("(a)"), 1, prop("(b)"))])
    trace = PlanTrace()
    plan = plan_for_pstate(make_pstate("w", 1, contents={1: [prop("not (b)")]}), spec,
                           trace=trace)
    assert [(e.operator, e.detail) for e in trace if e.kind == "planfail"] == [
        ("Bad", "effects violate compatibility or postconditions")]
    assert [s.operator for s in plan.execution_sequence] == ["Good"]


def test_achievers_sharing_a_name_rank_in_declaration_order():
    # Built through the library, a domain may hold two operators of one name.
    target = op("Main", level=1, satisfiable=[(prop("(ready)"), 1)],
                plot=[state_edit(("assert", prop("(done)"), 1))])
    plain = op("Helper", level=1, post=[(prop("(ready)"), 1)],
               plot=[state_edit(("assert", prop("(ready)"), 1))])
    marking = op("Helper", level=1, post=[(prop("(ready)"), 1)],
                 plot=[state_edit(("assert", prop("(ready)"), 1), ("assert", prop("(mark)"), 1))])
    for first, second in [(plain, marking), (marking, plain)]:
        spec = spec_of("Main", [target, first, second], n_levels=1)
        plan = plan_for_pstate(make_pstate("w", 1), spec)
        assert plan.root.helpers[0].operator is first
        assert [s.operator for s in plan.execution_sequence] == ["Helper", "Main"]


def test_helpers_must_be_equal_or_lower_abstraction():
    target = op("Main", level=2, satisfiable=[(prop("(ready)"), 2)],
                plot=[state_edit(("assert", prop("(done)"), 2))])
    # The only candidate sits at a more abstract level and must be ignored.
    helper = op("TooAbstract", level=1, post=[(prop("(ready)"), 2)])
    spec = spec_of("Main", [target, helper], n_levels=2)
    with pytest.raises(PlanFailure):
        plan_for_pstate(make_pstate("w", 2), spec)


# --- plot application ------------------------------------------------------------

def test_close_in_expands_to_three_children(air_combat_spec, air_combat_worlds):
    bomber = air_combat_worlds[1]
    trace = PlanTrace()
    plan = plan_for_pstate(bomber, air_combat_spec, policy=ReviewPolicy(0.0),
                           trace=trace)
    close_in = next(n for n in plan.root.walk() if n.operator.name == "Close_In")
    assert [c.operator.name for c in close_in.children] == \
        ["Set_Bearing", "Acquire_Target", "Fire_Ready"]
    assert close_in.expansion == "AND"


def test_acquire_target_alternatives(air_combat_spec, air_combat_worlds):
    bomber = air_combat_worlds[1]
    at = PlanNode(operator=air_combat_spec.operator("Acquire_Target"))
    ranked = rank_candidates(at, bomber, air_combat_spec)
    assert [c[2].name for c in ranked] == ["Visual_Lock", "Radar_Lock"]


def test_leaf_with_edits_changes_state():
    leaf = op("Do", level=1, plot=[state_edit(("assert", prop("(done)"), 1))],
              post=[(prop("(done)"), 1)])
    spec = spec_of("Do", [leaf], n_levels=1)
    search = Search(make_pstate("w", 1), spec)
    plan = search.run()
    assert search.states_after[plan.root].level(1).propositions == \
        frozenset([prop("(done)")])
    assert plan.root.children == ()


# --- whole searches ---------------------------------------------------------------

def test_plan_extraction_below_the_recursion_limit():
    # Extraction once recursed per tree level; each Ci does a Step, then C(i+1).
    depth = sys.getrecursionlimit() + 100
    chain = [op(f"C{i}", plot=[subgoal("Step", 1.0), subgoal(f"C{i + 1}", 1.0)])
             for i in range(depth)]
    chain += [op("Step", plot=[state_edit(("assert", prop("(step)"), 1))]),
              op(f"C{depth}", plot=[state_edit(("assert", prop("(done)"), 1))],
                 post=[(prop("(done)"), 1)])]
    plan = plan_for_pstate(make_pstate("w", 1), spec_of("C0", chain, n_levels=1))
    assert [s.operator for s in plan.execution_sequence] == ["Step"] * depth + [f"C{depth}"]


def test_single_operator_domain_one_step_plan():
    only = op("Solo", level=1, plot=[state_edit(("assert", prop("(done)"), 1))])
    spec = spec_of("Solo", [only], n_levels=1)
    plan = plan_for_pstate(make_pstate("w", 1), spec)
    assert [s.operator for s in plan.execution_sequence] == ["Solo"]


def test_unsatisfiable_domain_fails():
    only = op("Solo", level=1, necessary=[(prop("(never)"), 1)],
              plot=[state_edit(("assert", prop("(done)"), 1))])
    spec = spec_of("Solo", [only], n_levels=1)
    with pytest.raises(PlanFailure):
        plan_for_pstate(make_pstate("w", 1), spec)


def test_budget_exhaustion():
    only = op("Solo", level=1, plot=[state_edit(("assert", prop("(done)"), 1))])
    spec = spec_of("Solo", [only], n_levels=1)
    with pytest.raises(BudgetExceededError):
        plan_for_pstate(make_pstate("w", 1), spec, budget=0)


def test_budget_exhaustion_inside_helper_reads_like_the_main_path():
    main = op("Main", level=1, satisfiable=[(prop("(ready)"), 1)],
              plot=[state_edit(("assert", prop("(done)"), 1))])
    helper = op("Helper", level=1, plot=[subgoal("A", 10), subgoal("B", 10)],
                post=[(prop("(ready)"), 1)])
    a = op("A", level=1, plot=[state_edit(("assert", prop("(a)"), 1))])
    b = op("B", level=1, plot=[state_edit(("assert", prop("(ready)"), 1))])
    spec = spec_of("Main", [main, helper, a, b], n_levels=1)
    # Main and Helper fit in the budget; Helper's first child does not.
    with pytest.raises(BudgetExceededError,
                       match=r"^node budget of 2 exhausted after 2 expansions$"):
        plan_for_pstate(make_pstate("w", 1), spec, budget=2)
    plan = plan_for_pstate(make_pstate("w", 1), spec, budget=4)
    assert [s.operator for s in plan.execution_sequence] == ["A", "B", "Main"]


def test_empty_choose_one_plot_is_planfail():
    empty = op("Empty", level=2, plot_mode=CHOOSE_ONE, plot=[])
    fallback = op("Fallback", level=2,
                  plot=[state_edit(("assert", prop("(done)"), 2))])
    root = op("Root", level=1, plot_mode=CHOOSE_ONE,
              plot=[subgoal("Empty", 1000), subgoal("Fallback", 10)])
    spec = spec_of("Root", [root, empty, fallback], n_levels=2)
    plan = plan_for_pstate(make_pstate("w", 2), spec)
    assert [s.operator for s in plan.execution_sequence] == ["Fallback"]


def test_bundled_fighter_matches_enumeration(air_combat_spec, air_combat_worlds):
    fighter = air_combat_worlds[0]
    plan = plan_for_pstate(fighter, air_combat_spec, policy=ReviewPolicy(0.0))
    # Independent enumeration over the applicable strategies in this world.
    bvr = 1000 * (0.9 * 0.85 * 0.99)
    vr_close_in = 900 * (0.9 * 1.0 * 0.9)   # Visual_Lock caps the fulfilment
    vr_close_in_rl = 1000 * (0.9 * 0.85 * 0.9)
    vr_side = 1000 * 0.5
    turn_away = 400 * 0.95
    best = max(bvr, vr_close_in, vr_close_in_rl, vr_side, turn_away)
    assert plan.root.ef == pytest.approx(best, abs=1e-9)
    assert plan.root.selected_child.operator.name == "Attack"


def test_or_failure_falls_back_to_sibling():
    good = op("Good", level=2, plot=[state_edit(("assert", prop("(done)"), 2))])
    bad = op("Bad", level=2, necessary=[(prop("(never)"), 2)],
             plot=[state_edit(("assert", prop("(oops)"), 2))])
    root = op("Root", level=1, plot_mode=CHOOSE_ONE,
              plot=[subgoal("Bad", 1000), subgoal("Good", 100)])
    spec = spec_of("Root", [root, good, bad], n_levels=2)
    plan = plan_for_pstate(make_pstate("w", 2), spec)
    assert [s.operator for s in plan.execution_sequence] == ["Good"]


def test_planfail_recovery_operator():
    bad = op("Bad", level=1, necessary=[(prop("(never)"), 1)],
             planfail="Backup",
             plot=[state_edit(("assert", prop("(x)"), 1))])
    backup = op("Backup", level=1, plot=[state_edit(("assert", prop("(y)"), 1))])
    root = op("Root", level=1, plot_mode=CHOOSE_ONE, plot=[subgoal("Bad", 1000)])
    spec = spec_of("Root", [root, bad, backup], n_levels=1)
    plan = plan_for_pstate(make_pstate("w", 1), spec)
    assert [s.operator for s in plan.execution_sequence] == ["Backup"]


def test_planfail_reject_branch_kills_alternative():
    # Deep failure with reject-branch skips the intermediate AND's recovery
    # and rules out the whole first alternative.
    deep = op("Deep", level=3, necessary=[(prop("(never)"), 3)],
              planfail="reject-branch",
              plot=[state_edit(("assert", prop("(x)"), 3))])
    mid = op("Mid", level=2, planfail="Unused",
             plot=[subgoal("Deep", 900)])
    unused = op("Unused", level=2, plot=[subgoal("Deep", 900)])
    alt = op("Alt", level=2, plot=[state_edit(("assert", prop("(y)"), 3))])
    root = op("Root", level=1, plot_mode=CHOOSE_ONE,
              plot=[subgoal("Mid", 1000), subgoal("Alt", 100)])
    spec = spec_of("Root", [root, mid, deep, alt, unused], n_levels=3)
    plan = plan_for_pstate(make_pstate("w", 3), spec)
    assert [s.operator for s in plan.execution_sequence] == ["Alt"]


def test_postcondition_violation_triggers_planfail():
    wrong = op("Wrong", level=1, post=[(prop("(never asserted)"), 1)],
               plot=[state_edit(("assert", prop("(done)"), 1))])
    fallback = op("Fallback", level=1,
                  plot=[state_edit(("assert", prop("(done)"), 1))])
    root = op("Root", level=1, plot_mode=CHOOSE_ONE,
              plot=[subgoal("Wrong", 1000), subgoal("Fallback", 10)])
    spec = spec_of("Root", [root, wrong, fallback], n_levels=1)
    plan = plan_for_pstate(make_pstate("w", 1), spec)
    assert [s.operator for s in plan.execution_sequence] == ["Fallback"]


def test_ef_invariant_everywhere(air_combat_spec, air_combat_worlds):
    for world in air_combat_worlds:
        plan = plan_for_pstate(world, air_combat_spec, policy=ReviewPolicy(0.0))
        for n in plan.root.walk():
            assert abs(n.ef - n.fulfilment * n.probability) <= 1e-9


def test_review_safety_selected_beats_complete_siblings(air_combat_spec,
                                                        air_combat_worlds):
    # With a zero offset, no fully expanded suspended branch may end up
    # better than the branch the plan finally selected.
    for world in air_combat_worlds:
        plan = plan_for_pstate(world, air_combat_spec, policy=ReviewPolicy(0.0))
        for n in plan.root.walk():
            if n.expansion != "OR" or n.selected_child is None:
                continue
            for sibling in n.children:
                if sibling is n.selected_child or sibling.status != "complete":
                    continue
                assert n.selected_child.ef >= sibling.ef - 1e-9


def test_trace_determinism(air_combat_spec, air_combat_worlds):
    lines = []
    for _ in range(2):
        trace = PlanTrace()
        plan_for_pstate(air_combat_worlds[1], air_combat_spec,
                        policy=ReviewPolicy(0.0), trace=trace)
        lines.append(trace.to_lines())
    assert lines[0] == lines[1]


def test_trace_replay_reproduces_final_values(air_combat_spec, air_combat_worlds):
    trace = PlanTrace()
    plan = plan_for_pstate(air_combat_worlds[1], air_combat_spec,
                           policy=ReviewPolicy(0.0), trace=trace)
    # Each node's final values, from the log alone: its last event's ``after``.
    replayed = {event.node_id: event.after for event in trace if event.after is not None}
    for n in plan.root.walk():
        if n.node_id in replayed:
            f, p, ef = replayed[n.node_id]
            assert (f, p) == (n.fulfilment, n.probability)
            assert ef == pytest.approx(n.ef, abs=1e-12)


# --- update-rule properties (hypothesis) -------------------------------------

values_st = st.tuples(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(values_st, min_size=1, max_size=5))
def test_property_and_update(children_values):
    parent = node(1, 1, expansion="AND",
                  children=[node(f, p) for f, p in children_values])
    update_and_node(parent)
    product = math.prod(p for _, p in children_values)
    assert abs(parent.probability - product) <= 1e-12
    assert 0.0 <= parent.probability <= 1.0
    assert parent.fulfilment == min(f for f, _ in children_values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(values_st, st.booleans()), min_size=1, max_size=5))
def test_property_or_update(children_spec):
    children = []
    for (f, p), failed in children_spec:
        child = node(f, p)
        if failed:
            child.status = "failed"
        children.append(child)
    parent = node(1, 1, expansion="OR", children=children)
    applicable = [c for c in children if c.status != "failed"]
    if not applicable:
        with pytest.raises(Exception):
            update_or_node(parent)
        return
    update_or_node(parent)
    best_ef = max(c.ef for c in applicable)
    assert parent.ef == best_ef
    assert parent.selected_child.ef == best_ef
    assert parent.selected_child.status != "failed"
