"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from uplan.dsl import DomainSpec, format_domain, format_evidence, parse_domain, parse_evidence
from uplan.errors import ParseFailure
from uplan.evidence import (
    EvidenceSet,
    Frame,
    belief,
    combine,
    generate_pstates,
    mass_function,
    plausibility,
    vacuous,
)
from uplan.model import (
    CHOOSE_ONE,
    DO_ALL,
    EvidentialInterval,
    make_pstate,
    subgoal,
)
from uplan.planner import (
    PlanTrace,
    ReviewPolicy,
    plan_for_pstate,
    propagate_updates,
    recompute_values,
    update_and_node,
    update_or_node,
)
from uplan.reapply import merge_plans, reapply_plan
from uplan.sensitivity import ratio_threshold, sensitivity_grid

from conftest import prop
from test_planner import node, op
from uplan.errors import CombinationError


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {label}")
                raise
            print(f"criterion {number} PASS: {label}")
        return wrapper
    return decorate


# --- criterion 1: golden fixture --------------------------------------------

@criterion(1, "golden fixture: 850 -> {1000, 0.81} -> 810, review switches to Side")
def test_criterion_1_golden_fixture(air_combat_spec, air_combat_worlds):
    start = time.time()
    bomber = next(w for w in air_combat_worlds if w.id.startswith("bomber"))
    trace = PlanTrace()
    plan_for_pstate(bomber, air_combat_spec, policy=ReviewPolicy(0.0), trace=trace)

    expand = next(e for e in trace
                  if e.kind == "expand" and e.operator == "Close_In")
    assert abs(expand.before[0] - 1000.0) <= 1e-9
    assert abs(expand.before[1] - 0.85) <= 1e-9
    assert abs(expand.before[2] - 850.0) <= 1e-9

    update = next(e for e in trace
                  if e.kind == "update" and e.operator == "Close_In")
    assert abs(update.after[0] - 1000.0) <= 1e-9
    assert abs(update.after[1] - 0.81) <= 1e-9
    assert abs(update.after[2] - 810.0) <= 1e-9

    switch = next(e for e in trace if e.kind == "review-switch"
                  and e.detail == "Close_In->Side")
    side_ef = switch.after[2]
    assert 810.0 < side_ef < 850.0
    assert switch.seq > update.seq
    assert time.time() - start < 1.0


# --- criterion 2: ratio threshold -------------------------------------------

@criterion(2, "ratio_threshold(0.2, 0.3) == 2.12; grid symmetric on 0..0.5 @ 0.05")
def test_criterion_2_ratio_threshold():
    assert ratio_threshold(0.2, 0.3) == 2.12
    rows = sensitivity_grid((0.0, 0.5), (0.0, 0.5), 0.05)
    lookup = {(g, d): t for g, d, t in rows}
    assert len(rows) == 11 * 11
    for (g, d), value in lookup.items():
        assert lookup[(d, g)] == value  # exact, not approximate


# --- criterion 3: oracle optimality ------------------------------------------

FULL_F = 1000.0


def _gen_mixed(rng, depth):
    """Mixed AND/OR tree, constant fulfilment, optimistic probabilities."""
    if depth == 3 or (depth > 1 and rng.random() < 0.35):
        p = rng.uniform(0.4, 1.0)
        return {"kind": "leaf", "p": p, "agg": p, "f": FULL_F, "children": []}
    kind = rng.choice(("and", "or"))
    children = [_gen_mixed(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    if kind == "and":
        agg = math.prod(c["agg"] for c in children)
    else:
        agg = max(c["agg"] for c in children)
    p = min(1.0, agg * rng.uniform(1.0, 1.3))
    return {"kind": kind, "p": p, "agg": agg, "f": FULL_F, "children": children}


def _gen_or_only(rng, depth):
    """Pure choose-one tree with varying fulfilments, optimistic estimates."""
    if depth == 3 or (depth > 1 and rng.random() < 0.35):
        f = rng.uniform(100.0, 1000.0)
        p = rng.uniform(0.3, 1.0)
        return {"kind": "leaf", "p": p, "f": f, "children": []}
    children = [_gen_or_only(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    best = max(c["f"] * _subtree_best_p_ratio(c) for c in children)
    p = rng.uniform(0.5, 1.0)
    f = best * rng.uniform(1.0, 1.4) / p
    return {"kind": "or", "p": p, "f": f, "children": children}


def _subtree_best_p_ratio(tree):
    # For pure-OR trees the resolved EF of a node is the max of its leaves'.
    if tree["kind"] == "leaf":
        return tree["p"]
    return max(c["f"] * _subtree_best_p_ratio(c) for c in tree["children"]) / tree["f"]


def _tree_to_spec(tree):
    operators = []
    counter = itertools.count()

    def visit(current, level):
        name = f"N{next(counter)}"
        if current["kind"] == "leaf":
            operators.append(op(name, level=level, rules=((None, current["p"]),)))
        else:
            entries = []
            for child in current["children"]:
                child_name = visit(child, min(level + 1, 3))
                entries.append(subgoal(child_name, child["f"]))
            mode = CHOOSE_ONE if current["kind"] == "or" else DO_ALL
            operators.append(op(name, level=level, plot_mode=mode, plot=entries,
                                rules=((None, current["p"]),)))
        return name

    goal = visit(tree, 1)
    return DomainSpec(
        n_levels=3, operators=tuple(operators), goal=goal,
        goal_fulfilment=tree["f"], review=ReviewPolicy(0.0),
    )


def _subtree_values(tree):
    """Independent oracle: every (fulfilment, probability) a subtree can take
    over all assignments of choose-one selections."""
    if tree["kind"] == "leaf":
        return [(tree["f"], tree["p"])]
    per_child = [_subtree_values(c) for c in tree["children"]]
    if tree["kind"] == "and":
        out = []
        for combo in itertools.product(*per_child):
            out.append((min(f for f, _ in combo),
                        math.prod(p for _, p in combo)))
        return out
    return [value for values in per_child for value in values]


def _exhaustive_best_ef(tree):
    return max(f * p for f, p in _subtree_values(tree))


@criterion(3, "plan EF equals exhaustive enumeration on 1200 random hierarchies")
def test_criterion_3_oracle_optimality():
    start = time.time()
    rng = random.Random(20260810)
    ps = make_pstate("synthetic", 3)
    checked = 0
    for index in range(1200):
        tree = _gen_mixed(rng, 1) if index % 2 == 0 else _gen_or_only(rng, 1)
        spec = _tree_to_spec(tree)
        plan = plan_for_pstate(ps, spec, policy=ReviewPolicy(0.0))
        expected = _exhaustive_best_ef(tree)
        assert abs(plan.root.ef - expected) <= 1e-9, (index, plan.root.ef, expected)
        checked += 1
    assert checked >= 1000
    assert time.time() - start < 30.0


# --- criterion 4: update-rule algebra ----------------------------------------

values_st = st.tuples(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@criterion(4, "AND probability is the product, in [0, 1] (1000 cases)")
@settings(max_examples=1000, deadline=None)
@given(st.lists(values_st, min_size=1, max_size=4))
def test_criterion_4a_and_probability(children_values):
    parent = node(1.0, 1.0, expansion="AND",
                  children=[node(f, p) for f, p in children_values])
    update_and_node(parent)
    product = math.prod(p for _, p in children_values)
    assert abs(parent.probability - product) <= 1e-12
    assert 0.0 <= parent.probability <= 1.0
    assert parent.probability <= min(p for _, p in children_values)


@criterion(4, "AND fulfilment is the exact minimum (1000 cases)")
@settings(max_examples=1000, deadline=None)
@given(st.lists(values_st, min_size=1, max_size=4))
def test_criterion_4b_and_fulfilment(children_values):
    parent = node(1.0, 1.0, expansion="AND",
                  children=[node(f, p) for f, p in children_values])
    update_and_node(parent)
    assert parent.fulfilment == min(f for f, _ in children_values)


@criterion(4, "OR parent equals its max-EF applicable child (1000 cases)")
@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(values_st, st.booleans()), min_size=1, max_size=4))
def test_criterion_4c_or_update(children_spec):
    children = []
    for (f, p), failed in children_spec:
        child = node(f, p)
        if failed:
            child.status = "failed"
        children.append(child)
    parent = node(1.0, 1.0, expansion="OR", children=children)
    applicable = [c for c in children if c.status != "failed"]
    if not applicable:
        with pytest.raises(Exception):
            update_or_node(parent)
        return
    update_or_node(parent)
    best = max(applicable, key=lambda c: c.ef)
    assert parent.ef == best.ef
    assert parent.fulfilment == parent.selected_child.fulfilment
    assert parent.probability == parent.selected_child.probability
    assert parent.selected_child.status != "failed"


@st.composite
def plan_trees(draw, depth=0):
    if depth >= 2 or (depth > 0 and draw(st.booleans())):
        f, p = draw(values_st)
        return {"kind": "leaf", "f": f, "p": p, "children": []}
    kind = draw(st.sampled_from(["AND", "OR"]))
    children = draw(st.lists(plan_trees(depth=depth + 1), min_size=1, max_size=3))
    return {"kind": kind, "f": 0.0, "p": 1.0, "children": children}


def _materialize(tree):
    children = [_materialize(c) for c in tree["children"]]
    n = node(tree["f"], tree["p"],
             expansion=tree["kind"] if children else "leaf",
             children=children)
    return n


def _initialize(n):
    for child in n.children:
        _initialize(child)
    if n.expansion == "AND":
        update_and_node(n)
    elif n.expansion == "OR":
        update_or_node(n)


@criterion(4, "incremental propagation equals full recomputation (1000 cases)")
@settings(max_examples=1000, deadline=None)
@given(plan_trees(), st.integers(min_value=0, max_value=10 ** 6), values_st)
def test_criterion_4d_propagation_equals_recompute(tree, pick, new_values):
    root = _materialize(tree)
    _initialize(root)
    # Root-to-leaf paths, in the pre-order of root.walk().
    leaf_paths, stack = [], [[root]]
    while stack:
        path = stack.pop()
        if path[-1].children:
            stack.extend([*path, child] for child in reversed(path[-1].children))
        else:
            leaf_paths.append(path)
    path = leaf_paths[pick % len(leaf_paths)]
    path[-1].fulfilment, path[-1].probability = new_values
    propagate_updates(path)
    snapshot = [(n.fulfilment, n.probability) for n in root.walk()]
    recompute_values(root)
    assert snapshot == [(n.fulfilment, n.probability)
                        for n in root.walk()]


# --- criterion 5: Dempster-Shafer suite ---------------------------------------

def _random_mass(rng, frame):
    elements = frame.elements
    subsets = []
    while not subsets:
        subsets = [
            frozenset(e for e in elements if rng.random() < 0.5)
            for _ in range(rng.randint(1, 4))
        ]
        subsets = sorted({s for s in subsets if s}, key=sorted)
    weights = [rng.uniform(0.05, 1.0) for _ in subsets]
    total = sum(weights)
    return mass_function(frame, {s: w / total for s, w in zip(subsets, weights)})


@criterion(5, "Dempster combination algebra and the worked evidence example")
def test_criterion_5_dempster_shafer():
    rng = random.Random(99)
    for size in (2, 3, 4):
        frame = Frame("f", tuple("abcd"[:size]))
        for _ in range(400):
            m1, m2, m3 = (_random_mass(rng, frame) for _ in range(3))
            try:
                ab = combine(m1, m2)
                ba = combine(m2, m1)
                abc = combine(ab, m3)
                bca = combine(m1, combine(m2, m3))
            except CombinationError:
                continue
            for left, right in ((ab, ba), (abc, bca)):
                left_d, right_d = dict(left.masses), dict(right.masses)
                assert set(left_d) == set(right_d)
                for subset, mass in left_d.items():
                    assert abs(mass - right_d[subset]) <= 1e-9
            # Generated intervals stay ordered.
            ev = EvidenceSet((frame,), (m1, m2))
            for world in generate_pstates(ev, [], 1):
                assert world.interval.support <= world.interval.plausibility

    frame = Frame("attr", ("a", "b"))
    m = combine(mass_function(frame, {("a",): 0.6, ("a", "b"): 0.4}), vacuous(frame))
    assert belief(m, {"a"}) == 0.6
    assert plausibility(m, {"a"}) == 1.0
    ev = EvidenceSet((frame,), (mass_function(frame, {("a",): 0.6, ("a", "b"): 0.4}),))
    worlds = {w.id: w.interval for w in generate_pstates(ev, [], 1)}
    assert worlds["a"] == EvidentialInterval(0.6, 1.0)
    assert worlds["b"] == EvidentialInterval(0.0, 0.4)


# --- criterion 6: reapplication and merging -----------------------------------

@criterion(6, "self-reapplication, identity merges, and the two-world KA branch")
def test_criterion_6_reapply_merge(air_combat_spec, air_combat_worlds):
    plans = {}
    for world in air_combat_worlds:
        plan = plan_for_pstate(world, air_combat_spec, policy=ReviewPolicy(0.0))
        result = reapply_plan(plan, world, air_combat_spec)
        assert result.kind == "full"
        assert result.plan.execution_sequence == plan.execution_sequence
        plans[world.id] = plan

    # N identical plans merge with no branch points.
    fighter_plan = plans["fighter+radar_contact"]
    copies = [(fighter_plan, {f"copy{i}"}) for i in range(5)]
    copy_worlds = [make_pstate(f"copy{i}", 3) for i in range(5)]
    sp = merge_plans(copies, copy_worlds)
    assert sp.branch_points() == []

    # The shipped two-world fixture: one branch point, KA on the single
    # proposition that differs between the worlds.
    pairs = [(p, p.worlds) for p in plans.values()]
    sp = merge_plans(pairs, air_combat_worlds)
    points = sp.branch_points()
    assert len(points) == 1
    ka = points[0].ka
    assert ka is not None
    assert ka.observe == ((2, prop("(type aggressor fighter)")),)
    fighter, bomber = air_combat_worlds
    assert ka.alternative_for(fighter) != ka.alternative_for(bomber)
    # Each world belongs to exactly one alternative at every branch point.
    for point in points:
        seen = set()
        for alt in point.alternatives:
            assert not (alt.worlds & seen)
            seen |= alt.worlds
        assert seen == {w.id for w in air_combat_worlds}

    # Flattening the super-plan reproduces the input sequences exactly.
    assert {tuple(p) for p in sp.paths()} == \
        {tuple(p.execution_sequence) for p in plans.values()}


# --- criterion 7: parser robustness ---------------------------------------------

@criterion(7, "100000 random-byte parses without a crash; fixtures round-trip")
def test_criterion_7_parser_robustness(air_combat_domain_text,
                                       air_combat_evidence_text):
    rng = random.Random(0xF00D)
    for index in range(100_000):
        data = rng.randbytes(rng.randrange(0, 80)).decode("latin-1")
        parser = parse_domain if index % 2 == 0 else parse_evidence
        try:
            parser(data)
        except ParseFailure:
            pass

    spec = parse_domain(air_combat_domain_text)
    assert parse_domain(format_domain(spec)) == spec
    evidence = parse_evidence(air_combat_evidence_text)
    assert parse_evidence(format_evidence(evidence)) == evidence
