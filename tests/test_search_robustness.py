"""Randomized search robustness: arbitrary small domains with failing
preconditions, helpers, recovery operators and review churn must always end
in a plan, a clean failure, or budget exhaustion, deterministically."""

import random

from uplan.dsl import DomainSpec
from uplan.errors import BudgetExceededError, PlanFailure
from uplan.model import (
    CHOOSE_ONE,
    DO_ALL,
    ProbabilityRule,
    Proposition,
    ReductionOperator,
    make_pstate,
    state_edit,
    subgoal,
)
from uplan.planner import PlanTrace, ReviewPolicy, Search, plan_for_pstate

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
                assert abs(n.ef - n.current.fulfilment * n.current.probability) <= 1e-9
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


class CheckedSearch(Search):
    """A search that compares every node's stored deepest level with the
    walk after each expansion."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0

    def _expand(self, node):
        super()._expand(node)
        for n in self.root.walk():
            assert n.deepest_level == reference_deepest_level(n), n.name
            self.checked += 1


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


def test_stored_deepest_level_matches_subtree_walk():
    checked = recoveries = 0
    for spec, ps in [*corpus(), recovery_drops_deepest_subtree()]:
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
