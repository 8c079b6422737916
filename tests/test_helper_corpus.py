"""A helper-rich search corpus, pinned to a golden file.

The robustness corpus almost never leaves a satisfiable precondition unmet,
so it barely runs the helper sub-searches. Here operators assert what other
operators' satisfiable preconditions ask for, so helpers, nested helpers,
choose-one and do-all helper reductions, depth rejections and budgets that
run out inside a helper are all common. Each case's steps (or its error) and
the sha256 of its trace lines must match ``golden/helper_corpus.txt``.

Regenerate the golden with ``PYTHONPATH=src python tests/test_helper_corpus.py``.
"""

import hashlib
import random
from collections import Counter
from pathlib import Path

from uplan.dsl import DomainSpec
from uplan.errors import BudgetExceededError, UplanError
from uplan.model import (
    CHOOSE_ONE,
    DO_ALL,
    EXPANSION_AND,
    EXPANSION_OR,
    CausalRule,
    ProbabilityRule,
    Proposition,
    ReductionOperator,
    make_pstate,
    state_edit,
    subgoal,
)
from uplan.planner import PlanTrace, ReviewPolicy, Search

GOLDEN = Path(__file__).parent / "golden" / "helper_corpus.txt"

FACTS = [Proposition(f"p{i}") for i in range(5)] + [Proposition("on", (c,)) for c in "ab"]
PATTERNS = FACTS + [Proposition("on", ("?x",))]
LEVELS = (1, 2)


def random_domain(rng):
    names = [f"Op{i}" for i in range(rng.randint(3, 9))]

    def pairs(k, negate=0.15):
        out = []
        for _ in range(k):
            p = rng.choice(PATTERNS)
            if rng.random() < negate:
                p = p.negated()
            out.append((p, rng.choice(LEVELS)))
        return tuple(out)

    # Deepest first, so a reduction can claim what one of its children claims.
    operators = {}
    for i in reversed(range(len(names))):
        level = 1 if i == 0 else rng.choice(LEVELS)
        deeper = names[i + 1:]
        if not deeper or rng.random() < 0.5:
            edits = []
            for _ in range(rng.randint(1, 2)):
                op = "retract" if rng.random() < 0.2 else "assert"
                edits.append((op, rng.choice(FACTS), rng.choice(LEVELS)))
            plot, mode = (state_edit(*edits),), DO_ALL
            # Mostly claim what the edits do, so the operator can serve as a helper.
            post = tuple(
                (fact if op == "assert" else fact.negated(), lvl)
                for op, fact, lvl in edits if rng.random() < 0.8
            ) + pairs(rng.random() < 0.1)
        else:
            plot = tuple(subgoal(rng.choice(deeper), rng.uniform(10, 1000))
                         for _ in range(rng.randint(1, 3)))
            mode = rng.choice([CHOOSE_ONE, DO_ALL])
            claims = operators[rng.choice(plot).subgoal_name].postconditions
            post = claims[:1] if claims and rng.random() < 0.7 else pairs(rng.randint(0, 1))
            post += pairs(rng.random() < 0.3)
        rules = [ProbabilityRule((), round(rng.uniform(0.1, 1.0), 3))]
        if rng.random() < 0.3:
            rules.insert(0, ProbabilityRule(pairs(1, negate=0), round(rng.uniform(0.1, 1.0), 3)))
        # Mostly ask for what a deeper operator claims, so a helper may exist.
        claimed = [pair for op in operators.values() for pair in op.postconditions]
        satisfiable = pairs(rng.random() < 0.6)
        if satisfiable and claimed and rng.random() < 0.8:
            satisfiable = (rng.choice(claimed),)
        recoveries = [rng.choice(names)] if rng.random() < 0.15 else []
        operators[names[i]] = ReductionOperator(
            name=names[i], abstraction_level=level,
            necessary=pairs(rng.random() < 0.1),
            satisfiable=satisfiable,
            plot_mode=mode, plot=plot,
            probability_rules=tuple(rules),
            postconditions=post,
            planfail=rng.choice(["backtrack", "reject-branch"] + recoveries),
        )
    # Assert-only rules, so deduction always reaches a fixpoint.
    causal_rules = tuple(
        CausalRule(rng.choice(FACTS), (),
                   (("assert", rng.choice(FACTS), rng.choice(LEVELS)),))
        for _ in range(rng.randint(0, 2))
    )
    return DomainSpec(
        n_levels=2, operators=tuple(operators[name] for name in names),
        causal_rules=causal_rules, goal="Op0", goal_fulfilment=1000.0,
        review=ReviewPolicy(rng.choice([0.0, 0.1, 1.0])),
    )


def leaf(name, asserts, satisfiable=(), claims=True):
    fact = Proposition(asserts)
    return ReductionOperator(
        name=name, abstraction_level=1,
        satisfiable=tuple((Proposition(p), 1) for p in satisfiable),
        plot=(state_edit(("assert", fact, 1)),),
        postconditions=((fact, 1),) if claims else (),
    )


def helper_chain(length):
    """Main needs (p0); helper Hi asserts (pi) and needs (p{i+1}), except the last."""
    ops = [leaf("Main", "done", satisfiable=["p0"])]
    for i in range(length):
        ops.append(leaf(f"H{i}", f"p{i}", satisfiable=[f"p{i + 1}"] if i < length - 1 else []))
    return DomainSpec(n_levels=1, operators=tuple(ops), goal="Main")


def helper_reduction(mode, also_claims=()):
    """Main needs (ready); Helper reaches it through a two-entry plot, and
    fails its postconditions when it also claims something no child does."""
    post = tuple((Proposition(p), 1) for p in ("ready", *also_claims))
    ops = (
        leaf("Main", "done", satisfiable=["ready"]),
        ReductionOperator("Helper", 1, plot_mode=mode,
                          plot=(subgoal("A", 500.0), subgoal("B", 400.0)),
                          postconditions=post),
        leaf("A", "a"),
        leaf("B", "ready", claims=False),
    )
    return DomainSpec(n_levels=1, operators=ops, goal="Main")


def hand_built():
    """Cases the random part might miss: one depth bound each side, helper
    reductions that fail their postconditions, and budgets that run out
    inside a helper reduction."""
    empty = make_pstate("w", 1)
    return [
        (helper_chain(3), empty, 100),
        (helper_chain(4), empty, 100),
        (helper_reduction(DO_ALL), empty, 100),
        (helper_reduction(DO_ALL), empty, 3),
        (helper_reduction(CHOOSE_ONE), empty, 100),
        (helper_reduction(CHOOSE_ONE), empty, 2),
        (helper_reduction(DO_ALL, also_claims=["never"]), empty, 100),
        (helper_reduction(CHOOSE_ONE, also_claims=["never"]), empty, 100),
    ]


def corpus():
    """(domain, initial P-state, budget) triples, the same on every call."""
    rng = random.Random(20261018)
    for _ in range(800):
        spec = random_domain(rng)
        contents = {level: [p for p in FACTS if rng.random() < 0.25] for level in LEVELS}
        budget = rng.choice([4, 8, 15, 30, 1000])
        yield spec, make_pstate("w", 2, contents=contents), budget
    yield from hand_built()


class ObservedSearch(Search):
    """A search that tallies, from ``_satisfy``, what its helpers did."""

    def __init__(self, *args, stats, **kwargs):
        super().__init__(*args, **kwargs)
        self.stats = stats
        self.nesting = 0

    def _satisfy(self, node, pattern, level, bindings, state, depth):
        if depth <= 0:
            self.stats["depth rejections"] += 1
        self.nesting += 1
        try:
            achieved = super()._satisfy(node, pattern, level, bindings, state, depth)
        except BudgetExceededError:
            if self.nesting == 1:
                self.stats["budgets exhausted inside a helper"] += 1
            raise
        finally:
            self.nesting -= 1
        if achieved is not None:
            if self.nesting:
                self.stats["nested helpers"] += 1
            for n in achieved[0].walk():
                self.stats["choose-one helper reductions"] += n.expansion == EXPANSION_OR
                self.stats["do-all helper reductions"] += n.expansion == EXPANSION_AND
        return achieved


def run_case(spec, ps, budget, stats) -> str:
    trace = PlanTrace()
    try:
        plan = ObservedSearch(ps, spec, budget=budget, trace=trace, stats=stats).run()
        outcome = "steps " + " ".join(map(str, plan.execution_sequence))
    except UplanError as exc:
        outcome = f"error {type(exc).__name__}: {exc}"
    lines = trace.to_lines()
    stats["helper events"] += sum(" satisfy-precondition " in line for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return f"{digest} {outcome}".rstrip()


def corpus_lines(stats) -> list:
    return [f"{i:03d} {run_case(spec, ps, budget, stats)}"
            for i, (spec, ps, budget) in enumerate(corpus())]


def test_helper_corpus_matches_golden():
    stats = Counter()
    lines = corpus_lines(stats)
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(golden)
    differing = [(want, got) for want, got in zip(golden, lines) if want != got]
    assert not differing, f"{len(differing)} cases differ, first: {differing[0]}"
    # The corpus must keep exercising every part of the helper engine.
    assert stats["helper events"] >= 100, stats
    assert stats["nested helpers"] >= 5, stats
    assert stats["choose-one helper reductions"] >= 5, stats
    assert stats["do-all helper reductions"] >= 5, stats
    assert stats["depth rejections"] >= 1, stats
    assert stats["budgets exhausted inside a helper"] >= 2, stats


if __name__ == "__main__":
    stats = Counter()
    GOLDEN.write_text("\n".join(corpus_lines(stats)) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {dict(stats)}")
