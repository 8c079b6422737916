"""A plan-reuse corpus, pinned to a golden file.

Each case is a helper-rich random domain in which some operators recover
through another, a donor plan made for one world, a second world in which
each fact is flipped with probability 0.5, and a node budget. The donor is
replayed against the second world (:func:`reapply_plan`); a partial replay
is then continued twice, once by resuming its halted search
(:func:`continue_from`) and once from the start with the donor scripted
(:func:`plan_for_pstate` with ``donor``), as a replay stored without its
search is. Each
case's line records the replay's kind and prefix length, each
continuation's steps and root EF or its error, and the sha256 of every
trace; all must match ``golden/replay_corpus.txt``.

Regenerate the golden with ``PYTHONPATH=src python tests/test_replay_corpus.py``.
"""

import hashlib
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

from uplan.errors import UplanError
from uplan.model import PLANFAIL_BACKTRACK, PLANFAIL_REJECT_BRANCH, make_pstate
from uplan.planner import PlanTrace, plan_for_pstate
from uplan.reapply import continue_from, reapply_plan

from test_helper_corpus import FACTS, LEVELS, random_domain

GOLDEN = Path(__file__).parent / "golden" / "replay_corpus.txt"
BUDGETS = (4, 8, 15, 30, 100, 1000)


def cases():
    """(domain, donor plan or None, world, budget) tuples, the same on every
    call. Each case draws from its own generator, seeded by its index, so a
    change to one case's outcome moves no other case."""
    for index in range(2000):
        rng = random.Random(index)
        spec = random_domain(rng)
        names = [op.name for op in spec.operators]
        spec = replace(spec, operators=tuple(
            replace(op, planfail=rng.choice(names)) if rng.random() < 0.2 else op
            for op in spec.operators))
        donor = None
        for _ in range(5):
            facts = {level: set(rng.sample(FACTS, rng.randint(0, 5))) for level in LEVELS}
            try:
                donor = plan_for_pstate(make_pstate("donor", 2, contents=facts), spec,
                                        budget=200)
                break
            except UplanError:
                pass
        world = make_pstate("world", 2, contents={
            level: facts[level] ^ {f for f in FACTS if rng.random() < 0.5}
            for level in LEVELS})
        yield spec, donor, world, rng.choice(BUDGETS)


def _digest(trace: PlanTrace) -> str:
    return hashlib.sha256("\n".join(trace.to_lines()).encode("utf-8")).hexdigest()


def _outcome(call) -> str:
    try:
        plan = call()
    except UplanError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return f"ef {plan.root_ef!r} steps {' '.join(map(str, plan.execution_sequence))}".rstrip()


def run_case(spec, donor, world, budget, stats) -> str:
    if donor is None:
        return "no donor"
    trace = PlanTrace()
    try:
        result = reapply_plan(donor, world, spec, budget=budget, trace=trace)
    except UplanError as exc:
        return f"replay error {type(exc).__name__}: {exc} | {_digest(trace)}"
    stats[result.kind] += 1
    head = f"{result.kind} {result.prefix_length}"
    if result.kind == "full":
        return f"{head} {_outcome(lambda: result.plan)} | {_digest(trace)}"
    if result.kind == "none":
        return f"{head} | {_digest(trace)}"
    halted = result.resume
    stats["recoveries"] += (not halted.recovery_attempted and halted.operator.planfail
                            not in (PLANFAIL_BACKTRACK, PLANFAIL_REJECT_BRANCH))
    replay_digest = _digest(trace)
    stats["resumed"] += 1
    resumed = _outcome(lambda: continue_from(result))
    fresh = PlanTrace()
    stats["replayed"] += 1
    replayed = _outcome(lambda: plan_for_pstate(world, spec, budget=budget, trace=fresh,
                                                donor=donor))
    return (f"{head} | {replay_digest} | resumed {resumed} | {_digest(trace)}"
            f" | replayed {replayed} | {_digest(fresh)}")


def corpus_lines(stats) -> list:
    return [f"{i:04d} {run_case(*case, stats)}" for i, case in enumerate(cases())]


def test_replay_corpus_matches_golden():
    stats = Counter()
    lines = corpus_lines(stats)
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(golden)
    differing = [(want, got) for want, got in zip(golden, lines) if want != got]
    assert not differing, f"{len(differing)} cases differ, first: {differing[0]}"
    # The corpus must keep exercising every kind of replay and both ways on.
    assert stats["full"] >= 500, stats
    assert stats["partial"] >= 50, stats
    assert stats["none"] >= 50, stats
    assert stats["recoveries"] >= 10, stats
    assert stats["resumed"] >= 50 and stats["replayed"] >= 50, stats


if __name__ == "__main__":
    stats = Counter()
    GOLDEN.write_text("\n".join(corpus_lines(stats)) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {dict(stats)}")
