"""Plan reuse across possible worlds and merging into a single super-plan.

Reapplication replays a donor plan's operator choices against a new initial
world: the search follows the donor's plan tree node by node, and every
choice it meets there is forced and pinned, so the replay succeeds exactly
when each non-redundant operator's preconditions hold and the postconditions
still come out. A failed replay reports the longest executed prefix and keeps
its halted search; :func:`continue_from` then resumes that search from the
failure point with the donor's surviving choices kept, rather than replaying
the prefix again. This is exact: a replay and a search that does not halt
differ only in ``halt_on_failure``, so they take the same steps up to the
replay's first planfail of a scripted node, which the replay records before
it halts. A result kept without its search is planned on from the start
instead, by :func:`uplan.planner.plan_for_pstate` with the donor scripted.
Once every world has a plan, the execution sequences are merged into a trie
that branches where the plans differ, and each branch point gets either a
knowledge-acquisition operator or evidence weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CoverageError, PlanFailure, UplanError
from .model import (
    EvidentialInterval,
    KnowledgeAcquisitionOperator,
    Plan,
    PlanNode,
    PState,
    SuperPlan,
    SuperPlanAlternative,
    SuperPlanNode,
)
from .planner import DEFAULT_NODE_BUDGET, PlanTrace, ReplayHalt, ReviewPolicy, Search


@dataclass
class ReapplyResult:
    """Outcome of replaying one donor plan against one world."""

    kind: str                    # "full" | "partial" | "none"
    donor: Plan
    plan: Plan | None = None     # rebuilt plan (full replays only)
    prefix_length: int = 0       # steps in the replay's tree: all (full), at the halt (partial)
    resume: PlanNode | None = None
    order: int = 0               # donor's position in the plan library
    # The replay's search, halted at its failure, until continue_from resumes it.
    search: Search | None = field(default=None, repr=False)


def reapply_plan(plan: Plan, ps: PState, spec, order: int = 0,
                 budget: int = DEFAULT_NODE_BUDGET,
                 policy: ReviewPolicy | None = None,
                 trace: PlanTrace | None = None) -> ReapplyResult:
    """Assess whether a donor plan works, wholly or in part, for a new world.

    ``trace`` records the replay's events up to and including the failure,
    so that :func:`continue_from` can go on recording into it.
    """
    search = Search(ps, spec, policy=policy, budget=budget, trace=trace, donor=plan,
                    halt_on_failure=True)
    try:
        rebuilt = search.run()
    except ReplayHalt as halt:
        if halt.node is search.root:
            return ReapplyResult("none", plan, order=order, search=search)
        steps = Search._collect_steps(search.root)
        return ReapplyResult("partial", plan, prefix_length=len(steps),
                             resume=halt.node, order=order, search=search)
    except PlanFailure:
        return ReapplyResult("none", plan, order=order)
    return ReapplyResult("full", plan, plan=rebuilt,
                         prefix_length=len(rebuilt.execution_sequence), order=order)


def continue_from(result: ReapplyResult) -> Plan:
    """Resume planning for a world whose donor replay failed part-way.

    The result's halted search goes on, with the world, domain, budget,
    review policy and trace its replay ran with: the failed node's planfail
    directive applies, the donor's other choices stay scripted, and the
    search continues freely from there. A result is resumed at most once;
    :class:`UplanError` is raised for one that holds no halted search. To
    replay a donor from the start without halting, pass it to
    :func:`uplan.planner.plan_for_pstate` as ``donor``.
    """
    search, result.search = result.search, None  # a result is resumed at most once
    if search is None:
        raise UplanError("the replay result holds no halted search to resume")
    return search.resume()


def reuse_rank(result: ReapplyResult) -> tuple:
    """The order in which replay results are reused, lowest first: the
    longest reusable prefix, then the donor with the higher root EF, then
    the earlier donor. Library positions are unique, so no two results of
    one world rank equal."""
    return (-result.prefix_length, -result.donor.root_ef, result.order)


# --- merging ----------------------------------------------------------------

_END = object()


def merge_plans(plans, worlds, threshold=(0.0, 0.0)) -> SuperPlan:
    """Merge per-world plans into one super-plan trie.

    ``plans`` is a list of (Plan, world-id set) pairs; ``worlds`` the P-states
    the plans were built for. Every world at or above the coverage threshold
    must be covered by some plan. Identical execution sequences collapse into
    one path; divergence points become branch points whose alternatives carry
    the union of contributing worlds, each branch point with a
    knowledge-acquisition operator or evidence weights
    (:func:`insert_ka_operators`).
    """
    covered = set()
    for _plan, world_ids in plans:
        covered |= set(world_ids)
    for world in worlds:
        if world.interval.meets(threshold) and world.id not in covered:
            raise CoverageError(
                f"world {world.id!r} is above the coverage threshold but has no plan",
                world_id=world.id,
            )

    # Group identical sequences, keeping first-seen order for determinism.
    grouped: dict = {}
    for plan, world_ids in plans:
        grouped.setdefault(tuple(plan.execution_sequence), set()).update(world_ids)
    by_id = {w.id: w for w in worlds}

    world_index = tuple(sorted(((w.id, w.interval) for w in worlds),
                               key=lambda pair: pair[0]))
    return SuperPlan(root=_build(list(grouped.items()), 0, by_id), worlds=world_index)


def _build(entries, depth, by_id):
    """The super-plan from ``depth`` on for (sequence, worlds) entries
    that agree before it: one node, whose run is the steps they share, with
    one call per alternative of the branch point that ends the run. ``by_id``
    maps world ids to the P-states, for :func:`insert_ka_operators`."""
    steps = []
    while True:
        # One bucket per distinct head, in first-seen order.
        buckets: dict = {}
        for seq, ids in entries:
            buckets.setdefault(seq[depth] if depth < len(seq) else _END,
                               []).append((seq, ids))
        if len(buckets) != 1 or _END in buckets:
            break
        steps.append(next(iter(buckets)))
        depth += 1
    if len(buckets) < 2:  # the plans end after the run
        return SuperPlanNode(tuple(steps)) if steps else None
    branch = insert_ka_operators(
        [(_build(group, depth, by_id), frozenset().union(*(ids for _, ids in group)))
         for group in buckets.values()],
        by_id,
    )
    return SuperPlanNode(tuple(steps), branch.ka, branch.alternatives)


def _combined_interval(world_ids, by_id) -> EvidentialInterval:
    """Pooled weight of a set of worlds: capped sums of supports and
    plausibilities. A ranking weight, not an exact disjunctive belief."""
    support = min(1.0, sum(by_id[w].interval.support for w in world_ids))
    plausibility = min(1.0, sum(by_id[w].interval.plausibility for w in world_ids))
    return EvidentialInterval(support, max(support, plausibility))


def _discriminator(world_sets, by_id) -> KnowledgeAcquisitionOperator | None:
    """Observations whose truth values tell the world sets apart, or None
    when none can.

    Each listed world is one entry, numbered alternative by alternative; a
    world listed under two alternatives stays confused with itself, and gets
    no KA operator. Every set of entries is an integer bitset over them: one
    per alternative; one per block of the partition, keyed by its outcome of
    the observations chosen so far; and one per candidate (level, fact),
    holding the entries in which it reads true, closed-world as
    :func:`uplan.model.holds` reads it. Two entries of different alternatives
    are still confused exactly when they share a block, so a block's count is
    ``(|block|² − Σ |block & alt|²) // 2``. Each round greedily adds the first
    candidate, in sorted order, that leaves the fewest confused pairs
    (Quinlan's test selection over a refined partition), until no block
    mixes alternatives.
    """
    alts, on_level, n = [], {}, 0
    for ws in world_sets:
        alts.append(((1 << len(ws)) - 1) << n)
        for wid in ws:
            # Worlds share level objects: read each distinct one's facts once.
            for level in by_id[wid].levels:
                on_level.setdefault(id(level), [level, 0])[1] |= 1 << n
            n += 1
    everything = (1 << n) - 1
    held = {}
    for level, entries in on_level.values():
        for prop in level.sorted_facts():
            held[level.index, prop] = held.get((level.index, prop), 0) | entries
    # A candidate whose positive form every entry holds, or none does, splits
    # no block, so the greedy rule never picks it.
    candidates = {}
    for level, prop in sorted(held):
        positive = held.get((level, prop.positive()), 0)
        if positive not in (0, everything):
            candidates[level, prop] = positive if prop.polarity else everything & ~positive

    def confused(block):
        """Pairs of ``block``'s entries from different alternatives."""
        return (block.bit_count() ** 2
                - sum((block & alt).bit_count() ** 2 for alt in alts)) // 2

    if not confused(everything):
        return None  # a single alternative: nothing to tell apart
    blocks, chosen = {"": everything}, []
    while mixed := [block for block in blocks.values() if confused(block)]:
        best, fewest = None, sum(map(confused, mixed))
        for candidate, true in candidates.items():
            left = sum(confused(block & true) + confused(block & ~true) for block in mixed)
            if left < fewest:
                best, fewest = candidate, left
        if best is None:
            return None  # some pair is observationally indistinguishable
        chosen.append(best)
        true = candidates[best]
        blocks = {outcome + truth: part for outcome, block in blocks.items()
                  for truth, part in (("T", block & true), ("F", block & ~true)) if part}
    return KnowledgeAcquisitionOperator(
        observe=tuple(chosen),
        maps=tuple(sorted((outcome, next(i for i, alt in enumerate(alts) if block & alt))
                          for outcome, block in blocks.items())),
    )


def insert_ka_operators(branches, by_id) -> SuperPlanNode:
    """The branch point for ``branches``, (subtree, world-id set) pairs: a
    knowledge-acquisition operator when observations tell the world sets
    apart, evidence weights on the alternatives otherwise. ``by_id`` maps
    world ids to P-states."""
    ka = _discriminator([worlds for _, worlds in branches], by_id)
    return SuperPlanNode(ka=ka, alternatives=tuple(
        SuperPlanAlternative(subtree, worlds,
                             _combined_interval(worlds, by_id) if ka is None else None)
        for subtree, worlds in branches
    ))
