"""The whole U-Plan pipeline in one call.

Evidence expands into ranked possible worlds. Each world at or above the
coverage threshold gets a plan, most plausible world first: a finished plan
is reused in full where its replay succeeds, resumed from the longest
reusable prefix where the replay fails part-way, and a fresh search runs
otherwise. The plans then merge into one super-plan whose branch points get
knowledge-acquisition operators or evidence weights.
"""

from __future__ import annotations

from .errors import BudgetExceededError, PlanFailure
from .evidence import generate_pstates, rank_pstates
from .planner import DEFAULT_NODE_BUDGET, PlanTrace, plan_for_pstate
from .reapply import (
    continue_from,
    merge_plans,
    reapply_plan,
    select_best_partial,
)


def plan_superplan(spec, evidence, *, policy=None, budget=DEFAULT_NODE_BUDGET,
                   threshold=None, trace=None) -> tuple:
    """Plan every possible world of ``evidence`` and merge the plans.

    ``policy`` overrides the domain's review policy and ``threshold`` its
    coverage threshold, a (support, plausibility) pair; a world below the
    threshold is listed in the super-plan's worlds but not planned.
    ``trace``, if given, is called with each trace line. Returns the
    super-plan and the plan library: the plans in creation order, each with
    the ids of the worlds it serves in ``worlds``.

    Raises :class:`NoPossibleWorldError` when no world survives, and
    :class:`PlanFailure` or :class:`BudgetExceededError` with ``world_id``
    set to the world that failed.
    """
    threshold = threshold or spec.coverage_threshold
    worlds = rank_pstates(generate_pstates(evidence, spec.compat, spec.n_levels))
    library: list = []
    for world in worlds:
        if not world.interval.meets(threshold):
            if trace:
                trace(f"; world {world.id}: below the coverage threshold, not planned")
            continue
        try:
            plan = _plan_world(world, library, spec, policy, budget, trace)
        except (PlanFailure, BudgetExceededError) as exc:
            exc.world_id = world.id
            raise
        if plan is not None:
            library.append(plan)
    return merge_plans([(p, p.worlds) for p in library], worlds, threshold), library


def _plan_world(world, library, spec, policy, budget, trace):
    """Plan one world against the library; None when a donor is reused in full."""
    results = [reapply_plan(plan, world, spec, order=i, budget=budget, policy=policy)
               for i, plan in enumerate(library)]
    fulls = [r for r in results if r.kind == "full"]
    if fulls:
        select_best_partial(fulls).donor.worlds.add(world.id)
        if trace:
            trace(f"; world {world.id}: reusing existing plan in full")
        return None
    partials = [r for r in results if r.kind == "partial"]
    plan_trace = PlanTrace() if trace else None
    try:
        if partials:
            best = select_best_partial(partials)
            plan = continue_from(best, world, spec, budget=budget, trace=plan_trace,
                                 policy=policy)
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
