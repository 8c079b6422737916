"""The whole U-Plan pipeline in one call.

Evidence expands into ranked possible worlds. Each world at or above the
coverage threshold gets a plan, most plausible world first: a finished plan
is reused in full where its replay succeeds, resumed from the longest
reusable prefix where the replay fails part-way, and a fresh search runs
otherwise. The plans then merge into one super-plan whose branch points get
knowledge-acquisition operators or evidence weights.

Each library plan is replayed once per relevance class, not once per world.
Two worlds are in one class when, at every level, their facts agree on every
predicate the domain names (:attr:`DomainSpec.relevant_predicates`). This is
exact: a search reads and writes its world only through lookups of one
predicate at one level, and every predicate it can look up is named by some
operator slot, plot edit, probability rule, causal rule or compatibility
relation. The world's id reaches only the rebuilt plan's ``worlds``, which a
replay's outcome leaves out, and its interval is never read. So a replay
gives the same outcome for every world of a class, and an error it raises
is raised at the first world of the class, as a replay per world would.

A world planned on from a partial replay made while planning it resumes
that replay's halted search (:func:`continue_from`), so its prefix is not
searched twice. A replay stored from an earlier world of the class keeps no
search, so such a world is planned from the start with the donor scripted
(:func:`plan_for_pstate` with ``donor``): the search the halted replay would
have gone on as, which never halts. Either way the plan, trace lines and
errors are those of that search. Only one halted search per world is held at
a time: the best partial replay so far under :func:`reuse_rank`, whose order
is strict, so the best so far ends as the best of all. A replay that ranks
lower gives its search up as soon as it returns.
"""

from __future__ import annotations

from .errors import BudgetExceededError, PlanFailure
from .evidence import generate_pstates, rank_pstates
from .planner import DEFAULT_NODE_BUDGET, PlanTrace, plan_for_pstate
from .reapply import ReapplyResult, continue_from, merge_plans, reapply_plan, reuse_rank


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
    replays: dict = {}  # relevance class -> one replay outcome per library plan
    # Worlds share level objects, so each distinct level's relevant facts are
    # read once, and each distinct tuple of them gets a number: a world's key
    # is one number per level. The worlds keep their levels alive, so no id
    # is reused during the loop.
    classes: dict = {}
    numbers: dict = {}
    for world in worlds:
        if not world.interval.meets(threshold):
            if trace:
                trace(f"; world {world.id}: below the coverage threshold, not planned")
            continue
        key = []
        for level in world.levels:
            number = numbers.get(id(level))
            if number is None:
                facts = tuple(level.facts_for(p) for p in spec.relevant_predicates)
                number = numbers[id(level)] = classes.setdefault(facts, len(classes))
            key.append(number)
        key = tuple(key)
        try:
            plan = _plan_world(world, replays.setdefault(key, []), library, spec,
                               policy, budget, trace)
        except (PlanFailure, BudgetExceededError) as exc:
            exc.world_id = world.id
            raise
        if plan is not None:
            library.append(plan)
    return merge_plans([(p, p.worlds) for p in library], worlds, threshold), library


def _plan_world(world, replays, library, spec, policy, budget, trace):
    """Plan one world against the library; None when a donor is reused in full.

    ``replays`` holds the outcomes of replaying the library's plans against
    the world's relevance class, in library order; the plans added since the
    class last ran are replayed here, since the library only grows. The
    best partial replay is kept as the replays run, so only its halted
    search stays alive, not one per partial replay.
    """
    best = min((r for r in replays if r.kind == "partial"), key=reuse_rank, default=None)
    for order in range(len(replays), len(library)):
        result = reapply_plan(library[order], world, spec, order=order, budget=budget,
                              policy=policy, trace=PlanTrace() if trace else None)
        if result.kind == "partial" and (best is None or reuse_rank(result) < reuse_rank(best)):
            best = result
        # Only what the choice below reads: the rebuilt plan, the resume point
        # and the halted search would keep a whole replay tree alive per class.
        replays.append(ReapplyResult(result.kind, result.donor,
                                     prefix_length=result.prefix_length, order=order))
        del result  # a replay that is not the best so far is never resumed
    full = min((r for r in replays if r.kind == "full"), key=reuse_rank, default=None)
    if full is not None:
        full.donor.worlds.add(world.id)
        if trace:
            trace(f"; world {world.id}: reusing existing plan in full")
        return None
    resumes = best is not None and best.search is not None
    plan_trace = best.search.trace if resumes else PlanTrace() if trace else None
    try:
        if resumes:
            plan = continue_from(best)  # its search records on into its trace
        else:
            plan = plan_for_pstate(world, spec, policy=policy, budget=budget,
                                   trace=plan_trace, donor=best.donor if best else None)
        if trace and best is not None:
            trace(f"; world {world.id}: resumed after a reusable prefix "
                  f"of {best.prefix_length} step(s)")
    finally:
        # Also on failure, so a world that fails shows how far its search got.
        if trace:
            for line in plan_trace.to_lines():
                trace(f"; {world.id} {line}")
    return plan
