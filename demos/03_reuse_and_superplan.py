"""Reusing plans across worlds and merging them into one super-plan.

A finished plan is first reapplied to each remaining world: if every
non-redundant operator's preconditions still hold it is reused outright;
if it fails part-way the surviving prefix seeds a resumed search. When every
world has a plan, the execution sequences merge into a trie that branches
where they differ, and each branch point gets a knowledge-acquisition
operator (observe, then pick the branch) or evidence weights when no
observation can tell the worlds apart. ``plan_superplan`` runs all of this
for every world in one call.
"""

from importlib import resources

from uplan import (
    ReviewPolicy,
    continue_from,
    generate_pstates,
    parse_domain,
    parse_evidence,
    plan_for_pstate,
    plan_superplan,
    rank_pstates,
    reapply_plan,
)
from uplan.serialize import dumps_superplan

spec = parse_domain(
    (resources.files("uplan") / "fixtures/air_combat.domain").read_text()
)
evidence = parse_evidence(
    (resources.files("uplan") / "fixtures/air_combat.evidence").read_text()
)
worlds = rank_pstates(generate_pstates(evidence, spec.compat, spec.n_levels))
fighter, bomber = worlds

print("planning the most plausible world first:", fighter.id)
donor = plan_for_pstate(fighter, spec, policy=ReviewPolicy(0.0))
print("  steps:", ", ".join(str(s) for s in donor.execution_sequence))

print(f"\nreapplying that plan to {bomber.id}:")
result = reapply_plan(donor, bomber, spec)
print(f"  outcome: {result.kind}, reusable prefix of {result.prefix_length} "
      f"step(s), fails at {result.resume.operator.name}")
print("  (the beyond-visual-range attack needs a positively identified"
      " fighter, which this world cannot supply)")

bomber_plan = continue_from(result)
print("  resumed plan:", ", ".join(str(s) for s in bomber_plan.execution_sequence))

print("\nthe whole pipeline in one call: rank the worlds, reuse or plan each,"
      " merge, insert knowledge acquisition")
superplan, library = plan_superplan(spec, evidence)
for plan in library:
    print(f"  plan for {', '.join(sorted(plan.worlds))}:",
          ", ".join(str(s) for s in plan.execution_sequence))

for point in superplan.branch_points():
    observations = ", ".join(f"{p}@{lvl}" for lvl, p in point.ka.observe)
    print(f"  branch point: observe {observations}")
    for outcome, index in point.ka.maps:
        alt_worlds = ", ".join(sorted(point.alternatives[index].worlds))
        print(f"    outcome {outcome} -> alternative {index} ({alt_worlds})")

print("\nfull super-plan document:\n")
print(dumps_superplan(superplan))
