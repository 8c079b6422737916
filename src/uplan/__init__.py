"""uplan: hierarchical planning under uncertain, incomplete world descriptions.

Evidence about the world is declared as Dempster-Shafer mass functions over
frames of discernment; every surviving combination of possibilities becomes a
possible world (P-state) with an evidential interval. A best-first search
over goal-reduction operators builds one plan per world, ranked by expected
fulfilment with AND/OR value propagation and offset-gated review of earlier
selections. Plans are reapplied to further worlds where possible and merged
into a single super-plan whose branch points carry knowledge-acquisition
operators or evidence weights. A sensitivity toolkit bounds how accurate the
probability and fulfilment estimates must be for a ranking to be trustworthy.
"""

from .errors import (
    BudgetExceededError,
    CombinationError,
    CompatibilityViolation,
    CoverageError,
    LevelRangeError,
    NoPossibleWorldError,
    ParseFailure,
    PlanFailure,
    UplanError,
)
from .evidence import (
    EvidenceSet,
    Frame,
    MassFunction,
    belief,
    combine,
    generate_pstates,
    mass_function,
    plausibility,
    rank_pstates,
    vacuous,
)
from .dsl import (
    Diagnostic,
    DomainSpec,
    ParseError,
    format_domain,
    format_evidence,
    lint_domain,
    parse_domain,
    parse_evidence,
)
from .model import (
    AbstractionLevel,
    CausalRule,
    CompatibilityRelation,
    EvidentialInterval,
    GroundStep,
    KnowledgeAcquisitionOperator,
    Plan,
    PlanNode,
    PlotEntry,
    ProbabilityRule,
    Proposition,
    PState,
    ReductionOperator,
    SuperPlan,
    SuperPlanAlternative,
    SuperPlanNode,
    apply_edits,
    enforce_compatibility,
    holds,
    make_pstate,
    state_edit,
    subgoal,
)
from .planner import (
    PlanTrace,
    ReviewPolicy,
    Search,
    deduce_effects,
    expected_fulfilment,
    operator_probability,
    plan_for_pstate,
    propagate_updates,
    rank_candidates,
    recompute_values,
    review_decisions,
    update_and_node,
    update_or_node,
)
from .pipeline import plan_superplan
from .reapply import (
    ReapplyResult,
    continue_from,
    insert_ka_operators,
    merge_plans,
    reapply_plan,
    reuse_rank,
)
from .sensitivity import (
    EFRange,
    ErrorBoundedEF,
    contour_rows,
    distinguishable,
    ef_range,
    ratio_threshold,
    sensitivity_grid,
)

__version__ = "0.1.0"
