"""A search holds only the P-states it can still read.

:meth:`Search._release` drops a state once no node the search may still
expand, recover, finalize or resume can read it. The oracle is the same
search with releasing switched off: every plan, node value, trace line and
error must be the same. A read of a released entry raises ``KeyError``,
which no comparison below catches.
"""

import gc
import random
import tracemalloc
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

from hypothesis import given, settings, strategies as st

import uplan.pipeline
from uplan import plan_superplan
from uplan.dsl import parse_domain, parse_evidence
from uplan.errors import UplanError
from uplan.evidence import generate_pstates, rank_pstates
from uplan.model import (
    EXPANSION_AND,
    STATUS_COMPLETE,
    STATUS_REDUNDANT,
    make_pstate,
)
from uplan.planner import DEFAULT_NODE_BUDGET, PlanTrace, ReviewPolicy, Search
from uplan.reapply import continue_from, reapply_plan
from uplan.serialize import dumps_superplan

from test_pipeline import layered_input, multi_world_cases, planfails_resolved
from test_search_robustness import PROPS, chain_mission, random_domain


@contextmanager
def states_kept():
    """Inside the block, no search releases a state."""
    original = Search.__dict__["_release"]
    Search._release = staticmethod(lambda states, node: None)
    try:
        yield
    finally:
        Search._release = original


@contextmanager
def counted_releases():
    """Count the states released inside the block: yields a one-item list."""
    count = [0]
    original = Search.__dict__["_release"]

    def counting(states, node):
        count[0] += 1
        original.__func__(states, node)

    Search._release = staticmethod(counting)
    try:
        yield count
    finally:
        Search._release = original


def values(root) -> list:
    """Every node of a tree, helpers included, with its values and status."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append((node.node_id, node.name, node.fulfilment, node.probability,
                    node.status, node.expansion, node.selected_index))
        stack.extend(node.helpers)
        stack.extend(node.children)
    return out


def held(search) -> int:
    return len(search.states)


def pipeline_outcome(spec, evidence, **kwargs) -> tuple:
    """The super-plan bytes and each library plan's steps, worlds and node
    values, or the error; and the trace lines."""
    lines = []
    try:
        superplan, library = plan_superplan(spec, evidence, trace=lines.append, **kwargs)
    except UplanError as exc:
        return ("error", type(exc).__name__, str(exc), getattr(exc, "world_id", None)), lines
    return ("plan", dumps_superplan(superplan),
            [(p.execution_sequence, sorted(p.worlds), values(p.root)) for p in library]), lines


def assert_pipeline_unchanged(spec, evidence, **kwargs) -> list:
    """Check one input against the oracle; returns the trace lines."""
    got, got_lines = pipeline_outcome(spec, evidence, **kwargs)
    with states_kept():
        want, want_lines = pipeline_outcome(spec, evidence, **kwargs)
    assert got == want
    assert got_lines == want_lines
    return got_lines


def search_outcome(run) -> tuple:
    """The steps and node values of the plan that ``run(trace)`` returns
    with its search, or the error it raises; the trace lines; the search."""
    trace = PlanTrace()
    search = None
    try:
        search, plan = run(trace)
        outcome = ("plan", plan.execution_sequence, values(plan.root))
    except UplanError as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    return outcome, trace.to_lines(), search


def assert_search_unchanged(run) -> tuple:
    """Check a search against the oracle; returns the trace lines and the
    states it holds at the end, with releasing and without."""
    got, got_lines, search = search_outcome(run)
    with states_kept():
        want, want_lines, kept = search_outcome(run)
    assert got == want
    assert got_lines == want_lines
    return got_lines, held(search), held(kept)


def plan_with(spec, world, **kwargs):
    def run(trace):
        search = Search(world, spec, trace=trace, **kwargs)
        return search, search.run()
    return run


def with_recoveries(spec, rng):
    """``spec`` with about one operator in five recovering through another."""
    names = [op.name for op in spec.operators]
    return replace(spec, operators=tuple(
        replace(op, planfail=rng.choice(names)) if rng.random() < 0.2 else op
        for op in spec.operators))


@st.composite
def release_cases(draw):
    """The pipeline's random multi-world inputs, half of them with
    recoveries; or a layered domain of about a hundred nodes, whose leaves
    need facts that two frames give some worlds and not others, so replays
    halt part-way and are resumed. The review offset is zero in some, so
    review switches are frequent."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        spec, evidence, budget, threshold = draw(multi_world_cases())
        if draw(st.booleans()):
            spec = with_recoveries(spec, rng)
    else:
        (spec, evidence), budget, threshold = layered_input(rng), DEFAULT_NODE_BUDGET, None
    policy = draw(st.sampled_from([None, ReviewPolicy(0.0)]))
    return spec, evidence, dict(budget=budget, threshold=threshold, policy=policy)


def test_released_states_change_no_plan_value_or_trace_line():
    stats = Counter()

    # Hypothesis draws the kind of input unevenly: at 200 examples one run
    # in about seven released states in fewer than 60 inputs.
    @settings(max_examples=300, deadline=None)
    @given(release_cases())
    def check(case):
        spec, evidence, kwargs = case
        with counted_releases() as released:
            lines = assert_pipeline_unchanged(spec, evidence, **kwargs)
        stats["released"] += released[0] > 0
        stats["resumed"] += any(": resumed after" in line for line in lines)
        stats["recovered"] += any("recovery for" in line for line in lines)
        stats["switched"] += any(" review-switch " in line for line in lines)

    check()
    assert stats["released"] >= 60 and stats["resumed"] >= 20, stats
    assert stats["recovered"] >= 20 and stats["switched"] >= 15, stats


class CheckedStates(dict):
    """A search's state map that checks each read against the one entry
    its reader may read, set in ``expected`` as (node, whether it is done,
    role) just before the read. An entry is stored with whether its node
    was done then, so a read that finds the node in another phase than its
    entry's fails here: a stale read, which the one map would serve
    without an error. Counts the reads by role in ``roles``."""

    def __init__(self, roles: Counter):
        super().__init__()
        self.roles = roles
        self.stored_done = {}
        self.expected = None

    def __setitem__(self, node, state):
        self.stored_done[node] = node.status in _DONE
        super().__setitem__(node, state)

    def __getitem__(self, node):
        assert self.expected is not None, "a state read by neither _thread_state nor _finalize"
        (want, done, role), self.expected = self.expected, None
        assert node is want, f"{role}: read {node.name}, not {want.name}"
        assert (node.status in _DONE) == done == self.stored_done[node], role
        self.roles[role] += 1
        return super().__getitem__(node)


_DONE = (STATUS_COMPLETE, STATUS_REDUNDANT)


@contextmanager
def reads_checked():
    """Inside the block, every search reads its states through a
    :class:`CheckedStates`. ``_thread_state`` may read a pending parent's
    entry, the state after its helpers, or in an AND past the first child
    the entry of the previous sibling, which is done; ``_finalize`` the
    entry of the last (AND) or selected (OR) child, which is done. Yields
    the counter of reads by role."""
    roles = Counter()
    init, thread_state, finalize = Search.__init__, Search._thread_state, Search._finalize

    def checked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.states = CheckedStates(roles)

    def checked_thread_state(self, path):
        if len(path) > 1:
            parent, node = path[-2], path[-1]
            if parent.expansion == EXPANSION_AND and node.plot_index > 0:
                self.states.expected = (parent.children[node.plot_index - 1], True,
                                        "previous sibling")
            else:
                self.states.expected = (parent, False, "pending parent")
        state = thread_state(self, path)
        self.states.expected = None
        return state

    def checked_finalize(self, path):
        node = path[-1]
        last = (node.children[-1] if node.expansion == EXPANSION_AND
                else node.selected_child)
        self.states.expected = (last, True, "finalized child")
        finalize(self, path)

    Search.__init__, Search._thread_state, Search._finalize = (
        checked_init, checked_thread_state, checked_finalize)
    try:
        yield roles
    finally:
        Search.__init__, Search._thread_state, Search._finalize = init, thread_state, finalize


def test_every_state_read_is_the_entry_its_reader_may_read():
    # One map holds a pending node's state after its helpers and a done
    # node's state after it; each read must find the entry of its phase.
    # Random domains recover, backtrack and reject branches; layered inputs
    # through the pipeline also halt replays and resume them.
    rng = random.Random(32)
    with reads_checked() as searched, planfails_resolved() as searched_planfails:
        for _ in range(400):
            ps = make_pstate("w", 3, contents={
                level: [p for p in PROPS if rng.random() < 0.4] for level in (1, 2, 3)})
            try:
                Search(ps, random_domain(rng), budget=300).run()
            except UplanError:
                pass
    with reads_checked() as pipelined, planfails_resolved() as pipelined_planfails:
        for i in range(30):
            spec, evidence = layered_input(rng)
            try:
                plan_superplan(spec, evidence, policy=ReviewPolicy(0.0) if i % 2 else None)
            except UplanError:
                pass
    # The searches make 190 pending-parent reads and 28 recoveries; the
    # pipeline about 3,900 pending-parent, 8,850 previous-sibling and 2,870
    # finalized-child reads, 1,080 recoveries and 80 resumed halts.
    assert searched["pending parent"] >= 100, searched
    assert searched_planfails["recoveries"] >= 10, searched_planfails
    assert pipelined["pending parent"] >= 2000 and pipelined["previous sibling"] >= 4000, \
        pipelined
    assert pipelined["finalized child"] >= 1500, pipelined
    assert pipelined_planfails["recoveries"] >= 500, pipelined_planfails
    assert pipelined_planfails["resumed halts"] >= 40, pipelined_planfails


SWITCH_BACK = """
levels 1
goal Root 100.0
operator Root
  level 1
  plot choose-one
    A 100.0
    B 90.0
operator A
  level 1
  plot do-all
    A1 100.0
    A2 100.0
    A3 100.0
operator B
  level 1
  plot do-all
    B1 100.0
    B2 100.0
"""
for _name, _probability in (("A1", ""), ("A2", "    when (a1)@1 => 0.5\n"),
                            ("A3", ""), ("B1", ""), ("B2", "    when (b1)@1 => 0.3\n")):
    SWITCH_BACK += (f"operator {_name}\n  level 1\n  plot do-all\n"
                    f"    assert ({_name.lower()})@1\n"
                    f"  probability\n{_probability}    default 1.0\n")


def test_a_review_switch_back_reads_the_suspended_branch():
    # A2 halves A's value, so the review switches Root to B with A3 pending;
    # B2 cuts B's value further, and the review switches back to A, whose A3
    # threads from the state A2 left while A was suspended.
    spec = parse_domain(SWITCH_BACK)
    lines, holds, kept = assert_search_unchanged(plan_with(spec, make_pstate("w", 1)))
    assert [line.split()[-1] for line in lines if " review-switch " in line] == [
        "detail=A->B", "detail=B->A"]
    assert [line.split()[3] for line in lines if " expand " in line][-1] == "op=A3"
    # Root's state, and B's, which it was left with unfinished.
    assert (holds, kept) == (3, 8)


RECOVERY = """
levels 1
goal Root 100.0
operator Root
  level 1
  plot do-all
    First 100.0
    Bad 100.0
    Last 100.0
operator Bad
  level 1
  necessary (never)@1
  plot do-all
    assert (bad)@1
  planfail recover Backup
"""
for _name in ("First", "Backup", "Last"):
    RECOVERY += f"operator {_name}\n  level 1\n  plot do-all\n    assert ({_name.lower()})@1\n"


def test_a_recovery_threads_from_the_state_its_previous_sibling_left():
    spec = parse_domain(RECOVERY)
    lines, holds, kept = assert_search_unchanged(plan_with(spec, make_pstate("w", 1)))
    assert any("detail=recovery for Bad" in line for line in lines)
    assert (holds, kept) == (1, 4)


def test_a_resumed_replay_reads_only_states_its_halt_kept(
        air_combat_spec, air_combat_evidence, air_combat_worlds):
    fighter, bomber = air_combat_worlds

    def resumed(trace):
        donor = Search(fighter, air_combat_spec).run()
        result = reapply_plan(donor, bomber, air_combat_spec, trace=trace)
        assert result.kind == "partial"
        search = result.search
        return search, continue_from(result)

    lines, holds, kept = assert_search_unchanged(resumed)
    assert any(" planfail " in line for line in lines)
    assert holds < kept
    # Through the pipeline, which resumes a halted replay in both inputs.
    for spec, evidence in ((air_combat_spec, air_combat_evidence), chain_mission()):
        lines = assert_pipeline_unchanged(spec, evidence)
        assert any(": resumed after" in line for line in lines)


FOUR_ROUTES = """
levels 1
goal Mission 100.0
operator Mission
  level 1
  plot do-all
    Prep 100.0
    Pick 100.0
operator Prep
  level 1
  plot do-all
    assert (ready)@1
operator Pick
  level 1
  plot choose-one
    N 100.0
    S 90.0
    E 80.0
    W 70.0
""" + "".join(f"operator {name}\n  level 1\n  necessary (route {name.lower()})@1\n"
              f"  plot do-all\n    assert (went {name.lower()})@1\n" for name in "NSEW")


def test_a_world_keeps_one_halted_replay_alive():
    # Four worlds that each need their own plan, planned in the order n, s,
    # e, w: the last one replays three library plans, and each replay halts
    # at Pick. Only the best partial replay so far keeps its halted search,
    # so at most one is alive when a replay starts or a search is resumed.
    spec = parse_domain(FOUR_ROUTES)
    evidence = parse_evidence("frame route {n s e w}\n" + "".join(
        f"  {r} -> (route {r})@1\n" for r in "nsew") + "mass route {n}=0.4 {s}=0.3 "
        "{e}=0.2 {w}=0.1\n")
    halted, most = [], Counter()
    replay, resume = uplan.pipeline.reapply_plan, uplan.pipeline.continue_from

    def alive(world):
        gc.collect()
        most[world.id] = max(most[world.id], sum(
            ref() is not None for wid, ref in halted if wid == world.id))

    def recorded_replay(plan, world, spec, **kwargs):
        alive(world)
        result = replay(plan, world, spec, **kwargs)
        if result.search is not None:
            halted.append((world.id, weakref.ref(result.search)))
        return result

    def recorded_resume(result):
        alive(result.search.initial)
        return resume(result)

    uplan.pipeline.reapply_plan = recorded_replay
    uplan.pipeline.continue_from = recorded_resume
    try:
        _, library = plan_superplan(spec, evidence)
    finally:
        uplan.pipeline.reapply_plan, uplan.pipeline.continue_from = replay, resume
    assert [p.execution_sequence[-1].operator for p in library] == ["N", "S", "E", "W"]
    assert len(halted) == 6  # 1 + 2 + 3 partial replays
    assert most == {"s": 1, "e": 1, "w": 1}


def test_held_states_and_peak_memory_stay_linear_in_the_plan_length():
    # A chain of n and of 2n steps: the search that plans it ends holding
    # the same number of states, and the pipeline's peak at most doubles
    # (bound 2.3x); before states were released, both grew with n.
    counts, peaks = [], []
    for per_segment in (30, 60):
        spec, evidence = chain_mission(segments=10, per_segment=per_segment)
        world = rank_pstates(generate_pstates(evidence, spec.compat, spec.n_levels))[0]
        search = Search(world, spec)
        search.run()
        counts.append(held(search))
        tracemalloc.start()
        try:
            plan_superplan(spec, evidence)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert counts[0] == counts[1] == 1
    assert peaks[1] <= 2.3 * peaks[0], peaks
