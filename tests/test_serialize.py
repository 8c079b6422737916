import io
import json
import math
import os
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uplan.model import (
    EvidentialInterval,
    GroundStep,
    KnowledgeAcquisitionOperator,
    SuperPlan,
    SuperPlanAlternative,
    SuperPlanNode,
)
from uplan.serialize import (
    _write,
    dump_superplan,
    dumps_plan,
    dumps_superplan,
    loads_superplan,
    step_from_dict,
    step_to_dict,
    superplan_from_dict,
    superplan_to_dict,
)

from conftest import prop


def weighted_superplan():
    left = SuperPlanNode((GroundStep("x", (("?t", "fighter"),)),))
    root = SuperPlanNode((GroundStep("prelude"),), alternatives=(
        SuperPlanAlternative(left, frozenset({"w1"}), EvidentialInterval(0.6, 1.0)),
        SuperPlanAlternative(None, frozenset({"w2"}), EvidentialInterval(0.0, 0.4)),
    ))
    return SuperPlan(root=root, worlds=(
        ("w1", EvidentialInterval(0.6, 1.0)),
        ("w2", EvidentialInterval(0.0, 0.4)),
    ))


def ka_superplan():
    ka = KnowledgeAcquisitionOperator(
        observe=((2, prop("(type aggressor fighter)")),),
        maps=(("F", 1), ("T", 0)),
    )
    branch = SuperPlanNode(ka=ka, alternatives=(
        SuperPlanAlternative(SuperPlanNode((GroundStep("a"),)), frozenset({"w1"})),
        SuperPlanAlternative(SuperPlanNode((GroundStep("b"),)), frozenset({"w2"})),
    ))
    return SuperPlan(root=branch, worlds=(
        ("w1", EvidentialInterval(0.5, 1.0)),
        ("w2", EvidentialInterval(0.0, 0.5)),
    ))


@pytest.mark.parametrize("sp", [weighted_superplan(), ka_superplan()])
def test_superplan_round_trip(sp):
    assert loads_superplan(dumps_superplan(sp)) == sp


def test_superplan_dump_is_deterministic():
    sp = ka_superplan()
    assert dumps_superplan(sp) == dumps_superplan(sp)


def test_rejects_wrong_format():
    for text in [json.dumps({"format": "something-else"}), "[]", "1", "null", '"x"']:
        with pytest.raises(ValueError, match="not a uplan-superplan/1 document"):
            loads_superplan(text)
    # The right format with a part missing or of the wrong type: the error
    # is a ValueError too, chained from the one that found the fault.
    for doc in [{"format": "uplan-superplan/1"},
                {"format": "uplan-superplan/1", "worlds": [], "root": None},
                {"format": "uplan-superplan/1", "worlds": {}, "root": {"next": None}}]:
        with pytest.raises(ValueError, match="not a uplan-superplan/1 document") as info:
            loads_superplan(json.dumps(doc))
        assert isinstance(info.value.__cause__, (KeyError, AttributeError))


GOLDEN = Path(__file__).parent / "golden" / "air_combat.superplan.json"


def _golden_branch(doc: dict) -> dict:
    return doc["root"]["next"]["branch"]


def _worlds_as_a_string(doc):
    alternative = _golden_branch(doc)["alternatives"][0]
    alternative["worlds"] = alternative["worlds"][0]


def _args_as_a_string(doc):
    _golden_branch(doc)["ka"]["observe"][0]["proposition"]["args"] = "ab"


@pytest.mark.parametrize("damage, message", [
    pytest.param(_worlds_as_a_string, "an alternative's worlds are not a list of strings",
                 id="worlds"),
    pytest.param(_args_as_a_string, "a proposition's args are not a list of strings",
                 id="args"),
])
def test_rejects_a_string_where_a_list_of_strings_belongs(damage, message):
    # Iterating a string gives strings, so without the check the golden's
    # alternative would read as the worlds {'+', '_', 'a', ...} and the
    # proposition's args as ('a', 'b').
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    damage(doc)
    with pytest.raises(ValueError, match=f"not a uplan-superplan/1 document: {message}"):
        loads_superplan(json.dumps(doc))


@pytest.mark.parametrize("index", [7, 2, -1, True, "1"])
def test_rejects_a_ka_outcome_mapped_to_no_alternative(index):
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    branch = _golden_branch(doc)
    assert len(branch["alternatives"]) == 2
    branch["ka"]["maps"]["F"] = index
    with pytest.raises(ValueError, match="not a uplan-superplan/1 document: KA outcome 'F'"):
        loads_superplan(json.dumps(doc))


def _set(path, value):
    """Damage that sets the golden's part at ``path``, a key list from the
    root's first action, to ``value``."""
    def damage(doc):
        part = doc["root"]
        for key in path[:-1]:
            part = part[key]
        part[path[-1]] = value
    return damage


_OBSERVATION = ["next", "branch", "ka", "observe", 0]
_MAPS = ["next", "branch", "ka", "maps"]


@pytest.mark.parametrize("damage, message", [
    pytest.param(_set(_OBSERVATION + ["proposition", "polarity"], "no"),
                 "a proposition's polarity is not a boolean", id="polarity"),
    pytest.param(_set(_OBSERVATION + ["proposition", "predicate"], 7),
                 "a proposition's predicate is not a string", id="predicate"),
    pytest.param(_set(_OBSERVATION + ["level"], "2"),
                 "an observation's level is not an integer", id="level"),
    pytest.param(_set(_OBSERVATION + ["level"], True),
                 "an observation's level is not an integer", id="level-bool"),
    pytest.param(_set(["action", "action"], ["Activate_Radar"]),
                 "a step's action is not a string", id="action"),
    pytest.param(_set(["action", "bindings", "?x"], 1),
                 "a step's binding value is not a string", id="binding"),
    pytest.param(_set(_MAPS, {"T": 0}), "no KA outcome maps to alternative 1",
                 id="unreached"),
    pytest.param(_set(_MAPS, {"T": 0, "F": 1, "TT": 1}),
                 "KA outcome 'TT' is not 1 of 'T' and 'F'", id="long-outcome"),
    pytest.param(_set(_MAPS, {"T": 0, "X": 1}),
                 "KA outcome 'X' is not 1 of 'T' and 'F'", id="letter"),
])
def test_rejects_a_ka_branch_read_as_a_different_superplan(damage, message):
    # Each damaged golden loaded before as a different super-plan: a truthy
    # string as the polarity, a level no domain has, an outcome with no
    # alternative to follow, or an alternative no outcome leads to.
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    damage(doc)
    with pytest.raises(ValueError, match=f"not a uplan-superplan/1 document: {message}"):
        loads_superplan(json.dumps(doc))


def _set_world(value):
    """Damage that sets the golden's first world interval to ``value``."""
    def damage(doc):
        doc["worlds"][min(doc["worlds"])] = value
    return damage


_ALTERNATIVE = ["next", "branch", "alternatives", 0]


@pytest.mark.parametrize("damage, message", [
    pytest.param(_set(["next", "branch", "ka"], None),
                 "alternative 0 of a branch without a KA operator has no weight",
                 id="no-ka-no-weight"),
    pytest.param(_set(_ALTERNATIVE + ["weight"], [0.2, 0.5]),
                 "alternative 0 of a branch with a KA operator has a weight",
                 id="ka-and-weight"),
    pytest.param(_set_world([False, True]),
                 "world 'bomber\\+radar_contact''s interval is not two numbers",
                 id="world-bools"),
    pytest.param(_set(_ALTERNATIVE + ["weight"], [False, True]),
                 "an alternative's weight is not two numbers", id="weight-bools"),
    pytest.param(_set(_ALTERNATIVE + ["worlds"], ["nowhere"]),
                 "an alternative's world 'nowhere' is not one of the document's worlds",
                 id="unlisted-world"),
])
def test_rejects_a_branch_no_executor_can_follow(damage, message):
    # Each damaged golden loaded before: a branch with neither a KA operator
    # nor weights to choose by, or with both; an interval of booleans read
    # as EvidentialInterval(False, True); a world no interval describes.
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    damage(doc)
    with pytest.raises(ValueError, match=f"not a uplan-superplan/1 document: {message}"):
        loads_superplan(json.dumps(doc))


def test_loads_integer_bounds_and_overlapping_world_sets():
    # Integer bounds are JSON numbers, and merge_plans writes alternatives
    # whose world sets overlap when it is given overlapping sets.
    doc = superplan_to_dict(weighted_superplan())
    doc["worlds"]["w1"] = [0, 1]
    alternatives = doc["root"]["next"]["branch"]["alternatives"]
    alternatives[1]["worlds"] = ["w1", "w2"]
    alternatives[1]["weight"] = [0, 1]
    sp = loads_superplan(json.dumps(doc))
    assert dict(sp.worlds)["w1"] == EvidentialInterval(0, 1)
    assert [(alt.worlds, alt.weight) for alt in sp.root.alternatives] == [
        ({"w1"}, EvidentialInterval(0.6, 1.0)), ({"w1", "w2"}, EvidentialInterval(0, 1))]


def test_step_bindings_round_trip():
    step = GroundStep("Fire", (("?target", "bandit-2"), ("?weapon", "aim9")))
    assert step_from_dict(step_to_dict(step)) == step


def test_plan_dump_shape(air_combat_spec, air_combat_worlds):
    from uplan.planner import ReviewPolicy, plan_for_pstate

    plan = plan_for_pstate(air_combat_worlds[0], air_combat_spec,
                           policy=ReviewPolicy(0.0))
    payload = json.loads(dumps_plan(plan))
    assert payload["format"] == "uplan-plan/1"
    assert payload["worlds"] == ["fighter+radar_contact"]
    assert payload["root_values"]["ef"] == pytest.approx(757.35)
    assert [s["action"] for s in payload["execution_sequence"]][:1] == ["Activate_Radar"]


def reference_dumps(value) -> str:
    """The layout uplan's writer reproduces, from the standard library."""
    return json.dumps(value, indent=0, sort_keys=True) + "\n"


_json_text = st.text(max_size=8) | st.sampled_from(
    ["", '"', "\\", "\x00", "\x1f", "\x7f", "\n\t", "é", "\u2028", "\U0001f600"])
_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 40), 10 ** 40)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
    | _json_text
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_json_text, children, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=600, deadline=None)
@given(_json_values)
def test_writer_matches_json_dumps(value):
    assert written(value) == reference_dumps(value)


def written(value) -> str:
    handle = io.StringIO()
    _write(value, handle.write)
    handle.write("\n")
    return handle.getvalue()


def chain_superplan(steps: int) -> SuperPlan:
    run = tuple(GroundStep(f"s{i}", (("?x", f"v{i}"),) if i % 2 else ())
                for i in range(steps))
    return SuperPlan(root=SuperPlanNode(run),
                     worlds=(("w", EvidentialInterval(1.0, 1.0)),))


def test_writer_matches_json_dumps_on_a_900_step_chain():
    sp = chain_superplan(900)
    expected = reference_dumps(superplan_to_dict(sp))
    assert dumps_superplan(sp) == expected
    handle = io.StringIO()
    dump_superplan(sp, handle)
    assert handle.getvalue() == expected


@pytest.mark.parametrize("branch", [False, True])
def test_a_run_longer_than_the_recursion_limit_converts_both_ways(branch):
    # Only the conversion is checked: the v1 text nests once per step, and
    # writing or parsing it recurses once per nesting level.
    sp = chain_superplan(sys.getrecursionlimit() + 4000)
    run = sp.root.steps
    if branch:
        sp = ka_superplan()
        sp = replace(sp, root=replace(sp.root, steps=run))
    assert superplan_from_dict(superplan_to_dict(sp)) == sp
    assert sp.paths() == ([run + (GroundStep("a"),), run + (GroundStep("b"),)]
                          if branch else [run])
    assert [node.steps for node in sp.branch_points()] == ([run] if branch else [])


def test_text_grows_linearly_in_the_plan():
    # A deterministic size budget: doubling a chain about doubles its text,
    # though v1 nests once per step. Indented text would grow 3.9-fold here.
    assert len(dumps_superplan(chain_superplan(800))) <= \
        2.1 * len(dumps_superplan(chain_superplan(400)))


def test_streaming_holds_memory_linear_in_the_plan():
    # The chain nests 900 deep, and each step binds a value of 4,000
    # characters, so the text outweighs the converted plan and the writer's
    # recursion (whose frames tracemalloc counts on Python 3.10); converting
    # and streaming it must not hold the text.
    run = tuple(GroundStep(f"s{i}", (("?x", f"{i:04d}" * 1000),)) for i in range(900))
    sp = SuperPlan(root=SuperPlanNode(run), worlds=(("w", EvidentialInterval(1.0, 1.0)),))
    length = len(dumps_superplan(sp))
    with open(os.devnull, "w", encoding="utf-8") as handle:
        tracemalloc.start()
        try:
            dump_superplan(sp, handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < length / 2
