import bisect
import math
import re
import sys
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from uplan import dsl
from uplan.dsl import (
    MAX_ERRORS,
    MAX_PROP_DEPTH,
    ParseError,
    _Parser,
    _number,
    _where,
    format_domain,
    format_evidence,
    lint_domain,
    parse_domain,
    parse_evidence,
)
from uplan.errors import ParseFailure
from uplan.model import PLANFAIL_REJECT_BRANCH, patterns_unify


EXPECTED_OPERATORS = {
    "Attack", "Turn_Away", "BVR_Attack", "VR_Attack", "Close_In", "Side",
    "Set_Bearing", "Acquire_Target", "Fire_Ready", "Visual_Lock", "Radar_Lock",
}


def errors_of(text, parser=parse_domain):
    with pytest.raises(ParseFailure) as info:
        parser(text)
    return info.value.errors


def test_bundled_domain_parses(air_combat_spec):
    names = {op.name for op in air_combat_spec.operators}
    assert EXPECTED_OPERATORS <= names
    assert air_combat_spec.goal == "Defend_Airspace"
    assert air_combat_spec.n_levels == 3


def test_empty_file_missing_goal():
    messages = [e.message for e in errors_of("")]
    assert any("missing goal declaration" in m for m in messages)
    assert any("missing levels declaration" in m for m in messages)


def test_errors_at_the_end_follow_a_trailing_comment():
    # With or without a newline after the last line's comment, the end of
    # the text is where the missing goal is reported.
    for text, where in (("levels 1 ; trailing note", (1, 25)),
                        ("levels 1 ; trailing note\n", (2, 1))):
        [error] = errors_of(text)
        assert ((error.line, error.column), error.message) == \
            (where, "missing goal declaration")


def test_unresolved_subgoal_named_with_location():
    text = """
levels 1
goal Root 100.0
operator Root
  level 1
  plot do-all
    Warp 10.0
  probability
    default 1.0
  planfail backtrack
"""
    errors = [e for e in errors_of(text) if "Warp" in e.message]
    assert errors
    assert errors[0].line > 1 and errors[0].column >= 1


def test_duplicate_operator_name():
    text = """
levels 1
goal A 1.0
operator A
  level 1
  probability
    default 1.0
operator A
  level 1
  probability
    default 1.0
"""
    assert any("duplicate operator" in e.message for e in errors_of(text))


def test_probability_outside_unit_interval():
    text = """
levels 1
goal A 1.0
operator A
  level 1
  probability
    default 1.5
"""
    assert any("outside [0, 1]" in e.message for e in errors_of(text))


def test_missing_probability_default():
    text = """
levels 1
goal A 1.0
operator A
  level 1
  probability
    when (x) => 0.5
"""
    assert any("must end with a default" in e.message for e in errors_of(text))


def test_goal_must_be_level_one():
    text = """
levels 2
goal A 1.0
operator A
  level 2
  probability
    default 1.0
"""
    assert any("abstraction level 1" in e.message for e in errors_of(text))


def test_levels_declared_last_still_bound_every_statement():
    # Statements read before the levels declaration are checked once it is
    # read, and each error sits at its statement.
    text = ("goal Do 100.0\noperator Do\n  level 1\n  plot do-all\n    assert (done)@3\n"
            "rule r when (done) then assert (x)@4\nlevels 2\n")
    assert [(e.line, e.column, e.message) for e in errors_of(text)] == [
        (2, 10, "operator 'Do' uses level 3, outside 1..2"),
        (6, 6, "rule r uses level 4, outside 1..2")]


def test_evidence_levels_outside_the_domain_are_reported_at_their_mapping():
    # Once per mapping, at its element; without the level count the
    # evidence parses, and world generation checks the levels.
    text = "frame f {a b}\n  a -> (x)@1\n  b -> (y)@0 (z)@9\n  a -> (w)@3\n"
    assert [(e.line, e.column, e.message) for e in errors_of(
        text, lambda t: parse_evidence(t, "e", n_levels=2))] == [
        (3, 3, "frame 'f' maps element 'b' to level 0, outside 1..2"),
        (4, 3, "frame 'f' maps element 'a' to level 3, outside 1..2")]
    assert [f.name for f in parse_evidence(text).frames] == ["f"]


def test_evidence_mapping_a_fact_and_its_negation_is_reported_at_the_element():
    # A level holding both reads as if neither held. Once per mapping, at its
    # element, also when the two come from different lines of one element.
    text = ("frame f {a b c}\n  a -> (r)@1 (not (r))@1 (not (s))@1 (s)@1\n"
            "  b -> (r)@1 (not (r))@2\n  c -> (not (q x))@2\n  b -> (q x)@2\n"
            "  c -> (q x)@2 (r)@1\n")
    assert [(e.line, e.column, e.message) for e in errors_of(
        text, lambda t: parse_evidence(t, "e"))] == [
        (2, 3, "frame 'f' maps element 'a' to both (r)@1 and (not (r))@1"),
        (6, 3, "frame 'f' maps element 'c' to both (not (q x))@2 and (q x)@2")]
    # A level outside the domain is the one error of its mapping.
    assert [e.message for e in errors_of("frame f {a}\n  a -> (r)@3 (not (r))@3\n",
                                         lambda t: parse_evidence(t, "e", n_levels=2))] == [
        "frame 'f' maps element 'a' to level 3, outside 1..2"]


@pytest.mark.parametrize("text, parser, message", [
    # Rejected by its constructor, referenced by a plot and a recovery.
    ("levels 1\ngoal A 1.0\noperator A\n  level 1\n  plot do-all\n    B 1.0\n"
     "  planfail recover B\noperator B\n  level 1\n  probability\n    when (x) => 0.5\n",
     parse_domain, "operator 'B': probability table must end with a default"),
    # Missing its level, referenced by the goal.
    ("levels 1\ngoal A 1.0\noperator A\n  probability\n    default 1.0\n",
     parse_domain, "operator 'A' is missing its abstraction level"),
    ("frame t {a a}\nmass t {a}=1.0\n", parse_evidence, "frame 't' repeats an element"),
    ("frame t a b\nmass t {a}=1.0\n", parse_evidence, "expected '{' opening frame elements"),
    # A rule its constructor owns, reported by the constructor alone.
    ("frame t {a}\nmass t {}=0.5 {a}=0.5\n", parse_evidence, "mass assigned to the empty set"),
    ("frame t {a}\nmass t {a}=0.5 {a}=0.5\n", parse_evidence, "duplicate mass subset ['a']"),
    # A level suffix rejected, so no second error says it is missing.
    ("levels 1\ngoal A\ncompat (p)@1.5 => (q)@1\noperator A level 1\n", parse_domain,
     "level index after '@' must be an integer"),
    ("levels 1\ngoal A\nrule when (p) then assert (q)@x\noperator A level 1\n", parse_domain,
     "expected level index after '@'"),
    ("frame t {a}\n  a -> (p)@nan\nmass t {a}=1.0\n", parse_evidence,
     "level index after '@' must be an integer"),
    # An unclosed proposition under a negation, so no second error says the
    # negation is unclosed too.
    ("levels 1\ngoal A\noperator A level 1 necessary (not (p q@1)\n", parse_domain,
     "expected ')' closing proposition"),
], ids=["operator", "operator-without-level", "frame", "frame-without-brace", "empty-mass-subset",
        "repeated-mass-subset", "compat-level", "rule-level", "mapping-level",
        "negated-proposition"])
def test_a_rejected_statement_is_reported_once(text, parser, message):
    # The statement's name stays declared, so references to it add no error.
    assert [e.message for e in errors_of(text, parser)] == [message]


def test_error_recovery_reports_multiple_errors():
    text = """
levels 0
goal Nowhere 1.0
operator A
  level 7
  probability
    default 2.0
"""
    errors = errors_of(text)
    assert len(errors) >= 3


def test_parse_evidence_direct_transcription():
    ev = parse_evidence("frame type {fighter bomber} "
                        "mass type {fighter}=0.6 {fighter bomber}=0.4")
    assert [f.name for f in ev.frames] == ["type"]
    assert ev.frames[0].elements == ("fighter", "bomber")
    masses = dict(ev.masses[0].masses)
    assert masses[frozenset({"fighter"})] == pytest.approx(0.6)
    assert masses[frozenset({"fighter", "bomber"})] == pytest.approx(0.4)


def test_parse_evidence_bad_sum():
    errors = errors_of("frame t {a b} mass t {a}=0.5 {b}=0.4", parse_evidence)
    assert any("masses sum to 0.9" in e.message for e in errors)


def test_parse_evidence_mass_autonormalizes_within_tolerance():
    ev = parse_evidence("frame t {a b} mass t {a}=0.5000001 {b}=0.4999999")
    masses = dict(ev.masses[0].masses)
    assert sum(masses.values()) == pytest.approx(1.0, abs=1e-9)


def test_parse_evidence_unknown_element():
    errors = errors_of("frame t {a b} mass t {tanker}=1.0", parse_evidence)
    assert any("tanker" in e.message for e in errors)


def test_lint_self_triggering_rule():
    text = """
levels 1
goal A 1.0
rule loop when (x) then assert (x)@1
operator A
  level 1
  probability
    default 1.0
"""
    spec = parse_domain(text)
    diags = lint_domain(spec)
    assert any(d.severity == "error" and "stratifiable" in d.message for d in diags)


def test_lint_repeated_variable_trigger_is_stratified():
    # (q a b) cannot trigger (q ?y ?y); (q a a) can.
    text = """
levels 1
goal G
rule R when (q ?y ?y) then assert (q a {})@1
operator G level 1 plot do-all assert (q c c)@1
"""
    def stratified(effect):
        diags = lint_domain(parse_domain(text.format(effect)))
        return not any("stratifiable" in d.message for d in diags)

    assert stratified("b")
    assert not stratified("a")


def _rule_domain(rules):
    return "levels 1\ngoal G\n" + "".join(rules) + "operator G level 1 plot do-all assert (g)@1\n"


def _stratification_errors(text):
    return [d.message for d in lint_domain(parse_domain(text)) if "stratifiable" in d.message]


def test_lint_long_trigger_chain_is_stratified():
    # The check once recursed per rule along a chain and hit the recursion limit.
    chain = [f"rule r{i} when (p{i}) then assert (p{i + 1})@1\n" for i in range(1500)]
    assert _stratification_errors(_rule_domain(chain)) == []


def test_lint_long_trigger_ring_is_not_stratifiable():
    ring = [f"rule r{i} when (p{i}) then assert (p{(i + 1) % 1500})@1\n" for i in range(1500)]
    assert _stratification_errors(_rule_domain(ring)) == [
        "causal rules are not stratifiable: r0 can re-trigger itself"]


def test_lint_names_a_rule_on_the_cycle():
    # r0 triggers r1, but only r1 and r2 re-trigger each other.
    rules = ["rule r0 when (a) then assert (b)@1\n", "rule r1 when (b) then assert (c)@1\n",
             "rule r2 when (c) then assert (b)@1\n"]
    assert _stratification_errors(_rule_domain(rules)) == [
        "causal rules are not stratifiable: r1 can re-trigger itself"]


def reference_unstratified_rule(rules):
    """The stratification check as it was: every pair of rules compared,
    and a recursive depth-first search. The label of the rule its first
    back edge reaches, or None."""
    edges = {i: set() for i in range(len(rules))}
    for i, ri in enumerate(rules):
        for op, p, _level in ri.effects:
            change = p if op == "assert" else p.negated()
            for j, rj in enumerate(rules):
                if patterns_unify(change, rj.trigger):
                    edges[i].add(j)
    state = {}

    def cycle_from(i):
        state[i] = 0
        for j in edges[i]:
            if state.get(j) == 0:
                return j
            if j not in state and (k := cycle_from(j)) is not None:
                return k
        state[i] = 1
        return None

    for i in range(len(rules)):
        if i not in state and (j := cycle_from(i)) is not None:
            return rules[j].name
    return None


@st.composite
def rule_sets(draw):
    """Up to 12 named rules over a small vocabulary, so that triggers and
    effects unify often, through variables, constants and both polarities.
    An effect uses ``?x`` only when its trigger binds it."""
    ground_args = ["", " a"]
    variable_args = [" ?x", " a ?x", " ?x ?x"]

    def atom(args):
        return st.builds("({}{})".format, st.sampled_from("pq"), st.sampled_from(args))

    def literal(args):
        return st.builds(lambda text, negate: f"(not {text})" if negate else text,
                         atom(args), st.booleans())
    rules = []
    for i in range(draw(st.integers(0, 12))):
        trigger = draw(atom(ground_args + variable_args))
        effect_args = ground_args + (variable_args if "?x" in trigger else [])
        trigger = draw(st.sampled_from(["", "retract "])) + trigger
        effects = " ".join(f"{draw(st.sampled_from(['assert', 'retract']))} "
                           f"{draw(literal(effect_args))}@1"
                           for _ in range(draw(st.integers(1, 2))))
        rules.append(f"rule r{i} when {trigger} then {effects}\n")
    return rules


@settings(max_examples=300, deadline=None)
@given(rule_sets())
def test_lint_stratification_matches_reference(rules):
    spec = parse_domain(_rule_domain(rules))
    label = reference_unstratified_rule(spec.causal_rules)
    expected = [] if label is None else [
        f"causal rules are not stratifiable: {label} can re-trigger itself"]
    assert _stratification_errors(_rule_domain(rules)) == expected


def test_achievers_and_helper_reachability():
    text = """
levels 2
goal Goal 1.0
operator Goal
  level 1
  plot do-all
    Main 1.0
  probability
    default 1.0
operator Main
  level 2
  satisfiable (at ?x)@2
  probability
    default 1.0
operator Same
  level 2
  probability
    default 1.0
  postconditions (at a)@2
operator Abstract
  level 1
  probability
    default 1.0
  postconditions (at a)@2
operator OtherLevel
  level 2
  probability
    default 1.0
  postconditions (at a)@1
operator Clash
  level 2
  probability
    default 1.0
  postconditions (on a)@2
"""
    spec = parse_domain(text)
    target = spec.operator("Main").satisfiable[0][0]
    assert [op.name for op in spec.achievers(target, 2, 2)] == ["Same"]
    assert [op.name for op in spec.achievers(target, 2, 1)] == ["Same", "Abstract"]
    unreachable = {d.message.split("'")[1] for d in lint_domain(spec)
                   if "unreachable" in d.message}
    assert unreachable == {"Abstract", "OtherLevel", "Clash"}


def test_lint_unreachable_operator_warning():
    text = """
levels 1
goal A 1.0
operator A
  level 1
  probability
    default 1.0
operator Orphan
  level 1
  probability
    default 1.0
"""
    diags = lint_domain(parse_domain(text))
    assert any(d.severity == "warning" and "Orphan" in d.message for d in diags)


def test_lint_single_entry_choose_one_warning():
    text = """
levels 2
goal A 1.0
operator A
  level 1
  plot choose-one
    B 10.0
  probability
    default 1.0
operator B
  level 2
  probability
    default 1.0
"""
    diags = lint_domain(parse_domain(text))
    assert any(d.severity == "warning" and "single entry" in d.message for d in diags)


def test_lint_edits_above_lowest_level():
    text = """
levels 2
goal A 1.0
operator A
  level 1
  plot do-all
    assert (x)@1
  probability
    default 1.0
"""
    diags = lint_domain(parse_domain(text))
    assert any(d.severity == "error" and "lowest abstraction" in d.message
               for d in diags)


_ONE_OP = "levels 1\ngoal A 1.0\noperator A\n  level 1\n  plot do-all\n    assert (x)@1\n"


@pytest.mark.parametrize("text, parser, where, message", [
    (_ONE_OP + "goal A 2.0\n", parse_domain, "7:6", "duplicate goal declaration"),
    (_ONE_OP + "  planfail recover Nowhere\n", parse_domain, "7:12",
     "planfail of 'A' names undeclared operator 'Nowhere'"),
    (_ONE_OP + "  probability\n    default 0.5\n    when (y)@1 => 0.2\n", parse_domain,
     "9:5", "probability 'when' clause after 'default'"),
    ("frame f {a}\nmass g {a}=1.0\n", parse_evidence, "2:6",
     "mass references undeclared frame 'g'"),
], ids=["duplicate-goal", "undeclared-recovery", "when-after-default", "undeclared-frame"])
def test_declaration_errors_at_their_place(text, parser, where, message):
    assert [(f"{e.line}:{e.column}", e.message) for e in errors_of(text, parser)] == [
        (where, message)]


def test_planfail_reject_branch_parses():
    spec = parse_domain(_ONE_OP + "  planfail reject-branch\n")
    assert spec.operator("A").planfail == PLANFAIL_REJECT_BRANCH


@pytest.mark.parametrize("plot, message", [
    ("do-all\n    B 1.0\n    assert (x)@1\noperator B\n  level 1\n  plot do-all\n"
     "    assert (y)@1", "operator 'A' mixes subgoals and state edits in one plot"),
    ("choose-one\n    assert (x)@1\n    retract (y)@1",
     "operator 'A' has state edits in a choose-one plot"),
], ids=["mixed", "choose-one-edits"])
def test_lint_plot_shape_errors(plot, message):
    text = f"levels 1\ngoal A 1.0\noperator A\n  level 1\n  plot {plot}\n"
    assert [str(d) for d in lint_domain(parse_domain(text))] == [f"error: {message}"]


def test_lint_plot_referencing_a_more_abstract_level():
    text = """
levels 2
goal A 1.0
operator A
  level 1
  plot do-all
    B 1.0
operator B
  level 2
  plot do-all
    C 1.0
operator C
  level 1
  plot do-all
    D 1.0
operator D
  level 2
  plot do-all
    assert (y)@2
"""
    assert [str(d) for d in lint_domain(parse_domain(text))] == [
        "error: plot of 'B' (level 2) references 'C' at the more abstract level 1"]


@pytest.mark.parametrize("planfail, findings", [
    ("recover R", []),
    ("backtrack", ["warning: operator 'R' is unreachable from the goal"]),
])
def test_lint_a_recovery_target_is_reachable(planfail, findings):
    text = (_ONE_OP + f"  planfail {planfail}\n"
            "operator R\n  level 1\n  plot do-all\n    assert (y)@1\n")
    assert [str(d) for d in lint_domain(parse_domain(text))] == findings


def test_an_over_deep_negation_is_one_error():
    deep = "(not " * (MAX_PROP_DEPTH + 1) + "(p)" + ")" * (MAX_PROP_DEPTH + 1)
    unclosed = "(not " * (MAX_PROP_DEPTH + 1) + "(p)"
    for prop in (deep, unclosed):
        assert [e.message for e in errors_of(_ONE_OP + f"  necessary {prop}@1\n")] == [
            "proposition nested too deeply"]
        assert [e.message for e in errors_of(f"frame f {{a}}\n  a -> {prop}@1\n",
                                             parse_evidence)] == [
            "proposition nested too deeply"]
    # The statements after it are still read: one error for each mistake.
    assert [e.message for e in errors_of(
        _ONE_OP + f"  necessary {deep}@1 (q)@x\noperator B\n  level y\n")] == [
        "proposition nested too deeply", "expected level index after '@'",
        "expected abstraction level"]
    # The deepest negation the parser accepts.
    ok = "(not " * MAX_PROP_DEPTH + "(p)" + ")" * MAX_PROP_DEPTH
    assert parse_domain(_ONE_OP + f"  necessary {ok}@1\n").operator("A").necessary


def test_an_unclosed_negation_is_one_error_at_the_next_token():
    text = ("levels 1\ngoal A 1.0\noperator A\n  level 1\n  necessary (not (p) @1\n"
            "  plot do-all\n    assert (x)@1\n")
    with pytest.raises(ParseFailure) as info:
        parse_domain(text, "d")
    assert [str(e) for e in info.value.errors] == ["d:5:22: expected ')' closing (not ...)"]
    assert info.value.errors[0].token == "@"


def test_a_frame_element_may_not_contain_plus():
    # World ids join elements with '+': "a+b" of f with "c" of g and "a" of f
    # with "b+c" of g would both be "a+b+c".
    text = ("frame f {a+b a}\n  a+b -> (p)@1\nmass f {a+b}=0.5 {a}=0.5\n"
            "frame g {c b+c}\n  c -> (q)@1\nmass g {c}=0.5 {b+c}=0.5\n")
    assert [(e.line, e.column, e.message) for e in errors_of(text, parse_evidence)] == [
        (1, 7, "frame 'f': element 'a+b' contains '+', which joins the elements of "
               "a world's id"),
        (4, 7, "frame 'g': element 'b+c' contains '+', which joins the elements of "
               "a world's id")]


def test_lint_bundled_domain_clean(air_combat_spec):
    assert lint_domain(air_combat_spec) == []


def test_round_trip_bundled_domain(air_combat_domain_text, air_combat_spec):
    printed = format_domain(air_combat_spec)
    assert parse_domain(printed) == air_combat_spec


def test_round_trip_bundled_evidence(air_combat_evidence_text, air_combat_evidence):
    printed = format_evidence(air_combat_evidence)
    assert parse_evidence(printed) == air_combat_evidence


def test_round_trip_survives_negations_and_variables():
    text = """
levels 2
goal A 500.0
compat (seen ?x)@1 => (known ?x)@2
rule r1 when retract (lock ?t) if (armed)@2 then assert (alert)@2 retract (calm)@2
operator A
  level 1
  necessary (not (jammed))@1 (seen ?x)@1
  satisfiable (known ?x)@2
  plot choose-one
    B 250.0
    C 125.0
  probability
    when (not (cloudy))@1 => 0.25
    default 0.75
  postconditions (handled ?x)@2
  planfail recover C
operator B
  level 2
  plot do-all
    assert (handled thing)@2
  probability
    default 1.0
  postconditions (handled thing)@2
operator C
  level 2
  plot do-all
    assert (handled thing)@2
  probability
    default 0.5
"""
    spec = parse_domain(text)
    assert parse_domain(format_domain(spec)) == spec


def test_parser_survives_binary_garbage():
    noise = bytes(range(256)).decode("latin-1") * 3
    with pytest.raises(ParseFailure):
        parse_domain(noise)


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=200))
def test_parser_never_crashes(data):
    text = data.decode("latin-1")
    for parser in (parse_domain, parse_evidence):
        try:
            parser(text)
        except ParseFailure:
            pass


@settings(max_examples=200, deadline=None)
@given(st.text(
    alphabet=st.sampled_from(list("operator levl gal plot(){}@=>;?\n\t 0.5 -")),
    max_size=120,
))
def test_parser_never_crashes_on_token_soup(text):
    for parser in (parse_domain, parse_evidence):
        try:
            parser(text)
        except ParseFailure:
            pass


# --- non-finite and out-of-range numbers ------------------------------------

_VALID_DOMAIN = """
levels 2
goal A 1.0
review rho 0.1
coverage 0.5 0.5
operator A
  level 1
  necessary (x)@1
  plot do-all
    B 10.0
operator B
  level 2
  probability
    when (x)@1 => 0.5
    default 0.9
"""


@pytest.mark.parametrize("old, new, message", [
    ("levels 2", "levels inf", "level count after 'levels' must be an integer"),
    ("levels 2", "levels 1e400", "level count after 'levels' must be an integer"),
    ("levels 2", "levels 0", "level count must be >= 1"),
    ("level 1", "level nan", "abstraction level must be an integer"),
    ("level 1", "level 1.5", "abstraction level must be an integer"),
    ("(x)@1", "(x)@inf", "level index after '@' must be an integer"),
    ("rho 0.1", "rho nan", "review rho must be >= 0"),
    ("rho 0.1", "rho -1", "review rho must be >= 0"),
    ("goal A 1.0", "goal A nan", "goal fulfilment must be >= 0"),
    ("B 10.0", "B nan", "fulfilment must be >= 0"),
    ("B 10.0", "B -1", "fulfilment must be >= 0"),
    ("coverage 0.5 0.5", "coverage 5 5", "coverage thresholds must lie in [0, 1]"),
    ("coverage 0.5 0.5", "coverage nan nan", "coverage thresholds must lie in [0, 1]"),
    ("coverage 0.5 0.5", "coverage 0.5 -0.1", "coverage thresholds must lie in [0, 1]"),
    ("=> 0.5", "=> 1.5", "probability 1.5 outside [0, 1]"),
    ("default 0.9", "default 1.5", "probability 1.5 outside [0, 1]"),
    ("default 0.9", "default nan", "probability nan outside [0, 1]"),
])
def test_bad_numbers_are_parse_errors(old, new, message):
    parse_domain(_VALID_DOMAIN)  # so the replaced number is the only fault
    assert old in _VALID_DOMAIN
    text = _VALID_DOMAIN.replace(old, new, 1)
    # Once, at the first number the edit changed; the statement is dropped
    # whole, so nothing that refers to it adds an error.
    value = next(m for m, word in zip(re.finditer(r"[^\s@]+", new), re.findall(r"[^\s@]+", old))
                 if m.group() != word)
    at = _VALID_DOMAIN.index(old) + value.start()
    assert [(e.line, e.column, e.message) for e in errors_of(text)] == \
        [(*_where(text, at), message)]


@pytest.mark.parametrize("text, parser, where, message", [
    (_VALID_DOMAIN + "levels 3\n", parse_domain, (16, 8), "duplicate levels declaration"),
    (_VALID_DOMAIN + "operator A\n  level 1\n", parse_domain, (16, 10),
     "duplicate operator name 'A'"),
    ("frame t {a}\nframe t {b}\n", parse_evidence, (2, 7), "duplicate frame 't'"),
], ids=["levels", "operator", "frame"])
def test_a_repeat_is_reported_once_at_its_name_or_number(text, parser, where, message):
    assert [((e.line, e.column), e.message) for e in errors_of(text, parser)] == \
        [(where, message)]


# --- the lexer against the character-loop tokenizer it replaced --------------

_SPECIALS = "(){}@="
_IDENT_EXTRA = "_-?.+/'*<!&%$#~^|\\"


@dataclass(frozen=True)
class _Token:
    kind: str  # lparen rparen lbrace rbrace at equals arrow darrow ident number eof
    text: str
    value: float | None
    line: int
    column: int


def reference_tokenize(text: str, filename: str, errors: list) -> list:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    bad_run_start = None

    def flush_bad(end_line, end_col):
        nonlocal bad_run_start
        if bad_run_start and len(errors) < MAX_ERRORS:
            errors.append(ParseError(filename, bad_run_start[0], bad_run_start[1],
                                     "unexpected characters", bad_run_start[2]))
        bad_run_start = None

    while i < n:
        c = text[i]
        if c == "\n":
            flush_bad(line, col)
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            flush_bad(line, col)
            i += 1
            col += 1
            continue
        if c == ";":
            flush_bad(line, col)
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("=>", i):
            flush_bad(line, col)
            tokens.append(_Token("darrow", "=>", None, line, col))
            i += 2
            col += 2
            continue
        if text.startswith("->", i):
            flush_bad(line, col)
            tokens.append(_Token("arrow", "->", None, line, col))
            i += 2
            col += 2
            continue
        if c in _SPECIALS:
            flush_bad(line, col)
            kind = {"(": "lparen", ")": "rparen", "{": "lbrace",
                    "}": "rbrace", "@": "at", "=": "equals"}[c]
            tokens.append(_Token(kind, c, None, line, col))
            i += 1
            col += 1
            continue
        if c.isalnum() or c in _IDENT_EXTRA:
            flush_bad(line, col)
            start, start_col = i, col
            while i < n:
                ch = text[i]
                if not (ch.isalnum() or ch in _IDENT_EXTRA):
                    break
                if ch == "-" and text.startswith("->", i):
                    break
                i += 1
                col += 1
            word = text[start:i]
            try:
                value = float(word)
                tokens.append(_Token("number", word, value, line, start_col))
            except ValueError:
                tokens.append(_Token("ident", word, None, line, start_col))
            continue
        # Unclassifiable character: fold runs into a single diagnostic.
        if bad_run_start is None:
            bad_run_start = (line, col, c)
        i += 1
        col += 1
    flush_bad(line, col)
    # The end of the text, even after a comment with no newline after it.
    tokens.append(_Token("eof", "", None, text.count("\n") + 1,
                         len(text) - text.rfind("\n")))
    return tokens


_LEX_PIECES = [
    "operator", "levels", "goal", "plot", "when", "frame", "mass", "not",
    "(", ")", "{", "}", "@", "=", "->", "=>", "-", ">", ";", "; note", "; -> x",
    " ", "\n", "\t", "\r", "\x0b", "\x1c", "\x85",
    "é", "²", "٣", "[", '"', "\x00",
    "1e3", "inf", "nan", "1_000", ".5", "-2", "?x", "a", "Z_9", "'", "\\",
    # Every way a word can reach float(): other cases of inf and nan, signs,
    # exponents and non-ASCII decimal digits; and words that come close.
    "Infinity", "INF", "NaN", "+inf", "-nan", "1E5", "١٢", "१",
    "e5", "0x1", "_1", "n1",
]


def _same_value(a, b):
    return a == b or (a is not None and b is not None and math.isnan(a) and math.isnan(b))


# The reference tokenizer's kind of each token that is not a word.
_KINDS = {"=>": "darrow", "->": "arrow", "(": "lparen", ")": "rparen",
          "{": "lbrace", "}": "rbrace", "@": "at", "=": "equals", "": "eof"}


def _lexed(text: str) -> tuple:
    """The tokens the parser walks, as the reference gives them: (kind, text,
    value, (line, column)), ident and number split by ``_number``; and the
    errors of tokenizing."""
    p = _Parser(text, "f")
    # Two eof tokens end the list, so that ``token(1)`` needs no bounds check.
    assert p.texts[-2:] == ["", ""]
    # The offset of each line's start: ``_where`` counts from the start of
    # the text, which is quadratic over a long one.
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    tokens = []
    for i, word in enumerate(p.texts[:-1]):
        kind = _KINDS.get(word, "word")
        value = _number(word) if kind == "word" else None
        if kind == "word":
            kind = "ident" if value is None else "number"
        line = bisect.bisect_right(line_starts, p.offset(i))
        tokens.append((kind, word, value, (line, p.offset(i) - line_starts[line - 1] + 1)))
    return tokens, p.errors


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join))
def test_tokenizer_matches_reference(text):
    tokens, errors = _lexed(text)
    ref_errors = []
    expected = reference_tokenize(text, "f", ref_errors)
    assert errors == ref_errors
    assert [t[:2] for t in tokens] == [(t.kind, t.text) for t in expected]
    for (_, _, value, where), ref in zip(tokens, expected):
        assert _same_value(value, ref.value)
        assert where == (ref.line, ref.column)


def test_tokenizer_error_cap_matches_reference():
    text = "a [ " * (MAX_ERRORS + 10) + "; end"
    tokens, errors = _lexed(text)
    ref_errors = []
    expected = reference_tokenize(text, "f", ref_errors)
    assert len(errors) == MAX_ERRORS and errors == ref_errors
    assert [t[1:] for t in tokens] == [(t.text, t.value, (t.line, t.column)) for t in expected]
    # At the cap, a parse adds no error of its own.
    with pytest.raises(ParseFailure) as info:
        parse_domain(text, "f")
    assert info.value.errors == ref_errors


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join))
def test_tokenizer_matches_reference_in_one_line_slices(text):
    # Every line is a slice of its own, so every newline is a cut.
    with mock.patch.object(dsl, "_SLICE_CHARS", 1):
        test_tokenizer_matches_reference.hypothesis.inner_test(text)


def _text_with_features_at_cuts(bad: str) -> tuple:
    """A text of several slices, each of which starts with one feature of
    the lexer and ends with another, whose line holds the slice's
    ``_SLICE_CHARS``-th character; and the offsets of the cuts. ``bad``
    stands where a bad run may."""
    size = dsl._SLICE_CHARS
    starts = ["", "->b ; c", "\r\x85\r a", f"{bad} a-", "(x)->y"]
    ends = ["; note -> (x\n", "a->b\n", f"a {bad}\n", "x\r\x85\r\n", "y z\n"]
    text, cuts = "", []
    for start, end in zip(starts, ends):
        # The pad's newlines come before the slice's ``size``-th character,
        # so the cut is the one after ``end``.
        pad = ("w x\n" * size)[:size - len(start) - len(end) // 2 - 1] + " "
        text += start + pad + end
        cuts.append(len(text))
    # A blank line after the last cut, and one that ends the text.
    return text + "\nlast (z)\n\n", cuts


# A text without a bad run is tokenized by the slices alone; one with a bad
# run is tokenized again in one pass, which reports the runs.
@pytest.mark.parametrize("bad", ["b", "["])
def test_tokenizer_matches_reference_at_slice_cuts(bad):
    text, cuts = _text_with_features_at_cuts(bad)
    size = dsl._SLICE_CHARS
    for start, cut in zip([0] + cuts, cuts):
        assert text.find("\n", start + size - 1) + 1 == cut
    for slice_chars in (size, 1):
        with mock.patch.object(dsl, "_SLICE_CHARS", slice_chars):
            tokens, errors = _lexed(text)
        ref_errors = []
        expected = reference_tokenize(text, "f", ref_errors)
        assert errors == ref_errors and len(errors) == 2 * (bad == "[")
        assert [(t[0], t[1], t[3]) for t in tokens] == \
            [(t.kind, t.text, (t.line, t.column)) for t in expected]


def test_statements_past_the_error_cap_are_still_dropped():
    # An error past the cap is not kept but still drops its statement, so no
    # operator is built from the rejected default.
    text = ("[ " * MAX_ERRORS + "levels 1\ngoal A\n"
            "operator A level 1 probability when (p) => 0.5 default 1.5\n")
    assert len(errors_of(text)) == MAX_ERRORS


@pytest.mark.parametrize("kind, parser", [("domain", parse_domain),
                                          ("evidence", parse_evidence)])
def test_truncated_fixtures_parse_or_fail_cleanly(request, kind, parser):
    # Cut at every token boundary, so that the text can end anywhere a
    # look-ahead or a consumed token is expected.
    text = request.getfixturevalue(f"air_combat_{kind}_text")
    p = _Parser(text, "f")
    cuts = set()
    for i, word in enumerate(p.texts):
        cuts |= {p.offset(i), p.offset(i) + len(word)}
    for cut in sorted(cuts):
        try:
            parser(text[:cut])
        except ParseFailure:
            pass


def test_cursor_stays_at_eof():
    # No parse path is known to reach these today; the cursor's contract
    # keeps a new one from raising IndexError.
    for text in ("", "frame f", "levels 1 ; note", "levels 1 ;\n\t"):
        p = _Parser(text, "f")
        for _ in range(len(p.texts) + 2):
            p.advance()
        assert p.token() == p.token(1) == ""
        assert p.offset(p.pos) == p.offset(p.pos + 1) == len(text)


def _tree_domain(depth: int = 7, width: int = 3) -> str:
    """A domain shaped like the benchmark's deep hierarchy: choose-one and
    do-all operators alternate down to leaves that edit the state; width 3
    and depth 7 give 1093 operators."""
    lines = ["levels 3", "goal Root 1000.0", ""]
    frontier = [("Root", 1)]
    while frontier:
        name, d = frontier.pop()
        lines += [f"operator {name}", f"  level {min(d, 3)}"]
        if d == depth:
            lines += [f"  necessary (site ?s {name.lower()})@3",
                      "  plot do-all", f"    assert (done {name})@3",
                      "  probability", "    when (hazard h1)@2 => 0.7", "    default 0.98",
                      f"  postconditions (done {name})@3"]
        else:
            children = [f"{name}_{i}" for i in range(width)]
            lines.append("  plot " + ("choose-one" if d % 2 else "do-all"))
            lines += [f"    {child} {1000.0 - 40 * i}" for i, child in enumerate(children)]
            frontier += [(child, d + 1) for child in children]
        lines += ["  planfail backtrack", ""]
    return "\n".join(lines)


def test_errors_deep_in_a_large_domain_have_their_line_and_column():
    text = _tree_domain()
    assert len(parse_domain(text).operators) == 1093
    lines = text.split("\n")

    def edit(start, old, new, marker):
        """Replace ``old`` by ``new`` on the first line from ``start`` that
        holds it; the 1-based (line, column) of ``marker`` there."""
        row = next(i for i in range(start, len(lines)) if old in lines[i])
        lines[row] = lines[row].replace(old, new)
        return row + 1, lines[row].index(marker) + 1

    # A bad run first, so that the later tokens' offsets are worked out past
    # a dropped run; then a parse error and an error of the resolution pass.
    expected = [
        (*edit(3000, "default 0.98", "default 0.98 §§", "§§"), "unexpected characters"),
        (*edit(6000, "postconditions (done", "postconditions (3", "3 Root"),
         "expected predicate name"),
        (*edit(9000, "    Root", "    Nowhere_", "Nowhere_"),
         "references undeclared operator 'Nowhere_"),
    ]
    errors = errors_of("\n".join(lines))
    assert [(e.line, e.column) for e in errors] == [tuple(where) for *where, _ in expected]
    for error, (*_, message) in zip(errors, expected):
        assert message in error.message


def test_parse_peak_memory_per_input_character():
    # The token stream is one list that holds one string per distinct token,
    # tokenized a slice at a time, with no object per token and no stored
    # offsets; equal propositions and (proposition, level) pairs are one
    # object. About 7.4 bytes per input character today.
    text = _tree_domain()
    tracemalloc.start()
    try:
        parse_domain(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * len(text), (peak, len(text))


def _slot_pairs(spec) -> list:
    """The (proposition, level) pairs of every operator slot of ``spec``,
    whose levels the operator fills in."""
    pairs = []
    for op in spec.operators:
        pairs += op.necessary + op.satisfiable + op.postconditions
        pairs += [pair for rule in op.probability_rules for pair in rule.conditions]
    return pairs


def test_a_parse_builds_one_object_per_distinct_proposition():
    spec = parse_domain(_tree_domain())
    pairs = _slot_pairs(spec)
    props = [prop for prop, _ in pairs]
    for values in (pairs, props):
        assert len(set(map(id, values))) == len(set(values)) < len(values)
    # Every leaf reads the same (hazard h1)@2, and asserts the (done X) its
    # postcondition names.
    hazards = [rule.conditions[0] for op in spec.operators
               for rule in op.probability_rules if rule.conditions]
    assert len(hazards) == 729 and all(pair is hazards[0] for pair in hazards)
    for op in spec.operators:
        for entry in op.plot:
            for _, prop, _ in entry.edits:
                assert prop is op.postconditions[0][0]
    # Equal probability rules are one object too: the leaves' two rows and
    # every other operator's implicit default 1.0.
    rules = [rule for op in spec.operators for rule in op.probability_rules]
    assert len(set(map(id, rules))) == len(set(rules)) == 3 < len(rules)
    assert parse_domain(format_domain(spec)) == spec
    # -0.0 equals 0.0 but prints apart, so those two rows stay two objects.
    signed = parse_domain("levels 1\ngoal A 1.0\n" + "".join(
        f"operator {name}\n  level 1\n  probability\n    default {value}\n"
        for name, value in (("A", "-0.0"), ("B", "0.0"), ("C", "-0.0"))))
    a, b, c = (op.probability_rules[0] for op in signed.operators)
    assert a is c and a is not b
    text = format_domain(signed)
    assert "default -0.0" in text and "default 0.0" in text
    assert format_domain(parse_domain(text)) == text
    # The table goes with its parse: a second parse shares no proposition.
    again = {id(prop) for prop, _ in _slot_pairs(parse_domain(_tree_domain()))}
    assert again.isdisjoint(map(id, props))


def test_regex_classes_match_str_predicates():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
