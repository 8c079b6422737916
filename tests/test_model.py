import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from uplan import model
from uplan.errors import CompatibilityViolation, LevelRangeError
from uplan.model import (
    CHUNK,
    AbstractionLevel,
    CausalRule,
    CompatibilityRelation,
    EvidentialInterval,
    PlotEntry,
    Proposition,
    ReductionOperator,
    apply_edits,
    enforce_compatibility,
    holds,
    is_variable,
    make_pstate,
    match,
    patterns_unify,
    state_edit,
)
from uplan.planner import match_conjunction

from conftest import prop


def test_holds_membership():
    ps = make_pstate("w", 3, contents={2: [prop("(status aggressor hostile)")]})
    assert holds(ps, 2, prop("(status aggressor hostile)"))


def test_holds_closed_world():
    ps = make_pstate("w", 3, contents={2: [prop("(status aggressor hostile)")]})
    assert not holds(ps, 2, prop("(status aggressor friendly)"))
    # The same fact is unknown at other levels: each level stands alone.
    assert not holds(ps, 1, prop("(status aggressor hostile)"))
    assert holds(ps, 2, prop("not (status aggressor friendly)"))


def test_holds_level_out_of_range():
    ps = make_pstate("w", 3)
    with pytest.raises(LevelRangeError):
        holds(ps, 4, prop("(anything)"))
    with pytest.raises(LevelRangeError):
        holds(ps, 0, prop("(anything)"))


def test_apply_edits_assert_then_retract_is_identity():
    ps = make_pstate("w", 2, contents={1: [prop("(base)")]})
    p = prop("(extra fact)")
    edited = apply_edits(ps, [("assert", p, 1), ("retract", p, 1)])
    assert edited == ps


def test_apply_edits_empty_is_identity():
    ps = make_pstate("w", 2, contents={1: [prop("(base)")]})
    assert apply_edits(ps, []) == ps


def test_apply_edits_assert_makes_holds_true():
    ps = make_pstate("w", 3)
    p = prop("(bearing set)")
    assert holds(apply_edits(ps, [("assert", p, 3)]), 3, p)


def test_apply_edits_retract_absent_is_noop():
    ps = make_pstate("w", 1)
    assert apply_edits(ps, [("retract", prop("(ghost)"), 1)]) == ps


def test_apply_edits_is_persistent():
    before = make_pstate("w", 1, contents={1: [prop("(a)")]})
    snapshot = before
    after = apply_edits(before, [("assert", prop("(b)"), 1)])
    assert holds(after, 1, prop("(b)"))
    assert not holds(snapshot, 1, prop("(b)"))


def test_assert_removes_complement():
    ps = make_pstate("w", 1, contents={1: [prop("not (armed)")]})
    after = apply_edits(ps, [("assert", prop("(armed)"), 1)])
    assert holds(after, 1, prop("(armed)"))
    assert prop("not (armed)") not in after.level(1).propositions


def test_interval_validation():
    with pytest.raises(ValueError):
        EvidentialInterval(0.7, 0.4)
    with pytest.raises(ValueError):
        EvidentialInterval(-0.1, 0.5)
    assert EvidentialInterval(0.2, 0.9).support == 0.2


def test_match_binds_variables():
    pattern = Proposition("type", ("aggressor", "?t"))
    fact = prop("(type aggressor fighter)")
    assert match(pattern, fact) == {"?t": "fighter"}
    assert match(pattern, prop("(type defender fighter)")) is None
    bound = match(pattern, fact, {"?t": "bomber"})
    assert bound is None


def test_patterns_unify_respects_repeated_variables():
    assert not patterns_unify(prop("(q ?y ?y)"), prop("(q a b)"))
    assert patterns_unify(prop("(q ?y ?y)"), prop("(q a a)"))
    assert patterns_unify(prop("(q ?y ?y)"), prop("(q ?x b)"))
    assert not patterns_unify(prop("(q ?x ?x a)"), prop("(q ?y b ?y)"))
    # Each side's variables are its own, even where the names agree.
    assert patterns_unify(prop("(q ?x a)"), prop("(q b ?x)"))


def reference_patterns_unify(a, b) -> bool:
    """Brute force: do the two patterns share a ground instance? The
    constants they name plus one fresh constant are enough to find one."""
    alphabet = sorted({x for x in a.args + b.args if not is_variable(x)} | {"fresh"})

    def instances(p):
        names = sorted({x for x in p.args if is_variable(x)})
        for values in itertools.product(alphabet, repeat=len(names)):
            yield p.substitute(dict(zip(names, values)))

    return not set(instances(a)).isdisjoint(instances(b))


arg_st = st.sampled_from(["a", "b", "c", "?x", "?y", "?z"])


@st.composite
def pattern_pairs(draw):
    """Mostly the same predicate, polarity and arity, so the arguments decide."""
    n = draw(st.integers(0, 4))
    args = st.lists(arg_st, min_size=n, max_size=n).map(tuple)
    a = Proposition("q", draw(args))
    b = Proposition(draw(st.sampled_from(["q", "q", "q", "r"])),
                    draw(st.one_of(args, args, args, st.lists(arg_st, max_size=4).map(tuple))),
                    draw(st.sampled_from([True, True, True, False])))
    return a, b


@settings(max_examples=500, deadline=None)
@given(pattern_pairs())
def test_patterns_unify_matches_brute_force(pair):
    a, b = pair
    assert patterns_unify(a, b) == reference_patterns_unify(a, b)
    assert patterns_unify(b, a) == patterns_unify(a, b)


def test_enforce_compatibility_no_relations():
    ps = make_pstate("w", 2, contents={1: [prop("(threat high)")]})
    assert enforce_compatibility(ps, []) == ps


def test_enforce_compatibility_one_step():
    rel = CompatibilityRelation(1, prop("(threat high)"), 2, prop("(aggressor detected)"))
    ps = make_pstate("w", 2, contents={1: [prop("(threat high)")]})
    fixed = enforce_compatibility(ps, [rel])
    assert holds(fixed, 2, prop("(aggressor detected)"))


def test_enforce_compatibility_contradiction():
    rel = CompatibilityRelation(1, prop("(threat high)"), 2, prop("(aggressor detected)"))
    ps = make_pstate("w", 2, contents={
        1: [prop("(threat high)")],
        2: [prop("not (aggressor detected)")],
    })
    with pytest.raises(CompatibilityViolation):
        enforce_compatibility(ps, [rel])


def test_enforce_compatibility_chains_to_fixpoint():
    rels = [
        CompatibilityRelation(1, prop("(a)"), 2, prop("(b)")),
        CompatibilityRelation(2, prop("(b)"), 3, prop("(c)")),
    ]
    ps = make_pstate("w", 3, contents={1: [prop("(a)")]})
    fixed = enforce_compatibility(ps, rels)
    assert holds(fixed, 3, prop("(c)"))


def test_enforce_compatibility_binds_variables():
    rel = CompatibilityRelation(
        2, Proposition("type", ("aggressor", "?t")),
        3, Proposition("profile", ("?t",)),
    )
    ps = make_pstate("w", 3, contents={2: [prop("(type aggressor fighter)")]})
    fixed = enforce_compatibility(ps, [rel])
    assert holds(fixed, 3, prop("(profile fighter)"))


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6))
def test_enforce_compatibility_idempotent(names):
    rels = [
        CompatibilityRelation(1, Proposition(n), 2, Proposition(n + "2"))
        for n in names
    ]
    ps = make_pstate("w", 2, contents={1: [Proposition(n) for n in names]})
    once = enforce_compatibility(ps, rels)
    twice = enforce_compatibility(once, rels)
    assert once == twice


def test_proposition_requires_predicate():
    with pytest.raises(ValueError):
        Proposition("")


def test_pstate_rejects_unground():
    with pytest.raises(ValueError):
        make_pstate("w", 1, contents={1: [Proposition("p", ("?x",))]})


@pytest.mark.parametrize("fulfilment", [-1.0, float("nan"), None])
def test_subgoal_entry_rejects_a_fulfilment_that_is_not_at_least_zero(fulfilment):
    PlotEntry("subgoal", subgoal_name="A", fulfilment=0.0)
    with pytest.raises(ValueError, match="fulfilment >= 0"):
        PlotEntry("subgoal", subgoal_name="A", fulfilment=fulfilment)


def test_compat_consequent_variables_are_bound_by_the_antecedent():
    CompatibilityRelation(1, prop("(p ?v)"), 2, prop("not (q a ?v)"))
    with pytest.raises(ValueError, match=r"consequent variable\(s\) \?w not bound"):
        CompatibilityRelation(1, prop("(p ?v)"), 1, prop("(q ?v ?w)"))


def test_rule_effect_variables_are_bound_by_the_trigger_or_a_positive_condition():
    def rule(effect):
        return CausalRule(prop("(p ?x)"), ((prop("(q ?y)"), None), (prop("not (r ?z)"), 1)),
                          (("assert", prop(effect), 1),), "r1")

    rule("(s ?x ?y)")
    with pytest.raises(ValueError, match=r"rule r1: effect variable\(s\) \?z not bound"):
        rule("(s ?x ?z)")


def test_operator_edit_variables_are_bound_by_a_positive_precondition():
    def leaf(edit):
        return ReductionOperator("Do", 1, necessary=((prop("(p ?x)"), 1),),
                                 satisfiable=((prop("(q ?y)"), 1), (prop("not (r ?z)"), 1)),
                                 plot=(state_edit(("retract", prop(edit), 1)),),
                                 postconditions=((prop("(s ?w)"), 1),))

    leaf("(s ?x ?y)")
    with pytest.raises(ValueError, match=r"operator 'Do': edit variable\(s\) \?w \?z"):
        leaf("(s ?z ?w)")


def test_level_rejects_attribute_writes():
    ps = make_pstate("w", 2, contents={1: [prop("(p a)")]})
    edited = apply_edits(ps, [("assert", prop("(q a)"), 1)])
    for level in (ps.level(1), edited.level(1)):
        with pytest.raises(AttributeError):
            level.index = 2
        with pytest.raises(AttributeError):
            level._buckets = {}
        with pytest.raises(AttributeError):
            del level.index
    assert edited.level(1).facts_for("p") is ps.level(1).facts_for("p")


# --- predicate-indexed levels against the set-based reference -----------------

def reference_apply_edits(level_sets, edits):
    """The set-based ``apply_edits`` that predicate-indexed levels replaced,
    on a list of per-level frozensets."""
    level_sets = [set(s) for s in level_sets]
    for op, prop, level in edits:
        bucket = level_sets[level - 1]
        if op == "assert":
            bucket.discard(prop.negated())
            bucket.add(prop)
        else:
            bucket.discard(prop)
    return [frozenset(s) for s in level_sets]


def reference_match_conjunction(level_sets, pairs, bindings=None):
    """The sorted-scan ``match_conjunction`` that bucket scans replaced."""
    pairs = list(pairs)

    def descend(i, current):
        if i == len(pairs):
            return current
        pattern, level = pairs[i]
        p = pattern.substitute(current)
        facts = sorted(level_sets[level - 1])
        if p.polarity:
            for fact in facts:
                extended = match(p, fact, current)
                if extended is not None:
                    result = descend(i + 1, extended)
                    if result is not None:
                        return result
            return None
        positive = p.positive()
        for fact in facts:
            if match(positive, fact) is not None:
                return None
        return descend(i + 1, current)

    return descend(0, dict(bindings) if bindings else {})


N_LEVELS = 3
ARITY = {"p": 2, "q": 2, "r": 1}
CONSTANTS = ("a", "b", "c", "d")
VARIABLES = ("?x", "?y")
# One predicate whose facts mix arities, argument orders and number-like
# strings, which order as strings: ("10",) before ("9",), ("a",) before
# ("a", "b") before ("b",).
MIXED_ARGS = [(), ("a",), ("a", "b"), ("b",), ("b", "a"), ("10",), ("9",), ("9", "10"),
              ("-1",), ("1e3",), ("a", "10")]


def atoms(terms):
    """Positive literals of the predicates in ``ARITY`` over ``terms``, and
    of ``s`` over ``MIXED_ARGS``."""
    return ([Proposition(pred, args) for pred, arity in ARITY.items()
             for args in itertools.product(terms, repeat=arity)]
            + [Proposition("s", args) for args in MIXED_ARGS])


UNIVERSE = atoms(CONSTANTS) + [a.negated() for a in atoms(CONSTANTS)]
# Facts no level holds, next to ones it may: ``in`` must find none of them.
ABSENT = [Proposition("s", args, polarity) for args in [("a", "b", "c"), ("09",), ("1",)]
          for polarity in (True, False)] + [Proposition("t", ("a",))]
facts_st = st.sampled_from(UNIVERSE)
# Sparse levels, or dense ones from a bit mask over the 94 ground literals:
# p and q then have buckets of about 16 facts, past the size at which
# membership switches from a scan to bisection.
dense_st = st.binary(min_size=(len(UNIVERSE) + 7) // 8,
                     max_size=(len(UNIVERSE) + 7) // 8).map(
    lambda mask: {fact for i, fact in enumerate(UNIVERSE) if mask[i // 8] >> i % 8 & 1})
level_facts_st = st.one_of(st.sets(facts_st, max_size=10), dense_st)
contents_st = st.fixed_dictionaries(
    {level: level_facts_st for level in range(1, N_LEVELS + 1)}
)


@st.composite
def edited_st(draw):
    """(contents, batches of edits): an edit's fact is drawn from the whole
    universe, or is the complement of a fact the contents hold, so that
    many asserts find their complement present."""
    contents = draw(contents_st)
    complements = sorted({fact.negated() for facts in contents.values() for fact in facts})
    fact_st = st.one_of(facts_st, st.sampled_from(complements)) if complements else facts_st
    edits = st.tuples(st.sampled_from(["assert", "retract"]), fact_st,
                      st.integers(1, N_LEVELS))
    return contents, draw(st.lists(st.lists(edits, max_size=6), min_size=1, max_size=6))


def _edited_state(contents, batches):
    ps = make_pstate("w", N_LEVELS, contents=contents)
    ref = [frozenset(contents[level]) for level in range(1, N_LEVELS + 1)]
    for edits in batches:
        ps, ref = apply_edits(ps, edits), reference_apply_edits(ref, edits)
    return ps, ref


def _assert_matches_reference(before, ps, ref, edits, universe, predicates):
    """``ps``, which is ``before`` after the batch ``edits``, against the
    reference's level sets ``ref``: its facts, membership and ``holds`` over
    ``universe``, equality and hash by facts, each bucket's chunks, and the
    sharing of what the batch left alone."""
    edited_levels = {level for _, _, level in edits}
    for level in range(1, N_LEVELS + 1):
        facts = ref[level - 1]
        indexed = ps.level(level)
        assert indexed.propositions == facts
        assert ps.facts(level) == sorted(facts)
        for fact in universe:
            assert (fact in indexed) == (fact in facts)
            expected = fact.positive() in facts
            assert holds(ps, level, fact) == (expected if fact.polarity else not expected)
        # Each bucket, kept in its key order, is in Proposition's own order,
        # and its chunks, none empty or over CHUNK facts, join to it.
        for pred in predicates:
            expected = sorted(fact for fact in facts if fact.predicate == pred)
            assert list(indexed.facts_for(pred)) == expected
            chunks = indexed.chunks_for(pred)
            assert all(0 < len(chunk) <= CHUNK for chunk in chunks)
            assert [fact for chunk in chunks for fact in chunk] == expected
        rebuilt = AbstractionLevel(level, facts)
        assert indexed == rebuilt and rebuilt == indexed
        assert hash(indexed) == hash(rebuilt)
        if level not in edited_levels:
            assert indexed is before.level(level)
            continue
        edited_predicates = {p.predicate for _, p, lvl in edits if lvl == level}
        for pred in predicates:
            if pred not in edited_predicates:
                assert indexed.chunks_for(pred) is before.level(level).chunks_for(pred)


@settings(max_examples=200, deadline=None)
@given(edited_st())
def test_indexed_levels_match_set_reference(edited):
    contents, batches = edited
    ps = make_pstate("w", N_LEVELS, contents=contents)
    ref = [frozenset(contents[level]) for level in range(1, N_LEVELS + 1)]
    for edits in batches:
        before = ps
        ps, ref = apply_edits(ps, edits), reference_apply_edits(ref, edits)
        _assert_matches_reference(before, ps, ref, edits, UNIVERSE + ABSENT, [*ARITY, "s"])


# One predicate with room for three full chunks, in both polarities.
LONG = [Proposition("d", (f"{k:03d}",)) for k in range(3 * CHUNK)]
LONG_UNIVERSE = LONG + [fact.negated() for fact in LONG]


@st.composite
def grow_and_shrink_st(draw):
    """(contents, batches of edits) that assert every fact of ``d`` at one
    level, each in a drawn polarity and order, so that its bucket splits
    chunk after chunk; then assert the complements of some of them; then
    retract both polarities of every one in a drawn order, back to empty.
    Now and then a batch also edits another predicate."""
    contents = draw(contents_st)
    level = draw(st.integers(1, N_LEVELS))
    negative = draw(st.lists(st.booleans(), min_size=len(LONG), max_size=len(LONG)))
    grown = [fact.negated() if negative[k] else fact
             for k, fact in zip(draw(st.permutations(range(len(LONG)))), LONG)]
    flipped = draw(st.lists(st.sampled_from(grown), max_size=CHUNK, unique=True))
    edits = ([("assert", fact, level) for fact in grown]
             + [("assert", fact.negated(), level) for fact in flipped]
             + [("retract", fact, level) for fact in draw(st.permutations(LONG_UNIVERSE))])
    other = st.tuples(st.sampled_from(["assert", "retract"]), facts_st,
                      st.integers(1, N_LEVELS))
    batches = []
    while edits:
        size = draw(st.integers(1, 2 * CHUNK))
        batches.append(edits[:size] + draw(st.lists(other, max_size=1)))
        edits = edits[size:]
    return contents, batches


@settings(max_examples=10, deadline=None)
@given(grow_and_shrink_st())
def test_chunked_buckets_match_set_reference_past_splits(edited):
    contents, batches = edited
    ps = make_pstate("w", N_LEVELS, contents=contents)
    ref = [frozenset(contents[level]) for level in range(1, N_LEVELS + 1)]
    for edits in batches:
        before = ps
        ps, ref = apply_edits(ps, edits), reference_apply_edits(ref, edits)
        _assert_matches_reference(before, ps, ref, edits, UNIVERSE + ABSENT + LONG_UNIVERSE,
                                  [*ARITY, "s", "d"])
    assert not any(ps.level(level).chunks_for("d") for level in range(1, N_LEVELS + 1))


def test_levels_compare_by_facts_not_chunk_layout():
    # Asserted one by one, CHUNK + 1 facts split into two halves; built at
    # once, the same facts fill one chunk and start another.
    facts = LONG[:CHUNK + 1]
    ps = make_pstate("w", 1)
    for fact in facts:
        ps = apply_edits(ps, [("assert", fact, 1)])
    edited, built = ps.level(1), AbstractionLevel(1, facts)
    assert list(map(len, edited.chunks_for("d"))) == [CHUNK // 2, CHUNK // 2 + 1]
    assert list(map(len, built.chunks_for("d"))) == [CHUNK, 1]
    assert edited == built and hash(edited) == hash(built)
    assert edited.facts_for("d") == built.facts_for("d") == tuple(facts)
    assert edited != AbstractionLevel(1, facts[1:])


def _slots_allocated_by_asserts(monkeypatch, n):
    """Tuple slots that bucket edits newly allocate while ``n`` random
    ``done`` facts are asserted, one edit at a time, into one predicate:
    each new bucket's tuple of chunks, and each chunk it does not share
    with the bucket it edits."""
    slots = 0
    original = model._with

    def counting(bucket, p):
        nonlocal slots
        new = original(bucket, p)
        if new is not bucket:
            shared = set(map(id, bucket))
            fresh = [chunk for chunk in new if id(chunk) not in shared]
            # One new chunk, or the two halves of the one that split.
            assert len(fresh) <= (2 if len(new) > len(bucket) else 1)
            slots += len(new) + sum(map(len, fresh))
        return new

    monkeypatch.setattr(model, "_with", counting)
    facts = [Proposition("done", (f"s{k}",)) for k in random.Random(n).sample(range(10 * n), n)]
    ps = make_pstate("w", 1)
    for fact in facts:
        ps = apply_edits(ps, [("assert", fact, 1)])
    assert ps.level(1).facts_for("done") == tuple(sorted(facts))
    return slots


def test_bucket_edits_allocate_near_linearly_in_the_plan(monkeypatch):
    # A flat sorted tuple per predicate copies the whole bucket per edit:
    # 125,250 slots at 500 facts and 500,500 at 1000, 4.0x per doubling.
    small = _slots_allocated_by_asserts(monkeypatch, 500)
    large = _slots_allocated_by_asserts(monkeypatch, 1000)
    assert large <= 2.5 * small, (small, large)


# Four in five patterns positive, so that a fair share of conjunctions bind.
# The s patterns bind variables against facts of every arity.
MIXED_PATTERNS = [Proposition("s", args) for args in
                  [("?x",), ("?x", "?y"), ("a", "?y"), ("?x", "10"), ("9", "?y")]]
patterns_st = st.tuples(st.sampled_from(atoms(VARIABLES + CONSTANTS) + MIXED_PATTERNS),
                        st.sampled_from([True, True, True, True, False])).map(
    lambda drawn: drawn[0] if drawn[1] else drawn[0].negated())
conjunctions_st = st.lists(st.tuples(patterns_st, st.integers(1, N_LEVELS)),
                           min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(edited_st(), st.lists(conjunctions_st, min_size=1, max_size=5),
       st.sampled_from([None, {"?x": "a"}, {"?y": "d"}, {"?x": "9"}]))
def test_bucket_matching_matches_sorted_scan(edited, conjunctions, bindings):
    ps, ref = _edited_state(*edited)
    for pairs in conjunctions:
        assert (match_conjunction(ps, pairs, bindings)
                == reference_match_conjunction(ref, pairs, bindings))
