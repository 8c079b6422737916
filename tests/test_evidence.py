import itertools

import pytest
from hypothesis import given, settings, strategies as st

from uplan.dsl import parse_evidence
from uplan.errors import (
    CombinationError,
    CompatibilityViolation,
    LevelRangeError,
    NoPossibleWorldError,
)
from uplan.evidence import (
    EvidenceSet,
    Frame,
    belief,
    combine,
    generate_pstates,
    mass_function,
    plausibility,
    rank_pstates,
    vacuous,
)
from uplan.model import (
    CompatibilityRelation,
    EvidentialInterval,
    Proposition,
    enforce_compatibility,
    make_pstate,
)

from conftest import prop

AB = Frame("attr", ("a", "b"))


def test_combine_vacuous_is_identity():
    m = mass_function(AB, {("a",): 0.6, ("a", "b"): 0.4})
    combined = combine(m, vacuous(AB))
    assert combined == m


def test_combine_total_conflict_errors():
    m1 = mass_function(AB, {("a",): 1.0})
    m2 = mass_function(AB, {("b",): 1.0})
    with pytest.raises(CombinationError):
        combine(m1, m2)


def test_worked_example_belief_and_plausibility():
    m = combine(mass_function(AB, {("a",): 0.6, ("a", "b"): 0.4}), vacuous(AB))
    assert belief(m, {"a"}) == pytest.approx(0.6, abs=1e-12)
    assert plausibility(m, {"a"}) == pytest.approx(1.0, abs=1e-12)
    assert belief(m, {"b"}) == pytest.approx(0.0, abs=1e-12)
    assert plausibility(m, {"b"}) == pytest.approx(0.4, abs=1e-12)


def test_combine_renormalizes_partial_conflict():
    # By-hand Dempster combination with K = 0.6*0.5 = 0.3.
    m1 = mass_function(AB, {("a",): 0.6, ("a", "b"): 0.4})
    m2 = mass_function(AB, {("b",): 0.5, ("a", "b"): 0.5})
    combined = combine(m1, m2)
    masses = dict(combined.masses)
    assert masses[frozenset({"a"})] == pytest.approx(0.3 / 0.7)
    assert masses[frozenset({"b"})] == pytest.approx(0.2 / 0.7)
    assert masses[frozenset({"a", "b"})] == pytest.approx(0.2 / 0.7)


def test_mass_validation():
    with pytest.raises(ValueError):
        mass_function(AB, {("a",): 0.5})  # does not sum to 1
    with pytest.raises(ValueError):
        mass_function(AB, {("a", "zz"): 1.0})  # unknown element
    with pytest.raises(ValueError):
        mass_function(AB, {(): 1.0})  # empty focal set


def test_generate_single_certain_world():
    frame = Frame("attr", ("x",), to_propositions=((("x"), ((prop("(is x)"), 1),)),))
    ev = EvidenceSet((frame,), (mass_function(frame, {("x",): 1.0}),))
    worlds = generate_pstates(ev, [], 1)
    assert len(worlds) == 1
    assert worlds[0].interval == EvidentialInterval(1.0, 1.0)


def test_generate_vacuous_two_frames():
    f1 = Frame("one", ("a", "b"))
    f2 = Frame("two", ("c", "d"))
    worlds = generate_pstates(EvidenceSet((f1, f2)), [], 1)
    assert len(worlds) == 4
    for world in worlds:
        assert world.interval == EvidentialInterval(0.0, 1.0)


def test_generate_worked_intervals():
    ev = EvidenceSet((AB,), (mass_function(AB, {("a",): 0.6, ("a", "b"): 0.4}),))
    worlds = {w.id: w for w in generate_pstates(ev, [], 1)}
    assert worlds["a"].interval == EvidentialInterval(0.6, 1.0)
    assert worlds["b"].interval == EvidentialInterval(0.0, 0.4)


def test_generate_drops_incompatible_combinations():
    frame = Frame("attr", ("x", "y"), to_propositions=(
        ("x", ((prop("(marker x)"), 1),)),
        ("y", ((prop("(marker y)"), 1), (prop("not (ok)"), 1))),
    ))
    rel = CompatibilityRelation(1, prop("(marker y)"), 1, prop("(ok)"))
    ev = EvidenceSet((frame,))
    worlds = generate_pstates(ev, [rel], 1)
    assert [w.id for w in worlds] == ["x"]


def test_generate_no_possible_world():
    frame = Frame("attr", ("x",), to_propositions=(
        ("x", ((prop("(marker)"), 1), (prop("not (ok)"), 1))),
    ))
    rel = CompatibilityRelation(1, prop("(marker)"), 1, prop("(ok)"))
    with pytest.raises(NoPossibleWorldError):
        generate_pstates(EvidenceSet((frame,)), [rel], 1)


def test_rank_by_support_then_plausibility_then_id():
    def world(id, s, p):
        return make_pstate(id, 1, EvidentialInterval(s, p))

    strong, weak = world("strong", 0.6, 1.0), world("weak", 0.0, 0.4)
    assert rank_pstates([weak, strong]) == [strong, weak]

    hi, lo = world("hi", 0.3, 0.9), world("lo", 0.3, 0.5)
    assert rank_pstates([lo, hi]) == [hi, lo]

    a, b = world("a", 0.3, 0.9), world("b", 0.3, 0.9)
    assert rank_pstates([b, a]) == [a, b]


# --- property tests ----------------------------------------------------------

def frames(max_elements=4):
    return st.integers(min_value=2, max_value=max_elements).map(
        lambda n: Frame("f", tuple("abcd"[:n]))
    )


@st.composite
def masses_over(draw, frame):
    elements = frame.elements
    subsets = st.lists(
        st.sets(st.sampled_from(elements), min_size=1).map(frozenset),
        min_size=1, max_size=5, unique=True,
    )
    focal = draw(subsets)
    weights = draw(st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=len(focal), max_size=len(focal),
    ))
    total = sum(weights)
    return mass_function(frame, {
        s: w / total for s, w in zip(focal, weights)
    })


@st.composite
def frame_and_masses(draw, count):
    frame = draw(frames())
    return frame, [draw(masses_over(frame)) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(frame_and_masses(count=2))
def test_combine_commutative(pair):
    frame, (m1, m2) = pair
    try:
        left = combine(m1, m2)
        right = combine(m2, m1)
    except CombinationError:
        return
    left_d, right_d = dict(left.masses), dict(right.masses)
    assert set(left_d) == set(right_d)
    for subset in left_d:
        assert left_d[subset] == pytest.approx(right_d[subset], abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(frame_and_masses(count=3))
def test_combine_associative(triple):
    frame, (m1, m2, m3) = triple
    try:
        left = combine(combine(m1, m2), m3)
        right = combine(m1, combine(m2, m3))
    except CombinationError:
        return
    left_d, right_d = dict(left.masses), dict(right.masses)
    assert set(left_d) == set(right_d)
    for subset in left_d:
        assert left_d[subset] == pytest.approx(right_d[subset], abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(frame_and_masses(count=1))
def test_belief_below_plausibility_and_singleton_sum(single):
    frame, (m,) = single
    singleton_support = 0.0
    for element in frame.elements:
        b = belief(m, {element})
        p = plausibility(m, {element})
        assert b <= p
        singleton_support += b
    assert singleton_support <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(frame_and_masses(count=1))
def test_generated_interval_ordering(single):
    frame, (m,) = single
    ev = EvidenceSet((frame,), tuple(m for _ in range(1)))
    for world in generate_pstates(ev, [], 1):
        assert world.interval.support <= world.interval.plausibility


# --- factored generation against the world-by-world reference ---------------

def reference_generate_pstates(ev, compat, n_levels):
    """World generation one world at a time, as it was before the product
    was factored: the oracle for :func:`generate_pstates`."""
    if not ev.frames:
        raise NoPossibleWorldError("no frames declared; nothing to build worlds from")
    combined = {f.name: ev.combined_for(f) for f in ev.frames}
    worlds = []
    for picks in itertools.product(*(f.elements for f in ev.frames)):
        support = 1.0
        plaus = 1.0
        contents: dict = {}
        for frame, element in zip(ev.frames, picks):
            m = combined[frame.name]
            support *= belief(m, {element})
            plaus *= plausibility(m, {element})
            for p, level in frame.propositions_for(element):
                contents.setdefault(level, []).append(p)
        if any(p.negated() in facts for facts in contents.values() for p in facts):
            continue  # a fact and its negation at one level: not a possible world
        ps = make_pstate(
            "+".join(picks), n_levels,
            EvidentialInterval(support, plaus), contents,
        )
        try:
            ps = enforce_compatibility(ps, compat)
        except CompatibilityViolation:
            continue  # incompatible combination: not a possible world
        worlds.append(ps)
    if not worlds:
        raise NoPossibleWorldError("no possible world survives: each holds a fact and its "
                                   "negation, or violates a compatibility relation")
    return worlds


# A small vocabulary, so that frames share predicates and facts, and compat
# relations chain and clash.
PREDICATES = ("p", "q", "r")
CONSTANTS = ("a", "b")


@st.composite
def facts(draw):
    args = (draw(st.sampled_from(CONSTANTS)),)
    positive = draw(st.sampled_from((True, True, True, False)))
    return Proposition(draw(st.sampled_from(PREDICATES)), args, positive)


@st.composite
def relations(draw, n_levels):
    """Compat relations whose antecedent binds ``?v`` or names a constant.
    A consequent may be negative, which only a violation can follow from;
    rarely, it names a level past ``n_levels``."""
    def level():
        return draw(st.integers(1, n_levels + (draw(st.integers(0, 9)) == 0)))

    if_args = (draw(st.sampled_from(("?v", "?v") + CONSTANTS)),)
    bound = CONSTANTS + (("?v", "?v") if if_args == ("?v",) else ())
    then_args = (draw(st.sampled_from(bound)),)
    return CompatibilityRelation(
        level(), Proposition(draw(st.sampled_from(PREDICATES)), if_args),
        level(), Proposition(draw(st.sampled_from(PREDICATES)), then_args,
                             draw(st.booleans())))


@st.composite
def evidence_cases(draw):
    """(evidence set, compat relations, level count): up to 4 frames of up
    to 3 elements, elements with no facts or with facts another frame also
    maps, and up to 2 mass lines a frame, which may conflict."""
    n_levels = draw(st.integers(1, 3))
    frames = []
    for f in range(draw(st.integers(1, 4))):
        elements = tuple(f"e{f}{j}" for j in range(draw(st.integers(1, 3))))
        mapping = []
        for element in elements:
            pairs = draw(st.lists(st.tuples(facts(), st.integers(1, n_levels)), max_size=3))
            if pairs or draw(st.booleans()):
                mapping.append((element, tuple(pairs)))
        frames.append(Frame(f"f{f}", elements, tuple(mapping)))
    masses = tuple(draw(masses_over(frame)) for frame in frames
                   for _ in range(draw(st.integers(0, 2))))
    compat = [draw(relations(n_levels)) for _ in range(draw(st.integers(0, 3)))]
    return EvidenceSet(tuple(frames), masses), compat, n_levels


def _generated(generate, ev, compat, n_levels):
    """Each world's id, bit-exact interval and levels, or the error raised."""
    try:
        worlds = generate(ev, compat, n_levels)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return [(w.id, w.interval.support.hex(), w.interval.plausibility.hex(), w.levels)
            for w in worlds]


@settings(max_examples=400, deadline=None)
@given(evidence_cases())
def test_generate_matches_reference(case):
    _, compat, n_levels = case
    if any(max(rel.if_at_level, rel.then_at_level) > n_levels for rel in compat):
        with pytest.raises(LevelRangeError, match="compatibility relation"):
            generate_pstates(*case)
        return
    assert _generated(generate_pstates, *case) == _generated(reference_generate_pstates, *case)


@settings(max_examples=200, deadline=None)
@given(evidence_cases())
def test_worlds_share_each_level_by_projection(case):
    """Worlds whose picks agree on the frames that feed a level hold the
    same level object, unless compatibility edited it; so do worlds whose
    level compatibility edited alike."""
    ev, compat, n_levels = case
    try:
        worlds = generate_pstates(ev, compat, n_levels)
        plain = {w.id: w for w in generate_pstates(ev, [], n_levels)}
    except (ValueError, CombinationError, NoPossibleWorldError):
        return
    named = {p.predicate for rel in compat for p in (rel.if_pattern, rel.then_pattern)}
    compat_frames = [k for k, frame in enumerate(ev.frames)
                     if any(p.predicate in named for _, pairs in frame.to_propositions
                            for p, _ in pairs)]
    for index in range(1, n_levels + 1):
        feeds = [k for k, frame in enumerate(ev.frames)
                 if any(level == index for _, pairs in frame.to_propositions
                        for _, level in pairs)]
        for group in (list(plain.values()), worlds):
            shared = {}
            for world in group:
                level = world.level(index)
                picks = world.id.split("+")
                key = tuple(picks[k] for k in feeds)
                if level != plain[world.id].level(index):  # compatibility edited it
                    key = ("edited", key, tuple(picks[k] for k in compat_frames))
                assert shared.setdefault(key, level) is level


def _frame(name, **mapping):
    """A frame whose elements are ``mapping``'s keys, in order, each mapping
    the facts its value lists as (text, level) pairs."""
    return Frame(name, tuple(mapping), tuple(
        (element, tuple((prop(text), level) for text, level in pairs))
        for element, pairs in mapping.items()))


def test_frame_mappings_are_ground():
    with pytest.raises(ValueError, match=r"frame 'b' maps element 'u' to non-ground "
                                         r"proposition \(bad \?x\)"):
        _frame("b", u=[("(p a)", 1), ("(bad ?x)", 2)])


def test_frame_mapping_lines_add_together():
    text = "frame f {a b}\n  a -> (x)@1\n  a -> (y)@9\n"
    with pytest.raises(LevelRangeError, match="maps element 'a' to level 9"):
        generate_pstates(parse_evidence(text), [], 2)
    worlds = generate_pstates(parse_evidence(text.replace("@9", "@2")), [], 2)
    assert [(w.id, w.facts(1), w.facts(2)) for w in worlds] == [
        ("a", [prop("(x)")], [prop("(y)")]), ("b", [], [])]


def test_generate_checks_relation_levels_before_building_any_world():
    """Every world violates the first relation, yet the second one's level
    is what fails, before any world is built."""
    ev = EvidenceSet((_frame("a", x=[("(p a)", 1), ("not (q a)", 1)], y=[("(p b)", 1)]),
                      _frame("b", u=[("not (q b)", 1)])))
    violated = CompatibilityRelation(1, prop("(p ?v)"), 1, prop("(q ?v)"))
    with pytest.raises(NoPossibleWorldError):
        generate_pstates(ev, [violated], 2)
    with pytest.raises(LevelRangeError, match=r"\(r\)@3 uses a level outside 1\.\.2"):
        generate_pstates(ev, [violated, CompatibilityRelation(1, prop("(p ?v)"), 3,
                                                              prop("(r)"))], 2)


def test_generate_rejects_a_level_outside_the_domain():
    for level in (0, 4):
        frame = Frame("aggressor_type", ("fighter", "bomber"), to_propositions=(
            ("fighter", ((prop("(type aggressor fighter)"), level),)),
        ))
        with pytest.raises(LevelRangeError, match=(
                f"frame 'aggressor_type' maps element 'fighter' to level {level}, "
                r"outside 1\.\.3")):
            generate_pstates(EvidenceSet((frame,)), [], 3)


def test_a_world_holding_a_fact_and_its_negation_is_dropped():
    # Each frame is consistent; only the world that combines them is not.
    text = ("frame f {a}\n  a -> (r)@1\nmass f {a}=1.0\n"
            "frame g {b}\n  b -> (not (r))@1\nmass g {b}=1.0\n")
    with pytest.raises(NoPossibleWorldError, match="a fact and its negation"):
        generate_pstates(parse_evidence(text), [], 1)
    # In a 2x2 product only a1+b1 holds both; the other worlds keep their
    # intervals and levels, those of the same evidence without the negation.
    text = ("frame f {a1 a2}\n  a1 -> (r)@1\nmass f {a1}=0.6 {a1 a2}=0.4\n"
            "frame g {b1 b2}\n  b1 -> (not (r))@1 (q)@2\nmass g {b1}=0.3 {b2}=0.7\n")
    worlds = generate_pstates(parse_evidence(text), [], 2)
    plain = generate_pstates(parse_evidence(text.replace("(not (r))@1 ", "")), [], 2)
    assert [w.id for w in worlds] == ["a1+b2", "a2+b1", "a2+b2"]
    assert [(w.id, w.interval) for w in worlds] == [
        (w.id, w.interval) for w in plain if w.id != "a1+b1"]
    plain = {w.id: w for w in plain}
    for world in worlds:
        if world.id == "a2+b1":
            assert world.facts(1) == [prop("not (r)")]
        else:
            assert world.levels == plain[world.id].levels
