"""Evidence handling: frames of discernment, mass functions, possible worlds.

Initial evidence about each world attribute is declared as a frame (a set of
mutually exclusive, exhaustive possibilities) plus one or more basic
probability assignments over its subsets. Worlds are the compatibility-
filtered Cartesian product of frame elements; each world's evidential
interval comes from the Dempster-combined per-frame masses, multiplied across
frames under an independence assumption.

The product is generated factored, frame by frame rather than world by
world (Shenoy & Shafer, "Axioms for probability and belief-function
propagation", UAI 1988): each element's belief, plausibility and facts are
worked out once, and each level is built once per distinct combination of
the elements that feed it. Levels are immutable values, so worlds with the
same combination share one level object; the worlds, their order, their
intervals and their levels are those of a world-by-world loop. Every input
error is caught where its value is built, or before the product is, so none
depends on the order in which worlds are built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    CombinationError,
    CompatibilityViolation,
    LevelRangeError,
    NoPossibleWorldError,
)
from .model import (
    AbstractionLevel,
    EvidentialInterval,
    PState,
    enforce_compatibility,
    make_bucket,
)

MASS_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class Frame:
    """A frame of discernment for one attribute of the world.

    ``to_propositions`` maps each element to the (proposition, level) pairs it
    contributes to a world built around that element; elements may contribute
    nothing, in which case the attribute is only visible through the absence
    of the other elements' propositions. An element may be mapped more than
    once, and every mapped proposition is ground. No element name holds a
    ``+``, which joins the elements of a world's id.
    """

    name: str
    elements: tuple
    to_propositions: tuple = ()  # (element, ((proposition, level), ...)) pairs

    def __post_init__(self):
        if not self.elements:
            raise ValueError(f"frame {self.name!r} has no elements")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"frame {self.name!r} repeats an element")
        for element in self.elements:
            if "+" in element:
                raise ValueError(f"frame {self.name!r}: element {element!r} contains '+', "
                                 "which joins the elements of a world's id")
        for element, pairs in self.to_propositions:
            if element not in self.elements:
                raise ValueError(f"frame {self.name!r}: mapping for unknown element {element!r}")
            for prop, _ in pairs:
                if not prop.is_ground:
                    raise ValueError(f"frame {self.name!r} maps element {element!r} to "
                                     f"non-ground proposition {prop}")

    def propositions_for(self, element: str) -> tuple:
        """The pairs of every mapping of ``element``, in mapping order."""
        return tuple(pair for el, pairs in self.to_propositions if el == element
                     for pair in pairs)


@dataclass(frozen=True, slots=True)
class MassFunction:
    """A basic probability assignment over non-empty subsets of a frame."""

    frame: Frame
    masses: tuple  # (frozenset, mass) pairs, canonically sorted

    def __post_init__(self):
        total = 0.0
        seen = set()
        for subset, mass in self.masses:
            if not subset:
                raise ValueError("mass assigned to the empty set")
            if not subset <= set(self.frame.elements):
                unknown = sorted(subset - set(self.frame.elements))
                raise ValueError(f"mass subset references unknown element(s) {unknown}")
            if subset in seen:
                raise ValueError(f"duplicate mass subset {sorted(subset)}")
            seen.add(subset)
            if not 0.0 < mass <= 1.0:
                raise ValueError(f"mass {mass} outside (0, 1]")
            total += mass
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise ValueError(f"masses sum to {total}, not 1")


def _canonical(masses: dict) -> tuple:
    return tuple(sorted(masses.items(), key=lambda kv: sorted(kv[0])))


def mass_function(frame: Frame, assignments: dict) -> MassFunction:
    """Build a MassFunction from {iterable-of-elements: mass}."""
    masses = {frozenset(k): v for k, v in assignments.items()}
    return MassFunction(frame, _canonical(masses))


def vacuous(frame: Frame) -> MassFunction:
    """The mass function that commits to nothing: all mass on the full frame."""
    return mass_function(frame, {frozenset(frame.elements): 1.0})


def combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule of combination for two sources over the same frame."""
    if m1.frame.name != m2.frame.name:
        raise ValueError("cannot combine mass functions over different frames")
    raw: dict = {}
    conflict = 0.0
    for a, ma in m1.masses:
        for b, mb in m2.masses:
            meet = a & b
            product = ma * mb
            if meet:
                raw[meet] = raw.get(meet, 0.0) + product
            else:
                conflict += product
    if conflict >= 1.0 - 1e-12:
        raise CombinationError(
            f"total conflict (K={conflict}) combining evidence over frame {m1.frame.name!r}"
        )
    scale = 1.0 / (1.0 - conflict)
    # Renormalization can overshoot 1.0 by an ulp; clamp to stay a valid bpa.
    return MassFunction(
        m1.frame, _canonical({s: min(1.0, m * scale) for s, m in raw.items()})
    )


def belief(m: MassFunction, subset) -> float:
    """Total mass committed to subsets of ``subset``."""
    target = frozenset(subset)
    return min(1.0, sum(mass for s, mass in m.masses if s <= target))


def plausibility(m: MassFunction, subset) -> float:
    """Total mass not committed against ``subset``."""
    target = frozenset(subset)
    return min(1.0, sum(mass for s, mass in m.masses if s & target))


@dataclass(frozen=True, slots=True)
class EvidenceSet:
    """All declared frames with their mass functions."""

    frames: tuple
    masses: tuple = ()

    def __post_init__(self):
        names = {f.name for f in self.frames}
        if len(names) != len(self.frames):
            raise ValueError("duplicate frame name in evidence set")
        for m in self.masses:
            if m.frame.name not in names:
                raise ValueError(f"mass function references undeclared frame {m.frame.name!r}")

    def combined_for(self, frame: Frame) -> MassFunction:
        """Dempster-combine every source for one frame (vacuous if none)."""
        sources = [m for m in self.masses if m.frame.name == frame.name]
        if not sources:
            return vacuous(frame)
        out = sources[0]
        for m in sources[1:]:
            out = combine(out, m)
        return out


class _Element:
    """One frame element, tabulated once: its belief and plausibility, and
    its facts per level as predicate buckets (:func:`uplan.model.make_bucket`).
    ``compat_facts`` keeps only the buckets of compat-named predicates."""

    __slots__ = ("support", "plausibility", "facts", "compat_facts")

    def __init__(self, frame: Frame, element: str, m: MassFunction, n_levels: int,
                 compat_predicates):
        self.support = belief(m, {element})
        self.plausibility = plausibility(m, {element})
        grouped: dict = {}
        for prop, level in frame.propositions_for(element):
            if not (isinstance(level, int) and 1 <= level <= n_levels):
                raise LevelRangeError(
                    f"frame {frame.name!r} maps element {element!r} to level {level}, "
                    f"outside 1..{n_levels}")
            grouped.setdefault(level, {}).setdefault(prop.predicate, set()).add(prop)
        self.facts = {level: {pred: make_bucket(facts) for pred, facts in buckets.items()}
                      for level, buckets in grouped.items()}
        self.compat_facts = {
            level: {pred: facts for pred, facts in buckets.items() if pred in compat_predicates}
            for level, buckets in self.facts.items()}


def _union(buckets: dict, fragment: dict) -> dict:
    """Predicate buckets holding the facts of both; a shared fact is kept once."""
    out = {**buckets, **fragment}
    for pred in buckets.keys() & fragment.keys():
        out[pred] = make_bucket(itertools.chain(*buckets[pred], *fragment[pred]))
    return out


def _projections(tables: list, frames: list, start, add) -> list:
    """``add`` folded from ``start`` over the picks of each projection of
    the product onto ``frames``, in lexicographic order: the order in which
    the projections first appear in the product."""
    values = [start]
    for k in frames:
        values = [add(value, element) for value in values for element in tables[k]]
    return values


def _ranks(tables: list, frames: list) -> list:
    """Each world's projection onto ``frames``, as its position in
    :func:`_projections`' list; worlds in product order."""
    ranks = [0]
    for k, table in enumerate(tables):
        n = len(table)
        ranks = ([rank * n + j for rank in ranks for j in range(n)] if k in frames
                 else [rank for rank in ranks for _ in range(n)])
    return ranks


def generate_pstates(ev: EvidenceSet, compat, n_levels: int) -> list:
    """Construct every possible initial world from the declared evidence.

    One candidate per element of the Cartesian product of frame elements, in
    product order; candidates that hold a fact and its negation at one level
    (two frames may map them), or that violate a compatibility relation, are
    dropped. A world's support is the product of per-frame beliefs in its
    chosen elements and its plausibility the product of per-frame
    plausibilities (frames are treated as independent), each multiplied from
    1.0 in frame order.

    The product is factored. Each element's belief, plausibility and facts
    are worked out once. A level depends only on the picks of the frames
    that map facts to it, so it is built once per projection onto those
    frames and shared by every world with that projection. Enforcement reads
    and writes only predicates that compat relations name, so it runs once
    per projection onto the frames that map such facts, and what it asserts
    holds for every world of that projection; a level it edits is built once
    per pair of projections. Contradictions are checked on each level built
    per projection, before enforcement, whose assertions would remove the
    complement of a fact they assert.

    Raises :class:`LevelRangeError` for a compatibility relation or a fact
    at a level outside 1..``n_levels``, and :class:`NoPossibleWorldError`
    when no world survives.
    """
    for rel in compat:
        if not (1 <= rel.if_at_level <= n_levels and 1 <= rel.then_at_level <= n_levels):
            raise LevelRangeError(f"compatibility relation {rel} uses a level outside "
                                  f"1..{n_levels}")
    if not ev.frames:
        raise NoPossibleWorldError("no frames declared; nothing to build worlds from")
    combined = [ev.combined_for(f) for f in ev.frames]
    compat_predicates = frozenset(p.predicate for rel in compat
                                  for p in (rel.if_pattern, rel.then_pattern))
    tables = [[_Element(frame, element, m, n_levels, compat_predicates)
               for element in frame.elements]
              for frame, m in zip(ev.frames, combined)]

    # Each world's support and plausibility in product order, folded left
    # from 1.0 frame by frame, as a world-by-world loop multiplies them.
    supports, plausibilities = [1.0], [1.0]
    for table in tables:
        supports = [s * e.support for s in supports for e in table]
        plausibilities = [p * e.plausibility for p in plausibilities for e in table]

    projections, ranks = [], []  # per level: buckets per projection, each world's rank
    for index in range(1, n_levels + 1):
        frames = [k for k, table in enumerate(tables) if any(index in e.facts for e in table)]
        ranks.append(_ranks(tables, frames))
        projections.append(_projections(tables, frames, {}, lambda acc, e, i=index:
                                        _union(acc, e.facts.get(i, {}))))
    keep = [True] * len(supports)
    for buckets, level_ranks in zip(projections, ranks):
        consistent = [not _contradictory(b) for b in buckets]
        if not all(consistent):
            keep = [k and consistent[rank] for k, rank in zip(keep, level_ranks)]
    outcomes = []  # per compat projection: None on a violation, else what changes
    if compat:
        frames = [k for k, table in enumerate(tables)
                  if any(facts for e in table for facts in e.compat_facts.values())]
        compat_ranks = _ranks(tables, frames)
        reduced = zip(*(_projections(tables, frames, {}, lambda acc, e, i=index:
                                     _union(acc, e.compat_facts.get(i, {})))
                        for index in range(1, n_levels + 1)))
        outcomes = [_enforced(buckets, compat, compat_predicates) for buckets in reduced]
        keep = [k and outcomes[rank] is not None for k, rank in zip(keep, compat_ranks)]

    columns = []  # per level: each world's level
    for index, buckets, level_ranks in zip(range(1, n_levels + 1), projections, ranks):
        built = [AbstractionLevel._of(index, b) for b in buckets]
        if not any(outcome and index in outcome for outcome in outcomes):
            columns.append(list(map(built.__getitem__, level_ranks)))
            continue
        pairs = list(zip(level_ranks, compat_ranks))
        edited = {}
        for rank, compat_rank in dict.fromkeys(pairs):
            changed = (outcomes[compat_rank] or {}).get(index)
            # Enforcement only asserts, so each changed predicate holds the
            # fact it asserted, and no bucket is left empty.
            edited[rank, compat_rank] = (built[rank] if changed is None else
                                         AbstractionLevel._of(index,
                                                              {**buckets[rank], **changed}))
        columns.append(list(map(edited.__getitem__, pairs)))
    ids = map("+".join, itertools.product(*(f.elements for f in ev.frames)))
    worlds = [PState(wid, world_levels, EvidentialInterval(support, plaus))
              for wid, support, plaus, world_levels, kept
              in zip(ids, supports, plausibilities, zip(*columns), keep) if kept]
    if not worlds:
        raise NoPossibleWorldError("no possible world survives: each holds a fact and its "
                                   "negation, or violates a compatibility relation")
    return worlds


def _contradictory(buckets: dict) -> bool:
    """Whether predicate buckets hold a fact and its negation. A bucket
    sorts by arguments, then polarity, so the two sit side by side."""
    for bucket in buckets.values():
        facts = list(itertools.chain.from_iterable(bucket))
        if any(a.args == b.args for a, b in zip(facts, facts[1:])):
            return True
    return False


def _enforced(buckets, compat, compat_predicates):
    """What compatibility enforcement does to a world whose compat-named
    facts are ``buckets``, one dict per level: None when it finds a
    violation, otherwise {level index: {predicate: its new facts}} for each
    predicate it changes. Enforcement reads and writes only those
    predicates, so it does the same to every world with these facts."""
    levels = tuple(AbstractionLevel._of(i, b) for i, b in enumerate(buckets, start=1))
    try:
        enforced = enforce_compatibility(PState("", levels), compat).levels
    except CompatibilityViolation:
        return None
    return {level.index: {pred: after.chunks_for(pred) for pred in compat_predicates
                          if after.facts_for(pred) != level.facts_for(pred)}
            for level, after in zip(levels, enforced) if after is not level}


def rank_pstates(pss) -> list:
    """Planning order: strongest support first, then plausibility, then id."""
    return sorted(pss, key=lambda ps: (-ps.interval.support, -ps.interval.plausibility, ps.id))
