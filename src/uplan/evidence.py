"""Evidence handling: frames of discernment, mass functions, possible worlds.

Initial evidence about each world attribute is declared as a frame (a set of
mutually exclusive, exhaustive possibilities) plus one or more basic
probability assignments over its subsets. Worlds are the compatibility-
filtered Cartesian product of frame elements; each world's evidential
interval comes from the Dempster-combined per-frame masses, multiplied across
frames under an independence assumption.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CombinationError, CompatibilityViolation, NoPossibleWorldError
from .model import EvidentialInterval, enforce_compatibility, make_pstate

MASS_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Frame:
    """A frame of discernment for one attribute of the world.

    ``to_propositions`` maps each element to the (proposition, level) pairs it
    contributes to a world built around that element; elements may contribute
    nothing, in which case the attribute is only visible through the absence
    of the other elements' propositions.
    """

    name: str
    elements: tuple
    to_propositions: tuple = ()  # (element, ((proposition, level), ...)) pairs

    def __post_init__(self):
        if not self.elements:
            raise ValueError(f"frame {self.name!r} has no elements")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"frame {self.name!r} repeats an element")
        for element, _ in self.to_propositions:
            if element not in self.elements:
                raise ValueError(f"frame {self.name!r}: mapping for unknown element {element!r}")

    def propositions_for(self, element: str):
        for el, pairs in self.to_propositions:
            if el == element:
                return pairs
        return ()


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def generate_pstates(ev: EvidenceSet, compat, n_levels: int) -> list:
    """Construct every possible initial world from the declared evidence.

    One candidate per element of the Cartesian product of frame elements;
    candidates that violate a compatibility relation are dropped. A world's
    support is the product of per-frame beliefs in its chosen elements and its
    plausibility the product of per-frame plausibilities (frames are treated
    as independent).
    """
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
            for prop, level in frame.propositions_for(element):
                contents.setdefault(level, []).append(prop)
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
        raise NoPossibleWorldError("no possible world survives the compatibility relations")
    return worlds


def rank_pstates(pss) -> list:
    """Planning order: strongest support first, then plausibility, then id."""
    return sorted(pss, key=lambda ps: (-ps.interval.support, -ps.interval.plausibility, ps.id))
