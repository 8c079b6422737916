"""Workload generators: each builds a domain and evidence from a seed.

A :class:`Workload` carries the two input texts plus what the output checks
need, all computed here and never by ``uplan``: the benchmark's own model of
the domain, the worlds with their intervals and initial facts, and, where it
is known in closed form, every world's expected step sequence.

The seed chooses names, mass values and which facts each operator reads; the
shape that sets the amount of work (operator tree, plan length, number of
worlds) is fixed per size, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import check
from domain import (CHOOSE_ONE, DO_ALL, Domain, Frame, Op, evidence_text, expected_worlds,
                    neg, pat)

FIXTURE_DOMAIN = Path("src/uplan/fixtures/air_combat.domain")
HIERARCHY_WIDTH = 3
HIERARCHY_KINDS = 25
# The operations that fail today take inputs that do not depend on the run's
# seed, so they fail in every run.
FAILING_SEED = 0
OVER_LIMIT_STEPS = 1100


@dataclass
class Workload:
    name: str
    domain_text: str
    evidence_text: str
    model: Domain
    worlds: dict                      # id -> (support, plausibility, facts)
    sequences: dict | None = None     # id -> [(operator, bindings)] if known
    # Operations run once per round besides the main call, each with a
    # predicate telling the failure it shows today (see run.Operation).
    extra: list = field(default_factory=list)


def _tokens(rng: random.Random, prefix: str, n: int) -> list:
    return [f"{prefix}{v:06d}" for v in rng.sample(range(10 ** 6), n)]


def _mass(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 2)


def _make(name, domain, frames, domain_text=None) -> Workload:
    return Workload(name, domain_text or domain.text(), evidence_text(frames), domain,
                    expected_worlds(frames, domain))


# --- worlds-fanout: the bundled air-combat domain, many worlds ----------------

def air_combat_model() -> Domain:
    """The bundled air-combat domain, written out independently."""
    p = pat
    radar, fire = (p("radar", "active"), 3), (p("fire", "solution"), 3)
    leaves = {
        "Turn_Away": ("disengaged", ()),
        "Set_Bearing": ("bearing", ("set",)),
        "Fire_Ready": ("weapons", ("free",)),
        "Visual_Lock": ("target", ("locked",)),
        "Radar_Lock": ("target", ("locked",)),
        "Launch_Missile": ("missile", ("launched",)),
        "Bank_Turn": ("flanking", ("position",)),
        "Activate_Radar": ("radar", ("active",)),
    }
    needs = {"Fire_Ready": (fire,), "Radar_Lock": (radar,), "Launch_Missile": (fire,)}
    ops = [
        Op("Defend_Airspace", 1, CHOOSE_ONE, (("Attack", 1000.0), ("Turn_Away", 400.0)),
           necessary=((p("aggressor", "detected"), 1),)),
        Op("Attack", 1, CHOOSE_ONE, (("BVR_Attack", 1000.0), ("VR_Attack", 1000.0)),
           necessary=((p("airspace", "threatened"), 1),)),
        Op("BVR_Attack", 2, DO_ALL,
           (("Set_Bearing", 1000.0), ("Radar_Lock", 1000.0), ("Launch_Missile", 1000.0)),
           necessary=((p("type", "aggressor", "fighter"), 2),), satisfiable=(radar,),
           post=((p("missile", "launched"), 3),)),
        Op("VR_Attack", 2, CHOOSE_ONE, (("Close_In", 1000.0), ("Side", 1000.0)),
           satisfiable=(radar,)),
        Op("Close_In", 2, DO_ALL,
           (("Set_Bearing", 1000.0), ("Acquire_Target", 1000.0), ("Fire_Ready", 1000.0)),
           post=((p("weapons", "free"), 3),)),
        Op("Side", 2, DO_ALL, (("Bank_Turn", 1000.0),),
           post=((p("flanking", "position"), 3),)),
        Op("Acquire_Target", 3, CHOOSE_ONE,
           (("Visual_Lock", 900.0), ("Radar_Lock", 1000.0)),
           post=((p("target", "locked"), 3),)),
    ]
    for name, (pred, args) in leaves.items():
        fact = p(pred, *args)
        ops.append(Op(name, 3, edits=(("assert", fact, 3),), necessary=needs.get(name, ()),
                      post=((fact, 3),)))
    return Domain(
        levels=3, goal="Defend_Airspace", ops={op.name: op for op in ops},
        rules=(("lock-gives-solution", p("target", "locked"),
                (("assert", p("fire", "solution"), 3),)),),
        compat=((p("aggressor", "detected"), 1, p("contact", "confirmed"), 2),),
    )


def _fixture_frames() -> list:
    return [
        Frame("aggressor_type", ("fighter", "bomber"),
              {"fighter": [(2, "type", ("aggressor", "fighter"))]},
              [{("fighter",): 0.6, ("fighter", "bomber"): 0.4}]),
        Frame("contact", ("radar_contact",),
              {"radar_contact": [(1, "aggressor", ("detected",)),
                                 (1, "airspace", ("threatened",))]},
              [{("radar_contact",): 1.0}]),
    ]


def _binary(name, a, b, facts, rng, two_lines, a_mass=(0.3, 0.7), b_mass=(0.1, 0.4)):
    """A two-element frame: one mass line on ``a``, and with ``two_lines``
    a second, conflicting one on ``b``, so Dempster's rule runs."""
    x = _mass(rng, *a_mass)
    masses = [{(a,): x, (a, b): round(1.0 - x, 2)}]
    if two_lines:
        y = _mass(rng, *b_mass)
        masses.append({(b,): y, (a, b): round(1.0 - y, 2)})
    return Frame(name, (a, b), facts, masses)


def worlds_fanout(seed: int, extra_frames: int = 4, radar_on_first: bool = False) -> Workload:
    """Air combat with 8 * 2**extra_frames worlds and few distinct plans.

    The ``radar`` masses rank radar-off worlds before radar-on ones, unless
    ``radar_on_first``. In that order uplan gives a radar-off world the plan
    of a radar-on donor, which lacks the Activate_Radar step that Radar_Lock
    or VR_Attack needs (see CHANGES.md); the workload runs it as a separate
    operation, counted as failed while the checks reject that plan."""
    rng = random.Random(seed)
    frames = _fixture_frames()
    on, off = (0.45, 0.7), (0.1, 0.25)
    frames.append(_binary("radar", "on", "off", {"on": [(3, "radar", ("active",))]},
                          rng, True, *((on, off) if radar_on_first else (off, on))))
    frames.append(_binary("fs", "yes", "no", {"yes": [(3, "fire", ("solution",))]},
                          rng, True))
    preds = _tokens(rng, "x", extra_frames)
    for i, pred in enumerate(preds):
        hi, lo = f"hi{i}", f"lo{i}"
        frames.append(_binary(f"noise{i}", hi, lo,
                              {hi: [(2, pred, ("high",))], lo: [(2, pred, ("low",))]},
                              rng, i % 2 == 0))
    text = FIXTURE_DOMAIN.read_text(encoding="utf-8")
    if radar_on_first:
        return _make("worlds-fanout-radar-on-first", air_combat_model(), frames,
                     domain_text=text)
    wl = _make("worlds-fanout", air_combat_model(), frames, domain_text=text)
    wl.extra.append((worlds_fanout(FAILING_SEED, extra_frames=0, radar_on_first=True),
                     _lacks_activate_radar))
    return wl


def _lacks_activate_radar(exc) -> bool:
    return isinstance(exc, check.MissingHelper) and exc.helper == "Activate_Radar"


# --- deep-hierarchy: a large operator tree, 4 worlds --------------------------

def deep_hierarchy(seed: int, depth: int = 7, n_facts: int = 750) -> Workload:
    """Choose-one and do-all levels alternate down to leaves whose pattern
    preconditions scan one frame's level-3 facts; two hazard frames gate a
    few subtrees and lower some leaf probabilities."""
    rng = random.Random(seed)
    kinds = _tokens(rng, "k", HIERARCHY_KINDS)
    sites = _tokens(rng, "s", n_facts)
    site_facts = [(3, "site", (s, kinds[i % len(kinds)])) for i, s in enumerate(sites)]
    hz1, hz2 = pat("hazard", "h1"), pat("hazard", "h2")
    tag = _tokens(rng, "n", 1)[0]
    ops = []

    def level_of(d):
        return 1 if d == 1 else 2 if d <= 4 else 3

    def build(path):
        d = len(path) + 1
        name = f"{tag}_" + "_".join(map(str, path)) if path else f"{tag}_root"
        if d == depth:
            done = pat("done", name)
            hazard = hz1 if rng.random() < 0.5 else hz2
            ops.append(Op(name, 3, edits=(("assert", done, 3),),
                          necessary=((pat("site", "?s", rng.choice(kinds)), 3),),
                          post=((done, 3),),
                          probability=((((hazard, 2),), 0.7),
                                       ((), round(rng.uniform(0.95, 0.99), 2)))))
            return name
        mode = CHOOSE_ONE if d % 2 else DO_ALL
        children = [build(path + (i,)) for i in range(HIERARCHY_WIDTH)]
        if mode == CHOOSE_ONE:
            subgoals = tuple((c, 1000.0 - 40.0 * i) for i, c in enumerate(children))
        else:
            subgoals = tuple((c, 1000.0) for c in children)
        necessary = ()
        # Along the first branch, the first alternative of the top two choice
        # levels is open only without a hazard and the others only with it,
        # so plans differ between worlds and a plan reused from another world
        # fails part-way.
        if d in (2, 4) and all(x == 0 for x in path[:-1][::2]):
            hazard = hz1 if d == 2 else hz2
            necessary = (((hazard if path[-1] else neg(hazard)), 2),)
        ops.append(Op(name, level_of(d), mode, subgoals, necessary=necessary))
        return name

    root = build(())
    rest = ops[:-1]        # the root comes last out of build()
    rng.shuffle(rest)
    ops = [ops[-1]] + rest
    domain = Domain(levels=3, goal=root, ops={op.name: op for op in ops})
    frames = [
        Frame("terrain", ("mapped",), {"mapped": site_facts}, [{("mapped",): 1.0}]),
        _binary("hz1", "high1", "low1", {"high1": [(2, "hazard", ("h1",))]}, rng, True),
        _binary("hz2", "high2", "low2", {"high2": [(2, "hazard", ("h2",))]}, rng, False),
    ]
    return _make("deep-hierarchy", domain, frames)


# --- long-chain: a long mission whose worlds diverge deep in the plan ---------

def _chain(seed: int, name: str, segments: int, per_segment: int, choices: int,
           frames: list, choice_frames: list) -> Workload:
    """A do-all of segments of leaf steps; ``choices`` of the entries are
    choose-one points whose alternatives each need one element of a frame in
    ``choice_frames``. The expected sequence of every world is closed-form."""
    rng = random.Random(seed)
    total = segments * per_segment
    names = _tokens(rng, "c", total)
    # Choice points spread over the second half of the plan.
    at = {total // 2 + (j * total) // (2 * choices): j for j in range(choices)}
    ops = []
    entries = []                        # per position: leaf name or (choice, frame)
    for pos, leaf in enumerate(names):
        if pos in at:
            j = at[pos]
            frame = choice_frames[j % len(choice_frames)]
            alts = []
            for k, element in enumerate(frame.elements):
                alt = f"{leaf}_{element}"
                need = frame.facts[element][0]
                ops.append(Op(alt, 3, edits=(("assert", pat("done", alt), 3),),
                              necessary=((pat(need[1], *need[2]), need[0]),)))
                alts.append((alt, 1000.0 - 100.0 * k))
            ops.append(Op(leaf, 3, CHOOSE_ONE, tuple(alts)))
            entries.append((leaf, frame))
        else:
            ops.append(Op(leaf, 3, edits=(("assert", pat("done", leaf), 3),)))
            entries.append(leaf)
    segs = []
    for s in range(segments):
        seg = f"seg{s:03d}_{names[0]}"
        part = entries[s * per_segment:(s + 1) * per_segment]
        ops.append(Op(seg, 2, DO_ALL,
                      tuple(((e[0] if isinstance(e, tuple) else e), 1000.0) for e in part)))
        segs.append(seg)
    goal = f"mission_{names[0]}"
    ops.append(Op(goal, 1, DO_ALL, tuple((s, 1000.0) for s in segs)))
    ops.reverse()
    domain = Domain(levels=3, goal=goal, ops={op.name: op for op in ops})
    wl = _make(name, domain, frames)
    index = {f.name: i for i, f in enumerate(frames)}
    wl.sequences = {}
    for wid in wl.worlds:
        picks = wid.split("+")
        wl.sequences[wid] = [
            (f"{e[0]}_{picks[index[e[1].name]]}" if isinstance(e, tuple) else e, {})
            for e in entries
        ]
    return wl


def long_chain(seed: int, steps: int = 600) -> Workload:
    """A 4-world mission of ``steps`` steps, plus one single-world mission of
    OVER_LIMIT_STEPS steps run as a separate operation."""
    rng = random.Random(seed)
    tok = _tokens(rng, "e", 4)
    route, weather = (f"n{tok[0]}", f"s{tok[1]}"), (f"c{tok[2]}", f"r{tok[3]}")
    f1 = _binary("route", *route, {e: [(3, "route", (e,))] for e in route}, rng, True)
    f2 = _binary("weather", *weather, {e: [(3, "weather", (e,))] for e in weather},
                 rng, False)
    per_segment = 30
    wl = _chain(seed, "long-chain", steps // per_segment, per_segment, 4,
                [f1, f2], [f1, f2])
    ready = Frame("status", ("ready",), {"ready": [(3, "status", ("ready",))]},
                  [{("ready",): 1.0}])
    over = _chain(FAILING_SEED, "long-chain-over-limit", OVER_LIMIT_STEPS // 50, 50, 0,
                  [ready], [])
    wl.extra.append((over, _raises_recursion))
    return wl


def _raises_recursion(exc) -> bool:
    return isinstance(exc, RecursionError)


WORKLOADS = {
    "worlds-fanout": (worlds_fanout, {"extra_frames": 0}),
    "deep-hierarchy": (deep_hierarchy, {"depth": 5, "n_facts": 75}),
    "long-chain": (long_chain, {"steps": 60}),
}


def make(name: str, seed: int, quick: bool = False) -> Workload:
    """Full size, or the small quick-mode size (the over-limit plan keeps
    its length, which is what makes it fail)."""
    generator, small = WORKLOADS[name]
    return generator(seed, **(small if quick else {}))
