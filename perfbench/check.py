"""Output checks for a super-plan document, made apart from ``uplan``.

Every expected value comes from the workload generator's own model
(``domain.py``): the world set and intervals from the benchmark's Dempster
combination, KA outcomes from each world's initial facts, and plan validity
from the benchmark's own acceptor of the generated domain.
"""

from __future__ import annotations

import json

FORMAT = "uplan-superplan/1"
TOLERANCE = 1e-9


class CheckError(Exception):
    """A super-plan that breaks one of the checks."""


class MissingHelper(CheckError):
    """A world's plan lacks one helper step that a precondition needs."""

    def __init__(self, world, helper):
        super().__init__(f"world {world}: its plan lacks the helper step {helper} "
                         "that a satisfiable precondition needs")
        self.world, self.helper = world, helper


def _close(a, b) -> bool:
    return abs(a - b) <= TOLERANCE


def _prop_holds(facts, level, prop) -> bool:
    present = (level, prop["predicate"], tuple(prop["args"])) in facts
    return present if prop["polarity"] else not present


def check_superplan(text: str, wl) -> dict:
    """Check one super-plan document; returns counts read off the document.

    Raises :class:`CheckError` on the first check that fails. A world whose
    plan runs a helper step where its precondition already holds is not an
    error but is counted, as ``redundant_helper_worlds``.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckError(f"not JSON: {exc}") from None
    if doc.get("format") != FORMAT:
        raise CheckError(f"format is {doc.get('format')!r}, not {FORMAT}")

    worlds = doc.get("worlds")
    if not isinstance(worlds, dict) or set(worlds) != set(wl.worlds):
        got = set(worlds or ())
        raise CheckError(f"worlds differ: missing {sorted(set(wl.worlds) - got)[:3]}, "
                         f"unexpected {sorted(got - set(wl.worlds))[:3]}")
    for wid, (support, plaus, _facts) in wl.worlds.items():
        s, p = worlds[wid]
        if not (_close(s, support) and _close(p, plaus)):
            raise CheckError(f"world {wid}: interval [{s}, {p}], "
                             f"expected [{support}, {plaus}]")

    paths = {wid: [] for wid in wl.worlds}
    branch_points = ka_observations = 0
    # (node, worlds reaching it); action chains are walked in a loop because
    # they nest once per step.
    stack = [(doc.get("root"), frozenset(wl.worlds))]
    while stack:
        node, reaching = stack.pop()
        while node is not None and "action" in node:
            step = node["action"]
            for wid in reaching:
                paths[wid].append((step["action"], step["bindings"]))
            node = node["next"]
        if node is None:
            continue
        if "branch" not in node:
            raise CheckError(f"node is neither an action nor a branch: {sorted(node)}")
        branch_points += 1
        alternatives = node["branch"]["alternatives"]
        seen = set()
        for alt in alternatives:
            ws = set(alt["worlds"])
            if not ws or ws & seen or not ws <= reaching:
                raise CheckError(f"alternative worlds {sorted(ws)[:3]} do not "
                                 "partition the worlds reaching the branch")
            seen |= ws
            stack.append((alt["subtree"], frozenset(ws)))
        if seen != reaching:
            raise CheckError(f"worlds {sorted(reaching - seen)[:3]} reach a branch "
                             "but no alternative")
        ka = node["branch"]["ka"]
        if ka is not None:
            ka_observations += len(ka["observe"])
            _check_ka(ka, alternatives, wl)
        else:
            _check_weights(alternatives, wl)

    redundant = 0
    for wid, steps in paths.items():
        facts = wl.worlds[wid][2]
        if wl.sequences is not None and steps != wl.sequences[wid]:
            first = next((i for i, (a, b) in enumerate(zip(steps, wl.sequences[wid]))
                          if a != b), min(len(steps), len(wl.sequences[wid])))
            raise CheckError(f"world {wid}: steps differ from the closed form at "
                             f"step {first}")
        if wl.model.accepts(steps, facts):
            continue
        if wl.model.accepts(steps, facts, redundant_helpers=True):
            redundant += 1
            continue
        helper = wl.model.missing_helper(steps, facts)
        if helper is not None:
            raise MissingHelper(wid, helper)
        raise CheckError(f"world {wid}: the domain model rejects its plan "
                         f"{[s for s, _ in steps][:8]}...")
    return {"branch_points": branch_points, "ka_observations": ka_observations,
            "redundant_helper_worlds": redundant}


def _check_ka(ka, alternatives, wl):
    if any(alt["weight"] is not None for alt in alternatives):
        raise CheckError("KA branch also carries weights")
    maps = ka["maps"]
    for index, alt in enumerate(alternatives):
        for wid in alt["worlds"]:
            facts = wl.worlds[wid][2]
            outcome = "".join("T" if _prop_holds(facts, o["level"], o["proposition"])
                              else "F" for o in ka["observe"])
            if maps.get(outcome) != index:
                raise CheckError(f"world {wid}: KA outcome {outcome} maps to "
                                 f"{maps.get(outcome)}, its alternative is {index}")


def _check_weights(alternatives, wl):
    for alt in alternatives:
        if alt["weight"] is None:
            raise CheckError("branch has neither a KA operator nor weights")
        support = min(1.0, sum(wl.worlds[w][0] for w in alt["worlds"]))
        plaus = min(1.0, sum(wl.worlds[w][1] for w in alt["worlds"]))
        s, p = alt["weight"]
        if not (_close(s, support) and _close(p, max(support, plaus))):
            raise CheckError(f"weight [{s}, {p}] is not the capped sum "
                             f"[{support}, {plaus}] of its worlds")


# --- mutants: super-plans the checks must reject ------------------------------

def _nodes(doc):
    """Every node of a document, action chains walked in a loop."""
    stack = [doc["root"]]
    while stack:
        node = stack.pop()
        while node is not None:
            yield node
            if "branch" in node:
                stack.extend(alt["subtree"] for alt in node["branch"]["alternatives"])
                break
            node = node["next"]


def mutants(text: str):
    """(label, mutated text) pairs, each breaking the document in one way:
    a world dropped from an alternative, a flipped KA ``maps`` entry, two
    neighbouring steps swapped, and a world interval changed in its last
    printed digit (on a value printed with at most nine decimals, since the
    interval check allows 1e-9)."""
    def mutated(change):
        doc = json.loads(text)
        return json.dumps(doc) if change(doc) else None

    def drop_world(doc):
        for node in _nodes(doc):
            if "branch" in node:
                node["branch"]["alternatives"][0]["worlds"].pop()
                return True
        return False

    def flip_ka(doc):
        for node in _nodes(doc):
            ka = "branch" in node and node["branch"]["ka"]
            if ka:
                outcome = sorted(ka["maps"])[0]
                ka["maps"][outcome] = ((ka["maps"][outcome] + 1)
                                       % len(node["branch"]["alternatives"]))
                return True
        return False

    def swap_steps(doc):
        for node in _nodes(doc):
            nxt = node.get("next")
            if nxt and "action" in nxt and nxt["action"] != node["action"]:
                node["action"], nxt["action"] = nxt["action"], node["action"]
                return True
        return False

    def last_digit(doc):
        for wid in sorted(doc["worlds"]):
            for k, value in enumerate(doc["worlds"][wid]):
                r = repr(float(value))
                if "e" in r or len(r.split(".")[1]) > 9:
                    continue
                digit = int(r[-1])
                r = r[:-1] + str(digit + 1 if digit < 9 else digit - 1)
                doc["worlds"][wid][k] = float(r)
                return True
        return False

    for label, change in (("world dropped from an alternative", drop_world),
                          ("KA maps entry flipped", flip_ka),
                          ("two steps swapped", swap_steps),
                          ("interval changed in its last digit", last_digit)):
        yield label, mutated(change)
