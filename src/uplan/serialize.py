"""JSON serialization for plans and super-plans.

Super-plan files round-trip: reading one back reconstructs an equal
:class:`SuperPlan`. Output is deterministic so golden files diff cleanly. Its
layout is exactly ``json.dumps(value, indent=0, sort_keys=True) + "\\n"``:
one item per line with no indentation, sorted keys, ``": "`` and ``","``
separators, ``{}`` and ``[]`` when empty, ASCII escapes and a final newline.
With no indentation the text grows linearly in the plan, although format v1
nests once per step. ``_write`` writes it itself because, with ``indent``
set, ``json`` drops to a pure-Python encoder whose per-container generators
make deeply nested documents slow.

In memory a super-plan node holds a whole run of steps; format v1 nests one
action object per step. Converting between the two loops over each run, so
it recurses once per branch point, but ``_write`` (like ``json``) still
recurses once per nesting level, and so once per step of a v1 document.

``_write`` hands each piece of text to an ``emit`` callable as it makes it.
:func:`dump_superplan` streams the pieces to a file, joined in batches of a
fixed count, so writing holds memory linear in the plan, not in its text;
:func:`dumps_superplan` streams them into a string buffer. A plan document
nests only three deep, so :func:`dumps_plan` is ``json.dumps`` itself.
``docs/superplan-schema.md`` documents the schema.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii as _escape

from .model import (
    EvidentialInterval,
    GroundStep,
    KnowledgeAcquisitionOperator,
    Plan,
    Proposition,
    SuperPlan,
    SuperPlanAlternative,
    SuperPlanNode,
)

FORMAT = "uplan-superplan/1"


def proposition_to_dict(p: Proposition) -> dict:
    return {"predicate": p.predicate, "args": list(p.args), "polarity": p.polarity}


def proposition_from_dict(d: dict) -> Proposition:
    return Proposition(_typed(d["predicate"], str, "a proposition's predicate"),
                       _strings(d["args"], "a proposition's args"),
                       _typed(d["polarity"], bool, "a proposition's polarity"))


def step_to_dict(step: GroundStep) -> dict:
    return {"action": step.operator, "bindings": {k: v for k, v in step.bindings}}


def step_from_dict(d: dict) -> GroundStep:
    bindings = tuple(sorted(d["bindings"].items()))
    for _, value in bindings:
        _typed(value, str, "a step's binding value")
    return GroundStep(_typed(d["action"], str, "a step's action"), bindings)


# The JSON name of each scalar type a document holds.
_JSON_TYPES = {str: "a string", bool: "a boolean", int: "an integer"}


def _typed(value, kind: type, what: str):
    """``value``, which must be a JSON value of type ``kind``; ``True`` is not
    an integer, though ``bool`` subclasses ``int``."""
    if type(value) is not kind:
        raise ValueError(f"not a {FORMAT} document: {what} is not {_JSON_TYPES[kind]}")
    return value


def _strings(value, what: str) -> tuple:
    """``value``, which must be a JSON list of strings, as a tuple; a string
    is not one, though iterating it gives strings."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"not a {FORMAT} document: {what} are not a list of strings")
    return tuple(value)


def _interval_to_list(interval: EvidentialInterval) -> list:
    return [interval.support, interval.plausibility]


def _interval_from_list(value, what: str) -> EvidentialInterval:
    """``value``, which must be a JSON list of two numbers, as an interval;
    ``false`` and ``true`` are not numbers, though ``bool`` subclasses ``int``."""
    if not isinstance(value, list) or len(value) != 2 or not all(
            type(bound) in (int, float) for bound in value):
        raise ValueError(f"not a {FORMAT} document: {what} is not two numbers")
    return EvidentialInterval(*value)


def _node_to_dict(node: SuperPlanNode | None):
    """v1's nesting of ``node``: one action object per step of its run, each
    holding the next in ``next``, and the branch point innermost. Built by a
    loop over the run; the recursion is once per branch point."""
    if node is None:
        return None
    tail = None
    if node.alternatives:
        branch = {
            "alternatives": [
                {
                    "worlds": sorted(alt.worlds),
                    "weight": None if alt.weight is None else _interval_to_list(alt.weight),
                    "subtree": _node_to_dict(alt.subtree),
                }
                for alt in node.alternatives
            ],
        }
        if node.ka is not None:
            branch["ka"] = {
                "observe": [
                    {"level": level, "proposition": proposition_to_dict(prop)}
                    for level, prop in node.ka.observe
                ],
                "maps": {outcome: index for outcome, index in node.ka.maps},
            }
        else:
            branch["ka"] = None
        tail = {"branch": branch}
    for step in reversed(node.steps):
        tail = {"action": step_to_dict(step), "next": tail}
    return tail


def _node_from_dict(d, world_ids: frozenset):
    """The node whose run is the chain of action objects from ``d`` on, and
    whose branch point is the branch object that ends the chain, if any.
    Its alternatives name only worlds in ``world_ids``, the document's."""
    steps = []
    while d is not None and "branch" not in d:
        steps.append(step_from_dict(d["action"]))
        d = d["next"]
    if d is None:
        return SuperPlanNode(tuple(steps)) if steps else None
    branch = d["branch"]
    alternatives = []
    for alt in branch["alternatives"]:
        worlds = frozenset(_strings(alt["worlds"], "an alternative's worlds"))
        if not worlds <= world_ids:
            raise ValueError(f"not a {FORMAT} document: an alternative's world "
                             f"{min(worlds - world_ids)!r} is not one of the "
                             "document's worlds")
        alternatives.append(SuperPlanAlternative(
            subtree=_node_from_dict(alt["subtree"], world_ids), worlds=worlds,
            weight=None if alt["weight"] is None
            else _interval_from_list(alt["weight"], "an alternative's weight"),
        ))
    ka = None
    if branch.get("ka") is not None:
        raw = branch["ka"]
        observe = tuple(
            (_typed(entry["level"], int, "an observation's level"),
             proposition_from_dict(entry["proposition"]))
            for entry in raw["observe"]
        )
        maps = tuple(sorted(raw["maps"].items()))
        for outcome, index in maps:
            if len(outcome) != len(observe) or not set(outcome) <= {"T", "F"}:
                raise ValueError(f"not a {FORMAT} document: KA outcome {outcome!r} is "
                                 f"not {len(observe)} of 'T' and 'F', one per observation")
            if type(index) is not int or not 0 <= index < len(alternatives):
                raise ValueError(f"not a {FORMAT} document: KA outcome {outcome!r} maps "
                                 f"to {index!r}, not an index of its "
                                 f"{len(alternatives)} alternatives")
        # Every world lies in the block of one outcome, and each block maps to
        # the alternative of its worlds, so every alternative is reached.
        unreached = set(range(len(alternatives))).difference(index for _, index in maps)
        if unreached:
            raise ValueError(f"not a {FORMAT} document: no KA outcome maps to "
                             f"alternative {min(unreached)}")
        ka = KnowledgeAcquisitionOperator(observe=observe, maps=maps)
    # A branch is chosen by its KA operator, or else by the alternatives' weights.
    for index, alt in enumerate(alternatives):
        if (alt.weight is None) == (ka is None):
            raise ValueError(f"not a {FORMAT} document: alternative {index} of a branch "
                             + ("with a KA operator has a weight" if ka is not None
                                else "without a KA operator has no weight"))
    return SuperPlanNode(tuple(steps), ka, tuple(alternatives))


def superplan_to_dict(sp: SuperPlan) -> dict:
    return {
        "format": FORMAT,
        "worlds": {wid: _interval_to_list(interval) for wid, interval in sp.worlds},
        "root": _node_to_dict(sp.root),
    }


def superplan_from_dict(d: dict) -> SuperPlan:
    if not isinstance(d, dict) or d.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    try:
        worlds = tuple(sorted(
            ((wid, _interval_from_list(pair, f"world {wid!r}'s interval"))
             for wid, pair in d["worlds"].items()),
            key=lambda pair: pair[0],
        ))
        return SuperPlan(root=_node_from_dict(d["root"], frozenset(d["worlds"])),
                         worlds=worlds)
    except (KeyError, AttributeError, TypeError) as exc:
        raise ValueError(f"not a {FORMAT} document: a part is missing or mistyped "
                         f"({type(exc).__name__}: {exc})") from exc


def _write(value, emit) -> None:
    """Emit the text of ``json.dumps(value, indent=0, sort_keys=True)`` piece
    by piece."""
    if isinstance(value, str):
        emit(_escape(value))
    elif isinstance(value, dict) and value:
        opener = "{\n"
        for key in sorted(value):
            emit(f"{opener}{_escape(key)}: ")
            _write(value[key], emit)
            opener = ",\n"
        emit("\n}")
    elif isinstance(value, (list, tuple)) and value:
        opener = "[\n"
        for item in value:
            emit(opener)
            _write(item, emit)
            opener = ",\n"
        emit("\n]")
    else:  # every other scalar, and {} and []
        emit(json.dumps(value))


# Pieces joined per write in ``dump_superplan``: a text file keeps each
# pending piece as its own object until 8 KiB have built up.
_BATCH = 64


def dump_superplan(sp: SuperPlan, handle) -> None:
    """Write ``json.dumps(superplan_to_dict(sp), indent=0, sort_keys=True)``
    and a newline to the text file ``handle`` in batches of pieces, never
    holding the text whole in memory. A partial document may have been
    written when this raises."""
    batch: list = []

    def emit(piece: str) -> None:
        batch.append(piece)
        if len(batch) == _BATCH:
            handle.write("".join(batch))
            batch.clear()

    _write(superplan_to_dict(sp), emit)
    batch.append("\n")
    handle.write("".join(batch))


def dumps_superplan(sp: SuperPlan) -> str:
    out = io.StringIO()
    dump_superplan(sp, out)
    return out.getvalue()


def loads_superplan(text: str) -> SuperPlan:
    return superplan_from_dict(json.loads(text))


def plan_to_dict(plan: Plan) -> dict:
    """One-way dump of a single-world plan (values and execution order)."""
    return {
        "format": "uplan-plan/1",
        "worlds": sorted(plan.worlds),
        "root_operator": plan.root.operator.name,
        "root_values": {
            "fulfilment": plan.root.fulfilment,
            "probability": plan.root.probability,
            "ef": plan.root.ef,
        },
        "execution_sequence": [step_to_dict(s) for s in plan.execution_sequence],
    }


def dumps_plan(plan: Plan) -> str:
    return json.dumps(plan_to_dict(plan), indent=0, sort_keys=True) + "\n"
