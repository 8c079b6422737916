"""JSON serialization for plans and super-plans.

Super-plan files round-trip: reading one back reconstructs an equal
:class:`SuperPlan`. Output is deterministic so golden files diff cleanly. Its
layout is exactly ``json.dumps(value, indent=2, sort_keys=True) + "\\n"``:
two-space indent, sorted keys, ``": "`` and ``","`` separators, ``{}`` and
``[]`` when empty, ASCII escapes and a final newline. ``_write`` writes it
itself because, with ``indent`` set, ``json`` drops to a pure-Python encoder
whose per-container generators make deeply nested documents slow.

In memory a super-plan node holds a whole run of steps; format v1 nests one
action object per step. Converting between the two loops over each run, so
it recurses once per branch point, but ``_write`` (like ``json``) still
recurses once per nesting level, and so once per step of a v1 document.

``_write`` hands each piece of text to an ``emit`` callable as it makes it.
:func:`dump_superplan` streams the pieces to a file, so writing holds memory
linear in the plan, not in its text; :func:`dumps_superplan` joins them into
one string. ``docs/superplan-schema.md`` documents the schema.
"""

from __future__ import annotations

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
    return Proposition(d["predicate"], tuple(d["args"]), d["polarity"])


def step_to_dict(step: GroundStep) -> dict:
    return {"action": step.operator, "bindings": {k: v for k, v in step.bindings}}


def step_from_dict(d: dict) -> GroundStep:
    return GroundStep(d["action"], tuple(sorted(d["bindings"].items())))


def _interval_to_list(interval: EvidentialInterval) -> list:
    return [interval.support, interval.plausibility]


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


def _node_from_dict(d):
    """The node whose run is the chain of action objects from ``d`` on, and
    whose branch point is the branch object that ends the chain, if any."""
    steps = []
    while d is not None and "branch" not in d:
        steps.append(step_from_dict(d["action"]))
        d = d["next"]
    if d is None:
        return SuperPlanNode(tuple(steps)) if steps else None
    branch = d["branch"]
    ka = None
    if branch.get("ka") is not None:
        raw = branch["ka"]
        ka = KnowledgeAcquisitionOperator(
            observe=tuple(
                (entry["level"], proposition_from_dict(entry["proposition"]))
                for entry in raw["observe"]
            ),
            maps=tuple(sorted((k, v) for k, v in raw["maps"].items())),
        )
    alternatives = tuple(
        SuperPlanAlternative(
            subtree=_node_from_dict(alt["subtree"]),
            worlds=frozenset(alt["worlds"]),
            weight=None if alt["weight"] is None
            else EvidentialInterval(*alt["weight"]),
        )
        for alt in branch["alternatives"]
    )
    return SuperPlanNode(tuple(steps), ka, alternatives)


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
            ((wid, EvidentialInterval(*pair)) for wid, pair in d["worlds"].items()),
            key=lambda pair: pair[0],
        ))
        return SuperPlan(root=_node_from_dict(d["root"]), worlds=worlds)
    except (KeyError, AttributeError, TypeError) as exc:
        raise ValueError(f"not a {FORMAT} document: a part is missing or mistyped "
                         f"({type(exc).__name__}: {exc})") from exc


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"``, built in one list."""
    out: list = []
    _dump(value, out.append)
    return "".join(out)


def _dump(value, emit) -> None:
    """Emit the text of ``_dumps(value)`` piece by piece."""
    _write(value, 0, emit)
    emit("\n")


def _write(value, depth: int, emit) -> None:
    # ``depth``: the indent level of ``value``'s closing bracket. Each indent
    # string is built where it is emitted, so the recursion holds none.
    if isinstance(value, str):
        emit(_escape(value))
    elif isinstance(value, dict) and value:
        opener = "{"
        for key in sorted(value):
            emit(f'{opener}\n{"  " * (depth + 1)}{_escape(key)}: ')
            _write(value[key], depth + 1, emit)
            opener = ","
        emit(f'\n{"  " * depth}}}')
    elif isinstance(value, (list, tuple)) and value:
        opener = "["
        for item in value:
            emit(f'{opener}\n{"  " * (depth + 1)}')
            _write(item, depth + 1, emit)
            opener = ","
        emit(f'\n{"  " * depth}]')
    else:  # every other scalar, and {} and []
        emit(json.dumps(value))


def dumps_superplan(sp: SuperPlan) -> str:
    return _dumps(superplan_to_dict(sp))


def dump_superplan(sp: SuperPlan, handle) -> None:
    """Write the text of :func:`dumps_superplan` to the text file ``handle``
    piece by piece, never holding it whole in memory. A partial document may
    have been written when this raises."""
    _dump(superplan_to_dict(sp), handle.write)


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
    return _dumps(plan_to_dict(plan))
