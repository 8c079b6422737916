import pytest

from uplan import plan_superplan
from uplan.cli import main
from uplan.dsl import parse_domain, parse_evidence
from uplan.errors import BudgetExceededError, PlanFailure
from uplan.serialize import dumps_superplan

from conftest import fixture_text


def test_pipeline_matches_cli_bytes(air_combat_spec, air_combat_evidence, tmp_path):
    domain, evidence, out = (tmp_path / "air.domain", tmp_path / "air.evidence",
                             tmp_path / "sp.json")
    domain.write_text(fixture_text("air_combat.domain"))
    evidence.write_text(fixture_text("air_combat.evidence"))
    assert main(["plan", str(domain), str(evidence), "--out", str(out)]) == 0
    superplan, library = plan_superplan(air_combat_spec, air_combat_evidence)
    assert dumps_superplan(superplan) == out.read_text(encoding="utf-8")
    assert [sorted(p.worlds) for p in library] == \
        [["fighter+radar_contact"], ["bomber+radar_contact"]]


def test_pipeline_trace_lines(air_combat_spec, air_combat_evidence):
    lines = []
    plan_superplan(air_combat_spec, air_combat_evidence, trace=lines.append)
    assert all(line.startswith("; ") for line in lines)
    assert any("world bomber+radar_contact: resumed after" in line for line in lines)
    assert any(line.startswith("; fighter+radar_contact 00000 expand") for line in lines)


def test_pipeline_budget_error_names_world(air_combat_spec, air_combat_evidence):
    with pytest.raises(BudgetExceededError) as info:
        plan_superplan(air_combat_spec, air_combat_evidence, budget=1)
    assert info.value.world_id == "fighter+radar_contact"


def test_pipeline_plan_failure_names_world():
    spec = parse_domain("""
levels 1
goal Do 100.0
operator Do
  level 1
  necessary (never true)@1
  plot do-all
    assert (done)@1
  probability
    default 1.0
""")
    evidence = parse_evidence("frame f {only}\nmass f {only}=1.0\n")
    with pytest.raises(PlanFailure) as info:
        plan_superplan(spec, evidence)
    assert info.value.world_id == "only"


_RADAR_FRAME = """
frame radar {on off}
  on -> (radar active)@3

mass radar {on}=0.7 {on off}=0.3
"""


def _world_path(superplan, world_id):
    """The operators a world executes: the alternative holding the world is
    followed at every branch point."""
    ops, node = [], superplan.root
    while node is not None:
        if node.is_branch:
            node = next(alt.subtree for alt in node.alternatives
                        if world_id in alt.worlds)
        else:
            ops.append(node.step.operator)
            node = node.next
    return ops


@pytest.mark.xfail(strict=True, reason="a world reused in full gets the donor's "
                   "sequence, not its own replay's helper steps")
def test_pipeline_full_reuse_keeps_helper_steps(air_combat_spec):
    evidence = parse_evidence(fixture_text("air_combat.evidence") + _RADAR_FRAME)
    superplan, _ = plan_superplan(air_combat_spec, evidence)
    # The radar-on worlds rank first, so their plans become the donors.
    assert max(superplan.worlds, key=lambda pair: pair[1].support)[0].endswith("+on")
    for world_id, _ in superplan.worlds:
        if world_id.endswith("+off"):
            ops = _world_path(superplan, world_id)
            assert "Activate_Radar" in ops
            assert "Radar_Lock" not in ops[:ops.index("Activate_Radar")]
