import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uplan import cli
from uplan.cli import main
from uplan.errors import UplanError
from uplan.serialize import loads_superplan

from conftest import fixture_text


@pytest.fixture
def fixture_paths(tmp_path):
    domain = tmp_path / "air.domain"
    evidence = tmp_path / "air.evidence"
    domain.write_text(fixture_text("air_combat.domain"))
    evidence.write_text(fixture_text("air_combat.evidence"))
    return str(domain), str(evidence)


def test_validate_clean_domain(fixture_paths, capsys):
    domain, _ = fixture_paths
    assert main(["validate", domain]) == 0
    out = capsys.readouterr()
    assert "ok" in out.out


def test_validate_broken_domain(tmp_path, capsys):
    bad = tmp_path / "bad.domain"
    bad.write_text("levels 1\ngoal A 1.0\noperator A\n  level 1\n"
                   "  plot do-all\n    Warp 10.0\n  probability\n    default 1.0\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "Warp" in err and ":6:" in err


_LOOP_RULE = "rule loop when (loop) then assert (loop)@1\n"
_LOOP_ERROR = "error: causal rules are not stratifiable: loop can re-trigger itself"


def test_validate_prints_a_lint_error_and_exits_one(tmp_path, capsys):
    domain = tmp_path / "loop.domain"
    domain.write_text(fixture_text("air_combat.domain") + _LOOP_RULE)
    assert main(["validate", str(domain)]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"{domain}: {_LOOP_ERROR}\n")


def test_validate_prints_a_lint_warning_and_passes(tmp_path, capsys):
    domain = tmp_path / "orphan.domain"
    domain.write_text(fixture_text("air_combat.domain")
                      + "operator Orphan\n  level 1\n  plot do-all\n    Attack 1.0\n")
    assert main(["validate", str(domain)]) == 0
    out = capsys.readouterr()
    assert out.err == f"{domain}: warning: operator 'Orphan' is unreachable from the goal\n"
    assert out.out == f"{domain}: ok (16 operators, 3 levels)\n"


def test_plan_prints_a_lint_error_and_exits_one(fixture_paths, tmp_path, capsys):
    _, evidence = fixture_paths
    domain = tmp_path / "loop.domain"
    domain.write_text(fixture_text("air_combat.domain") + _LOOP_RULE)
    out = tmp_path / "superplan.json"
    assert main(["plan", str(domain), evidence, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"{domain}: {_LOOP_ERROR}\n"
    assert not out.exists()


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "nope.domain")]) == 2


def test_plan_end_to_end(fixture_paths, tmp_path, capsys):
    domain, evidence = fixture_paths
    out = tmp_path / "superplan.json"
    assert main(["plan", domain, evidence, "--out", str(out)]) == 0
    sp = loads_superplan(out.read_text())
    points = sp.branch_points()
    assert len(points) == 1
    assert points[0].ka is not None
    assert dict(sp.worlds)["fighter+radar_contact"].support == pytest.approx(0.6)


def test_plan_outputs_are_byte_identical(fixture_paths, tmp_path):
    domain, evidence = fixture_paths
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["plan", domain, evidence, "--out", str(a)]) == 0
    assert main(["plan", domain, evidence, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("options, golden", [
    ([], "air_combat.superplan.json"),
    (["--rho", "1000"], "air_combat.rho1000.superplan.json"),
])
def test_plan_matches_golden_superplan(fixture_paths, tmp_path, options, golden):
    domain, evidence = fixture_paths
    out = tmp_path / "sp.json"
    assert main(["plan", domain, evidence, "--out", str(out), *options]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_plan_trace_matches_golden(fixture_paths, tmp_path, capsys):
    domain, evidence = fixture_paths
    assert main(["plan", domain, evidence, "--out", str(tmp_path / "sp.json"),
                 "--trace"]) == 0
    err = capsys.readouterr().err.encode("utf-8")
    assert err == (GOLDEN / "air_combat.trace.txt").read_bytes()


def test_plan_single_world_no_branches(tmp_path):
    domain = tmp_path / "d.domain"
    evidence = tmp_path / "e.evidence"
    domain.write_text("""
levels 1
goal Do 100.0
operator Do
  level 1
  plot do-all
    assert (done)@1
  probability
    default 1.0
  postconditions (done)@1
""")
    evidence.write_text("frame f {only}\nmass f {only}=1.0\n")
    out = tmp_path / "sp.json"
    assert main(["plan", str(domain), str(evidence), "--out", str(out)]) == 0
    sp = loads_superplan(out.read_text())
    assert sp.branch_points() == []
    assert [s.operator for s in sp.paths()[0]] == ["Do"]


def test_plan_no_possible_world(tmp_path, capsys):
    domain = tmp_path / "d.domain"
    evidence = tmp_path / "e.evidence"
    domain.write_text("""
levels 1
goal Do 100.0
compat (marker)@1 => (ok)@1
operator Do
  level 1
  plot do-all
    assert (done)@1
  probability
    default 1.0
""")
    evidence.write_text(
        "frame f {x}\n  x -> (marker)@1 (not (ok))@1\nmass f {x}=1.0\n"
    )
    assert main(["plan", str(domain), str(evidence)]) == 1
    assert "no possible world" in capsys.readouterr().err


def test_plan_unplannable_world_exits_one(tmp_path, capsys):
    domain = tmp_path / "d.domain"
    evidence = tmp_path / "e.evidence"
    domain.write_text("""
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
    evidence.write_text("frame f {only}\nmass f {only}=1.0\n")
    assert main(["plan", str(domain), str(evidence)]) == 1
    assert "only" in capsys.readouterr().err


def test_plan_budget_exhaustion_exits_three(fixture_paths):
    domain, evidence = fixture_paths
    assert main(["plan", domain, evidence, "--budget", "1"]) == 3


def test_validate_repeated_variable_rule_is_stratified(tmp_path):
    domain = tmp_path / "d.domain"
    domain.write_text("levels 1\ngoal G\nrule R when (q ?y ?y) then assert (q a b)@1\n"
                      "operator G level 1 plot do-all assert (q c c)@1\n")
    assert main(["validate", str(domain)]) == 0


HELPER_DOMAIN = """
levels 1
goal Main 100.0
operator Main
  level 1
  satisfiable (ready)@1
  plot do-all
    assert (done)@1
  probability
    default 1.0
operator Helper
  level 1
  plot do-all
    A 10.0
    B 10.0
  probability
    default 1.0
  postconditions (ready)@1
operator A
  level 1
  plot do-all
    assert (a)@1
  probability
    default 1.0
operator B
  level 1
  plot do-all
    assert (ready)@1
  probability
    default 1.0
"""


def test_plan_budget_exhausted_inside_helper_exits_three(tmp_path, capsys):
    domain = tmp_path / "d.domain"
    evidence = tmp_path / "e.evidence"
    domain.write_text(HELPER_DOMAIN)
    evidence.write_text("frame f {only}\nmass f {only}=1.0\n")
    # Main, then Helper; A would be the third expansion.
    assert main(["plan", str(domain), str(evidence), "--budget", "2"]) == 3
    assert "node budget of 2 exhausted after 2 expansions" in capsys.readouterr().err
    assert main(["plan", str(domain), str(evidence), "--budget", "4",
                 "--out", str(tmp_path / "sp.json")]) == 0


def test_plan_trace_shows_the_search_of_a_failing_world(tmp_path, capsys):
    domain = tmp_path / "d.domain"
    evidence = tmp_path / "e.evidence"
    domain.write_text(HELPER_DOMAIN)
    evidence.write_text("frame f {only}\nmass f {only}=1.0\n")
    assert main(["plan", str(domain), str(evidence), "--budget", "2", "--trace"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "; only 00000 expand node=0 op=Main level=1 "
        "before=100.0/1.0/100.0 after=100.0/1.0/100.0",
        "error: world only: node budget of 2 exhausted after 2 expansions",
    ]


def test_plan_per_world_dumps(fixture_paths, tmp_path):
    domain, evidence = fixture_paths
    out = tmp_path / "sp.json"
    assert main(["plan", domain, evidence, "--out", str(out), "--per-world"]) == 0
    fighter = json.loads((tmp_path / "sp-fighter+radar_contact.json").read_text())
    bomber = json.loads((tmp_path / "sp-bomber+radar_contact.json").read_text())
    assert [s["action"] for s in fighter["execution_sequence"]] == \
        ["Activate_Radar", "Set_Bearing", "Radar_Lock", "Launch_Missile"]
    assert [s["action"] for s in bomber["execution_sequence"]] == \
        ["Activate_Radar", "Bank_Turn"]


def test_plan_per_world_matches_golden(fixture_paths, tmp_path):
    domain, evidence = fixture_paths
    out = tmp_path / "sp.json"
    assert main(["plan", domain, evidence, "--out", str(out), "--per-world"]) == 0
    golden = sorted((GOLDEN / "air_combat.per-world").iterdir())
    assert sorted(p.name for p in tmp_path.glob("sp-*.json")) == \
        [f"sp-{g.name}" for g in golden]
    for g in golden:
        assert (tmp_path / f"sp-{g.name}").read_bytes() == g.read_bytes()


def test_plan_trace_flag_emits_lines(fixture_paths, tmp_path, capsys):
    domain, evidence = fixture_paths
    out = tmp_path / "sp.json"
    assert main(["plan", domain, evidence, "--out", str(out), "--trace"]) == 0
    err = capsys.readouterr().err
    assert "expand" in err and "review-switch" in err


def test_plan_rho_reaches_resumed_worlds(fixture_paths, tmp_path, capsys):
    domain, evidence = fixture_paths
    out = tmp_path / "sp.json"
    assert main(["plan", domain, evidence, "--out", str(out), "--rho", "1000",
                 "--per-world", "--trace"]) == 0
    bomber = json.loads((tmp_path / "sp-bomber+radar_contact.json").read_text())
    assert [s["action"] for s in bomber["execution_sequence"]] == \
        ["Activate_Radar", "Set_Bearing", "Visual_Lock", "Fire_Ready"]
    assert "review-switch" not in capsys.readouterr().err
    # Without --rho the domain's review policy still switches the bomber.
    default = tmp_path / "default.json"
    assert main(["plan", domain, evidence, "--out", str(default),
                 "--per-world", "--trace"]) == 0
    bomber = json.loads((tmp_path / "default-bomber+radar_contact.json").read_text())
    assert [s["action"] for s in bomber["execution_sequence"]] == \
        ["Activate_Radar", "Bank_Turn"]
    assert "review-switch" in capsys.readouterr().err
    assert default.read_bytes() != out.read_bytes()


@pytest.mark.parametrize("rho", ["-1", "nan"])
def test_plan_bad_rho_exits_two(fixture_paths, capsys, rho):
    domain, evidence = fixture_paths
    assert main(["plan", domain, evidence, "--rho", rho]) == 2
    assert "error: bad --rho" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_plan_bad_budget_exits_two(fixture_paths, capsys, budget):
    domain, evidence = fixture_paths
    assert main(["plan", domain, evidence, "--budget", budget]) == 2
    assert f"error: bad --budget {int(budget)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["2,2", "nan,0", "0,-0.5", "0.5"])
def test_plan_bad_threshold_exits_two(fixture_paths, capsys, threshold):
    domain, evidence = fixture_paths
    assert main(["plan", domain, evidence, "--threshold", threshold]) == 2
    assert "error: bad --threshold" in capsys.readouterr().err


_TWO_WORLD_DOMAIN = """
levels 1
goal Do 100.0
coverage 0.5 0.5
operator Do
  level 1
  necessary (ready)@1
  plot do-all
    assert (done)@1
  probability
    default 1.0
"""
_TWO_WORLD_EVIDENCE = """
frame f {good bad}
  good -> (ready)@1
mass f {good}=0.9 {good bad}=0.1
"""


def test_plan_skips_worlds_below_coverage_threshold(tmp_path, capsys):
    domain = tmp_path / "d.domain"
    evidence = tmp_path / "e.evidence"
    domain.write_text(_TWO_WORLD_DOMAIN)
    evidence.write_text(_TWO_WORLD_EVIDENCE)
    out = tmp_path / "sp.json"
    assert main(["plan", str(domain), str(evidence), "--out", str(out), "--trace"]) == 0
    assert "world bad: below the coverage threshold" in capsys.readouterr().err
    sp = loads_superplan(out.read_text())
    bad = dict(sp.worlds)["bad"]
    assert (bad.support, bad.plausibility) == pytest.approx((0.0, 0.1))
    assert sp.branch_points() == []
    assert [s.operator for s in sp.paths()[0]] == ["Do"]
    assert main(["plan", str(domain), str(evidence), "--threshold", "0,0"]) == 1
    assert "world bad:" in capsys.readouterr().err


def test_sensitivity_check_verdict(capsys):
    assert main(["sensitivity", "--check",
                 "0.85", "1000", "0", "0", "0.7", "1000", "0", "0"]) == 0
    assert "distinguishable, margin 150" in capsys.readouterr().out


@pytest.mark.parametrize("values, message", [
    (["2", "1000", "0", "0", "0.5", "1000", "0", "0"], "probability 2.0 outside [0, 1]"),
    (["0.5", "1000", "-0.1", "0", "0.5", "1000", "0", "0"],
     "relative errors must be finite and >= 0"),
    (["0.5", "nan", "0", "0", "0.5", "1000", "0", "0"], "fulfilment must be finite and >= 0"),
    (["0.5", "1000", "0", "0", "0.5", "inf", "0", "0"], "fulfilment must be finite and >= 0"),
])
def test_sensitivity_check_bad_value_exits_two(values, message, capsys):
    assert main(["sensitivity", "--check", *values]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sensitivity_grid_files(tmp_path, capsys):
    grid = tmp_path / "g.csv"
    contour = tmp_path / "c.csv"
    assert main(["sensitivity", "--gamma-range", "0:0.5", "--delta-range", "0:0.5",
                 "--step", "0.1", "--grid-out", str(grid),
                 "--contour-out", str(contour)]) == 0
    lines = grid.read_text().splitlines()
    assert lines[0] == "gamma,delta,threshold"
    assert len(lines) == 37  # header + 36 cells
    assert "0.2,0.3,2.12" in lines
    assert contour.read_text().splitlines()[0] == "ratio,gamma,delta"


def test_sensitivity_bad_range_exits_two(tmp_path):
    assert main(["sensitivity", "--gamma-range", "0:2", "--delta-range", "0:1",
                 "--grid-out", str(tmp_path / "g.csv"),
                 "--contour-out", str(tmp_path / "c.csv")]) == 2


def test_usage_error_exits_two():
    assert main(["no-such-command"]) == 2


def test_plan_unwritable_out_exits_two(fixture_paths, tmp_path, capsys):
    domain, evidence = fixture_paths
    out = tmp_path / "missing" / "sp.json"
    assert main(["plan", domain, evidence, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write {out}: No such file or directory\n"


def test_plan_to_stdout_matches_golden_superplan(fixture_paths, capsys):
    domain, evidence = fixture_paths
    assert main(["plan", domain, evidence]) == 0
    assert capsys.readouterr().out.encode("utf-8") == \
        (GOLDEN / "air_combat.superplan.json").read_bytes()


class _FullStdout(io.StringIO):
    """A standard output on a full device."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_plan_unwritable_stdout_exits_two(fixture_paths, monkeypatch, capsys):
    domain, evidence = fixture_paths
    monkeypatch.setattr("sys.stdout", _FullStdout())
    assert main(["plan", domain, evidence]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("sink, code", [("/dev/full", errno.ENOSPC),
                                        ("closed pipe", errno.EPIPE)])
def test_plan_unwritable_stdout_in_a_process_exits_two(fixture_paths, sink, code):
    # A real standard output is buffered: the bytes that failed must not be
    # flushed, and the failure reported, a second time at interpreter exit.
    domain, evidence = fixture_paths
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full on this platform")
        stdout = os.open(sink, os.O_WRONLY)
    else:
        read, stdout = os.pipe()
        os.close(read)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "uplan.cli", "plan", domain, evidence],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(stdout)
    assert done.stderr.splitlines() == \
        [f"error: cannot write <stdout>: {os.strerror(code)}"]
    assert done.returncode == 2


def _fail_part_way(monkeypatch, exc):
    """Make the super-plan writer raise ``exc`` part-way through its first
    write, once that has written one character."""
    real = cli.dump_superplan

    class Handle:
        def __init__(self, handle):
            self.handle = handle

        def write(self, text):
            self.handle.write(text[:1])
            self.handle.flush()
            raise exc

    monkeypatch.setattr(cli, "dump_superplan",
                        lambda superplan, handle: real(superplan, Handle(handle)))


def test_plan_out_failing_part_way_leaves_no_file(fixture_paths, tmp_path,
                                                  monkeypatch, capsys):
    domain, evidence = fixture_paths
    out = tmp_path / "sp.json"
    _fail_part_way(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    assert main(["plan", domain, evidence, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert not out.exists()


def test_plan_out_other_failures_propagate_and_leave_no_file(fixture_paths, tmp_path,
                                                             monkeypatch):
    domain, evidence = fixture_paths
    out = tmp_path / "sp.json"
    _fail_part_way(monkeypatch, RecursionError("too deep"))
    with pytest.raises(RecursionError, match="too deep"):
        main(["plan", domain, evidence, "--out", str(out)])
    assert not out.exists()


def test_plan_out_failure_keeps_a_symlinked_target(fixture_paths, tmp_path, monkeypatch):
    # Only a regular file is removed; the link (like a device such as /dev/full)
    # is not the writer's to delete.
    domain, evidence = fixture_paths
    target = tmp_path / "target.json"
    link = tmp_path / "sp.json"
    link.symlink_to(target)
    _fail_part_way(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    assert main(["plan", domain, evidence, "--out", str(link)]) == 2
    assert link.is_symlink()


@pytest.mark.parametrize("flag", ["--grid-out", "--contour-out"])
def test_sensitivity_unwritable_output_exits_two(tmp_path, capsys, flag):
    paths = {"--grid-out": str(tmp_path / "g.csv"),
             "--contour-out": str(tmp_path / "c.csv")}
    paths[flag] = str(tmp_path / "missing" / "out.csv")
    args = [part for pair in paths.items() for part in pair]
    assert main(["sensitivity", "--step", "0.5", *args]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write {paths[flag]}: No such file or directory\n"


def test_plan_per_world_encodes_world_ids_in_file_names(tmp_path):
    # Frame elements may hold "/" and "."; each world's dump stays one file
    # in the super-plan's directory.
    domain = tmp_path / "d.domain"
    evidence = tmp_path / "e.evidence"
    domain.write_text("levels 1\ngoal Do 100.0\noperator Do\n  level 1\n"
                      "  plot do-all\n    assert (done)@1\n")
    evidence.write_text("frame f {a/b ../esc}\nmass f {a/b}=0.6 {../esc}=0.4\n")
    out = tmp_path / "out" / "sp.json"
    out.parent.mkdir()
    assert main(["plan", str(domain), str(evidence), "--out", str(out),
                 "--per-world"]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == \
        ["sp-..%2Fesc.json", "sp-a%2Fb.json", "sp.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.domain", "e.evidence", "out"]
    dump = json.loads((out.parent / "sp-a%2Fb.json").read_text())
    assert sorted(dump["worlds"]) == ["../esc", "a/b"]


@pytest.mark.parametrize("old, new, message", [
    ("=> (contact confirmed)@2", "=> (contact confirmed)@7",
     "compat relation (aggressor detected)@1 => (contact confirmed)@7 uses level 7"),
    ("assert (bearing set)@3", "assert (bearing set)@8", "operator 'Set_Bearing' uses level 8"),
    ("then assert (fire solution)@3", "then assert (fire solution)@8",
     "rule lock-gives-solution uses level 8"),
    ("when (type aggressor fighter)@2 => 0.9", "when (type aggressor fighter)@8 => 0.9",
     "operator 'BVR_Attack' uses level 8"),
])
def test_domain_levels_outside_the_domain_are_parse_errors(fixture_paths, capsys,
                                                           old, new, message):
    domain, evidence = fixture_paths
    text = Path(domain).read_text()
    assert text.count(old) == 1
    Path(domain).write_text(text.replace(old, new))
    for argv in (["validate", domain], ["plan", domain, evidence]):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"{message}, outside 1..3")


@pytest.mark.parametrize("level", [0, 9])
def test_plan_evidence_level_outside_the_domain_exits_one(fixture_paths, capsys, level):
    domain, evidence = fixture_paths
    text = Path(evidence).read_text()
    Path(evidence).write_text(text.replace("(type aggressor fighter)@2",
                                           f"(type aggressor fighter)@{level}"))
    assert main(["plan", domain, evidence]) == 1
    # At the mapping: the fixture's line 8, where the element starts.
    assert capsys.readouterr().err == (
        f"{evidence}:8:3: frame 'aggressor_type' maps element 'fighter' to level {level}, "
        "outside 1..3\n")


def test_plan_evidence_mapping_a_fact_and_its_negation_exits_one(fixture_paths, capsys):
    domain, evidence = fixture_paths
    text = Path(evidence).read_text()
    Path(evidence).write_text(text.replace(
        "(type aggressor fighter)@2",
        "(type aggressor fighter)@2 (not (type aggressor fighter))@2"))
    assert main(["plan", domain, evidence]) == 1
    assert capsys.readouterr().err == (
        f"{evidence}:8:3: frame 'aggressor_type' maps element 'fighter' to both "
        "(type aggressor fighter)@2 and (not (type aggressor fighter))@2\n")


def test_plan_totally_conflicting_evidence_exits_one(fixture_paths, capsys):
    domain, evidence = fixture_paths
    Path(evidence).write_text(Path(evidence).read_text().replace(
        "mass aggressor_type {fighter}=0.6 {fighter bomber}=0.4",
        "mass aggressor_type {fighter}=1.0\nmass aggressor_type {bomber}=1.0"))
    assert main(["plan", domain, evidence]) == 1
    assert capsys.readouterr().err == ("error: total conflict (K=1.0) combining evidence "
                                       "over frame 'aggressor_type'\n")


_DOMAIN = """levels 1
goal Do 100.0
operator Do
  level 1
  necessary (at ?x)@1
  plot do-all
    assert (done ?x)@1
  probability
    default 1.0
"""
_EVIDENCE = "frame f {only}\n  only -> (at home)@1\nmass f {only}=1.0\n"


@pytest.mark.parametrize("old, new, where", [
    ("goal Do 100.0\n", "goal Do 100.0\ncompat (at ?x)@1 => (near ?y)@1\n",
     "d.domain:3:8: compatibility relation (at ?x)@1 => (near ?y)@1: consequent "
     "variable(s) ?y not bound by the antecedent"),
    ("goal Do 100.0\n", "goal Do 100.0\nrule moved when (done ?x) then assert (seen ?y)@1\n",
     "d.domain:3:6: rule moved: effect variable(s) ?y not bound by the trigger or "
     "a positive condition"),
    ("assert (done ?x)@1", "assert (done ?y)@1",
     "d.domain:3:10: operator 'Do': edit variable(s) ?y not bound by a positive "
     "necessary or satisfiable precondition"),
    ("(at home)@1", "(at ?where)@1",
     "e.evidence:1:7: frame 'f' maps element 'only' to non-ground proposition "
     "(at ?where)"),
])
def test_unbound_variables_are_parse_errors(tmp_path, capsys, old, new, where):
    domain, evidence = tmp_path / "d.domain", tmp_path / "e.evidence"
    domain.write_text(_DOMAIN)
    evidence.write_text(_EVIDENCE)
    assert main(["plan", str(domain), str(evidence)]) == 0
    capsys.readouterr()
    changed = evidence if where.startswith("e.evidence") else domain
    assert changed.read_text().count(old) == 1
    changed.write_text(changed.read_text().replace(old, new))
    runs = [["plan", str(domain), str(evidence)]]
    if changed is domain:
        runs.append(["validate", str(domain)])
    for argv in runs:
        assert main(argv) == 1
        # One line: later references to the rejected statement's name add none.
        assert capsys.readouterr().err.splitlines() == [f"{tmp_path}/{where}"]


def test_plan_reports_any_library_error_without_a_traceback(fixture_paths, capsys,
                                                            monkeypatch):
    def fail(*args, **kwargs):
        raise UplanError("something the CLI does not name")

    monkeypatch.setattr("uplan.cli.plan_superplan", fail)
    assert main(["plan", *fixture_paths]) == 1
    assert capsys.readouterr().err == "error: something the CLI does not name\n"


# --- one diagnostic per mistake, in the bundled fixtures -------------------------

_FIXTURE = {"domain": fixture_text("air_combat.domain"),
            "evidence": fixture_text("air_combat.evidence")}
_OPERATORS = re.findall(r"^operator (\w+)$", _FIXTURE["domain"], re.M)
_LEAVES = [name for name in _OPERATORS
           if re.search(rf"^operator {name}\n(  .*\n)*?    assert ", _FIXTURE["domain"], re.M)]
_PARENTS = [name for name in _OPERATORS
            if re.search(rf"^operator {name}\n(  .*\n)*?    \w+ [\d.]+\n", _FIXTURE["domain"], re.M)]
_FRAMES = re.findall(r"^frame (\w+) ", _FIXTURE["evidence"], re.M)


def _at(text: str, head: str, column: int) -> tuple:
    """(line, column) of the statement that starts with ``head`` on its line."""
    return text[:text.index(head)].count("\n") + 1, column


def _value_at(text: str, head: str, pattern: str) -> tuple:
    """(line, column) of group 1 of the first match of ``pattern`` after ``head``."""
    at = re.compile(pattern, re.M).search(text, text.index(head)).start(1)
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _repeat_at(text: str, head: str, column: int) -> tuple:
    """(line, column) of the copy that ``_repeated`` puts after ``head``'s statement."""
    return _at(text, head, column)[0] + _block(text, head).count("\n") + 2, column


def _block(text: str, head: str) -> str:
    """The statement that starts with ``head``, up to the blank line after it."""
    start = text.index(head)
    end = text.find("\n\n", start)
    return text[start:] if end < 0 else text[start:end]


def _repeated(block: str) -> str:
    return f"{block}\n\n{block}"


def _mapping_at(text: str, head: str) -> tuple:
    """(line, column) of the first frame mapping after ``head``."""
    m = re.compile(r"^( *)\w+ -> ", re.M).search(text, text.index(head))
    return text.count("\n", 0, m.start()) + 1, len(m.group(1)) + 1


def _in_statement(text: str, head: str, edit) -> str:
    """``text`` with ``edit`` applied to the block that starts with ``head``."""
    start, block = text.index(head), _block(text, head)
    edited = edit(block)
    assert edited != block, head
    return text[:start] + edited + text[start + len(block):]


@st.composite
def fixture_mistakes(draw):
    """(file kind, edited text, (line, column) of the mistake): one statement
    of a bundled fixture edited so that its constructor or the parser rejects
    it. A rule of the statement as a whole is reported at its name, a rejected
    number at the number and a repeated statement at its repeated name."""
    domain, evidence = _FIXTURE["domain"], _FIXTURE["evidence"]
    compat, rule = "compat (aggressor detected)@1", "rule lock-gives-solution"
    level = draw(st.sampled_from([0, 4, 9]), label="level")
    name = draw(st.sampled_from(_OPERATORS), label="operator")
    leaf = draw(st.sampled_from(_LEAVES), label="leaf")
    frame = draw(st.sampled_from(_FRAMES), label="frame")
    parent = draw(st.sampled_from(_PARENTS), label="parent")
    parent_head = f"operator {parent}\n"
    op_head, leaf_head, frame_head = f"operator {name}\n", f"operator {leaf}\n", f"frame {frame} "
    mistakes = {
        "unbound compat consequent": ("domain", _in_statement(domain, compat, lambda b: b.replace(
            "=> (contact confirmed)@2", "=> (contact ?z)@2")), _at(domain, compat, 8)),
        "unbound rule effect": ("domain", _in_statement(domain, rule, lambda b: b.replace(
            "then assert (fire solution)@3", "then assert (fire ?z)@3")), _at(domain, rule, 6)),
        "unbound edit variable": ("domain", _in_statement(domain, leaf_head, lambda b: re.sub(
            r"assert \((.*?)\)@", r"assert (\1 ?z)@", b, count=1)), _at(domain, leaf_head, 10)),
        "edit variable bound only by a negative precondition": (
            "domain", _in_statement(domain, leaf_head, lambda b: re.sub(
                r"  plot do-all\n    assert \((.*?)\)@",
                r"  necessary (not (aim ?z))@3\n  plot do-all\n    assert (\1 ?z)@", b)),
            _at(domain, leaf_head, 10)),
        "operator level out of range": ("domain", _in_statement(domain, op_head, lambda b: re.sub(
            r"  level \d", f"  level {level}", b, count=1)), _at(domain, op_head, 10)),
        "operator slot level out of range": ("domain", _in_statement(
            domain, op_head, lambda b: re.sub(r"(probability\n(    .*\n)*?    default)",
                                              rf"postconditions (done)@{level}\n  \1", b)),
            _at(domain, op_head, 10)),
        "compat level out of range": ("domain", _in_statement(domain, compat, lambda b: b.replace(
            "(contact confirmed)@2", f"(contact confirmed)@{level}")), _at(domain, compat, 8)),
        "rule level out of range": ("domain", _in_statement(domain, rule, lambda b: b.replace(
            "(fire solution)@3", f"(fire solution)@{level}")), _at(domain, rule, 6)),
        "table without a default": ("domain", _in_statement(domain, op_head, lambda b: re.sub(
            r"    default .*\n", "", b)), _at(domain, op_head, 10)),
        "default outside [0, 1]": ("domain", _in_statement(domain, op_head, lambda b: re.sub(
            r"(    default ).*", r"\g<1>1.5", b)), _value_at(domain, op_head, r"    default (.)")),
        "non-integer level": ("domain", _in_statement(domain, op_head, lambda b: re.sub(
            r"  level \d", "  level 1.5", b, count=1)), _value_at(domain, op_head, r"  level (.)")),
        "negative subgoal fulfilment": ("domain", _in_statement(
            domain, parent_head, lambda b: re.sub(r"^(    \w+ )[\d.]+$", r"\g<1>-1", b, count=1,
                                                  flags=re.M)),
            _value_at(domain, parent_head, r"^    \w+ ([\d.]+)$")),
        "repeated operator name": ("domain", _in_statement(domain, op_head, _repeated),
                                   _repeat_at(domain, op_head, 10)),
        "non-ground mapping": ("evidence", _in_statement(evidence, frame_head, lambda b: re.sub(
            r"-> \((\w+) \w+", r"-> (\1 ?who", b, count=1)), _at(evidence, frame_head, 7)),
        "mapping level out of range": ("evidence", _in_statement(
            evidence, frame_head, lambda b: re.sub(r"\)@\d", f")@{level}", b, count=1)),
            _mapping_at(evidence, frame_head)),
        "repeated frame element": ("evidence", _in_statement(
            evidence, frame_head, lambda b: re.sub(r"\{(\w+)", r"{\1 \1", b, count=1)),
            _at(evidence, frame_head, 7)),
        "repeated frame name": ("evidence", _in_statement(evidence, frame_head, _repeated),
                                _repeat_at(evidence, frame_head, 7)),
    }
    return mistakes[draw(st.sampled_from(sorted(mistakes)), label="mistake")]


@settings(max_examples=100, deadline=None)
@given(fixture_mistakes())
def test_a_fixture_mistake_gets_one_diagnostic_at_its_statement(mistake):
    kind, text, (line, column) = mistake
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"domain": Path(tmp) / "air.domain", "evidence": Path(tmp) / "air.evidence"}
        for which, path in paths.items():
            path.write_text(text if which == kind else _FIXTURE[which])
        runs = [["plan", str(paths["domain"]), str(paths["evidence"])]]
        if kind == "domain":
            runs.append(["validate", str(paths["domain"])])
        for argv in runs:
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                assert main(argv) == 1
            assert err.getvalue().splitlines() and len(err.getvalue().splitlines()) == 1, \
                err.getvalue()
            assert err.getvalue().startswith(f"{paths[kind]}:{line}:{column}: "), err.getvalue()
