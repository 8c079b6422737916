"""Benchmark of `uplan plan`: end-to-end time, memory and output size.

Run from the root of a checkout that holds ``src/uplan``:

    python3 perfbench/run.py --workload worlds-fanout --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

Each run generates its workload's domain and evidence from ``--seed``, then
calls ``uplan.cli.main`` in this process, one call at a time (a closed loop
with one client), for ``--seconds`` seconds of whole rounds. ``UPLAN_WORKERS``
is fixed at the number of usable cores. Times are scaled to a fixed machine
speed, measured around each call (``speed.py``). Every super-plan is checked
against the benchmark's own computations (``check.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.

``--quick`` runs every workload at a small size with every check, one traced
call each, and the checks on mutated super-plans, in a few seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SRC = Path("src")
WORK = Path(".perfbench_work")
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# Main calls per round; a round also runs each of the workload's extra
# operations once, so the share of failed operations is the same in every run.
MAIN_PER_ROUND = {"worlds-fanout": 1, "deep-hierarchy": 1, "long-chain": 3}
SETUP_MIN_SAMPLES = 8
SETUP_INTERVAL_S = 2.0
UNTRACED_SHARE = 0.4       # of --seconds, in a traced run

END_TO_END = {"plan_s": "s", "peak_mib": "MiB", "superplan_kib": "KiB", "setup_s": "s"}
# name -> (unit, the tracer prefixes it is read from)
PER_LAYER = {
    "dsl.parse_domain_s": ("s", ["dsl.parse_domain"]),
    "dsl.lint_domain_s": ("s", ["dsl.lint_domain"]),
    "dsl.parse_evidence_s": ("s", ["dsl.parse_evidence"]),
    "evidence.generate_pstates_s": ("s", ["evidence.generate_pstates"]),
    "evidence.rank_pstates_s": ("s", ["evidence.rank_pstates"]),
    "evidence.worlds": ("count", ["evidence.generate_pstates"]),
    "evidence.combine_calls": ("count", ["evidence.combine"]),
    "model.facts_calls": ("count", ["model.facts"]),
    "model.facts_s": ("s", ["model.facts"]),
    "model.apply_edits_calls": ("count", ["model.apply_edits"]),
    "model.apply_edits_s": ("s", ["model.apply_edits"]),
    "model.enforce_compatibility_calls": ("count", ["model.enforce_compatibility"]),
    "model.enforce_compatibility_s": ("s", ["model.enforce_compatibility"]),
    "model.holds_calls": ("count", ["model.holds"]),
    "model.holds_s": ("s", ["model.holds"]),
    "model.match_calls": ("count", ["model.match"]),
    "planner.search_runs": ("count", ["planner.search"]),
    "planner.search_s": ("s", ["planner.search"]),
    "planner.expansions": ("count", ["planner.search"]),
    "planner.expansions_per_s": ("1/s", ["planner.search"]),
    "planner.plan_for_pstate_calls": ("count", ["planner.plan_for_pstate"]),
    "planner.plan_for_pstate_s": ("s", ["planner.plan_for_pstate"]),
    "planner.match_conjunction_calls": ("count", ["planner.match_conjunction"]),
    "planner.match_conjunction_s": ("s", ["planner.match_conjunction"]),
    "planner.operator_probability_calls": ("count", ["planner.operator_probability"]),
    "planner.deduce_effects_calls": ("count", ["planner.deduce_effects"]),
    "planner.deduce_effects_s": ("s", ["planner.deduce_effects"]),
    "planner.review_switches": ("count", ["planner.review_decisions"]),
    "reapply.reapply_plan_calls": ("count", ["reapply.reapply_plan"]),
    "reapply.reapply_plan_s": ("s", ["reapply.reapply_plan"]),
    "reapply.full": ("count", ["reapply.reapply_plan"]),
    "reapply.partial": ("count", ["reapply.reapply_plan"]),
    "reapply.none": ("count", ["reapply.reapply_plan"]),
    "reapply.useful_ratio": ("ratio", ["reapply.reapply_plan", "planner.plan_for_pstate",
                                       "evidence.generate_pstates"]),
    "reapply.continue_from_calls": ("count", ["reapply.continue_from"]),
    "reapply.continue_from_s": ("s", ["reapply.continue_from"]),
    "reapply.library_size": ("count", ["reapply.merge_plans"]),
    "reapply.merge_plans_s": ("s", ["reapply.merge_plans"]),
    "reapply.insert_ka_operators_s": ("s", ["reapply.insert_ka_operators"]),
    "reapply.branch_points": ("count", []),
    "reapply.ka_observations": ("count", []),
    "serialize.dumps_superplan_s": ("s", ["serialize.dumps_superplan"]),
    "serialize.superplan_bytes": ("B", ["serialize.dumps_superplan"]),
    "cli.self_s": ("s", []),
    "trace.overhead_ratio": ("ratio", []),
}


class BenchError(Exception):
    """An operation gave a wrong result: the run is not correct."""


def load_uplan():
    """Import ``uplan.cli`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "uplan" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'uplan' / 'cli.py'} not found; run from the "
                         "root of a checkout of the project")
    os.environ["UPLAN_WORKERS"] = str(WORKERS)
    sys.path.insert(0, str(SRC.resolve()))
    import uplan.cli
    if not Path(uplan.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported uplan from {uplan.cli.__file__}")
    return uplan.cli.main


class SetupTimer:
    """Times importing ``uplan.cli`` in a fresh interpreter, scaled by probe
    samples taken in that interpreter just before and after the import.
    Samples are taken between rounds, spread over the run, so that one slow
    spell of the machine does not set the median."""

    CODE = ("import time, speed; a = speed.sample(); t = time.perf_counter(); "
            "import uplan.cli; t = time.perf_counter() - t; "
            "print(speed.scaled(t, a, speed.sample()), t)")

    def __init__(self):
        path = os.pathsep.join([str(SRC.resolve()), str(Path(__file__).resolve().parent)])
        self.env = dict(os.environ, PYTHONPATH=path, UPLAN_WORKERS=str(WORKERS))
        self.times = []         # scaled
        self.raw = []
        self._import()          # fills the bytecode cache; not counted
        self.start = perf_counter()

    def _import(self) -> tuple:
        done = subprocess.run([sys.executable, "-c", self.CODE], env=self.env,
                              capture_output=True, text=True, timeout=60, check=True)
        scaled, raw = done.stdout.strip().splitlines()[-1].split()
        return float(scaled), float(raw)

    def sample(self):
        scaled, raw = self._import()
        self.times.append(scaled)
        self.raw.append(raw)

    def between_rounds(self):
        """Catch up to one sample per SETUP_INTERVAL_S of the run so far."""
        due = (perf_counter() - self.start) / SETUP_INTERVAL_S
        while len(self.times) < due:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_MIN_SAMPLES:
            self.sample()
        return statistics.median(self.times)


class Operation:
    """One `uplan plan DOMAIN EVIDENCE --out FILE` call on a workload's files.
    ``expect`` tells the failure the call shows today (an exception of the
    call or a :class:`check.CheckError`), or is None: it must succeed."""

    def __init__(self, main, wl, expect=None):
        self.main, self.wl, self.expect = main, wl, expect
        base = WORK / wl.name
        base.mkdir(parents=True, exist_ok=True)
        self.domain, self.evidence = base / "in.domain", base / "in.evidence"
        self.out = base / "superplan.json"
        self.domain.write_text(wl.domain_text, encoding="utf-8")
        self.evidence.write_text(wl.evidence_text, encoding="utf-8")
        self.argv = ["plan", str(self.domain), str(self.evidence), "--out", str(self.out)]
        self.digest = None
        self.fails = False
        self.info = None
        self.size = None
        self.peak_bytes = None

    def _expected(self, exc) -> bool:
        return self.expect is not None and self.expect(exc)

    def __call__(self, tracer=None, peak=False) -> tuple:
        """Run once; returns (failed, seconds). Checks the output in full the
        first time and by its hash afterwards. With ``peak``, the call alone
        runs under ``tracemalloc`` and its peak is kept in ``peak_bytes``."""
        if self.out.exists():
            self.out.unlink()
        gc.collect()
        if peak:
            tracemalloc.start()
        start = perf_counter()
        try:
            rc = tracer.call(self.main, self.argv) if tracer else self.main(self.argv)
        except Exception as exc:    # judged once the clock and tracemalloc stop
            rc = exc
        seconds = perf_counter() - start
        if peak:
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if isinstance(rc, Exception):
            if self._expected(rc):
                return True, seconds
            raise rc
        if rc != 0:
            raise BenchError(f"{self.wl.name}: exit code {rc}")
        data = self.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            try:
                self.info = check.check_superplan(data.decode("utf-8"), self.wl)
            except check.CheckError as exc:
                if not self._expected(exc):
                    raise BenchError(f"{self.wl.name}: {exc}") from None
                self.fails = True
            self.digest, self.size = digest, len(data)
        elif digest != self.digest:
            raise BenchError(f"{self.wl.name}: super-plan differs between repetitions")
        return self.fails, seconds


class Runner:
    """Whole rounds of a workload's operations, counted."""

    def __init__(self, main, wl):
        self.main_op = Operation(main, wl)
        self.extras = [Operation(main, w, expect) for w, expect in wl.extra]
        self.per_round = MAIN_PER_ROUND.get(wl.name, 1)
        self.attempted = self.failed = 0

    def warm_up(self):
        self.main_op()

    def rounds(self, seconds, tracer=None, between=None) -> list:
        """(wall seconds, scaled seconds, tracer metrics) of each main call
        over whole rounds lasting about ``seconds``; ``between`` is called
        after each round. Each main call is bracketed by probe samples."""
        samples = []
        start = perf_counter()
        while True:
            round_start = perf_counter()
            for _ in range(self.per_round):
                if tracer:
                    tracer.reset()
                    tracer.install()
                before = speed.sample()
                try:
                    failed, seconds_taken = self.main_op(tracer)
                finally:
                    if tracer:
                        tracer.uninstall()
                scaled = speed.scaled(seconds_taken, before, speed.sample())
                self._count(failed)
                samples.append((seconds_taken, scaled, tracer.metrics() if tracer else None))
            for op in self.extras:
                failed, _ = op()
                self._count(failed)
            if between:
                between()
            # Rounds are whole, so the run ends nearest ``seconds`` when the
            # next round starts only if more than half of it fits.
            now = perf_counter()
            if now - start + (now - round_start) / 2 >= seconds:
                return samples

    def _count(self, failed):
        self.attempted += 1
        self.failed += failed

    def peak_mib(self) -> float:
        self.main_op(peak=True)
        return self.main_op.peak_bytes / 2 ** 20


def end_to_end(runner, seconds) -> dict:
    setup = SetupTimer()
    samples = runner.rounds(seconds, between=setup.between_rounds)
    wall = [t for t, _, _ in samples]
    print(f"plan calls timed: {len(wall)}; wall time median {statistics.median(wall):.4f} s, "
          f"min {min(wall):.4f} s, max {max(wall):.4f} s")
    values = {
        "plan_s": statistics.median(s for _, s, _ in samples),
        "peak_mib": runner.peak_mib(),
        "superplan_kib": runner.main_op.size / 1024,
        "setup_s": setup.median(),
    }
    print(f"setup imports timed: {len(setup.times)}; "
          f"wall time median {statistics.median(setup.raw):.4f} s")
    return values


def per_layer(runner, seconds) -> dict:
    untraced = [s for _, s, _ in runner.rounds(seconds * UNTRACED_SHARE)]
    tracer = Tracer()
    traced = runner.rounds(seconds * (1 - UNTRACED_SHARE), tracer)
    for prefix in tracer.absent:
        print(f"absent: {prefix} no longer exists; its metrics read 0")
    rows = []
    for _, _, m in traced:
        m = dict(m)
        search_s = m.get("planner.search_s", 0.0)
        m["planner.expansions_per_s"] = (m.get("planner.expansions", 0) / search_s
                                         if search_s else 0.0)
        reapplied = m.get("reapply.reapply_plan_calls", 0)
        served = m.get("evidence.worlds", 0) - m.get("planner.plan_for_pstate_calls", 0)
        m["reapply.useful_ratio"] = served / reapplied if reapplied else 0.0
        rows.append(m)
    info = runner.main_op.info
    out = {}
    for name, (_unit, sources) in PER_LAYER.items():
        if any(s in tracer.absent for s in sources):
            out[name] = 0
            continue
        out[name] = statistics.median(r.get(name, 0) for r in rows)
    out["reapply.branch_points"] = info["branch_points"]
    out["reapply.ka_observations"] = info["ka_observations"]
    out["trace.overhead_ratio"] = (statistics.median(s for _, s, _ in traced)
                                   / statistics.median(untraced))
    print(f"plan calls: {len(untraced)} untraced, {len(traced)} traced")
    return out


def run(args) -> int:
    main = load_uplan()
    wl = workloads.make(args.workload, args.seed)
    runner = Runner(main, wl)
    correct = True
    metrics = {}
    try:
        runner.warm_up()
        if args.trace:
            values = per_layer(runner, args.seconds)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values = end_to_end(runner, args.seconds)
            units = END_TO_END
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        correct = False
    print(f"workload {wl.name}, seed {args.seed}, worlds {len(wl.worlds)}, "
          f"UPLAN_WORKERS={WORKERS}, super-plan sha256 {runner.main_op.digest}")
    if runner.main_op.info:
        print("worlds whose plan runs a redundant helper step: "
              f"{runner.main_op.info['redundant_helper_worlds']}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def quick() -> int:
    """Small sizes, every check, one traced call, and the mutant checks."""
    main = load_uplan()
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ok = ({m["name"]: m["unit"] for m in declared["per_layer"]}
          == {name: unit for name, (unit, _) in PER_LAYER.items()}
          and {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
          and {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS))
    print(f"BENCHMARK.json metrics and workloads match the benchmark: {ok}")
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 1, quick=True)
        runner = Runner(main, wl)
        try:
            runner.warm_up()
            runner.rounds(0)
            layers = per_layer(runner, 0)
            peak = runner.peak_mib()
        except BenchError as exc:
            print(f"{name}: FAILED {exc}")
            ok = False
            continue
        print(f"{name}: checks pass; {runner.attempted} operations, {runner.failed} "
              f"failed; {len(layers)} per-layer metrics; peak {peak:.2f} MiB; "
              f"{runner.main_op.info['redundant_helper_worlds']} worlds with a "
              "redundant helper step")
        text = runner.main_op.out.read_text(encoding="utf-8")
        for label, mutant in check.mutants(text):
            if mutant is None:
                print(f"  mutant NOT MADE ({label}): the super-plan has no place for it")
                ok = False
                continue
            try:
                check.check_superplan(mutant, wl)
            except check.CheckError as exc:
                print(f"  mutant rejected ({label}): {exc}")
            else:
                print(f"  mutant ACCEPTED ({label})")
                ok = False
    print("quick mode:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    try:
        return quick() if args.quick else run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
