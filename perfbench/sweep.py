"""One-off size sweep behind the reference figures in README.md.

Run from the root of a checkout:  python3 perfbench/sweep.py

Times `uplan plan` (median of 3 calls after a checked warm-up call, seed 1) on
worlds-fanout from 8 to 256 worlds, on long-chain from 210 to 900 steps, and
on worlds-fanout with the default UPLAN_WORKERS pool against a pool of 1.
"""

from __future__ import annotations

import os
import shutil
import statistics

import workloads
from run import WORK, WORKERS, BenchError, Operation, load_uplan

REPEATS = 3
SEED = 1


def timed(main, wl) -> str:
    op = Operation(main, wl)
    try:
        op()
        times = [op()[1] for _ in range(REPEATS)]
    except (BenchError, RecursionError) as exc:
        return f"fails: {type(exc).__name__}"
    return f"{statistics.median(times):.3f} s, {op.size / 1024:.0f} KiB"


def main() -> int:
    plan = load_uplan()
    try:
        for extra in range(6):
            wl = workloads.worlds_fanout(SEED, extra_frames=extra)
            print(f"worlds-fanout {len(wl.worlds)} worlds: {timed(plan, wl)}", flush=True)
        for steps in (210, 300, 450, 600, 750, 900):
            wl = workloads.long_chain(SEED, steps=steps)
            print(f"long-chain {steps} steps: {timed(plan, wl)}", flush=True)
        for workers in (WORKERS, 1):
            os.environ["UPLAN_WORKERS"] = str(workers)
            wl = workloads.worlds_fanout(SEED)
            print(f"worlds-fanout UPLAN_WORKERS={workers}: {timed(plan, wl)}", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
