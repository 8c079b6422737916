"""Command-line entry point: validate domains, plan to a super-plan, emit
sensitivity data.

Exit codes: 0 success, 1 domain/planning errors, 2 unreadable input,
unwritable output or bad usage, 3 search budget exhausted. Identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import stat
import sys
from functools import partial

from .dsl import lint_domain, parse_domain, parse_evidence
from .errors import BudgetExceededError, ParseFailure, PlanFailure, UplanError
from .pipeline import plan_superplan
from .planner import DEFAULT_NODE_BUDGET, ReviewPolicy
from .sensitivity import (
    ErrorBoundedEF,
    contour_csv,
    contour_rows,
    distinguishable,
    grid_csv,
    sensitivity_grid,
)
from .serialize import dump_superplan, dumps_plan


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return None


def _cannot_write(name: str, exc: OSError) -> bool:
    print(f"error: cannot write {name}: {exc.strerror}", file=sys.stderr)
    return False


def _write(path: str, write) -> bool:
    """Open ``path`` and call ``write(handle)``. If that fails part-way, the
    partial file is removed; an ``OSError`` is reported on one line and gives
    False, and every other exception propagates."""
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        return _cannot_write(path, exc)
    try:
        with handle:
            write(handle)
    except BaseException as exc:
        # lstat: a symlink or a device (``/dev/full``) is never removed.
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        if isinstance(exc, OSError):
            return _cannot_write(path, exc)
        raise
    return True


def _write_stdout(write) -> bool:
    """Call ``write(sys.stdout)`` and flush, so that a failure is reported
    here on one line, not again when the interpreter exits."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # A buffered writer may keep the bytes it failed to write and flush
        # them again at exit; point the descriptor at the null device so that
        # this flush succeeds. A stand-in without a descriptor has no such flush.
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        return _cannot_write("<stdout>", exc)
    return True


def _file_name_part(world_id: str) -> str:
    """``world_id`` with every character outside ``[A-Za-z0-9_.+-]``
    percent-encoded as UTF-8, so that it names one file in the output's
    directory."""
    return re.sub(r"[^A-Za-z0-9_.+-]",
                  lambda m: "".join(f"%{b:02X}" for b in m.group().encode("utf-8")),
                  world_id)


def _lint_fails(spec, domain_path: str) -> bool:
    """Print the linter's diagnostics; True when any of them is an error."""
    diagnostics = lint_domain(spec)
    for diag in diagnostics:
        print(f"{domain_path}: {diag}", file=sys.stderr)
    return any(d.severity == "error" for d in diagnostics)


def cmd_validate(domain_path: str) -> int:
    text = _read(domain_path)
    if text is None:
        return 2
    try:
        spec = parse_domain(text, filename=domain_path)
    except ParseFailure as failure:
        for error in failure.errors:
            print(str(error), file=sys.stderr)
        return 1
    if _lint_fails(spec, domain_path):
        return 1
    print(f"{domain_path}: ok ({len(spec.operators)} operators, "
          f"{spec.n_levels} levels)")
    return 0


def cmd_plan(args) -> int:
    threshold = None
    if args.threshold is not None:
        try:
            s, _, p = args.threshold.partition(",")
            threshold = (float(s), float(p))
            if not (0 <= threshold[0] <= 1 and 0 <= threshold[1] <= 1):
                raise ValueError("threshold outside [0, 1]")
        except ValueError:
            print(f"error: bad --threshold {args.threshold!r}", file=sys.stderr)
            return 2
    try:
        policy = None if args.rho is None else ReviewPolicy(offset_fraction=args.rho)
    except ValueError:
        print(f"error: bad --rho {args.rho!r}", file=sys.stderr)
        return 2
    if args.budget < 1:
        print(f"error: bad --budget {args.budget!r}", file=sys.stderr)
        return 2
    domain_text = _read(args.domain)
    evidence_text = _read(args.evidence)
    if domain_text is None or evidence_text is None:
        return 2
    try:
        spec = parse_domain(domain_text, filename=args.domain)
        evidence = parse_evidence(evidence_text, filename=args.evidence,
                                  n_levels=spec.n_levels)
    except ParseFailure as failure:
        for error in failure.errors:
            print(str(error), file=sys.stderr)
        return 1
    if _lint_fails(spec, args.domain):
        return 1

    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    try:
        superplan, library = plan_superplan(spec, evidence, policy=policy,
                                            budget=args.budget, threshold=threshold,
                                            trace=trace)
    except (PlanFailure, BudgetExceededError) as exc:
        print(f"error: world {exc.world_id}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PlanFailure) else 3
    except UplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    write = partial(dump_superplan, superplan)
    if not (_write(args.out, write) if args.out else _write_stdout(write)):
        return 2
    if args.per_world:
        base = args.out or "superplan.json"
        stem = base[:-5] if base.endswith(".json") else base
        for plan in library:
            text = dumps_plan(plan)
            for world_id in sorted(plan.worlds):
                if not _write(f"{stem}-{_file_name_part(world_id)}.json",
                              lambda handle: handle.write(text)):
                    return 2
    return 0


def _parse_range(raw: str) -> tuple:
    lo, _, hi = raw.partition(":")
    return float(lo), float(hi)


def cmd_sensitivity(args) -> int:
    if args.check is not None:
        values = args.check
        try:
            a = ErrorBoundedEF(probability=values[0], fulfilment=values[1],
                               probability_error=values[2], fulfilment_error=values[3])
            b = ErrorBoundedEF(probability=values[4], fulfilment=values[5],
                               probability_error=values[6], fulfilment_error=values[7])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        verdict, margin = distinguishable(a, b)
        word = "distinguishable" if verdict else "indistinguishable"
        print(f"{word}, margin {margin:g}")
        return 0
    try:
        gamma_range = _parse_range(args.gamma_range)
        delta_range = _parse_range(args.delta_range)
        grid = sensitivity_grid(gamma_range, delta_range, args.step)
        contours = contour_rows(gamma_range, delta_range, args.step)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not (_write(args.grid_out, lambda handle: handle.write(grid_csv(grid)))
            and _write(args.contour_out,
                       lambda handle: handle.write(contour_csv(contours)))):
        return 2
    print(f"wrote {len(grid)} grid rows to {args.grid_out} and "
          f"{len(contours)} contour rows to {args.contour_out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uplan",
        description="Hierarchical planning under uncertain world descriptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="parse and lint a domain file")
    validate.add_argument("domain")

    plan = sub.add_parser("plan", help="plan all possible worlds to a super-plan")
    plan.add_argument("domain")
    plan.add_argument("evidence")
    plan.add_argument("--out", default=None, help="super-plan output path "
                                                  "(default: stdout)")
    plan.add_argument("--trace", action="store_true",
                      help="emit search traces on stderr")
    plan.add_argument("--rho", type=float, default=None,
                      help="review offset fraction override")
    plan.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                      help="search node budget per world")
    plan.add_argument("--threshold", default=None, metavar="S,P",
                      help="coverage threshold override `support,plausibility`")
    plan.add_argument("--per-world", action="store_true",
                      help="also dump each world's individual plan")

    sens = sub.add_parser("sensitivity", help="EF error-bound tables")
    sens.add_argument("--check", type=float, nargs=8, default=None,
                      metavar=("P_A", "F_A", "A_ERR_P", "A_ERR_F",
                               "P_B", "F_B", "B_ERR_P", "B_ERR_F"),
                      help="report whether two error-bounded EFs are "
                           "reliably ordered")
    sens.add_argument("--gamma-range", default="0:1")
    sens.add_argument("--delta-range", default="0:1")
    sens.add_argument("--step", type=float, default=0.05)
    sens.add_argument("--grid-out", default="grid.csv")
    sens.add_argument("--contour-out", default="contours.csv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "validate":
        return cmd_validate(args.domain)
    if args.command == "plan":
        return cmd_plan(args)
    return cmd_sensitivity(args)


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
