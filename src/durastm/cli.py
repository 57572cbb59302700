"""Command-line front end for the durable-STM laboratory.

Subcommands
    explore           exhaustive bounded exploration of the logging machine
    fuzz              seeded random walks over the logging machine
    check-history     verify one JSONL trace for durable opacity
    check-refinement  verify one JSONL trace against the reference automaton
    walk-dtms2        seeded random walks of the reference automaton itself
    mutate            run every known fault injection and report which were
                      caught by the selected checks

Exit codes: 0 every selected check passed, 1 at least one violation was
found (the counterexample is written out), 2 usage or configuration error.
The exit code is a pure function of the produced report.

Traces are JSONL, one event object per line (a crash is ``{"ev": "crash"}``).
Counterexamples are minimized by prefix truncation only: a violating history
is reported up to and including the first event that triggers the check,
never re-ordered or re-shrunk.  Output is plain text; PASS/FAIL markers are
colored only on a terminal and never when ``NO_COLOR`` is set.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Sequence

from . import histories as H
from .dtml import MUTATIONS
from .dtms2 import compact_history, dtms2_accepts
from .explorer import (CheckReport, ExplorationConfig, Violation,
                       explore_exhaustive, explore_random, walk_reference)
from .opacity import OracleBounds, TooLargeError, durably_opaque

# -- trace and report files ---------------------------------------------------


def read_trace(path: str) -> H.History:
    """Load a JSONL event trace.  Blank lines are ignored; any malformed
    line (not UTF-8, not JSON, nested too deep to parse, or not an event)
    raises ValueError naming the 1-based line number."""
    events: list[H.Event] = []
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    events.append(H.event_from_json(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from exc
            except RecursionError as exc:
                raise ValueError(f"{path}: line {number}: JSON nested too "
                                 "deeply") from exc
    return tuple(events)


def write_trace(h: Iterable[H.Event], path: str) -> None:
    """Write a history as JSONL, one event object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in h:
            fh.write(json.dumps(H.event_to_json(e), sort_keys=True) + "\n")


def write_report(report: dict, path: str) -> None:
    """Write a JSON report file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- presentation -------------------------------------------------------------


def _want_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _status(ok: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if _want_color():
        return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return word


def _pick_counterexample(violations: Sequence[Violation]) -> Violation:
    """An opacity violation if any, else the first one that is not
    ``simrel``: a simrel failure lies in the states, and its history may
    pass both ``check-history`` and ``check-refinement``."""
    def rank(v: Violation) -> int:
        return 0 if v.check == "opacity" else 2 if v.check == "simrel" else 1
    return min(violations, key=rank)


def _emit_counterexample(v: Violation, out: str | None) -> None:
    if v.check == "simrel":
        print(f"simrel broke at action {v.detail['action']} "
              f"({', '.join(v.detail['clauses'])}); the history up to it "
              "passed every other check of the run")
    if out is not None:
        write_trace(v.history, out)
        print(f"counterexample ({v.check}, {len(v.history)} events) "
              f"written to {out}")
        return
    print(f"counterexample ({v.check}, {len(v.history)} events), JSONL:")
    for e in v.history:
        print(json.dumps(H.event_to_json(e), sort_keys=True))


def _finish_run(report: CheckReport, checks: Sequence[str],
                out: str | None, report_path: str | None) -> int:
    counts = {c: 0 for c in checks}
    for v in report.violations:
        counts[v.selected_by] = counts.get(v.selected_by, 0) + 1
    print(f"histories explored: {report.histories_explored}")
    print(f"states visited:     {report.states_visited}")
    for c in sorted(counts):
        print(f"check {c}: {counts[c]} violation(s)")
    print(_status(report.ok))
    if not report.ok:
        _emit_counterexample(_pick_counterexample(report.violations), out)
    elif out is not None:
        write_trace((), out)
    if report_path is not None:
        write_report(report.as_dict(), report_path)
    return 0 if report.ok else 1


# -- subcommands --------------------------------------------------------------


def _checks_arg(text: str) -> tuple[str, ...]:
    """The check names of a ``--checks`` comma list.  An empty list is a
    usage error: a run with no check would pass whatever the machine did.
    ``ExplorationConfig`` still takes an empty tuple, for library use."""
    checks = tuple(c.strip() for c in text.split(",") if c.strip())
    if not checks:
        raise ValueError("--checks names no check")
    return checks


def _domain_from(args: argparse.Namespace) -> H.Domain:
    return H.Domain(args.txns, args.addrs, args.vals)


def _config_from(args: argparse.Namespace) -> ExplorationConfig:
    return ExplorationConfig(
        domain=_domain_from(args),
        max_crashes=args.max_crashes,
        flush_budget=args.flush_budget,
        max_steps=args.max_steps,
        seed=getattr(args, "seed", 0),
        checks=_checks_arg(args.checks),
        mutation=args.mutation,
        num_walks=getattr(args, "walks", 1000),
        min_crashes=getattr(args, "min_crashes", 0),
        continue_prob=getattr(args, "continue_prob", 0.0),
        crash_prob=getattr(args, "crash_prob", None),
        force=getattr(args, "force", False),
    )


def _cmd_explore(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    report = explore_exhaustive(cfg, stop_on=set(cfg.checks))
    return _finish_run(report, cfg.checks, args.out, args.report)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    report = explore_random(cfg, stop_on=set(cfg.checks))
    return _finish_run(report, cfg.checks, args.out, args.report)


def _cmd_walk_dtms2(args: argparse.Namespace) -> int:
    cfg = ExplorationConfig(
        domain=_domain_from(args),
        max_crashes=args.max_crashes, max_steps=args.max_steps,
        seed=args.seed, checks=_checks_arg(args.checks),
        num_walks=args.walks)
    report = walk_reference(cfg, stop_on=set(cfg.checks))
    return _finish_run(report, cfg.checks, args.out, args.report)


def _cmd_check_history(args: argparse.Namespace) -> int:
    h, domain = compact_history(read_trace(getattr(args, "in")))
    # 0 and the values the compacted trace names: any other value could
    # only answer a pending read, which would then read a value nobody
    # wrote, so a larger value domain never changes the verdict
    values = range(domain.num_vals)
    # the values are bounded by the trace, since the oracle's cost follows
    # their count; transactions and addresses keep the default bounds, so
    # that a trace too large to search is refused rather than searched
    bounds = OracleBounds(max_vals=max(OracleBounds().max_vals, len(values)))
    verdict = durably_opaque(h, values, bounds)
    print(f"{len(h)} events, value domain of {len(values)} values")
    if verdict.ok:
        print(f"durable opacity: {_status(True)}")
        return 0
    print(f"durable opacity: {_status(False)} — {verdict.reason} "
          f"(failing prefix: {verdict.failing_prefix})")
    return 1


def _cmd_check_refinement(args: argparse.Namespace) -> int:
    h, domain = compact_history(read_trace(getattr(args, "in")))
    result = dtms2_accepts(h, domain, durable=True)
    print(f"{len(h)} events against bounds txns={domain.num_txns} "
          f"addrs={domain.num_addrs} vals={domain.num_vals}")
    if result.ok:
        print(f"reference-automaton acceptance: {_status(True)}")
        return 0
    print(f"reference-automaton acceptance: {_status(False)} — first "
          f"impossible event at index {result.failed_at}")
    return 1


def _cmd_mutate(args: argparse.Namespace) -> int:
    wanted = ("opacity", "refinement")
    names = (args.mutation,) if args.mutation else MUTATIONS
    domain = _domain_from(args)
    escaped = []
    for name in names:
        cfg = ExplorationConfig(
            domain=domain, max_crashes=max(1, args.max_crashes),
            flush_budget=args.flush_budget, max_steps=args.max_steps,
            seed=args.seed, checks=wanted, mutation=name,
            num_walks=args.walks, min_crashes=1, continue_prob=0.85,
            crash_prob=0.02)
        report = explore_random(cfg, stop_on=set(wanted))
        found = {v.check for v in report.violations}
        if set(wanted) <= found:
            print(f"{name}: caught "
                  f"({', '.join(sorted(found))} violations found)")
        else:
            missing = sorted(set(wanted) - found)
            print(f"{name}: escaped ({', '.join(missing)} found nothing)")
            escaped.append(name)
    print(_status(not escaped))
    return 1 if escaped else 0


# -- argument parsing ---------------------------------------------------------


def _add_domain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--txns", type=int, default=2,
                   help="number of transactions (default 2)")
    p.add_argument("--addrs", type=int, default=2,
                   help="number of addresses (default 2)")
    p.add_argument("--vals", type=int, default=2,
                   help="number of values (default 2)")
    p.add_argument("--max-crashes", type=int, default=1,
                   help="crash budget (default 1)")
    p.add_argument("--max-steps", type=int, default=60,
                   help="schedule length bound (default 60)")


def _add_seed_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="random seed (default 0)")


def _add_machine_flags(p: argparse.ArgumentParser) -> None:
    _add_domain_flags(p)
    p.add_argument("--flush-budget", type=int, default=1,
                   help="background-flush budget (default 1)")
    p.add_argument("--mutation", choices=MUTATIONS, default=None,
                   help="inject a fault into the logging machine")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the counterexample trace (JSONL) here")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the full JSON report here")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="durastm",
        description="A bounded-exploration laboratory for durable "
                    "software transactional memory.")
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("explore", help="exhaustive bounded exploration")
    _add_machine_flags(ex)
    ex.add_argument("--checks", default="opacity,refinement,simrel",
                    help="comma list from opacity,refinement,simrel,"
                         "invariants (default opacity,refinement,simrel)")
    # the search cuts by the state quotient alone; the flag stays, with that
    # one choice, because bench/workloads.py passes it
    ex.add_argument("--dedup", choices=("state",), default="state",
                    help="state-merging policy (only: state)")
    ex.add_argument("--force", action="store_true",
                    help="override the exhaustive-bounds safety guard")
    _add_output_flags(ex)
    ex.set_defaults(func=_cmd_explore)

    fz = sub.add_parser("fuzz", help="seeded random walks of the machine")
    _add_machine_flags(fz)
    _add_seed_flag(fz)
    fz.add_argument("--checks", default="opacity,refinement",
                    help="comma list from opacity,refinement,simrel,"
                         "invariants (default opacity,refinement)")
    fz.add_argument("--walks", type=int, default=1000,
                    help="number of walks (default 1000)")
    fz.add_argument("--min-crashes", type=int, default=0,
                    help="force at least this many crashes per walk")
    fz.add_argument("--continue-prob", type=float, default=0.0,
                    help="bias toward continuing live transactions")
    fz.add_argument("--crash-prob", type=float, default=None,
                    help="dedicated crash probability per step")
    _add_output_flags(fz)
    fz.set_defaults(func=_cmd_fuzz)

    wk = sub.add_parser("walk-dtms2",
                        help="seeded random walks of the reference automaton")
    _add_domain_flags(wk)
    _add_seed_flag(wk)
    wk.add_argument("--checks", default="opacity,refinement",
                    help="comma list from opacity,refinement,weaksim "
                         "(default opacity,refinement)")
    wk.add_argument("--walks", type=int, default=1000,
                    help="number of walks (default 1000)")
    _add_output_flags(wk)
    wk.set_defaults(func=_cmd_walk_dtms2)

    ch = sub.add_parser("check-history",
                        help="durable opacity of one JSONL trace")
    ch.add_argument("--in", required=True, metavar="PATH",
                    help="JSONL trace to check")
    ch.set_defaults(func=_cmd_check_history)

    cr = sub.add_parser("check-refinement",
                        help="reference-automaton acceptance of one trace")
    cr.add_argument("--in", required=True, metavar="PATH",
                    help="JSONL trace to check")
    cr.set_defaults(func=_cmd_check_refinement)

    mu = sub.add_parser("mutate",
                        help="verify the checkers catch every fault injection")
    _add_domain_flags(mu)
    _add_seed_flag(mu)
    mu.add_argument("--flush-budget", type=int, default=1,
                    help="background-flush budget (default 1)")
    mu.add_argument("--mutation", choices=MUTATIONS, default=None,
                    help="test a single fault instead of all of them")
    mu.add_argument("--walks", type=int, default=1000,
                    help="walks per fault (default 1000)")
    mu.set_defaults(func=_cmd_mutate)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, TooLargeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
