"""The benchmark's four workloads: their sizes, their pinned outputs, and the
timed checking call of each.

Every workload runs the real checking code and then compares what it got
with what the checkers must produce at the same bounds.  Each comparison
is one "pinned output"; the share of them that came out wrong is the
benchmark's count of failed operations.

Calls into durastm go through module attributes (``H.enumerate_histories``,
``cli.main``), never through names bound at import, so that a traced run can
replace them with span-recording wrappers.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from durastm import cli
from durastm import dtms2 as D2
from durastm import histories as H
from durastm import opacity as O
from durastm.dtml import MUTATIONS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

DOMAIN = ("--txns", "2", "--addrs", "2", "--vals", "2")
VALUES = range(2)
SWEEP_CHECKS = ("opacity", "refinement", "simrel", "invariants")
WALK_CHECKS = ("opacity", "refinement", "weaksim")
HUNT_CHECKS = ("opacity", "refinement")

# Sizes are fixed, not scaled to the clock, so that every count a run
# reports is the same on every machine.  On a 2-core Xeon KVM guest one
# full unit takes about: sweep 24 s, walks 0.7 s, oracle 1.5 s, hunt 12 s.
#   sweep  - step bound of the A1 exhaustive sweep; 28 is the least bound at
#            which some history reads, after the crash, an address that was
#            written before it, so the sweep reaches recovery and the
#            durability half of the checks
#   walks  - number of reference-automaton walks
#   oracle - event bound of the enumerated histories
#   hunt   - fuzz walks spent on each mutation
SIZES = {
    "full": {"sweep": 28, "walks": 500, "oracle": 6, "hunt": 1000},
    "tiny": {"sweep": 8, "walks": 20, "oracle": 4, "hunt": 100},
}

# What the checkers produced at those bounds when this benchmark was
# written, by (workload, size).
PINNED = {
    ("sweep", 28): {"histories": 106475, "states": 12647, "recovered": 16},
    ("sweep", 8): {"histories": 588, "states": 182, "recovered": 0},
    ("oracle", 6): {"histories": 4114},
    ("oracle", 4): {"histories": 180},
}

# Walks a mutation's first hunt may take.  Over the first hunts of workload
# seeds 0-299, catching needed at most 757 (skip_flush_W7), 549
# (skip_undo_log) and 1354 (skip_log_clear_E2) walks.
FIRST_HUNT_WALKS = 5000

# the sweep hands every SAMPLE_EVERY-th history to the standalone checkers
SAMPLE_EVERY = 3600
MAX_SAMPLES = 30


class SetupDone(Exception):
    """Raised at the first check call by a set-up probe."""


class Clock:
    """Set-up time up to the first check call, then the summed time of
    every check call.

    ``launch`` is the ``time.monotonic()`` reading the parent took just
    before starting this process, so set-up includes interpreter start-up
    and imports.  A probe clock stops the workload at its first check call.
    A tracer, when given, records spans only inside check calls, so the
    benchmark's own re-verification stays out of the layer counts.
    """

    def __init__(self, launch: float, probe: bool = False,
                 tracer=None) -> None:
        self.launch = launch
        self.probe = probe
        self.tracer = tracer
        self.setup_s: float | None = None
        self.verdict_s = 0.0

    @contextlib.contextmanager
    def verdict(self):
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.launch
            if self.probe:
                raise SetupDone
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.verdict_s += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.enabled = False


@dataclass
class Outcome:
    """What one workload unit did and how its outputs compared."""

    histories: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    cex_lengths: list[int] = field(default_factory=list)

    def expect(self, what: str, expected, got) -> None:
        self.attempted += 1
        if expected != got:
            self.failures.append(f"{what}: expected {expected!r}, got {got!r}")


def derive(seed: int, *parts) -> int:
    """A 32-bit seed for one random stream, fixed by the workload seed."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _report_path(name: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"{name}-{os.getpid()}.json"


def _run_cli(clock: Clock, argv: list[str], report: Path) -> tuple[int, dict]:
    """One timed ``durastm`` command; returns its exit code and report."""
    with clock.verdict(), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--report", str(report)])
    with open(report, encoding="utf-8") as fh:
        data = json.load(fh)
    report.unlink()
    return code, data


def _violation_counts(report: dict, checks) -> dict[str, int]:
    counts = {c: 0 for c in checks}
    for v in report["violations"]:
        counts[v["check"]] = counts.get(v["check"], 0) + 1
    return counts


def _reads_after_recovery(h: H.History) -> bool:
    """Whether ``h`` writes before its crash and reads after it, so that the
    read observes what recovery restored."""
    tags = [e.ev for e in h]
    if "crash" not in tags:
        return False
    c = tags.index("crash")
    return "invWrite" in tags[:c] and any(
        e.ev == "resRead" and not e.abort for e in h[c + 1:])


@contextlib.contextmanager
def _sampling_sweep(keep):
    """Give the CLI's exhaustive sweep an ``on_history`` hook, so that sweep
    histories can be re-verified as in A1.  The hook takes about 0.5% of
    the 28-step sweep."""
    original = cli.explore_exhaustive
    cli.explore_exhaustive = functools.partial(original, on_history=keep)
    try:
        yield
    finally:
        cli.explore_exhaustive = original


# -- the workloads ------------------------------------------------------------


def sweep(steps: int, seed: int, clock: Clock, expected: dict) -> Outcome:
    """The A1 configuration through ``durastm explore``.  Exhaustive, so the
    seed is not used.  Every SAMPLE_EVERY-th history, and every history
    that reads after recovery what was written before the crash, is
    re-verified with the standalone checkers."""
    out = Outcome()
    samples: list[H.History] = []
    recovered: list[H.History] = []
    seen = itertools.count()

    def keep(h: H.History) -> None:
        if next(seen) % SAMPLE_EVERY == 0 and h and len(samples) < MAX_SAMPLES:
            samples.append(h)
        if _reads_after_recovery(h):
            recovered.append(h)

    argv = ["explore", *DOMAIN, "--max-crashes", "1", "--flush-budget", "1",
            "--max-steps", str(steps), "--dedup", "state",
            "--checks", ",".join(SWEEP_CHECKS)]
    with _sampling_sweep(keep):
        code, report = _run_cli(clock, argv, _report_path("sweep"))
    out.histories = report["histories_explored"]
    out.expect("exit code", 0, code)
    out.expect("histories", expected["histories"],
               report["histories_explored"])
    out.expect("states", expected["states"], report["states_visited"])
    out.expect("histories read after recovery", expected["recovered"],
               len(recovered))
    for check, n in _violation_counts(report, SWEEP_CHECKS).items():
        out.expect(f"{check} violations", 0, n)
    config = D2.Dtms2Config(2, 2, 2)
    for i, h in enumerate(samples + recovered):
        out.expect(f"sample {i} durably opaque", True,
                   O.durably_opaque(h, VALUES).ok)
        out.expect(f"sample {i} accepted by dTMS2", True,
                   D2.dtms2_accepts(h, config).ok)
    return out


def walks(count: int, seed: int, clock: Clock, expected: dict) -> Outcome:
    """A5/A6 through ``durastm walk-dtms2``."""
    out = Outcome()
    argv = ["walk-dtms2", *DOMAIN, "--max-crashes", "2", "--max-steps", "40",
            "--walks", str(count), "--seed", str(derive(seed, "walks")),
            "--checks", ",".join(WALK_CHECKS)]
    code, report = _run_cli(clock, argv, _report_path("walks"))
    out.histories = report["histories_explored"]
    out.expect("exit code", 0, code)
    out.expect("walks checked", count, report["histories_explored"])
    for check, n in _violation_counts(report, WALK_CHECKS).items():
        out.expect(f"{check} violations", 0, n)
    return out


def oracle(max_events: int, seed: int, clock: Clock,
           expected: dict) -> Outcome:
    """A9: both opacity strategies on every enumerated history.  There is no
    subcommand for it, and it is exhaustive, so the seed is not used."""
    out = Outcome()
    disagreements = 0
    with clock.verdict():
        for h in H.enumerate_histories(2, 2, 2, max_events=max_events,
                                       max_crashes=1):
            o = H.ops(h)
            if (O.end_to_end_opaque(o, VALUES).ok
                    != O.end_to_end_opaque_alt(o, VALUES)):
                disagreements += 1
            out.histories += 1
    out.expect("disagreements", 0, disagreements)
    out.expect("histories vs count_histories",
               H.count_histories(2, 2, 2, max_events=max_events,
                                 max_crashes=1), out.histories)
    out.expect("histories", expected["histories"], out.histories)
    return out


def hunt(budget: int, seed: int, clock: Clock, expected: dict) -> Outcome:
    """A3/A4 through ``durastm fuzz`` for every mutation.

    Each mutation gets ``budget`` fuzz walks.  Hunts with seeds derived from
    the workload seed run one after another, each with the walks still
    left, so the work per run is fixed while every hunt stops at its own
    counterexample.  Only the last hunt of a mutation may run out of walks
    before both checks fire.  The first hunt may instead run past the
    budget, up to ``FIRST_HUNT_WALKS``, so that every mutant is caught.
    """
    out = Outcome()
    config = D2.Dtms2Config(2, 2, 2)
    for mutation in MUTATIONS:
        left, caught, k = budget, 0, 0
        while left > 0:
            walks = left if caught else max(left, FIRST_HUNT_WALKS)
            argv = ["fuzz", *DOMAIN, "--mutation", mutation,
                    "--min-crashes", "1", "--continue-prob", "0.85",
                    "--crash-prob", "0.02", "--walks", str(walks),
                    "--seed", str(derive(seed, "hunt", mutation, k)),
                    "--checks", ",".join(HUNT_CHECKS)]
            code, report = _run_cli(clock, argv, _report_path("hunt"))
            used = report["histories_explored"]
            out.histories += used
            found = {v["check"] for v in report["violations"]}
            if set(HUNT_CHECKS) <= found:
                caught += 1
                out.expect(f"{mutation} hunt {k} exit code", 1, code)
                cex = next(v for v in report["violations"]
                           if v["check"] == "opacity")
                h = tuple(H.event_from_json(e) for e in cex["history"])
                out.cex_lengths.append(len(h))
                out.expect(f"{mutation} hunt {k} crash-bearing", True,
                           any(H.is_crash(e) for e in h))
                out.expect(f"{mutation} hunt {k} rejected by the oracle",
                           False, O.durably_opaque(h, VALUES).ok)
                out.expect(f"{mutation} hunt {k} rejected by dTMS2",
                           False, D2.dtms2_accepts(h, config).ok)
            else:
                out.expect(f"{mutation} unfinished hunt walks", walks, used)
            left -= used
            k += 1
        out.expect(f"{mutation} caught", True, caught > 0)
    return out


WORKLOADS = {"sweep": sweep, "walks": walks, "oracle": oracle, "hunt": hunt}


def run(name: str, seed: int, clock: Clock, scale: str = "full",
        expected: dict | None = None) -> Outcome:
    """Run one unit of a workload against its pinned outputs (or against
    ``expected``, when given)."""
    size = SIZES[scale][name]
    if expected is None:
        expected = PINNED.get((name, size), {})
    return WORKLOADS[name](size, seed, clock, expected)
