"""Interleaving-and-crash exploration of the durable TM implementation.

Exhaustive mode runs a depth-first search over every enabled action with
per-path crash and flush budgets, a begin-retry cut, and visited-state
deduplication keyed by the frozen machine state alone.  That cut is a
quotient: a path that reaches a state already expanded with as much depth
left ends there, whatever its history, so the sweep checks every edge it
walks but not every history within the bounds.  Random mode runs seeded
walks, uniform by default, with optional crash/continuation steering.  A
third driver walks the reference automaton directly for its own checks.

Checks run prefix-incrementally: every emitted event advances the
well-formedness status vector and the forward-simulation candidate set,
and an event that ``may_break_opacity`` runs the consistency oracle and
the reference automaton, in lockstep with the search, so paths cut by
deduplication have still had their whole prefix checked.  The state
invariants read the state alone: the stores may differ only at the
addresses that ``_unflushed`` reads off the control points, where a line
has written a value back and the next line flushes it.  So they are
checked once per state, where it is first reached.  A flush of an address
whose two stores already agree returns to the state it left, which the
cut ends at once, so the exhaustive search ends that path unstepped; every
other edge, a flush included, takes the same checks.  A path ends at its
first violation; the recorded counterexample is that prefix.
A ``simrel`` violation is the one exception: the path goes on without the
simulation frame, so that adding ``simrel`` to any run, one with no other
check included, changes no other verdict and no history or state count.

Refinement is decided where it can fail.  If the reference automaton
accepts a durably well-formed history h and h·e is durably well-formed,
it rejects h·e only if ``may_break_opacity(e)``: invocations, begin and
write responses, read and write aborts and the crash are always enabled
after h, so only a successful read response or a commit response can be
refused (``test_dtms2.test_only_the_events_that_may_break_opacity_are_rejected``).
So a path carries no trace frame.  A forward simulation implies trace
inclusion, so a non-empty simulation frame proves the history accepted:
the history is replayed through the run's one acceptor only at those
events, and only where opacity failed or the path has no non-empty frame.
"""
from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from . import histories as H
from .dtml import (MUTATIONS, NOT_LIVE_PCS, RECOVERY_LINES, DtmlMachine,
                   DtmlState)
from .dtms2 import Acceptor, Dtms2Machine, dtms2_random_walk
from .opacity import (OracleBounds, durably_opaque, end_to_end_opaque,
                      may_break_opacity)
from .refinement import check_weak_sim, sim_filter, sim_step

__all__ = [
    "ExplorationConfig",
    "Violation",
    "CheckReport",
    "canonical_hash",
    "explore_exhaustive",
    "explore_random",
    "walk_reference",
]

# checks meaningful when driving the implementation machine
_MACHINE_CHECKS = frozenset({"opacity", "refinement", "simrel", "invariants"})
# checks meaningful when walking the reference automaton
_REFERENCE_CHECKS = frozenset({"opacity", "refinement", "weaksim"})
_ALL_CHECKS = _MACHINE_CHECKS | _REFERENCE_CHECKS

# times a begin may re-read an odd (claimed) counter on one path; the spin
# at B2 is otherwise unbounded
MAX_BEGIN_RETRIES = 2

# opacity verdicts each exploration run remembers, keyed on the crash-erased
# history: schedules that differ only in silent steps reach the same
# history again, and on the 28-step 2x2x2 sweep 64 entries already hold
# 2,731 of the 2,746 repeats that an unbounded memo would find
OPACITY_MEMO_SIZE = 64

# simulation-frame prunings each exploration run remembers, keyed on the
# image frame and the concrete state: edges repeat both, and on the 28-step
# 2x2x2 sweep 1,024 entries hold 36,107 of the 81,341 calls (32,551 keys)
SIM_MEMO_SIZE = 1024

# when a walk must still crash, do so while enough steps remain for
# recovery plus one observer transaction, or the crash can prove nothing
_FORCED_CRASH_RESERVE = 16

# control points that can never hold the write claim; every other point
# with an odd snapshot (or W3, where glb is already odd but the local
# snapshot has not incremented yet) is inside the exclusive write region
_UNCLAIMED_PCS = NOT_LIVE_PCS | {"B1", "B2", "BeginResp", "CommitResp"}


@dataclass(frozen=True)
class ExplorationConfig:
    """Bounds, budgets, and check selection for one exploration run."""

    domain: H.Domain = H.Domain()
    max_crashes: int = 1
    flush_budget: int = 1
    max_steps: int = 60
    seed: int = 0
    checks: tuple[str, ...] = ("opacity", "refinement")
    mutation: str | None = None
    # random-mode extras
    num_walks: int = 1000
    min_crashes: int = 0
    crash_prob: float | None = None
    continue_prob: float = 0.0
    # override for the exhaustive-mode state-space guard
    force: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def check_set(self) -> frozenset[str]:
        return frozenset(self.checks)

    def validate(self, allowed_checks: frozenset[str], *,
                 exhaustive: bool = False) -> None:
        for c in self.checks:
            if c not in _ALL_CHECKS:
                raise ValueError(f"unknown check {c!r}")
            if c not in allowed_checks:
                raise ValueError(
                    f"check {c!r} does not apply to this driver "
                    f"(allowed: {sorted(allowed_checks)})")
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {self.mutation!r}; one of {MUTATIONS}")
        if min(self.max_crashes, self.flush_budget, self.max_steps,
               self.num_walks) < 0:
            raise ValueError("budgets must be non-negative")
        if not 0 <= self.min_crashes <= self.max_crashes:
            raise ValueError("min_crashes must lie within the crash budget")
        for name in ("crash_prob", "continue_prob"):
            p = getattr(self, name)
            if p is None and name != "continue_prob":
                continue
            # the negated range test also rejects NaN
            if (not isinstance(p, (int, float)) or isinstance(p, bool)
                    or not 0.0 <= p <= 1.0):
                raise ValueError(
                    f"{name} must be a number in [0, 1], got {p!r}")
        d = self.domain
        if exhaustive and not self.force and (
                d.num_txns > 3 or d.num_addrs > 2 or d.num_vals > 2):
            raise ValueError(
                "exhaustive exploration beyond 3 transactions / 2 addresses"
                " / 2 values explodes; override with --force"
                " (force=True in ExplorationConfig)")


@dataclass(frozen=True)
class Violation:
    """One failed check with the (prefix-truncated) counterexample.

    ``check`` names what failed; an invariant is named
    ``invariant.<name>``, and ``selected_by`` gives the ``checks`` entry
    that ran it.
    """

    check: str
    history: H.History
    detail: dict = field(default_factory=dict, compare=True)

    @property
    def selected_by(self) -> str:
        if self.check.startswith("invariant."):
            return "invariants"
        return self.check


@dataclass
class CheckReport:
    """Outcome of one exploration run.

    ``failed`` holds the ``check`` and the ``selected_by`` of every
    violation, so it names each check that failed, an invariant both by
    its own name and as ``invariants``.  Violations are recorded only
    through ``add``, which keeps the two in step.
    """

    histories_explored: int = 0
    states_visited: int = 0
    violations: list[Violation] = field(default_factory=list)
    elapsed: float = 0.0
    # the run's settings (see _config_block), so that a report says what
    # it covers
    config: dict = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)

    def add(self, v: Violation) -> None:
        self.violations.append(v)
        self.failed.update((v.check, v.selected_by))

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "histories_explored": self.histories_explored,
            "states_visited": self.states_visited,
            "elapsed": self.elapsed,
            "config": self.config,
            "violations": [
                {"check": v.check,
                 "history": [H.event_to_json(e) for e in v.history],
                 "detail": v.detail}
                for v in self.violations
            ],
        }


def _config_block(cfg: ExplorationConfig) -> dict:
    """The settings a report covers.  ``dedup`` names the key by which the
    run cut paths: None here, for walks that cut none, and "state" once
    the exhaustive search, which cuts by the state quotient, sets it."""
    d = cfg.domain
    return {
        "domain": {"num_txns": d.num_txns, "num_addrs": d.num_addrs,
                   "num_vals": d.num_vals},
        "dedup": None,
        "max_steps": cfg.max_steps,
        "max_crashes": cfg.max_crashes,
        "flush_budget": cfg.flush_budget,
        "checks": list(cfg.checks),
        "mutation": cfg.mutation,
    }


def canonical_hash(state: DtmlState) -> str:
    """Content digest of a machine state, stable across process runs.  The
    package does not call it; ``bench/spans.py`` times it by name."""
    payload = repr((
        state.glb, state.mem.vstore, state.mem.pstore, state.log.items(),
        state.pc, state.loc, state.in_addr, state.in_val, state.writer,
        state.syst_pc, state.rec_addr, state.rec_val,
    ))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# -- prefix-incremental checking ----------------------------------------------


def _unflushed(s: DtmlState) -> tuple[int, ...]:
    """The addresses where the volatile and persistent stores may differ:
    each is written back by one line and flushed by the next, so they are
    those of the writers at W7 and of recovery at C4."""
    out = tuple(a for pc, a in zip(s.pc, s.in_addr) if pc == "W7")
    return out + (s.rec_addr,) if s.syst_pc == "C4" else out


def _invariant_violation(s: DtmlState) -> str | None:
    """The name of the first state invariant that ``s`` breaks, or None."""
    claimants = [t for t in range(1, len(s.pc) + 1)
                 if s.pc[t - 1] == "W3"
                 or (s.loc[t - 1] % 2 == 1
                     and s.pc[t - 1] not in _UNCLAIMED_PCS)]
    expected = [] if s.writer is None else [s.writer]
    if claimants != expected:
        return "invariant.singleWriter"
    if s.syst_pc == "RecIdle" and (s.glb % 2 == 1) != (s.writer is not None):
        return "invariant.glbParity"
    vstore, pstore = s.mem
    if vstore != pstore:
        unflushed = _unflushed(s)
        if any(v != p and addr not in unflushed
               for addr, (v, p) in enumerate(zip(vstore, pstore))):
            return "invariant.flushDiff"
    if s.syst_pc == "RecIdle" and s.writer is None and not s.log.is_empty():
        return "invariant.logQuiet"
    return None


def _advance_trace(acceptor: Acceptor, aset: frozenset,
                   ev: H.Event) -> frozenset:
    """One event of the reference automaton's subset construction.  The
    package does not call it; ``bench/spans.py`` times it by name."""
    return acceptor.advance(aset, ev)


class _Path(NamedTuple):
    """What one search path carries besides its machine state.

    ``budgets`` is (crashes, flushes, retries): how many crashes and
    background flushes the path took, and per transaction how often a
    begin re-read an odd (claimed) counter at B2.  ``sim`` is the
    automaton candidate set of the simrel check (None when the check is
    off or past a simrel violation).  No frame stands for refinement:
    its history is replayed where an event may break it, and none for the
    invariants, which read the state alone.  ``wf`` is the
    well-formedness status vector of the path's events.
    """

    budgets: tuple[int, int, tuple[int, ...]]
    sim: frozenset | None
    wf: tuple


def _spend(budgets: tuple, s: DtmlState, a: H.Action) -> tuple:
    """The budgets spent once the path takes ``a`` in state ``s``."""
    crashes, flushes, retries = budgets
    if a.kind == "crash":
        return crashes + 1, flushes, retries
    if a.kind == "flush":
        return crashes, flushes + 1, retries
    if a.kind == "B2" and s.loc[a.tx - 1] % 2 == 1:
        i = a.tx - 1
        return (crashes, flushes,
                retries[:i] + (retries[i] + 1,) + retries[i + 1:])
    return budgets


class _Pipeline:
    """Per-edge checking shared by exhaustive and random exploration; it
    collects the run's violations in ``report``.

    Refinement is decided by replaying the history through ``acceptor``
    where ``check_edge`` says.  Past a ``simrel`` violation a path goes on
    without ``sim``, whatever other checks run, so ``simrel`` changes no
    other verdict and no history or state count.

    The pipeline holds no driver state: the driver tells ``check_edge``
    by its ``new`` flag whether the target is reached for the first time.
    The states reached before are the initial state, which ``start``
    checks, and targets of edges that passed, so each satisfies the
    invariants, which read the state alone.
    """

    def __init__(self, cfg: ExplorationConfig) -> None:
        self.cfg = cfg
        checks = self.checks = cfg.check_set
        self.machine = DtmlMachine(cfg.domain, mutation=cfg.mutation)
        self.acceptor = None
        if checks & {"refinement", "simrel"}:
            self.acceptor = Acceptor(Dtms2Machine(cfg.domain))
        self.sim_filter = lru_cache(maxsize=SIM_MEMO_SIZE)(sim_filter)
        value_domain = range(cfg.domain.num_vals)
        bounds = OracleBounds.covering(cfg.domain)

        # end_to_end_opaque is looked up at each miss, not bound here, so
        # that a wrapper installed on the module name sees every miss
        @lru_cache(maxsize=OPACITY_MEMO_SIZE)
        def opacity(history: H.History):
            return end_to_end_opaque(history, value_domain, bounds)

        self.opacity = opacity
        self.report = CheckReport(config=_config_block(cfg))

    def start(self, s0: DtmlState) -> _Path:
        """The path record of the empty schedule at the initial state
        ``s0``, which must satisfy the invariants and the relation to the
        automaton's initial state: ``check_edge`` checks only the targets
        of edges, so the root is checked here."""
        n = self.cfg.domain.num_txns
        sim = None
        if "simrel" in self.checks:
            sim, hard = self.sim_filter(self.acceptor.initial(), s0)
            if hard:
                raise AssertionError(
                    "state relation must hold at the initial pair")
        if ("invariants" in self.checks
                and _invariant_violation(s0) is not None):
            raise AssertionError("invariants must hold at the initial state")
        return _Path((0, 0, (0,) * n), sim, H.wf_start(n))

    def allowed(self, s: DtmlState, path: _Path) -> list[H.Action]:
        """The enabled actions of ``s``, in order, that ``path`` still has
        the budget to take."""
        cfg = self.cfg
        crashes, flushes, retries = path.budgets
        return [a for a in self.machine.enabled(s)
                if (a.kind != "crash" or crashes < cfg.max_crashes)
                and (a.kind != "flush" or flushes < cfg.flush_budget)
                and (a.kind != "B2" or s.loc[a.tx - 1] % 2 == 0
                     or retries[a.tx - 1] < MAX_BEGIN_RETRIES)]

    def check_edge(self, a: H.Action, s: DtmlState, s2: DtmlState,
                   ev: H.Event | None, events: list[H.Event],
                   path: _Path, new: bool = True) -> _Path | None:
        """Check one transition; ``events`` already includes ``ev``, and
        ``new`` says whether ``s2`` is reached here for the first time.

        Returns the path record after the step, or None when the step
        broke a check other than ``simrel``.  A failing event is reported
        under every check it breaks, so one counterexample can carry
        several verdicts.  The invariants read the state alone, so they are
        checked only at a new target.  ``sim`` is stepped unless opacity
        already failed here, and refinement is replayed only at an event
        that may break opacity, when opacity failed or ``sim`` is absent or
        empty: a non-empty frame proves the history accepted.  A ``simrel``
        violation never ends the path: the record goes on without ``sim``,
        even when no other check runs.
        """
        report = self.report
        if new and "invariants" in self.checks:
            inv = _invariant_violation(s2)
            if inv is not None:
                report.add(Violation(
                    inv, tuple(events), {"after_action": str(a)}))
                return None
        sim, wf = path.sim, path.wf
        viols: list[Violation] = []
        breaks = ev is not None and may_break_opacity(ev)
        if ev is not None:
            at = len(events) - 1
            wf = H.wf_step(wf, ev)
            if wf is None:
                report.add(Violation(
                    "wellformed", tuple(events), {"at_event": at}))
                return None
            if breaks and "opacity" in self.checks:
                verdict = self.opacity(H.ops(events))
                if not verdict.ok:
                    viols.append(Violation(
                        "opacity", tuple(events),
                        {"at_event": at, "reason": verdict.reason}))
        hard = ()
        if sim is not None and not viols:
            sim, hard = sim_step(self.acceptor, sim, a, s2, ev,
                                 prune=self.sim_filter)
        if (breaks and (viols or not sim)
                and (v := self._refuted(events)) is not None):
            viols.append(v)
        if viols:
            for v in viols:
                report.add(v)
            return None
        if hard:
            report.add(Violation("simrel", tuple(events),
                                 {"action": str(a), "clauses": list(hard)}))
            sim = None
        return _Path(_spend(path.budgets, s, a), sim, wf)

    def _refuted(self, events: list[H.Event]) -> Violation | None:
        """The refinement violation of ``events`` when refinement runs and
        the automaton cannot take their last event, else None; the history
        before that event must be one the automaton accepts."""
        if ("refinement" not in self.checks
                or self.acceptor.accepts(tuple(events))):
            return None
        return Violation("refinement", tuple(events),
                         {"at_event": len(events) - 1,
                          "event": str(events[-1])})


# -- exhaustive mode -----------------------------------------------------------


def explore_exhaustive(cfg: ExplorationConfig, on_history=None,
                       stop_on=None) -> CheckReport:
    """Depth-first search of every schedule within the configured bounds.

    ``on_history`` receives each maximal path's event history (paths end
    at the step bound, at a budget cut, at a revisited state, or at a
    violation other than ``simrel``).  ``stop_on`` names checks; the
    search stops early once every named check has at least one recorded
    violation.
    """
    cfg.validate(_MACHINE_CHECKS, exhaustive=True)
    # state -> the most remaining depth it was expanded with
    visited: dict = {}
    pipe = _Pipeline(cfg)
    machine = pipe.machine
    report = pipe.report
    stop = set(stop_on or ())
    report.config["dedup"] = "state"
    events: list[H.Event] = []
    start = time.perf_counter()
    stopped = False

    def finish_path() -> None:
        report.histories_explored += 1
        if on_history is not None:
            on_history(tuple(events))

    def dfs(s: DtmlState, depth: int, path: _Path) -> None:
        """Expand ``s``, which the dominance rule does not cut: it was not
        yet expanded with at least as much remaining depth.  A revisit with
        more steps left can reach continuations the first visit could not."""
        nonlocal stopped
        remaining = visited[s] = cfg.max_steps - depth
        if remaining <= 0:
            finish_path()
            return
        acts = pipe.allowed(s, path)
        vstore, pstore = s.mem
        for a in acts:
            if stopped:
                break
            if a.kind == "flush" and vstore[a.addr] == pstore[a.addr]:
                # the flush returns to s, expanded here with more depth
                # left, so the cut would end the path there; it emits no
                # event and breaks no check
                finish_path()
                continue
            s2, ev = machine.step(s, a)
            if ev is not None:
                events.append(ev)
            found = len(report.violations)
            expanded = visited.get(s2, -1)
            path2 = pipe.check_edge(a, s, s2, ev, events, path, expanded < 0)
            if (len(report.violations) > found and stop
                    and stop <= report.failed):
                stopped = True
            if path2 is None or stopped or expanded >= remaining - 1:
                finish_path()
            else:
                dfs(s2, depth + 1, path2)
            if ev is not None:
                events.pop()
        if not acts:
            finish_path()

    s0 = machine.initial()
    dfs(s0, 0, pipe.start(s0))
    report.states_visited = len(visited)
    report.elapsed = time.perf_counter() - start
    return report


# -- random mode ---------------------------------------------------------------


def _is_continuation(s: DtmlState, a: H.Action) -> bool:
    """Actions that advance an already-live transaction or the recovery
    routine; steering toward these makes walks mostly-sequential, which
    is where committed transactions (and durability bugs) live."""
    if a.kind in RECOVERY_LINES:
        return True
    return a.tx is not None and s.pc[a.tx - 1] not in NOT_LIVE_PCS


def _pick_action(rng: random.Random, cfg: ExplorationConfig,
                 acts: list[H.Action], s: DtmlState, crashes: int,
                 steps_left: int) -> H.Action:
    crash_acts = [a for a in acts if a.kind == "crash"]
    need = cfg.min_crashes - crashes
    if crash_acts and need > 0:
        # an outstanding forced crash fires as soon as some transaction
        # has committed and none is live, so the remaining fresh
        # transactions survive into the next era to observe what the
        # crash did to the committed state
        if (s.syst_pc == "RecIdle"
                and "Committed" in s.pc
                and all(pc in NOT_LIVE_PCS for pc in s.pc)):
            return crash_acts[0]
        # backstop: crash while the walk can still run recovery and an
        # observer transaction afterwards
        if steps_left <= _FORCED_CRASH_RESERVE + need - 1:
            return crash_acts[0]
    pool = list(acts)
    if cfg.crash_prob is not None:
        pool = [a for a in pool if a.kind != "crash"]
        if crash_acts and rng.random() < cfg.crash_prob:
            return crash_acts[0]
    if cfg.continue_prob > 0.0:
        cont = [a for a in pool if _is_continuation(s, a)]
        if cont and rng.random() < cfg.continue_prob:
            return rng.choice(cont)
    if not pool:
        pool = acts
    return rng.choice(pool)


def explore_random(cfg: ExplorationConfig, on_history=None,
                   stop_on=None) -> CheckReport:
    """Seeded random walks over the implementation machine.

    Walks are uniform over the budget-respecting enabled actions unless
    ``crash_prob``/``continue_prob`` steer the choice;
    ``min_crashes`` forces that many crashes into every walk.
    """
    cfg.validate(_MACHINE_CHECKS)
    seen: set[DtmlState] = set()
    pipe = _Pipeline(cfg)
    machine = pipe.machine
    report = pipe.report
    stop = set(stop_on or ())
    rng = random.Random(cfg.seed)
    start = time.perf_counter()

    for _ in range(cfg.num_walks):
        s = machine.initial()
        seen.add(s)
        path = pipe.start(s)
        events: list[H.Event] = []
        for step_no in range(cfg.max_steps):
            acts = pipe.allowed(s, path)
            if not acts:
                break
            a = _pick_action(rng, cfg, acts, s, path.budgets[0],
                             cfg.max_steps - step_no)
            s2, ev = machine.step(s, a)
            if ev is not None:
                events.append(ev)
            path = pipe.check_edge(a, s, s2, ev, events, path,
                                   s2 not in seen)
            if path is None:
                break
            s = s2
            seen.add(s)
        report.histories_explored += 1
        if on_history is not None:
            on_history(tuple(events))
        if stop and stop <= report.failed:
            break

    report.states_visited = len(seen)
    report.elapsed = time.perf_counter() - start
    return report


# -- reference-automaton walks ---------------------------------------------------


def walk_reference(cfg: ExplorationConfig, on_history=None,
                   stop_on=None) -> CheckReport:
    """Seeded random walks of the reference automaton itself.

    Each walk's history is checked for durable consistency, the
    ``refinement`` check runs it through the run's one acceptor, whose memo
    all walks share, and the ``weaksim`` check replays the walk's schedule
    against the crash-free automaton to confirm the crash steps can be
    erased.  A mutation, which only the logging machine has, is refused,
    and the report gives no flush budget.
    """
    cfg.validate(_REFERENCE_CHECKS)
    if cfg.mutation is not None:
        raise ValueError(f"mutation {cfg.mutation!r} does not apply to "
                         "the reference automaton")
    report = CheckReport(config=_config_block(cfg))
    report.config["flush_budget"] = None
    stop = set(stop_on or ())
    bounds = OracleBounds.covering(cfg.domain)
    durable = Dtms2Machine(cfg.domain)
    crash_free = Dtms2Machine(cfg.domain, durable=False)
    acceptor = None
    if "refinement" in cfg.check_set:
        acceptor = Acceptor(durable)
    rng = random.Random(cfg.seed)
    start = time.perf_counter()

    for walk_no in range(cfg.num_walks):
        h, schedule = dtms2_random_walk(
            durable, rng, cfg.max_steps, max_crashes=cfg.max_crashes)
        report.states_visited += len(schedule)
        if "opacity" in cfg.check_set:
            verdict = durably_opaque(h, range(cfg.domain.num_vals), bounds)
            if not verdict.ok:
                report.add(Violation(
                    "opacity", h,
                    {"walk": walk_no, "reason": verdict.reason}))
        if acceptor is not None:
            acc = acceptor.accepts(h)
            if not acc.ok:
                report.add(Violation(
                    "refinement", h,
                    {"walk": walk_no, "failed_at": acc.failed_at}))
        if "weaksim" in cfg.check_set:
            sim = check_weak_sim(durable, crash_free, schedule)
            if not sim.ok:
                report.add(Violation(
                    "weaksim", h,
                    {"walk": walk_no, "reason": sim.reason,
                     "failed_at": sim.failed_at}))
        report.histories_explored += 1
        if on_history is not None:
            on_history(h)
        if stop and stop <= report.failed:
            break

    report.elapsed = time.perf_counter() - start
    return report
