"""Refinement checkers linking the implementation machine to the reference
automaton.

Forward simulation is checked along concrete executions: the checker steps
the implementation machine and carries the set of reference-automaton
states that could have produced the same events so far (a determinized
candidate set, as in trace acceptance).  Candidates are pruned per step by
the global state relation, whose clauses are:

1. outside recovery, volatile memory equals the latest committed snapshot
   with the active writer's write set applied;
2. outside recovery, the snapshot count is one more than the number of
   completed writer commits implied by the version counter;
3. always, applying the undo log to volatile memory recovers the latest
   committed snapshot;
4. a transaction not started concretely has not started abstractly.

``global_rel_for`` evaluates the concrete side of these clauses once per
step; the candidates are then compared against it.

An empty candidate set after a step is a hard failure.  A further
per-transaction correspondence (program-counter table, pending-operation
payloads, read-set validity at the current snapshot, writer/write-set
parity, recovery snapshot collapse) is a reconstruction and is checked as
a soft layer: steps where no candidate satisfies it are flagged for review
but do not fail the run.

A writer that has passed the log-clear line is treated as already
committed: its writes no longer count as in-flight (``writes``) and the
version counter is read one bump ahead (``logical_glb``).  That line is
where the intended matching automaton run takes its writer-commit step.

``check_weak_sim`` replays a durable-automaton schedule against the
crash-free automaton, erasing crash steps and shifting snapshot indices by
the number of snapshots forgotten at each crash.  ``check_trace_refinement``
is plain trace membership of a history in the durable automaton.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .dtml import DtmlAction, DtmlMachine, DtmlState
from .dtms2 import (
    Acceptor,
    AcceptResult,
    Dtms2Machine,
    Dtms2State,
    compact_history,
    dtms2_accepts,
)
from .histories import Domain, Event, History, event_to_json, ops

# abstract status corresponding to each concrete program counter under the
# intended step synchronization (reads take effect at the memory fetch,
# writes at the volatile-store update, writer commits at the log clear)
_PC_TABLE = {
    "NotStarted": "notStarted",
    "B1": "beginPending", "B2": "beginPending", "BeginResp": "beginPending",
    "Idle": "ready",
    "R1": "readPending", "R2": "readPending", "ReadResp": "readResp",
    "W1": "writePending", "W2": "writePending", "W3": "writePending",
    "W4": "writePending", "W5": "writePending", "W6": "writePending",
    "W7": "writeResp", "WriteResp": "writeResp",
    "E1": "commitPending", "E2": "commitPending",
    "E3": "commitResp", "CommitResp": "commitResp",
    "Committed": "committed", "Aborted": "aborted",
}

_TERMINAL_PCS = ("NotStarted", "Committed", "Aborted")
# between the counter claim and the volatile-store update the writer's
# abstract write set legitimately lags its odd location snapshot
_PARITY_EXEMPT_PCS = frozenset({"W4", "W5", "W6"})


def _apply(store: tuple[int, ...], assignment) -> tuple[int, ...]:
    out = list(store)
    for a, v in assignment:
        out[a] = v
    return tuple(out)


def _live_writer(cs: DtmlState) -> int | None:
    """The writer whose writes are in flight: none once it has passed the
    log-clear line."""
    w = cs.writer
    if w is None or cs.pc[w - 1] == "E3":
        return None
    return w


def writes(cs: DtmlState, as_: Dtms2State):
    """The active writer's abstract write set, taken as empty once the
    writer has passed the log-clear line (its commit is then counted)."""
    w = _live_writer(cs)
    return () if w is None else as_.wr_set[w - 1]


def logical_glb(cs: DtmlState) -> int:
    """Version counter, read one bump ahead for a writer past the
    log-clear line."""
    if cs.writer is not None and cs.pc[cs.writer - 1] == "E3":
        return cs.glb + 1
    return cs.glb


def write_count(cs: DtmlState) -> int:
    """Number of completed writer commits implied by the version counter."""
    return logical_glb(cs) // 2


def global_rel_for(cs: DtmlState) -> Callable[[Dtms2State], str | None]:
    """The global state relation with its concrete side fixed: a function
    from an automaton state to its first violated clause, or None.

    Everything that depends on the concrete state alone is computed here,
    once, so that filtering many candidates against one concrete state
    costs only the comparisons with each candidate.
    """
    vstore = cs.mem.vstore
    recovering = cs.syst_pc != "RecIdle"
    w = _live_writer(cs)
    snapshots = write_count(cs) + 1
    restored = _apply(vstore, cs.log.items())
    not_started = [i for i, pc in enumerate(cs.pc) if pc == "NotStarted"]

    def clause(as_: Dtms2State) -> str | None:
        last = as_.mems[-1]
        if not recovering:
            if vstore != (last if w is None
                          else _apply(last, as_.wr_set[w - 1])):
                return "globalRel.1"
            if len(as_.mems) != snapshots:
                return "globalRel.2"
        if restored != last:
            return "globalRel.3"
        for i in not_started:
            if as_.pc[i] != "notStarted":
                return "globalRel.4"
        return None

    return clause


def global_rel_clause(cs: DtmlState, as_: Dtms2State) -> str | None:
    """First violated clause of the global state relation, or None."""
    return global_rel_for(cs)(as_)


def global_rel(cs: DtmlState, as_: Dtms2State) -> bool:
    return global_rel_clause(cs, as_) is None


def txn_rel_clause(cs: DtmlState, as_: Dtms2State, t: int) -> str | None:
    """First violated clause of the per-transaction correspondence for
    transaction t, or None.  This layer is a reconstruction and is
    reported softly by the simulation checker."""
    i = t - 1
    pc = cs.pc[i]
    if as_.pc[i] != _PC_TABLE[pc]:
        return f"txnRel.pc(t={t})"
    if pc in ("R1", "R2") and as_.cur_addr[i] != cs.in_addr[i]:
        return f"txnRel.readAddr(t={t})"
    if pc == "ReadResp" and as_.cur_val[i] != cs.in_val[i]:
        return f"txnRel.readVal(t={t})"
    if pc in ("W1", "W2", "W3", "W4", "W5", "W6") and (
            as_.cur_addr[i] != cs.in_addr[i] or as_.cur_val[i] != cs.in_val[i]):
        return f"txnRel.writeArgs(t={t})"
    in_flight = pc not in _TERMINAL_PCS
    # snapshot consistency for in-flight readers still on the current
    # version (the writer validates through its commit step instead)
    if in_flight and t != cs.writer and cs.loc[i] == cs.glb:
        n = write_count(cs)
        if not (n < len(as_.mems) and as_.begin_idx[i] <= n
                and all(as_.mems[n][a] == v for a, v in as_.rd_set[i])):
            return f"txnRel.validIdx(t={t})"
    if pc in ("B1", "B2", "BeginResp"):
        # a transaction still beginning may hold an odd counter snapshot
        # (that is what it spins on) but cannot have written anything
        if as_.wr_set[i]:
            return f"txnRel.writeSetParity(t={t})"
    elif in_flight and pc not in _PARITY_EXEMPT_PCS:
        if (cs.loc[i] % 2 == 1) != bool(as_.wr_set[i]):
            return f"txnRel.writeSetParity(t={t})"
    if cs.syst_pc != "RecIdle":
        if len(as_.mems) != 1:
            return "txnRel.recoverySnapshots"
        if cs.syst_pc in ("C4", "C5") and \
                cs.mem.vstore[cs.rec_addr] != as_.mems[0][cs.rec_addr]:
            return "txnRel.recoveryValue"
    return None


def txn_rel(cs: DtmlState, as_: Dtms2State, t: int) -> bool:
    return txn_rel_clause(cs, as_, t) is None


def _txn_rel_all(cs: DtmlState, as_: Dtms2State) -> str | None:
    for t in range(1, len(cs.pc) + 1):
        clause = txn_rel_clause(cs, as_, t)
        if clause is not None:
            return clause
    return None


@dataclass(frozen=True)
class SimWitness:
    """A concrete state with the automaton states that can have matched
    the events emitted so far."""

    concrete: DtmlState
    abstract_candidates: frozenset


def sim_step(acceptor: Acceptor, aset: frozenset, ca: DtmlAction,
             cs2: DtmlState, ev: Event | None,
             ) -> tuple[frozenset, list[str], list[str]]:
    """Advance the candidate set over one concrete step.

    Visible events must be matched by an automaton action; a silent step
    lets each candidate stand still or take one internal action of the
    same transaction.  Returns the pruned candidate set, the relation
    clauses that emptied it (hard failure) and, when the set is non-empty
    but no member satisfies the per-transaction layer, those soft clauses.
    """
    if ev is None:
        images = acceptor.silent(aset, ca.tx)
    else:
        images = acceptor.match(aset, ev)
    rel = global_rel_for(cs2)
    filtered = frozenset(a2 for a2 in images if rel(a2) is None)
    if not filtered:
        hard = sorted({rel(a2) for a2 in images} - {None}) \
            if images else ["no matching automaton action"]
        return filtered, hard, []
    soft: list[str] = []
    if not any(_txn_rel_all(cs2, a2) is None for a2 in filtered):
        soft = sorted({_txn_rel_all(cs2, a2) for a2 in filtered} - {None})
    return filtered, [], soft


@dataclass
class ForwardSimReport:
    ok: bool
    steps_checked: int
    hard_failure: dict | None = None
    soft_flags: list[dict] = field(default_factory=list)
    soft_flag_count: int = 0
    final_witness: SimWitness | None = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "stepsChecked": self.steps_checked,
            "hardFailure": self.hard_failure,
            "softFlags": self.soft_flags,
            "softFlagCount": self.soft_flag_count,
        }


def check_forward_sim(domain: Domain, schedule,
                      mutation: str | None = None) -> ForwardSimReport:
    """Step the implementation along a schedule, asserting after every
    step that some automaton candidate matches under the state relation."""
    cm = DtmlMachine(domain, mutation=mutation)
    acceptor = Acceptor(Dtms2Machine(domain))
    cs = cm.initial()
    aset = acceptor.initial()
    if any(global_rel_clause(cs, a0) is not None for a0 in aset):
        raise AssertionError("state relation must hold at the initial pair")
    soft_flags: list[dict] = []
    soft_count = 0
    steps = 0
    for k, ca in enumerate(schedule):
        steps = k + 1
        try:
            cs2, ev = cm.step(cs, ca)
        except ValueError as exc:
            raise ValueError(f"schedule position {k}: {exc}") from exc
        aset2, hard, soft = sim_step(acceptor, aset, ca, cs2, ev)
        if hard:
            return ForwardSimReport(
                ok=False, steps_checked=k + 1,
                hard_failure={
                    "index": k,
                    "action": str(ca),
                    "event": None if ev is None else event_to_json(ev),
                    "clauses": hard,
                    "state": cm.snapshot(cs2),
                },
                soft_flags=soft_flags, soft_flag_count=soft_count)
        if soft:
            soft_count += 1
            if len(soft_flags) < 10:
                soft_flags.append({
                    "tag": "table_suspect",
                    "index": k,
                    "action": str(ca),
                    "clauses": soft,
                    "state": cm.snapshot(cs2),
                })
        cs, aset = cs2, aset2
    return ForwardSimReport(ok=True, steps_checked=steps,
                            soft_flags=soft_flags, soft_flag_count=soft_count,
                            final_witness=SimWitness(cs, aset))


# -- weak simulation: crash erasure ------------------------------------------

@dataclass
class WeakSimReport:
    ok: bool
    reason: str = ""
    failed_at: int | None = None
    durable_history: History = ()
    target_history: History = ()

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "failedAt": self.failed_at,
            "durableHistory": [event_to_json(e) for e in self.durable_history],
            "targetHistory": [event_to_json(e) for e in self.target_history],
        }


def check_weak_sim(domain: Domain, schedule) -> WeakSimReport:
    """Mirror a durable-automaton schedule on the crash-free automaton.

    Crash steps are erased; snapshot indices in mirrored actions are
    shifted by the number of snapshots the crashes discarded.  The run
    fails if a mirrored action is not enabled, if the surviving snapshots
    stop agreeing, or if the produced histories differ after erasing
    crash markers.
    """
    dm = Dtms2Machine(domain, durable=True)
    tm = Dtms2Machine(domain, durable=False)
    ds, ts = dm.initial(), tm.initial()
    offset = 0
    d_events, t_events = [], []

    def fail(k, reason):
        return WeakSimReport(ok=False, reason=reason, failed_at=k,
                             durable_history=tuple(d_events),
                             target_history=tuple(t_events))

    for k, a in enumerate(schedule):
        if a.kind == "crash":
            offset += len(ds.mems) - 1
            ds, e = dm.step(ds, a)
            d_events.append(e)
        else:
            mirrored = a if a.idx is None else replace(a, idx=a.idx + offset)
            try:
                ts2, te = tm.step(ts, mirrored)
            except ValueError as exc:
                return fail(k, f"mirrored action {mirrored} rejected: {exc}")
            ds, de = dm.step(ds, a)
            ts = ts2
            if de is not None:
                d_events.append(de)
            if te is not None:
                t_events.append(te)
        if ds.mems != ts.mems[offset:]:
            return fail(k, "snapshot suffixes diverged")
    if ops(tuple(d_events)) != tuple(t_events):
        return fail(None, "histories differ after crash erasure")
    return WeakSimReport(ok=True, durable_history=tuple(d_events),
                         target_history=tuple(t_events))


# -- trace membership -----------------------------------------------------------

def check_trace_refinement(h: History, domain: Domain | None = None,
                           durable: bool = True) -> AcceptResult:
    """Is the history a trace of the reference automaton?  Without a
    domain, its ids are first made dense (see ``compact_history``)."""
    if domain is None:
        h, domain = compact_history(h)
    return dtms2_accepts(h, domain, durable=durable)
