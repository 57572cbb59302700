"""Durable transactional mutex lock over simulated non-volatile memory.

A small-step state machine: every line of the algorithm is one action, so an
explorer can interleave transactions at line granularity and inject crashes
and flushes between any two lines.

Concurrency control is a single global version counter (``glb``).  A
transaction snapshots it at begin and retries until the snapshot is even
(no writer active).  The first write claims the counter by an atomic
compare-and-swap to an odd value, making the claimant the sole writer;
readers whose snapshot no longer matches the counter abort.  Before each
first write to an address the old value is appended to a persistent undo
log, the new value is written to volatile memory and explicitly flushed.
Commit empties the log and bumps the counter back to even.  After a crash a
recovery routine replays the undo log (write back, flush, delete) and
resets the counter, in the lines ``RECOVERY_LINES``; no transaction may
begin until recovery finishes.

Its steps are ``histories.Action`` values from ``histories.act``, as the
automaton's are.  Each machine builds its action tables once, from its
domain (a ready row is ``histories.ready_invocations``), and both
``enabled`` and ``step`` read them: ``step`` accepts exactly the actions
that ``enabled`` lists.  Successor states are built field by field; the
memory and the undo log change only through their ``nvm`` methods.  Equal
per-transaction tuples are one shared object, as are equal memories and
logs, so the many states of a run hold one copy of each distinct part.

Mutations switch off one durability safeguard each, so that checkers can be
shown to catch the resulting bugs:

- ``skip_flush_W7``: the post-write flush is skipped.
- ``skip_undo_log``: old values are never logged.
- ``skip_log_clear_E2``: commit leaves the undo log populated.
"""
from __future__ import annotations

from typing import NamedTuple

from .histories import (
    CRASH,
    Action,
    Domain,
    Event,
    History,
    act,
    inv_begin,
    inv_commit,
    inv_read,
    inv_write,
    res_begin,
    res_commit,
    res_read,
    res_read_abort,
    res_write,
    res_write_abort,
    ready_invocations,
)
from .nvm import MemoryPair, UndoLog, shared, with_entry

MUTATIONS = ("skip_flush_W7", "skip_undo_log", "skip_log_clear_E2")
# the control points of a transaction that is not live: not yet begun, or
# finished
NOT_LIVE_PCS = frozenset({"NotStarted", "Committed", "Aborted"})
# the recovery procedure's lines; C2 undoes one undo-log entry
RECOVERY_LINES = ("C1", "C2", "C3", "C4", "C5", "C6")


class DtmlState(NamedTuple):
    """Immutable machine state, a tuple of its fields; per-transaction fields
    are tuples indexed by transaction id minus one."""

    glb: int
    mem: MemoryPair
    log: UndoLog
    pc: tuple[str, ...]
    loc: tuple[int, ...]
    in_addr: tuple[int | None, ...]
    in_val: tuple[int | None, ...]
    writer: int | None
    syst_pc: str
    rec_addr: int | None
    rec_val: int | None


def _txn_table(t: int, addrs: range,
               vals: range) -> dict[str, tuple[Action, ...]]:
    """Transaction t's enabled actions at each control point, where they do
    not depend on the state; at R2 and W2, those when validation passes."""
    table = {pc: (act(pc, t),)
             for pc in ("B1", "B2", "R1", "R2", "W1", "W2", "W3", "W4", "W5",
                        "W6", "W7", "E1", "E2", "E3")}
    table["NotStarted"] = (act("invBegin", t),)
    table["BeginResp"] = (act("resBegin", t),)
    table["Idle"] = ready_invocations(t, addrs, vals)
    table["ReadResp"] = (act("resRead", t),)
    table["WriteResp"] = (act("resWrite", t),)
    table["CommitResp"] = (act("resCommit", t),)
    table["Committed"] = table["Aborted"] = ()
    return table


class DtmlMachine:
    """Transition relation of the algorithm, optionally with one mutation.

    The action tables are built once, from the domain: for each transaction
    the actions enabled at each control point, the recovery actions, and
    the flushes and the crash, which are always enabled.  ``enabled`` puts
    its list together from the tables and ``step`` checks its action
    against the same tables, so enabledness has one definition.  Only four
    cases look at the state: a begin waits for recovery to finish, the
    validations at R2 and W2 compare the snapshot with the counter, and
    recovery at C2 may undo any logged entry.
    """

    def __init__(self, domain: Domain, mutation: str | None = None):
        if mutation is not None and mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutation!r}; expected one of {MUTATIONS}")
        self.domain = domain
        self.mutation = mutation
        addrs, vals = range(domain.num_addrs), range(domain.num_vals)
        self._txn_ids = range(1, domain.num_txns + 1)
        self._txn_acts = tuple(_txn_table(t, addrs, vals)
                               for t in self._txn_ids)
        self._rec_acts = {pc: (act(pc),)
                          for pc in RECOVERY_LINES if pc != "C2"}
        self._rec_acts["RecIdle"] = ()
        self._undo_acts = {(a, v): act("C2", addr=a, val=v)
                           for a in addrs for v in vals}
        self._tail = (tuple(act("flush", addr=a) for a in addrs)
                      + (act("crash"),))

    # -- state construction ----------------------------------------------

    def initial(self) -> DtmlState:
        n = self.domain.num_txns
        return DtmlState(
            glb=0,
            mem=MemoryPair.initial(self.domain.num_addrs),
            log=UndoLog.empty(),
            pc=shared(("NotStarted",) * n),
            loc=shared((0,) * n),
            in_addr=shared((None,) * n),
            in_val=shared((None,) * n),
            writer=None,
            syst_pc="RecIdle",
            rec_addr=None,
            rec_val=None,
        )

    # -- enabledness -------------------------------------------------------

    def enabled(self, s: DtmlState) -> list[Action]:
        out: list[Action] = []
        for i in range(len(s.pc)):
            out += self._txn_enabled(s, i)
        out += self._recovery_enabled(s)
        out += self._tail
        return out

    def _txn_enabled(self, s: DtmlState, i: int) -> tuple[Action, ...]:
        pc = s.pc[i]
        table = self._txn_acts[i]
        if pc == "NotStarted":
            # no transaction begins before recovery has finished
            return table[pc] if s.syst_pc == "RecIdle" else ()
        if (pc == "R2" or pc == "W2") and s.glb != s.loc[i]:
            # validation fails: the abort response is the only move
            return table["ReadResp" if pc == "R2" else "WriteResp"]
        return table[pc]

    def _recovery_enabled(self, s: DtmlState):
        if s.syst_pc == "C2":
            return [self._undo_acts[e] for e in s.log.items()]
        return self._rec_acts[s.syst_pc]

    # -- transition --------------------------------------------------------

    def step(self, s: DtmlState, a: Action) -> tuple[DtmlState, Event | None]:
        """Apply one enabled action; returns the successor state and the
        emitted external event (None for internal steps)."""
        t = a.tx
        if t is None:
            if a not in self._tail and a not in self._recovery_enabled(s):
                raise ValueError(f"action {a} is not enabled")
            if a.kind == "crash":
                return self._apply_crash(s), CRASH
            if a.kind == "flush":
                return DtmlState(s.glb, s.mem.flush(a.addr), *s[2:]), None
            return self._apply_recovery(s, a), None
        if t not in self._txn_ids or a not in self._txn_enabled(s, t - 1):
            raise ValueError(f"action {a} is not enabled")
        return self._apply_txn(s, a, t - 1)

    def run(self, schedule) -> History:
        """Drive the machine from its initial state; returns the history."""
        s = self.initial()
        events: list[Event] = []
        for i, a in enumerate(schedule):
            try:
                s, e = self.step(s, a)
            except ValueError as exc:
                raise ValueError(f"schedule position {i}: {exc}") from exc
            if e is not None:
                events.append(e)
        return tuple(events)

    def _apply_crash(self, s: DtmlState) -> DtmlState:
        pc, loc, in_addr, in_val = s.pc, s.loc, s.in_addr, s.in_val
        for i, p in enumerate(s.pc):
            if p not in NOT_LIVE_PCS:
                # a live transaction aborts and loses its snapshot and buffer
                pc, loc = with_entry(pc, i, "Aborted"), with_entry(loc, i, 0)
                in_addr = with_entry(in_addr, i, None)
                in_val = with_entry(in_val, i, None)
        return DtmlState(s.glb, s.mem.crash_reset(), s.log, pc, loc, in_addr,
                         in_val, None, "C1", None, None)

    def _apply_recovery(self, s: DtmlState, a: Action) -> DtmlState:
        (glb, mem, log, pc, loc, in_addr, in_val, writer, syst_pc, rec_addr,
         rec_val) = s
        k = a.kind
        if k == "C1":
            syst_pc = "C2" if not log.is_empty() else "C6"
        elif k == "C2":
            syst_pc, rec_addr, rec_val = "C3", a.addr, a.val
        elif k == "C3":
            syst_pc, mem = "C4", mem.write(rec_addr, rec_val)
        elif k == "C4":
            syst_pc, mem = "C5", mem.flush(rec_addr)
        elif k == "C5":
            syst_pc, log = "C1", log.pdelete(rec_addr, rec_val)
            rec_addr = rec_val = None
        else:  # C6
            syst_pc, glb = "RecIdle", 0
        return DtmlState(glb, mem, log, pc, loc, in_addr, in_val, writer,
                         syst_pc, rec_addr, rec_val)

    def _apply_txn(self, s: DtmlState, a: Action,
                   i: int) -> tuple[DtmlState, Event | None]:
        (glb, mem, log, pc, loc, in_addr, in_val, writer, syst_pc, rec_addr,
         rec_val) = s
        t = a.tx
        k = a.kind
        ev = None
        if k == "invBegin":
            nxt, ev = "B1", inv_begin(t)
        elif k == "B1":
            nxt, loc = "B2", with_entry(loc, i, glb)
        elif k == "B2":
            nxt = "BeginResp" if loc[i] % 2 == 0 else "B1"
        elif k == "resBegin":
            nxt, ev = "Idle", res_begin(t)

        elif k == "invRead":
            nxt, ev = "R1", inv_read(t, a.addr)
            in_addr = with_entry(in_addr, i, a.addr)
            in_val = with_entry(in_val, i, None)
        elif k == "R1":
            nxt, in_val = "R2", with_entry(in_val, i, mem.read(in_addr[i]))
        elif k == "R2":
            nxt = "ReadResp"
        elif k == "resRead":
            if pc[i] == "ReadResp":
                nxt, ev = "Idle", res_read(t, in_val[i])
            else:
                nxt, ev = "Aborted", res_read_abort(t)

        elif k == "invWrite":
            nxt, ev = "W1", inv_write(t, a.addr, a.val)
            in_addr = with_entry(in_addr, i, a.addr)
            in_val = with_entry(in_val, i, a.val)
        elif k == "W1":
            nxt = "W2" if loc[i] % 2 == 0 else "W4"
        elif k == "W2":
            nxt, glb, writer = "W3", loc[i] + 1, t
        elif k == "W3":
            nxt, loc = "W4", with_entry(loc, i, loc[i] + 1)
        elif k == "W4":
            # only the first write to an address saves its old value
            skip = (self.mutation == "skip_undo_log"
                    or log.contains_addr(in_addr[i]))
            nxt = "W6" if skip else "W5"
        elif k == "W5":
            nxt, log = "W6", log.pinsert(in_addr[i], mem.read(in_addr[i]))
        elif k == "W6":
            nxt, mem = "W7", mem.write(in_addr[i], in_val[i])
        elif k == "W7":
            nxt = "WriteResp"
            if self.mutation != "skip_flush_W7":
                mem = mem.flush(in_addr[i])
        elif k == "resWrite":
            if pc[i] == "WriteResp":
                nxt, ev = "Idle", res_write(t)
            else:
                nxt, ev = "Aborted", res_write_abort(t)

        elif k == "invCommit":
            nxt, ev = "E1", inv_commit(t)
        elif k == "E1":
            nxt = "E2" if loc[i] % 2 == 1 else "CommitResp"
        elif k == "E2":
            nxt = "E3"
            if self.mutation != "skip_log_clear_E2":
                log = log.pempty()
        elif k == "E3":
            nxt, glb, writer = "CommitResp", loc[i] + 1, None
        else:  # resCommit
            nxt, ev = "Committed", res_commit(t)

        if nxt in ("Idle", "Committed", "Aborted"):
            # entering a resting or terminal control point clears the
            # operation buffer; terminal points also drop the snapshot
            in_addr = with_entry(in_addr, i, None)
            in_val = with_entry(in_val, i, None)
            if nxt != "Idle":
                loc = with_entry(loc, i, 0)
        return DtmlState(glb, mem, log, with_entry(pc, i, nxt), loc, in_addr,
                         in_val, writer, syst_pc, rec_addr, rec_val), ev

    # -- reporting -----------------------------------------------------------

    def snapshot(self, s: DtmlState) -> dict:
        """JSON-friendly view of a state for reports and counterexamples."""
        pcs = []
        for i, pc in enumerate(s.pc):
            if pc == "ReadResp":
                pcs.append(f"ReadResp({s.in_val[i]})")
            else:
                pcs.append(pc)
        syst = s.syst_pc
        if s.rec_addr is not None:
            syst = f"{syst}({s.rec_addr},{s.rec_val})"
        return {
            "glb": s.glb,
            "loc": list(s.loc),
            "pc": pcs,
            "vstore": list(s.mem.vstore),
            "pstore": list(s.mem.pstore),
            "log": [[a, v] for a, v in s.log.items()],
            "writer": s.writer,
            "systPc": syst,
        }
