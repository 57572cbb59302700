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
resets the counter; no transaction may begin until recovery finishes.

Mutations switch off one durability safeguard each, so that checkers can be
shown to catch the resulting bugs:

- ``skip_flush_W7``: the post-write flush is skipped.
- ``skip_undo_log``: old values are never logged.
- ``skip_log_clear_E2``: commit leaves the undo log populated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .histories import (
    CRASH,
    Domain,
    Event,
    History,
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
)
from .nvm import MemoryPair, UndoLog

MUTATIONS = ("skip_flush_W7", "skip_undo_log", "skip_log_clear_E2")

_RECOVERY_STEPS = frozenset({"C1", "C2", "C3", "C4", "C5", "C6"})


@dataclass(frozen=True, order=True)
class DtmlAction:
    """One atomic step: an external event boundary, an algorithm line, a
    recovery line, a background flush, or a crash."""

    kind: str
    tx: int | None = None
    addr: int | None = None
    val: int | None = None

    def __str__(self) -> str:
        parts = []
        if self.tx is not None:
            parts.append(f"t{self.tx}")
        if self.addr is not None:
            parts.append(f"a{self.addr}")
        if self.val is not None:
            parts.append(f"v{self.val}")
        return f"{self.kind}({', '.join(parts)})" if parts else self.kind


@lru_cache(maxsize=None)
def act(kind: str, tx: int | None = None, *, addr: int | None = None,
        val: int | None = None) -> DtmlAction:
    """The one (immutable) action with these fields: a domain's alphabet is
    finite, so ``enabled`` hands out shared instances and the guard in
    ``step`` mostly matches on identity."""
    return DtmlAction(kind, tx, addr, val)


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


class DtmlMachine:
    """Transition relation of the algorithm, optionally with one mutation."""

    def __init__(self, domain: Domain, mutation: str | None = None):
        if mutation is not None and mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutation!r}; expected one of {MUTATIONS}")
        self.domain = domain
        self.mutation = mutation

    # -- state construction ----------------------------------------------

    def initial(self) -> DtmlState:
        n = self.domain.num_txns
        return DtmlState(
            glb=0,
            mem=MemoryPair.initial(self.domain.num_addrs),
            log=UndoLog.empty(),
            pc=("NotStarted",) * n,
            loc=(0,) * n,
            in_addr=(None,) * n,
            in_val=(None,) * n,
            writer=None,
            syst_pc="RecIdle",
            rec_addr=None,
            rec_val=None,
        )

    # -- enabledness -------------------------------------------------------

    def enabled(self, s: DtmlState) -> list[DtmlAction]:
        out: list[DtmlAction] = []
        for t in range(1, self.domain.num_txns + 1):
            out.extend(self._enabled_for(s, t))
        out.extend(self._enabled_recovery(s))
        for a in range(self.domain.num_addrs):
            out.append(act("flush", addr=a))
        out.append(act("crash"))
        return out

    def _enabled_for(self, s: DtmlState, t: int) -> list[DtmlAction]:
        pc = s.pc[t - 1]
        i = t - 1
        if pc == "NotStarted":
            if s.syst_pc == "RecIdle":
                return [act("invBegin", t)]
            return []
        if pc in ("B1", "B2", "R1", "W1", "W3", "W4", "W5", "W6", "W7",
                  "E1", "E2", "E3"):
            return [act(pc, t)]
        if pc == "BeginResp":
            return [act("resBegin", t)]
        if pc == "Idle":
            outs = [act("invRead", t, addr=a)
                    for a in range(self.domain.num_addrs)]
            outs += [act("invWrite", t, addr=a, val=v)
                     for a in range(self.domain.num_addrs)
                     for v in range(self.domain.num_vals)]
            outs.append(act("invCommit", t))
            return outs
        if pc == "R2":
            # validation: the internal step passes only if the snapshot
            # still matches; otherwise the abort response is the only move
            return [act("R2", t)] if s.glb == s.loc[i] else [act("resRead", t)]
        if pc == "ReadResp":
            return [act("resRead", t)]
        if pc == "W2":
            return [act("W2", t)] if s.glb == s.loc[i] else [act("resWrite", t)]
        if pc == "WriteResp":
            return [act("resWrite", t)]
        if pc == "CommitResp":
            return [act("resCommit", t)]
        return []  # Committed / Aborted

    def _enabled_recovery(self, s: DtmlState) -> list[DtmlAction]:
        pc = s.syst_pc
        if pc == "RecIdle":
            return []
        if pc == "C2":
            return [act("C2", addr=a, val=v) for a, v in s.log.items()]
        return [act(pc)]

    def _is_enabled(self, s: DtmlState, a: DtmlAction) -> bool:
        if a.kind == "crash":
            return True
        if a.kind == "flush":
            return a.addr is not None and 0 <= a.addr < self.domain.num_addrs
        if a.kind in _RECOVERY_STEPS:
            if a.kind != s.syst_pc:
                return False
            if a.kind == "C2":
                return (a.addr, a.val) in s.log.items()
            return True
        t = a.tx
        if t is None or not 1 <= t <= self.domain.num_txns:
            return False
        return a in self._enabled_for(s, t)

    # -- transition --------------------------------------------------------

    def step(self, s: DtmlState, a: DtmlAction) -> tuple[DtmlState, Event | None]:
        """Apply one enabled action; returns the successor state and the
        emitted external event (None for internal steps)."""
        if not self._is_enabled(s, a):
            raise ValueError(f"action {a} is not enabled")
        if a.kind == "crash":
            return self._apply_crash(s), CRASH
        if a.kind == "flush":
            return s._replace(mem=s.mem.flush(a.addr)), None
        if a.kind in _RECOVERY_STEPS:
            return self._apply_recovery(s, a), None
        return self._apply_txn(s, a)

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
        pcs, locs, addrs, vals = [], [], [], []
        for i, pc in enumerate(s.pc):
            if pc in ("NotStarted", "Committed", "Aborted"):
                pcs.append(pc)
                locs.append(s.loc[i])
                addrs.append(s.in_addr[i])
                vals.append(s.in_val[i])
            else:
                pcs.append("Aborted")
                locs.append(0)
                addrs.append(None)
                vals.append(None)
        return s._replace(
            mem=s.mem.crash_reset(),
            pc=tuple(pcs),
            loc=tuple(locs),
            in_addr=tuple(addrs),
            in_val=tuple(vals),
            writer=None,
            syst_pc="C1",
            rec_addr=None,
            rec_val=None,
        )

    def _apply_recovery(self, s: DtmlState, a: DtmlAction) -> DtmlState:
        k = a.kind
        if k == "C1":
            return s._replace(syst_pc="C2" if not s.log.is_empty() else "C6")
        if k == "C2":
            return s._replace(rec_addr=a.addr, rec_val=a.val, syst_pc="C3")
        if k == "C3":
            return s._replace(mem=s.mem.write(s.rec_addr, s.rec_val),
                              syst_pc="C4")
        if k == "C4":
            return s._replace(mem=s.mem.flush(s.rec_addr), syst_pc="C5")
        if k == "C5":
            return s._replace(log=s.log.pdelete(s.rec_addr, s.rec_val),
                              rec_addr=None, rec_val=None, syst_pc="C1")
        # C6
        return s._replace(glb=0, syst_pc="RecIdle")

    def _apply_txn(self, s: DtmlState, a: DtmlAction) -> tuple[DtmlState, Event | None]:
        t = a.tx
        i = t - 1
        k = a.kind

        def at(pc: str, **fields) -> DtmlState:
            upd = dict(fields)
            upd["pc"] = s.pc[:i] + (pc,) + s.pc[i + 1:]
            # entering a resting or terminal control point clears the
            # operation buffer; terminal points also drop the snapshot
            if pc in ("Idle", "Committed", "Aborted"):
                upd.setdefault("in_addr", s.in_addr[:i] + (None,) + s.in_addr[i + 1:])
                upd.setdefault("in_val", s.in_val[:i] + (None,) + s.in_val[i + 1:])
            if pc in ("Committed", "Aborted"):
                upd.setdefault("loc", s.loc[:i] + (0,) + s.loc[i + 1:])
            return s._replace(**upd)

        def set_loc(v: int):
            return s.loc[:i] + (v,) + s.loc[i + 1:]

        def set_in(addr=..., val=...):
            out = {}
            if addr is not ...:
                out["in_addr"] = s.in_addr[:i] + (addr,) + s.in_addr[i + 1:]
            if val is not ...:
                out["in_val"] = s.in_val[:i] + (val,) + s.in_val[i + 1:]
            return out

        if k == "invBegin":
            return at("B1"), inv_begin(t)
        if k == "B1":
            return at("B2", loc=set_loc(s.glb)), None
        if k == "B2":
            return at("BeginResp" if s.loc[i] % 2 == 0 else "B1"), None
        if k == "resBegin":
            return at("Idle"), res_begin(t)

        if k == "invRead":
            return at("R1", **set_in(addr=a.addr, val=None)), inv_read(t, a.addr)
        if k == "R1":
            return at("R2", **set_in(val=s.mem.read(s.in_addr[i]))), None
        if k == "R2":
            return at("ReadResp"), None
        if k == "resRead":
            if s.pc[i] == "ReadResp":
                return at("Idle"), res_read(t, s.in_val[i])
            return at("Aborted"), res_read_abort(t)

        if k == "invWrite":
            return at("W1", **set_in(addr=a.addr, val=a.val)), inv_write(t, a.addr, a.val)
        if k == "W1":
            return at("W2" if s.loc[i] % 2 == 0 else "W4"), None
        if k == "W2":
            return at("W3", glb=s.loc[i] + 1, writer=t), None
        if k == "W3":
            return at("W4", loc=set_loc(s.loc[i] + 1)), None
        if k == "W4":
            if self.mutation == "skip_undo_log":
                return at("W6"), None
            already = s.log.contains_addr(s.in_addr[i])
            return at("W6" if already else "W5"), None
        if k == "W5":
            new_log = s.log.pinsert(s.in_addr[i], s.mem.read(s.in_addr[i]))
            return at("W6", log=new_log), None
        if k == "W6":
            return at("W7", mem=s.mem.write(s.in_addr[i], s.in_val[i])), None
        if k == "W7":
            if self.mutation == "skip_flush_W7":
                return at("WriteResp"), None
            return at("WriteResp", mem=s.mem.flush(s.in_addr[i])), None
        if k == "resWrite":
            if s.pc[i] == "WriteResp":
                return at("Idle"), res_write(t)
            return at("Aborted"), res_write_abort(t)

        if k == "invCommit":
            return at("E1"), inv_commit(t)
        if k == "E1":
            return at("E2" if s.loc[i] % 2 == 1 else "CommitResp"), None
        if k == "E2":
            if self.mutation == "skip_log_clear_E2":
                return at("E3"), None
            return at("E3", log=s.log.pempty()), None
        if k == "E3":
            return at("CommitResp", glb=s.loc[i] + 1, writer=None), None
        if k == "resCommit":
            return at("Committed"), res_commit(t)

        raise ValueError(f"unknown action kind {k!r}")

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
