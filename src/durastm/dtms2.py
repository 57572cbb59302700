"""Reference automaton for durable transactional memory.

The automaton is the correctness yardstick: a history is considered
durably-opaque-by-construction exactly when the automaton can produce it.
State is a growing sequence of committed memory snapshots plus, per
transaction, a begin point, a read set and a write set.

- A read may be served from any snapshot index that is at least the
  transaction's begin point and agrees with its entire read set; reading
  from a transaction's own write set leaves the read set untouched.
- A read-only transaction commits against any such snapshot; a writing
  transaction must validate its read set against the *latest* snapshot and
  appends a new snapshot with its writes applied.
- A crash aborts every live transaction and truncates the snapshot
  sequence to its final element: exactly the committed state survives.

An abort response may answer any pending read, write, or commit.  Begins
never answer with an abort, matching the event vocabulary of histories.

``dtms2_accepts`` decides membership of a history in the automaton's traces
by subset construction, exploring internal transitions between events.
The non-durable variant (``durable=False``) is the same automaton without
the crash transition; it is the target of the crash-erasure simulation.

``Acceptor`` is the one implementation of those subset-construction steps on
frames (frozen sets of automaton states): the trace step ``advance`` that
the explorer uses and that ``accepts`` runs over a whole history, and the
image steps ``match`` and ``silent`` that forward simulation uses.  Frames
are immutable, so each step is memoized, in a least-recently-used cache of
``MEMO_SIZE`` entries that lives as long as its acceptor: one history for
``dtms2_accepts``, one run for the explorer's drivers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
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
    res_commit_abort,
    res_read,
    res_read_abort,
    res_write,
    res_write_abort,
)

_INTERNAL = frozenset({"doRead", "doWrite", "doCommitRO", "doCommitW"})
# entries per acceptor step cache; bounds memory on long sweeps, where an
# unbounded memo doubled peak RSS for no further speed-up
MEMO_SIZE = 1024
_PENDING_PCS = frozenset(
    {"readPending", "readResp", "writePending", "writeResp", "commitPending"}
)


# the benchmark's workloads (bench/workloads.py) build their domain under
# this older name
Dtms2Config = Domain


@dataclass(frozen=True, order=True)
class Dtms2Action:
    """kind plus payload; ``idx`` selects the snapshot for reads and
    read-only commits."""

    kind: str
    tx: int | None = None
    addr: int | None = None
    val: int | None = None
    idx: int | None = None

    def __str__(self) -> str:
        parts = []
        if self.tx is not None:
            parts.append(f"t{self.tx}")
        if self.addr is not None:
            parts.append(f"a{self.addr}")
        if self.val is not None:
            parts.append(f"v{self.val}")
        if self.idx is not None:
            parts.append(f"n{self.idx}")
        return f"{self.kind}({', '.join(parts)})" if parts else self.kind


@lru_cache(maxsize=None)
def mact(kind: str, tx: int | None = None, *, addr: int | None = None,
         val: int | None = None, idx: int | None = None) -> Dtms2Action:
    """The one (immutable) action with these fields: a domain's alphabet is
    finite, so ``enabled`` hands out shared instances and the guard in
    ``step`` mostly matches on identity."""
    return Dtms2Action(kind, tx, addr, val, idx)


Assignment = tuple[tuple[int, int], ...]  # sorted (addr, value) pairs


def _get(aset: Assignment, addr: int) -> int | None:
    for a, v in aset:
        if a == addr:
            return v
    return None


def _put(aset: Assignment, addr: int, val: int) -> Assignment:
    return tuple(sorted({**dict(aset), addr: val}.items()))


def _subset_of(aset: Assignment, store: tuple[int, ...]) -> bool:
    return all(store[a] == v for a, v in aset)


class Dtms2State(NamedTuple):
    """Immutable automaton state, a tuple of its fields; per-transaction
    fields are tuples indexed by transaction id minus one."""

    mems: tuple[tuple[int, ...], ...]
    pc: tuple[str, ...]
    begin_idx: tuple[int, ...]
    rd_set: tuple[Assignment, ...]
    wr_set: tuple[Assignment, ...]
    cur_addr: tuple[int | None, ...]
    cur_val: tuple[int | None, ...]


class Dtms2Machine:
    def __init__(self, domain: Domain, durable: bool = True):
        self.domain = domain
        self.durable = durable

    def initial(self) -> Dtms2State:
        n = self.domain.num_txns
        return Dtms2State(
            mems=((0,) * self.domain.num_addrs,),
            pc=("notStarted",) * n,
            begin_idx=(0,) * n,
            rd_set=((),) * n,
            wr_set=((),) * n,
            cur_addr=(None,) * n,
            cur_val=(None,) * n,
        )

    # -- enabledness -------------------------------------------------------

    def valid_idx(self, s: Dtms2State, t: int, n: int) -> bool:
        i = t - 1
        return (s.begin_idx[i] <= n < len(s.mems)
                and _subset_of(s.rd_set[i], s.mems[n]))

    def enabled(self, s: Dtms2State) -> list[Dtms2Action]:
        out: list[Dtms2Action] = []
        for t in range(1, self.domain.num_txns + 1):
            out.extend(self._enabled_for(s, t))
        if self.durable:
            out.append(mact("crash"))
        return out

    def _enabled_for(self, s: Dtms2State, t: int) -> list[Dtms2Action]:
        i = t - 1
        pc = s.pc[i]
        out: list[Dtms2Action] = []
        if pc == "notStarted":
            return [mact("invBegin", t)]
        if pc == "beginPending":
            return [mact("resBegin", t)]
        if pc == "ready":
            out = [mact("invRead", t, addr=a)
                   for a in range(self.domain.num_addrs)]
            out += [mact("invWrite", t, addr=a, val=v)
                    for a in range(self.domain.num_addrs)
                    for v in range(self.domain.num_vals)]
            out.append(mact("invCommit", t))
            return out
        if pc == "readPending":
            if _get(s.wr_set[i], s.cur_addr[i]) is not None:
                out.append(mact("doRead", t))
            else:
                out += [mact("doRead", t, idx=n) for n in range(len(s.mems))
                        if self.valid_idx(s, t, n)]
        elif pc == "readResp":
            out.append(mact("resRead", t))
        elif pc == "writePending":
            out.append(mact("doWrite", t))
        elif pc == "writeResp":
            out.append(mact("resWrite", t))
        elif pc == "commitPending":
            if not s.wr_set[i]:
                out += [mact("doCommitRO", t, idx=n)
                        for n in range(len(s.mems)) if self.valid_idx(s, t, n)]
            if _subset_of(s.rd_set[i], s.mems[-1]):
                out.append(mact("doCommitW", t))
        elif pc == "commitResp":
            return [mact("resCommit", t)]
        else:  # committed / aborted
            return []
        if pc in _PENDING_PCS:
            out.append(mact("abortResp", t))
        return out

    # -- transition --------------------------------------------------------

    def step(self, s: Dtms2State, a: Dtms2Action) -> tuple[Dtms2State, Event | None]:
        if a.kind == "crash":
            if not self.durable:
                raise ValueError("crash is not part of the non-durable automaton")
            return self._apply_crash(s), CRASH
        if a.tx is None or not 1 <= a.tx <= self.domain.num_txns:
            raise ValueError(f"action {a} names no valid transaction")
        if a not in self._enabled_for(s, a.tx):
            raise ValueError(f"action {a} is not enabled")
        return self._apply_txn(s, a)

    def _apply_crash(self, s: Dtms2State) -> Dtms2State:
        n = self.domain.num_txns
        pcs = tuple(pc if pc in ("notStarted", "committed") else "aborted"
                    for pc in s.pc)
        return Dtms2State(
            mems=(s.mems[-1],),
            pc=pcs,
            begin_idx=(0,) * n,
            rd_set=((),) * n,
            wr_set=((),) * n,
            cur_addr=(None,) * n,
            cur_val=(None,) * n,
        )

    def _apply_txn(self, s: Dtms2State, a: Dtms2Action) -> tuple[Dtms2State, Event | None]:
        t = a.tx
        i = t - 1
        k = a.kind

        def upd1(field: tuple, value) -> tuple:
            return field[:i] + (value,) + field[i + 1:]

        def at(pc: str, **fields) -> Dtms2State:
            fields["pc"] = upd1(s.pc, pc)
            if pc in ("ready", "committed", "aborted"):
                fields.setdefault("cur_addr", upd1(s.cur_addr, None))
                fields.setdefault("cur_val", upd1(s.cur_val, None))
            if pc in ("committed", "aborted"):
                fields.setdefault("begin_idx", upd1(s.begin_idx, 0))
                fields.setdefault("rd_set", upd1(s.rd_set, ()))
                fields.setdefault("wr_set", upd1(s.wr_set, ()))
            return s._replace(**fields)

        if k == "invBegin":
            return at("beginPending",
                      begin_idx=upd1(s.begin_idx, len(s.mems) - 1)), inv_begin(t)
        if k == "resBegin":
            return at("ready"), res_begin(t)

        if k == "invRead":
            return at("readPending", cur_addr=upd1(s.cur_addr, a.addr)), \
                inv_read(t, a.addr)
        if k == "doRead":
            addr = s.cur_addr[i]
            own = _get(s.wr_set[i], addr)
            if own is not None:
                return at("readResp", cur_val=upd1(s.cur_val, own)), None
            v = s.mems[a.idx][addr]
            return at("readResp", cur_val=upd1(s.cur_val, v),
                      rd_set=upd1(s.rd_set, _put(s.rd_set[i], addr, v))), None
        if k == "resRead":
            return at("ready"), res_read(t, s.cur_val[i])

        if k == "invWrite":
            return at("writePending", cur_addr=upd1(s.cur_addr, a.addr),
                      cur_val=upd1(s.cur_val, a.val)), inv_write(t, a.addr, a.val)
        if k == "doWrite":
            new = _put(s.wr_set[i], s.cur_addr[i], s.cur_val[i])
            return at("writeResp", wr_set=upd1(s.wr_set, new)), None
        if k == "resWrite":
            return at("ready"), res_write(t)

        if k == "invCommit":
            return at("commitPending"), inv_commit(t)
        if k == "doCommitRO":
            return at("commitResp"), None
        if k == "doCommitW":
            snap = list(s.mems[-1])
            for addr, v in s.wr_set[i]:
                snap[addr] = v
            return at("commitResp", mems=s.mems + (tuple(snap),)), None
        if k == "resCommit":
            return at("committed"), res_commit(t)

        if k == "abortResp":
            pc = s.pc[i]
            if pc in ("readPending", "readResp"):
                e = res_read_abort(t)
            elif pc in ("writePending", "writeResp"):
                e = res_write_abort(t)
            else:
                e = res_commit_abort(t)
            return at("aborted"), e

        raise ValueError(f"unknown action kind {k!r}")


# -- acceptance ---------------------------------------------------------------

@dataclass(frozen=True)
class AcceptResult:
    ok: bool
    failed_at: int | None = None

    def __bool__(self) -> bool:  # convenience for quick checks
        return self.ok


def _closure(m: Dtms2Machine, states) -> set[Dtms2State]:
    seen = set(states)
    frontier = list(states)
    while frontier:
        s = frontier.pop()
        for a in m.enabled(s):
            if a.kind in _INTERNAL:
                s2, _ = m.step(s, a)
                if s2 not in seen:
                    seen.add(s2)
                    frontier.append(s2)
    return seen


def _matching_actions(m: Dtms2Machine, s: Dtms2State, e: Event) -> list[Dtms2Action]:
    if e.ev == "crash":
        return [mact("crash")] if m.durable else []
    t = e.tx
    if t is None or not 1 <= t <= m.domain.num_txns:
        return []
    i = t - 1
    pc = s.pc[i]
    ev = e.ev
    if ev == "invBegin":
        return [mact("invBegin", t)] if pc == "notStarted" else []
    if ev == "resBegin":
        return [mact("resBegin", t)] if pc == "beginPending" else []
    if ev == "invRead":
        if pc == "ready" and 0 <= e.addr < m.domain.num_addrs:
            return [mact("invRead", t, addr=e.addr)]
        return []
    if ev == "resRead":
        if e.abort:
            return [mact("abortResp", t)] if pc in ("readPending", "readResp") else []
        if pc == "readResp" and s.cur_val[i] == e.val:
            return [mact("resRead", t)]
        return []
    if ev == "invWrite":
        if (pc == "ready" and 0 <= e.addr < m.domain.num_addrs
                and 0 <= e.val < m.domain.num_vals):
            return [mact("invWrite", t, addr=e.addr, val=e.val)]
        return []
    if ev == "resWrite":
        if e.abort:
            return [mact("abortResp", t)] if pc in ("writePending", "writeResp") else []
        return [mact("resWrite", t)] if pc == "writeResp" else []
    if ev == "invCommit":
        return [mact("invCommit", t)] if pc == "ready" else []
    if ev == "resCommit":
        if e.abort:
            return [mact("abortResp", t)] if pc == "commitPending" else []
        return [mact("resCommit", t)] if pc == "commitResp" else []
    return []


def _advance(m: Dtms2Machine, frame: frozenset, e: Event) -> frozenset:
    successors = set()
    for s in _closure(m, frame):
        for a in _matching_actions(m, s, e):
            s2, emitted = m.step(s, a)
            if emitted != e:
                raise AssertionError(
                    f"matched action {a} emitted {emitted}, wanted {e}")
            successors.add(s2)
    return frozenset(successors)


def _match(m: Dtms2Machine, frame: frozenset, e: Event) -> frozenset:
    return frozenset(m.step(s, a)[0] for s in frame
                     for a in _matching_actions(m, s, e))


def _silent(m: Dtms2Machine, frame: frozenset, tx: int | None) -> frozenset:
    images = set(frame)
    if tx is not None:
        for s in frame:
            for a in m.enabled(s):
                if a.kind in _INTERNAL and a.tx == tx:
                    images.add(m.step(s, a)[0])
    return frozenset(images)


class Acceptor:
    """Memoized subset-construction steps of one automaton.

    ``advance(frame, e)`` closes the frame over internal transitions and
    then takes every action that emits e: one event of trace acceptance.
    ``match(frame, e)`` takes the emitting actions without the closure, and
    ``silent(frame, tx)`` lets each state stand still or take one internal
    action of transaction tx: the images of one visible or silent concrete
    step under forward simulation.  Every step returns a frame; an empty
    one means no state can go on.
    """

    def __init__(self, machine: Dtms2Machine) -> None:
        self.machine = machine
        self.advance = lru_cache(maxsize=MEMO_SIZE)(partial(_advance, machine))
        self.match = lru_cache(maxsize=MEMO_SIZE)(partial(_match, machine))
        self.silent = lru_cache(maxsize=MEMO_SIZE)(partial(_silent, machine))

    def initial(self) -> frozenset:
        return frozenset({self.machine.initial()})

    def accepts(self, h: History) -> AcceptResult:
        """Whether the automaton can produce h: ``advance`` from the
        initial frame through every event.  Rejection reports the index of
        the first impossible event."""
        frame = self.initial()
        for index, e in enumerate(h):
            frame = self.advance(frame, e)
            if not frame:
                return AcceptResult(False, failed_at=index)
        return AcceptResult(True)


def dtms2_accepts(h: History, domain: Domain,
                  durable: bool = True) -> AcceptResult:
    """Decide whether the automaton can produce the given event sequence.

    Subset construction: track every automaton state reachable on the
    events seen so far, closing over internal transitions before each
    event.  Rejection reports the index of the first impossible event.
    A fresh acceptor serves this one history; callers that judge many
    histories over one domain keep an ``Acceptor`` and call ``accepts``.
    """
    return Acceptor(Dtms2Machine(domain, durable=durable)).accepts(h)


def config_for_history(h: History) -> Domain:
    """Smallest bounds that cover every id, address and value in a history."""
    txns, addrs, vals = 1, 1, 1
    for e in h:
        if e.tx is not None:
            txns = max(txns, e.tx)
        if e.addr is not None:
            addrs = max(addrs, e.addr + 1)
        if e.val is not None:
            vals = max(vals, e.val + 1)
    return Domain(txns, addrs, vals)


def compact_history(h: History) -> tuple[History, Domain]:
    """The history with dense ids, and the smallest bounds that cover it.

    Transactions are renamed to 1..n, addresses to 0..m-1 and non-zero
    values to 1..k, each in increasing order; 0 stays, as the initial value
    of every address.  The automaton compares ids and values only for
    equality and starts from all zeros, so it accepts the renamed history
    exactly when it accepts the original, and rejects both at the same
    event; but its bounds, and so its cost, follow the number of ids rather
    than their size.
    """
    def dense(ids, first: int) -> dict:
        return {x: n for n, x in enumerate(sorted(ids), first)}

    txs = dense({e.tx for e in h if e.tx is not None}, 1)
    addrs = dense({e.addr for e in h if e.addr is not None}, 0)
    vals = dense({e.val for e in h if e.val}, 1)
    vals[0] = 0
    out = tuple(Event(e.ev, txs.get(e.tx), addrs.get(e.addr),
                      vals.get(e.val), e.abort) for e in h)
    return out, config_for_history(out)


def dtms2_random_walk(domain: Domain, rng, max_steps: int,
                      max_crashes: int = 0,
                      durable: bool = True) -> tuple[History, tuple[Dtms2Action, ...]]:
    """Uniform random walk through the automaton; returns the emitted
    history and the action schedule that produced it."""
    m = Dtms2Machine(domain, durable=durable)
    s = m.initial()
    crashes = 0
    events: list[Event] = []
    schedule: list[Dtms2Action] = []
    for _ in range(max_steps):
        options = m.enabled(s)
        if crashes >= max_crashes:
            options = [a for a in options if a.kind != "crash"]
        if not options:
            break
        a = rng.choice(options)
        if a.kind == "crash":
            crashes += 1
        s, e = m.step(s, a)
        schedule.append(a)
        if e is not None:
            events.append(e)
    return tuple(events), tuple(schedule)
