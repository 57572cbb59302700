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

Which event an action emits is stated once, in ``_event``: an abort
response emits the abort response of the operation pending at its control
point, a read's response the value the read returned, and every other
external action its own kind and payload; internal actions emit nothing.
An abort response is enabled while a read, write or commit is pending, so
it answers any of them, and never a begin.

Its actions are the logging machine's type, ``histories.Action``, from the
same interner, so the two share their invocations and responses as
objects.  Each machine builds its own action tables once, from its domain
(a ready row is ``histories.ready_invocations``), and both
``enabled`` and ``step`` read them: ``step`` accepts exactly the actions
that ``enabled`` lists.  An event is matched to the action that emits it
by asking ``_event`` of the enabled actions of its transaction whose kind
the event names.
Successor states are built field by field, and every part of a state is
one shared object per distinct value, so the states of a run hold one copy
of each distinct tuple.

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

from .histories import (CRASH, Action, Domain, Event, History, act,
                        ready_invocations, res_read)
from .nvm import shared, with_entry
from .reach import reach

# entries per acceptor step cache; bounds memory on long sweeps, where an
# unbounded memo doubled peak RSS for no further speed-up
MEMO_SIZE = 1024


# the benchmark's workloads (bench/workloads.py) build their domain under
# this older name
Dtms2Config = Domain


Assignment = tuple[tuple[int, int], ...]  # sorted (addr, value) pairs


def _get(aset: Assignment, addr: int) -> int | None:
    for a, v in aset:
        if a == addr:
            return v
    return None


def _put(aset: Assignment, addr: int, val: int) -> Assignment:
    return shared(tuple(sorted({**dict(aset), addr: val}.items())))


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


def _valid(s: Dtms2State, i: int, by_idx: tuple) -> list:
    """The actions of by_idx, indexed by snapshot, whose snapshot
    transaction i may use: not older than its begin point, and in agreement
    with its whole read set."""
    rd = s.rd_set[i]
    return [by_idx[n] for n in range(s.begin_idx[i], len(s.mems))
            if _subset_of(rd, s.mems[n])]


_INTERNAL_KINDS = frozenset({"doRead", "doWrite", "doCommitRO", "doCommitW"})

# the response that an abort gives at each control point where it is enabled
_ABORTED_RESPONSE = {
    "readPending": "resRead", "readResp": "resRead",
    "writePending": "resWrite", "writeResp": "resWrite",
    "commitPending": "resCommit",
}

# the control point each action leaves its transaction at
_NEXT_PC = {
    "invBegin": "beginPending", "resBegin": "ready",
    "invRead": "readPending", "doRead": "readResp", "resRead": "ready",
    "invWrite": "writePending", "doWrite": "writeResp", "resWrite": "ready",
    "invCommit": "commitPending", "doCommitRO": "commitResp",
    "doCommitW": "commitResp", "resCommit": "committed",
    "abortResp": "aborted",
}


def _event(a: Action, pc: str, cur_val: int | None) -> Event:
    """The event that external action a emits from control point pc, with
    cur_val its transaction's current value (the value its read returned):
    the one statement of which event each action emits.  Internal actions (those of
    ``_INTERNAL_KINDS``) emit no event and are never passed here."""
    k = a.kind
    if k == "abortResp":
        return Event(_ABORTED_RESPONSE[pc], a.tx, abort=True)
    if k == "resRead":
        return res_read(a.tx, cur_val)
    return Event(k, a.tx, a.addr, a.val)


def _txn_tables(t: int, addrs: range, vals: range,
                ) -> tuple[dict[str, tuple[Action, ...]],
                           dict[str, tuple[Action, ...]]]:
    """Transaction t's internal actions and its enabled actions (internal
    ones first) at each control point.  At readPending the internal actions
    are those of a read that its own write set answers, and at
    commitPending the writer's commit; the other reads and commits there
    depend on the state."""
    abort = act("abortResp", t)
    internal = {
        "readPending": (act("doRead", t),),
        "writePending": (act("doWrite", t),),
        "commitPending": (act("doCommitW", t),),
    }
    external = {
        "notStarted": (act("invBegin", t),),
        "beginPending": (act("resBegin", t),),
        "ready": ready_invocations(t, addrs, vals),
        "readPending": (abort,),
        "readResp": (act("resRead", t), abort),
        "writePending": (abort,),
        "writeResp": (act("resWrite", t), abort),
        "commitPending": (abort,),
        "commitResp": (act("resCommit", t),),
        "committed": (),
        "aborted": (),
    }
    enabled = {pc: internal.get(pc, ()) + acts
               for pc, acts in external.items()}
    return {pc: internal.get(pc, ()) for pc in external}, enabled


class Dtms2Machine:
    """Transition relation of the automaton, with or without crashes.

    The machine builds its own action tables once, from the domain: for
    each transaction the actions enabled at each control point, the
    internal ones among them, and, at its first read or commit, its reads
    and read-only commits for each snapshot index.
    ``enabled`` and ``internal`` put their lists together from the tables
    and ``step`` checks its action against the same tables, so enabledness
    has one definition.  Only readPending and commitPending look at the
    state, for the snapshot indices that agree with the read set.
    """

    def __init__(self, domain: Domain, durable: bool = True):
        self.domain = domain
        self.durable = durable
        addrs, vals = range(domain.num_addrs), range(domain.num_vals)
        self._txn_ids = range(1, domain.num_txns + 1)
        self._txn_internal, self._txn_acts = zip(
            *(_txn_tables(t, addrs, vals) for t in self._txn_ids))
        self._aborts = tuple(act("abortResp", t) for t in self._txn_ids)
        # each transaction's reads and read-only commits by snapshot index,
        # a row built at its first use (see _row), so that building the
        # machine stays linear in num_txns
        self._reads = [None] * domain.num_txns
        self._ro_commits = [None] * domain.num_txns
        self._tail = (act("crash"),) if durable else ()

    def initial(self) -> Dtms2State:
        n = self.domain.num_txns
        return Dtms2State(
            mems=shared((shared((0,) * self.domain.num_addrs),)),
            pc=shared(("notStarted",) * n),
            begin_idx=shared((0,) * n),
            rd_set=shared(((),) * n),
            wr_set=shared(((),) * n),
            cur_addr=shared((None,) * n),
            cur_val=shared((None,) * n),
        )

    # -- enabledness -------------------------------------------------------

    def enabled(self, s: Dtms2State) -> list[Action]:
        out: list[Action] = []
        for i in range(len(s.pc)):
            out += self._txn_enabled(s, i)
        out += self._tail
        return out

    def _txn_enabled(self, s: Dtms2State, i: int):
        pc = s.pc[i]
        if pc == "readPending" or pc == "commitPending":
            out = list(self.internal(s, i))
            out.append(self._aborts[i])
            return out
        return self._txn_acts[i][pc]

    def internal(self, s: Dtms2State, i: int):
        """The internal actions of transaction i + 1 enabled in s, in the
        order ``enabled`` lists them."""
        pc = s.pc[i]
        table = self._txn_internal[i]
        if pc == "readPending":
            if _get(s.wr_set[i], s.cur_addr[i]) is not None:
                return table[pc]
            return _valid(s, i, self._reads[i]
                          or self._row(self._reads, "doRead", i))
        if pc == "commitPending":
            out = [] if s.wr_set[i] else _valid(
                s, i, self._ro_commits[i]
                or self._row(self._ro_commits, "doCommitRO", i))
            if _subset_of(s.rd_set[i], s.mems[-1]):
                out += table[pc]
            return out
        return table[pc]

    def _row(self, rows: list, kind: str, i: int) -> tuple:
        """Build transaction i + 1's row of ``kind`` actions, one per
        snapshot index, into ``rows``.  Every transaction appends at most
        one snapshot, and a crash truncates them to one, so indices stay
        below num_txns + 1."""
        row = rows[i] = tuple(act(kind, i + 1, idx=n)
                              for n in range(self.domain.num_txns + 1))
        return row

    # -- transition --------------------------------------------------------

    def step(self, s: Dtms2State, a: Action) -> tuple[Dtms2State, Event | None]:
        if a.kind == "crash":
            if not self.durable:
                raise ValueError("crash is not part of the non-durable automaton")
            if a not in self._tail:
                raise ValueError(f"action {a} is not enabled")
            return self._apply_crash(s), CRASH
        t = a.tx
        if t not in self._txn_ids:
            raise ValueError(f"action {a} names no valid transaction")
        if a not in self._txn_enabled(s, t - 1):
            raise ValueError(f"action {a} is not enabled")
        return self._apply_txn(s, a, t - 1)

    def _apply_crash(self, s: Dtms2State) -> Dtms2State:
        n = self.domain.num_txns
        pcs = tuple(pc if pc in ("notStarted", "committed") else "aborted"
                    for pc in s.pc)
        empty, nothing = shared(((),) * n), shared((None,) * n)
        return Dtms2State(shared((s.mems[-1],)), shared(pcs),
                          shared((0,) * n), empty, empty, nothing, nothing)

    def _apply_txn(self, s: Dtms2State, a: Action,
                   i: int) -> tuple[Dtms2State, Event | None]:
        mems, pc, begin_idx, rd_set, wr_set, cur_addr, cur_val = s
        k = a.kind
        ev = None if k in _INTERNAL_KINDS else _event(a, pc[i], cur_val[i])
        nxt = _NEXT_PC[k]
        if k == "invBegin":
            begin_idx = with_entry(begin_idx, i, len(mems) - 1)
        elif k == "invRead":
            cur_addr = with_entry(cur_addr, i, a.addr)
        elif k == "doRead":
            addr = cur_addr[i]
            v = _get(wr_set[i], addr)
            if v is None:
                # a read its own write set does not answer joins the read set
                v = mems[a.idx][addr]
                rd_set = with_entry(rd_set, i, _put(rd_set[i], addr, v))
            cur_val = with_entry(cur_val, i, v)
        elif k == "invWrite":
            cur_addr = with_entry(cur_addr, i, a.addr)
            cur_val = with_entry(cur_val, i, a.val)
        elif k == "doWrite":
            wr_set = with_entry(wr_set, i,
                                _put(wr_set[i], cur_addr[i], cur_val[i]))
        elif k == "doCommitW":
            snap = list(mems[-1])
            for addr, v in wr_set[i]:
                snap[addr] = v
            mems = shared(mems + (shared(tuple(snap)),))

        if nxt in ("ready", "committed", "aborted"):
            cur_addr = with_entry(cur_addr, i, None)
            cur_val = with_entry(cur_val, i, None)
            if nxt != "ready":
                begin_idx = with_entry(begin_idx, i, 0)
                rd_set = with_entry(rd_set, i, ())
                wr_set = with_entry(wr_set, i, ())
        return Dtms2State(mems, with_entry(pc, i, nxt), begin_idx, rd_set,
                          wr_set, cur_addr, cur_val), ev


# -- acceptance ---------------------------------------------------------------

@dataclass(frozen=True)
class AcceptResult:
    ok: bool
    failed_at: int | None = None

    def __bool__(self) -> bool:  # convenience for quick checks
        return self.ok


def _closure(m: Dtms2Machine, states) -> set[Dtms2State]:
    """Every state reachable from states by internal actions.  ``internal``
    lists only enabled actions, so they are applied without ``step``
    checking them again; so are ``_silent``'s."""
    def successors(s: Dtms2State):
        for i in range(len(s.pc)):
            for a in m.internal(s, i):
                yield a, m._apply_txn(s, a, i)[0]

    return set(reach(states, successors)[0])


def _matching_actions(m: Dtms2Machine, s: Dtms2State, e: Event) -> list[Action]:
    """The actions enabled in s that emit e, in the order ``enabled`` lists
    them: those of e's transaction's table at its control point in s whose
    kind e names and for which ``_event`` returns e.  The reads and commits
    that depend on the state are internal, so no event names them; an
    event outside the domain has no table, so no action."""
    if e == CRASH:
        return list(m._tail)
    if e.tx not in m._txn_ids:
        return []
    i = e.tx - 1
    pc, v = s.pc[i], s.cur_val[i]
    kind = "abortResp" if e.abort else e.ev
    return [a for a in m._txn_acts[i][pc]
            if a.kind == kind and _event(a, pc, v) == e]


def _match(m: Dtms2Machine, frame, e: Event) -> frozenset:
    """Every state that one action emitting e takes a state of frame to."""
    images = set()
    for s in frame:
        for a in _matching_actions(m, s, e):
            if a.tx is None:  # the crash
                images.add(m._apply_crash(s))
            else:
                images.add(m._apply_txn(s, a, a.tx - 1)[0])
    return frozenset(images)


def _advance(m: Dtms2Machine, frame: frozenset, e: Event) -> frozenset:
    return _match(m, _closure(m, frame), e)


def _silent(m: Dtms2Machine, frame: frozenset, tx: int | None) -> frozenset:
    images = set(frame)
    if tx is not None:
        i = tx - 1
        for s in frame:
            for a in m.internal(s, i):
                images.add(m._apply_txn(s, a, i)[0])
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
    A fresh machine, which builds its own tables, and a fresh acceptor
    serve this one history; callers that judge many histories over one
    domain keep an ``Acceptor`` and call ``accepts``.
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


def dtms2_random_walk(m: Dtms2Machine, rng, max_steps: int,
                      max_crashes: int = 0,
                      ) -> tuple[History, tuple[Action, ...]]:
    """Uniform random walk through the automaton m; returns the emitted
    history and the action schedule that produced it."""
    s = m.initial()
    crashes = 0
    events: list[Event] = []
    schedule: list[Action] = []
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
