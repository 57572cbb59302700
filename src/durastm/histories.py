"""Transactional histories: events, well-formedness, crash eras, completions,
and the ``Domain`` of transaction ids, addresses and values they range over.

A history is a finite sequence of invocation/response events of transactional
operations (begin, read, write, commit), possibly interleaved across
transactions and punctuated by crash markers.  This module fixes the event
vocabulary, the matching-response discipline, the crash-erasure and era
structure used by durable correctness notions, and the completion
construction that resolves pending invocations.

The per-transaction event grammar (begin first, then invocations alternating
with their matching responses, until a commit or abort response or a crash
ends the transaction) is stated once, in the table ``_GRAMMAR``.  The
well-formedness checks accept events by it, the enumerator generates them
from it, ``count_histories`` counts its moves, and ``matches``,
``completions`` and ``real_time_precedes`` read their pairings and endings
from it.  Which fields each tag carries, and what a response returns, is
stated once too, in ``_FIELDS``: the enumerator draws the payloads it
names, ``event_from_json`` allows exactly those fields, and ``rval`` reads
its response values.

Events are immutable values; histories are tuples of events.  Both
machines step by ``Action`` values, interned by ``act``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, NamedTuple, Sequence

INV_TAGS = ("invBegin", "invRead", "invWrite", "invCommit")
RES_TAGS = ("resBegin", "resRead", "resWrite", "resCommit")
EV_TAGS = INV_TAGS + RES_TAGS + ("crash",)

# The per-transaction grammar of durable well-formedness: for each status
# of a transaction (NS not started, PB begin pending, RD ready, PR/PW/PC
# read/write/commit pending, HALT finished: committed, aborted, or cut off by
# a crash), the event tags it may take next, each with its next status
# without and with the abort flag.  None marks a tag with no abort response,
# whose flag is then ignored.  The enumerator takes the tags in this order.
_NS, _HALT = "NS", "HALT"
_GRAMMAR = {
    _NS: {"invBegin": ("PB", None)},
    "PB": {"resBegin": ("RD", None)},
    "RD": {"invRead": ("PR", None), "invWrite": ("PW", None),
           "invCommit": ("PC", None)},
    "PR": {"resRead": ("RD", _HALT)},
    "PW": {"resWrite": ("RD", _HALT)},
    "PC": {"resCommit": (_HALT, _HALT)},
    _HALT: {},
}
# the status each invocation leaves its transaction pending in
_PENDING = {tag: ok for moves in _GRAMMAR.values()
            for tag, (ok, _) in moves.items() if tag in INV_TAGS}
# the tags whose events finish their transaction, without and with the
# abort flag
_ENDS = {abort: frozenset(tag for moves in _GRAMMAR.values()
                          for tag, (ok, ab) in moves.items()
                          if (ab or ok if abort else ok) == _HALT)
         for abort in (False, True)}
# the tags that have an abort response
_ABORTABLE = frozenset(tag for moves in _GRAMMAR.values()
                       for tag, (_, ab) in moves.items() if ab is not None)

# The fields each tag carries besides its transaction, in order ("addr" an
# address, "val" a value), and what a response returns when it carries
# none; a response with a field returns it.  An aborted response carries no
# field and returns "abort".
_FIELDS = {
    "invBegin": ((), None), "resBegin": ((), "ok"),
    "invRead": (("addr",), None), "resRead": (("val",), None),
    "invWrite": (("addr", "val"), None), "resWrite": ((), "ok"),
    "invCommit": ((), None), "resCommit": ((), "commit"),
}
# what each response returns unless aborted, None where it returns its field
_RETURNS = {tag: word for tag, (_, word) in _FIELDS.items()
            if tag in RES_TAGS}

# (transaction, status, addresses, values) move lists each process keeps:
# the enumerator asks for the same few again at every node
_MOVES_MEMO_SIZE = 256


class Event(NamedTuple):
    """One event.  A tuple underneath, so that hashing and equality (the
    opacity memo's keys, the acceptor's LRU keys) run in C."""

    ev: str
    tx: int | None = None
    addr: int | None = None
    val: int | None = None
    abort: bool = False


History = tuple[Event, ...]

CRASH = Event("crash")


class Action(NamedTuple):
    """One step of the logging machine or of the reference automaton;
    ``idx`` selects the automaton's snapshot for reads and read-only
    commits.  A tuple underneath, so that hashing and equality run in C."""

    kind: str
    tx: int | None = None
    addr: int | None = None
    val: int | None = None
    idx: int | None = None

    def __str__(self) -> str:
        # t<tx>, a<addr>, v<val>, n<idx>, each where it is given
        parts = [f"{p}{x}" for p, x in zip("tavn", self[1:]) if x is not None]
        return f"{self.kind}({', '.join(parts)})" if parts else self.kind


@lru_cache(maxsize=None)
def act(kind: str, tx: int | None = None, *, addr: int | None = None,
        val: int | None = None, idx: int | None = None) -> Action:
    """The action with these fields, one object for each call written the
    same way: a domain's alphabet is finite, so the machines' action tables
    hold shared instances, and ``step`` finds an action that ``enabled``
    handed out by identity."""
    return Action(kind, tx, addr, val, idx)


@dataclass(frozen=True)
class Domain:
    """The one domain the logging machine, the reference automaton and the
    explorer range over: transactions 1..num_txns (0 names the
    system/recovery actor), addresses 0..num_addrs-1, values
    0..num_vals-1."""

    num_txns: int = 2
    num_addrs: int = 2
    num_vals: int = 2

    def __post_init__(self) -> None:
        for name in ("num_txns", "num_addrs", "num_vals"):
            n = getattr(self, name)
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")


def inv_begin(t: int) -> Event:
    return Event("invBegin", t)


def res_begin(t: int) -> Event:
    return Event("resBegin", t)


def inv_read(t: int, addr: int) -> Event:
    return Event("invRead", t, addr=addr)


def res_read(t: int, val: int) -> Event:
    return Event("resRead", t, val=val)


def res_read_abort(t: int) -> Event:
    return Event("resRead", t, abort=True)


def inv_write(t: int, addr: int, val: int) -> Event:
    return Event("invWrite", t, addr=addr, val=val)


def res_write(t: int) -> Event:
    return Event("resWrite", t)


def res_write_abort(t: int) -> Event:
    return Event("resWrite", t, abort=True)


def inv_commit(t: int) -> Event:
    return Event("invCommit", t)


def res_commit(t: int) -> Event:
    return Event("resCommit", t)


def res_commit_abort(t: int) -> Event:
    return Event("resCommit", t, abort=True)


def is_invocation(e: Event) -> bool:
    return e.ev in INV_TAGS


def is_response(e: Event) -> bool:
    return e.ev in RES_TAGS


def is_crash(e: Event) -> bool:
    return e.ev == "crash"


def rval(e: Event):
    """Response value of e: a value for successful reads, ok / commit /
    abort for the other responses, None for invocations and crashes."""
    ev = e.ev
    if ev not in _RETURNS:
        return None
    if e.abort and ev in _ABORTABLE:
        return "abort"
    word = _RETURNS[ev]
    return e.val if word is None else word


def matches(inv: Event, res: Event) -> bool:
    return (
        is_invocation(inv)
        and is_response(res)
        and res.ev in _GRAMMAR[_PENDING[inv.ev]]
        and res.tx == inv.tx
    )


def project(h: Sequence[Event], t: int) -> History:
    """Subsequence of h belonging to transaction t (crash markers excluded)."""
    return tuple(e for e in h if e.tx == t and e.ev != "crash")


def txn_ids(h: Sequence[Event]) -> tuple[int, ...]:
    return tuple(sorted({e.tx for e in h if e.ev != "crash"}))


def ops(h: Sequence[Event]) -> History:
    """h with every crash marker erased."""
    return tuple(e for e in h if e.ev != "crash")


def eras(h: Sequence[Event]) -> tuple[History, ...]:
    """Crash-free segments of h; n crashes give n+1 eras."""
    out: list[History] = []
    cur: list[Event] = []
    for e in h:
        if is_crash(e):
            out.append(tuple(cur))
            cur = []
        else:
            cur.append(e)
    out.append(tuple(cur))
    return tuple(out)


_CRASHY = "well_formed is defined on crash-free histories"


def _next_status(s: str, e: Event) -> str | None:
    """Status of e's transaction after the crash-free event e, given its
    status s before e, or None when e breaks well-formedness."""
    nexts = _GRAMMAR[s].get(e.ev)
    if nexts is None:
        return None
    return (nexts[1] or nexts[0]) if e.abort else nexts[0]


def _ill_formed_at(h: Sequence[Event]) -> int | None:
    """Index of the event at which h stops being durably well-formed, or
    None when it is.  One pass, keeping each transaction's status as
    ``wf_step`` does, in a dict, so that any ids may occur.  A crash
    finishes every transaction that has started, so that no id spans two
    eras."""
    status: dict = {}
    for i, e in enumerate(h):
        if e.ev == "crash":
            status = dict.fromkeys(status, _HALT)
            continue
        ns = _next_status(status.get(e.tx, _NS), e)
        if ns is None:
            return i
        status[e.tx] = ns
    return None


def well_formed(h: Sequence[Event]) -> bool:
    """Per-transaction alternation of invocations and matching responses,
    starting with a begin, with nothing after a commit or abort response.

    Defined on crash-free histories only; a crash marker is a usage error.
    """
    if CRASH in h:
        raise ValueError(_CRASHY)
    return _ill_formed_at(h) is None


def durably_well_formed(h: Sequence[Event]) -> bool:
    """ops(h) is well-formed and no transaction id spans two eras.

    Whole-history form; ``wf_step`` decides the same one event at a time.
    """
    return _ill_formed_at(h) is None


def first_ill_formed(h: Sequence[Event]) -> int | None:
    """Length of the shortest prefix of h that is not durably
    well-formed, or None when h is durably well-formed."""
    bad = _ill_formed_at(h)
    return None if bad is None else bad + 1


def pending_invocation(proj: Sequence[Event]) -> Event | None:
    """Trailing unmatched invocation of a single transaction's projection."""
    if len(proj) % 2 == 1 and is_invocation(proj[-1]):
        return proj[-1]
    return None


def is_committed(h: Sequence[Event], t: int) -> bool:
    return any(e.tx == t and rval(e) == "commit" for e in h)


def is_aborted(h: Sequence[Event], t: int) -> bool:
    return any(e.tx == t and rval(e) == "abort" for e in h)


def is_completed(h: Sequence[Event], t: int) -> bool:
    return is_committed(h, t) or is_aborted(h, t)


def non_interleaved(h: Sequence[Event]) -> bool:
    """Each transaction's events form one contiguous block."""
    finished: set[int] = set()
    cur: int | None = None
    for e in h:
        if is_crash(e):
            continue
        if e.tx != cur:
            if e.tx in finished:
                return False
            if cur is not None:
                finished.add(cur)
            cur = e.tx
    return True


def completions(h: Sequence[Event], value_domain) -> Iterator[History]:
    """All ways of resolving pending invocations: each is independently
    dropped or answered with a matching response appended at the end.

    Appended responses keep the order of their invocations; any later
    position would give the same per-transaction projections, so the end
    placement is canonical.  Yields lazily; the all-dropped completion
    comes first.
    """
    h = tuple(h)
    if not well_formed(h):
        raise ValueError("completions needs a well-formed crash-free history")
    yield from completions_unchecked(h, value_domain)


def completions_unchecked(h: History, value_domain) -> Iterator[History]:
    """``completions`` of a history that its caller has already found
    well-formed and crash-free; on any other input the result is
    undefined."""
    vals = tuple(value_domain)
    # each transaction's last position and whether its event count is odd:
    # a trailing invocation then awaits its response
    last: dict = {}
    odd: dict = {}
    for i, e in enumerate(h):
        last[e.tx] = i
        odd[e.tx] = not odd.get(e.tx)
    pend = sorted((pos, h[pos]) for t, pos in last.items()
                  if odd[t] and h[pos].ev in INV_TAGS)
    options = []
    for _, inv in pend:
        moves = _txn_moves(inv.tx, _PENDING[inv.ev], (), vals)
        options.append([None] + [res for res, _ in moves])
    for combo in product(*options):
        dropped = {pos for (pos, _), c in zip(pend, combo) if c is None}
        base = (tuple(e for i, e in enumerate(h) if i not in dropped)
                if dropped else h)
        yield base + tuple(c for c in combo if c is not None)


def real_time_precedes(h: Sequence[Event], t1: int, t2: int) -> bool:
    """t1 completed and its last event occurs before t2's first event."""
    done = False  # t1 has committed or aborted
    started = False  # t2 has an event
    for e in h:
        t = e.tx
        if t == t1:
            if started:
                return False
            if e.ev in _ENDS[e.abort]:
                done = True
        elif t == t2 and not started:
            if not done:
                return False
            started = True
    return started


# wire format ---------------------------------------------------------------

def event_to_json(e: Event) -> dict:
    d: dict = {"ev": e.ev}
    if e.tx is not None:
        d["tx"] = e.tx
    if e.addr is not None:
        d["addr"] = e.addr
    if e.abort:
        d["abort"] = True
    elif e.val is not None:
        d["val"] = e.val
    return d


def _want_int(d: dict, key: str, low: int = 0) -> int:
    v = d.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < low:
        raise ValueError(f"field {key!r} must be an integer >= {low}")
    return v


def event_from_json(d: object) -> Event:
    if not isinstance(d, dict):
        raise ValueError("event must be a JSON object")
    ev = d.get("ev")
    if ev not in EV_TAGS:
        raise ValueError(f"unknown event tag {ev!r}")
    keys = set(d)
    if ev == "crash":
        if keys != {"ev"}:
            raise ValueError("crash event carries no other fields")
        return CRASH
    tx = _want_int(d, "tx", low=1)
    aborted = "abort" in keys and ev in _ABORTABLE
    fields = () if aborted else _FIELDS[ev][0]
    if keys != {"ev", "tx", *fields} | ({"abort"} if aborted else set()):
        raise ValueError(f"bad fields for {ev!r}: {sorted(keys)}")
    if aborted and d["abort"] is not True:
        raise ValueError("abort field, when present, must be true")
    return Event(ev, tx, abort=aborted,
                 **{f: _want_int(d, f) for f in fields})


# durable well-formedness one event at a time ---------------------------------


def wf_start(num_txns: int) -> tuple[str, ...]:
    """Status vector of the empty history over transactions 1..num_txns."""
    return (_NS,) * num_txns


def _after_crash(status: tuple) -> tuple:
    # ids must not span eras: anything with events dies at a crash
    return tuple(_NS if s == _NS else _HALT for s in status)


def wf_step(status: tuple, e: Event) -> tuple | None:
    """Status vector after appending e, or None when the longer history is
    not durably well-formed.

    Agrees with ``durably_well_formed`` on every extension of a history
    whose events name transactions 1..len(status) only.
    """
    if e.ev == "crash":
        return _after_crash(status)
    t = e.tx
    if not isinstance(t, int) or not 1 <= t <= len(status):
        return None
    ns = _next_status(status[t - 1], e)
    if ns is None:
        return None
    return status[: t - 1] + (ns,) + status[t:]


# direct enumeration of durably well-formed histories ------------------------


def _payloads(tag: str, addrs, vals) -> list[dict]:
    """The fields of each event of ``tag`` over addrs and vals, as keyword
    arguments, addresses outermost."""
    fields = _FIELDS[tag][0]
    pools = {"addr": addrs, "val": vals}
    return [dict(zip(fields, payload))
            for payload in product(*(pools[f] for f in fields))]


@lru_cache(maxsize=_MOVES_MEMO_SIZE)
def _txn_moves(t: int, s: str, addrs, vals,
               ) -> tuple[tuple[Event, str], ...]:
    """(event, next status) for every event transaction t may take next in
    status s, with its addresses and values drawn from addrs and vals (which
    must be hashable, such as ranges or tuples)."""
    out = []
    for tag, (ok, ab) in _GRAMMAR[s].items():
        out += [(Event(tag, t, **kw), ok) for kw in _payloads(tag, addrs, vals)]
        if ab is not None:
            out.append((Event(tag, t, abort=True), ab))
    return tuple(out)


def ready_invocations(t: int, addrs: range, vals: range,
                      ) -> tuple[Action, ...]:
    """Transaction t's invocations when ready, as actions in the grammar's
    order: a read per address, a write per address and value, the commit.
    Both machines build their ready rows from it."""
    return tuple(act(tag, t, **kw) for tag in _GRAMMAR["RD"]
                 for kw in _payloads(tag, addrs, vals))


def enumerate_histories(
    num_txns: int,
    num_addrs: int,
    num_vals: int,
    max_events: int,
    max_crashes: int | None = None,
) -> Iterator[History]:
    """Every durably well-formed history with at most max_events events over
    transaction ids 1..num_txns, addresses 0..num_addrs-1 and values
    0..num_vals-1, the empty history included.  Each history is yielded
    exactly once, parents before extensions.
    """
    hist: list[Event] = []
    addrs, vals = range(num_addrs), range(num_vals)

    def walk(status: tuple, crashes: int) -> Iterator[History]:
        yield tuple(hist)
        if len(hist) == max_events:
            return
        for t in range(1, num_txns + 1):
            for ev, ns in _txn_moves(t, status[t - 1], addrs, vals):
                hist.append(ev)
                yield from walk(status[: t - 1] + (ns,) + status[t:], crashes)
                hist.pop()
        if max_crashes is None or crashes < max_crashes:
            hist.append(CRASH)
            yield from walk(_after_crash(status), crashes + 1)
            hist.pop()

    yield from walk(wf_start(num_txns), 0)


def count_histories(
    num_txns: int,
    num_addrs: int,
    num_vals: int,
    max_events: int,
    max_crashes: int | None = None,
) -> int:
    """Size of the enumerate_histories tree, computed by dynamic programming
    over per-transaction shapes (cheap even where enumeration is not)."""
    # move multiplicities per status: the moves that lead to the same next
    # status count alike, whatever their events
    addrs, vals = range(num_addrs), range(num_vals)
    mult = {s: tuple((m, ns) for ns, m in Counter(
                ns for _, ns in _txn_moves(1, s, addrs, vals)).items())
            for s in _GRAMMAR}

    @lru_cache(maxsize=None)
    def cnt(status: tuple, crashes_left: int, depth: int) -> int:
        total = 1
        if depth == 0:
            return total
        for i, s in enumerate(status):
            for m, ns in mult[s]:
                total += m * cnt(
                    status[:i] + (ns,) + status[i + 1 :], crashes_left, depth - 1
                )
        if crashes_left != 0:
            total += cnt(_after_crash(status), max(crashes_left - 1, -1),
                         depth - 1)
        return total

    return cnt(wf_start(num_txns), -1 if max_crashes is None else max_crashes,
               max_events)
