"""Transactional histories: events, well-formedness, crash eras, completions,
and the ``Domain`` of transaction ids, addresses and values they range over.

A history is a finite sequence of invocation/response events of transactional
operations (begin, read, write, commit), possibly interleaved across
transactions and punctuated by crash markers.  This module fixes the event
vocabulary, the matching-response discipline, the crash-erasure and era
structure used by durable correctness notions, and the completion
construction that resolves pending invocations.

Events are immutable values; histories are tuples of events.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

# reserved process id for the crash/recovery system; never appears in events
SYST = 0

INV_TAGS = ("invBegin", "invRead", "invWrite", "invCommit")
RES_TAGS = ("resBegin", "resRead", "resWrite", "resCommit")
EV_TAGS = INV_TAGS + RES_TAGS + ("crash",)

_PAIRING = {
    "invBegin": "resBegin",
    "invRead": "resRead",
    "invWrite": "resWrite",
    "invCommit": "resCommit",
}


@dataclass(frozen=True)
class Event:
    ev: str
    tx: int | None = None
    addr: int | None = None
    val: int | None = None
    abort: bool = False


History = tuple[Event, ...]

CRASH = Event("crash")


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
    if e.ev == "resBegin":
        return "ok"
    if e.ev == "resRead":
        return "abort" if e.abort else e.val
    if e.ev == "resWrite":
        return "abort" if e.abort else "ok"
    if e.ev == "resCommit":
        return "abort" if e.abort else "commit"
    return None


def matches(inv: Event, res: Event) -> bool:
    return (
        is_invocation(inv)
        and is_response(res)
        and res.ev == _PAIRING[inv.ev]
        and res.tx == inv.tx
    )


def project(h: Sequence[Event], t: int) -> History:
    """Subsequence of h belonging to transaction t (crash markers excluded)."""
    return tuple(e for e in h if e.tx == t and not is_crash(e))


def txn_ids(h: Sequence[Event]) -> tuple[int, ...]:
    return tuple(sorted({e.tx for e in h if not is_crash(e)}))


def ops(h: Sequence[Event]) -> History:
    """h with every crash marker erased."""
    return tuple(e for e in h if not is_crash(e))


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


def well_formed(h: Sequence[Event]) -> bool:
    """Per-transaction alternation of invocations and matching responses,
    starting with a begin, with nothing after a commit or abort response.

    Defined on crash-free histories only; a crash marker is a usage error.
    """
    h = tuple(h)
    if any(is_crash(e) for e in h):
        raise ValueError("well_formed is defined on crash-free histories")
    for t in txn_ids(h):
        proj = project(h, t)
        if proj[0].ev != "invBegin":
            return False
        done = False
        for i, e in enumerate(proj):
            if done:
                return False
            if i % 2 == 0:
                if not is_invocation(e) or (i > 0 and e.ev == "invBegin"):
                    return False
            else:
                if not matches(proj[i - 1], e):
                    return False
                if rval(e) in ("commit", "abort"):
                    done = True
    return True


def durably_well_formed(h: Sequence[Event]) -> bool:
    """ops(h) is well-formed and no transaction id spans two eras.

    Whole-history form; ``wf_step`` decides the same one event at a time.
    """
    h = tuple(h)
    if not well_formed(ops(h)):
        return False
    segs = eras(h)
    for t in txn_ids(h):
        hit = [i for i, seg in enumerate(segs) if any(e.tx == t for e in seg)]
        if len(hit) > 1:
            return False
    return True


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


def _matching_responses(inv: Event, value_domain: tuple[int, ...]) -> list[Event]:
    t = inv.tx
    if inv.ev == "invBegin":
        return [res_begin(t)]  # begin has no abort response
    if inv.ev == "invRead":
        return [res_read(t, v) for v in value_domain] + [res_read_abort(t)]
    if inv.ev == "invWrite":
        return [res_write(t), res_write_abort(t)]
    return [res_commit(t), res_commit_abort(t)]


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
    vals = tuple(value_domain)
    pend: list[tuple[int, Event]] = []
    for t in txn_ids(h):
        inv = pending_invocation(project(h, t))
        if inv is not None:
            pos = max(i for i, e in enumerate(h) if e.tx == t)
            pend.append((pos, inv))
    pend.sort()
    options = [[None] + _matching_responses(inv, vals) for _, inv in pend]
    for combo in product(*options):
        dropped = {pos for (pos, _), c in zip(pend, combo) if c is None}
        base = tuple(e for i, e in enumerate(h) if i not in dropped)
        yield base + tuple(c for c in combo if c is not None)


def real_time_precedes(h: Sequence[Event], t1: int, t2: int) -> bool:
    """t1 completed and its last event occurs before t2's first event."""
    h = tuple(h)
    if not is_completed(h, t1):
        return False
    starts = [i for i, e in enumerate(h) if e.tx == t2]
    if not starts:
        return False
    last1 = max(i for i, e in enumerate(h) if e.tx == t1)
    return last1 < min(starts)


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
    if ev in ("invBegin", "resBegin", "invCommit"):
        allowed = {"ev", "tx"}
    elif ev == "invRead":
        allowed = {"ev", "tx", "addr"}
    elif ev == "invWrite":
        allowed = {"ev", "tx", "addr", "val"}
    elif ev == "resRead":
        allowed = {"ev", "tx", "abort"} if d.get("abort") else {"ev", "tx", "val"}
    else:  # resWrite, resCommit
        allowed = {"ev", "tx"} | ({"abort"} if "abort" in keys else set())
    if keys != allowed:
        raise ValueError(f"bad fields for {ev!r}: {sorted(keys)}")
    if "abort" in keys and d["abort"] is not True:
        raise ValueError("abort field, when present, must be true")
    addr = _want_int(d, "addr") if "addr" in allowed else None
    val = _want_int(d, "val") if "val" in allowed and "abort" not in keys else None
    return Event(ev, tx, addr=addr, val=val, abort=bool(d.get("abort", False)))


# per-transaction status: durable well-formedness one event at a time -------

# NS not started, PB begin pending, RD ready, PR/PW/PC read/write/commit
# pending, HALT finished (committed, aborted, or cut off by a crash)
_NS, _HALT = "NS", "HALT"
# the response each pending status awaits
_AWAITS = {"PB": "resBegin", "PR": "resRead", "PW": "resWrite",
           "PC": "resCommit"}
# the pending status each invocation of a ready transaction enters
_INVOKES = {"invRead": "PR", "invWrite": "PW", "invCommit": "PC"}


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
    s = status[t - 1]
    if s == _NS:
        ns = "PB" if e.ev == "invBegin" else None
    elif s == "RD":
        ns = _INVOKES.get(e.ev)
    elif _AWAITS.get(s) != e.ev:
        ns = None
    else:
        # a begin response never ends a transaction, whatever its flag
        ns = _HALT if rval(e) in ("commit", "abort") else "RD"
    if ns is None:
        return None
    return status[: t - 1] + (ns,) + status[t:]


# direct enumeration of durably well-formed histories ------------------------


def _txn_moves(t: int, s, num_addrs: int, num_vals: int):
    """(event, next status) for every event transaction t may take next in
    status s, over the given address and value ranges."""
    if s == _NS:
        return [(inv_begin(t), "PB")]
    if s == "PB":
        return [(res_begin(t), "RD")]
    if s == "RD":
        out = [(inv_read(t, a), "PR") for a in range(num_addrs)]
        out += [
            (inv_write(t, a, v), "PW")
            for a in range(num_addrs)
            for v in range(num_vals)
        ]
        out.append((inv_commit(t), "PC"))
        return out
    if s == "PR":
        return [(res_read(t, v), "RD") for v in range(num_vals)] + [
            (res_read_abort(t), _HALT)
        ]
    if s == "PW":
        return [(res_write(t), "RD"), (res_write_abort(t), _HALT)]
    if s == "PC":
        return [(res_commit(t), _HALT), (res_commit_abort(t), _HALT)]
    return []


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

    def walk(status: tuple, crashes: int) -> Iterator[History]:
        yield tuple(hist)
        if len(hist) == max_events:
            return
        for t in range(1, num_txns + 1):
            for ev, ns in _txn_moves(t, status[t - 1], num_addrs, num_vals):
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
    # move multiplicities per counting state; read targets collapse since the
    # response fan-out does not depend on the address
    mult = {
        _NS: ((1, "PB"),),
        "PB": ((1, "RD"),),
        "RD": (
            (num_addrs, "PR"),
            (num_addrs * num_vals, "PW"),
            (1, "PC"),
        ),
        "PR": ((num_vals, "RD"), (1, _HALT)),
        "PW": ((1, "RD"), (1, _HALT)),
        "PC": ((2, _HALT),),
        _HALT: (),
    }

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
