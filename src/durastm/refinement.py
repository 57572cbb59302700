"""Refinement checkers linking the implementation machine to the reference
automaton.

One state relation R relates implementation states to automaton states.
Its global clauses are:

1. outside recovery, volatile memory equals the latest committed snapshot
   with the active writer's write set applied;
2. outside recovery, the snapshot count is one more than the number of
   completed writer commits implied by the version counter;
3. always, applying the undo log to volatile memory recovers the latest
   committed snapshot;
4. a transaction not started concretely has not started abstractly.

Its per-transaction clauses relate each transaction's program counter,
pending-operation payloads, read-set validity at the current snapshot and
writer/write-set parity, and collapse the snapshots during recovery.
``sim_filter`` evaluates the concrete side of the global clauses once per
step and keeps the candidates that satisfy both kinds.  ``sim_step``
advances a set of candidate automaton states over one concrete step and
prunes the images by R; the explorer carries such a set along each path,
and an empty set after a step is a failure.

``check_simulation`` checks that R is a forward simulation on every
reachable related pair of a domain, on the breadth-first kernel of
``durastm.reach``: each pair is stepped by every enabled action, and a
step with no related successor is a dead edge, reported with a shortest
schedule to it.

A writer that has passed the log-clear line is treated as already
committed: its writes no longer count as in-flight (``_live_writer``)
and the version counter is read one bump ahead (``logical_glb``).  That
line is where the intended matching automaton run takes its writer-commit
step.

``check_weak_sim`` replays a durable-automaton schedule against the
crash-free automaton, erasing crash steps and shifting snapshot indices by
the number of snapshots forgotten at each crash.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .dtml import NOT_LIVE_PCS, DtmlMachine, DtmlState
from .dtms2 import Acceptor, Dtms2Machine, Dtms2State
from .histories import Action, Domain, Event, History, ops
from .reach import path, reach

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


def logical_glb(cs: DtmlState) -> int:
    """Version counter, read one bump ahead for a writer past the
    log-clear line."""
    if cs.writer is not None and cs.pc[cs.writer - 1] == "E3":
        return cs.glb + 1
    return cs.glb


def write_count(cs: DtmlState) -> int:
    """Number of completed writer commits implied by the version counter."""
    return logical_glb(cs) // 2


def _concrete_side(cs: DtmlState) -> tuple:
    """What the global clauses read of the concrete state alone: volatile
    memory, whether recovery runs, the live writer, the snapshot count,
    the memory the undo log restores and the program counters.  Computed
    once per state, so that filtering many candidates against one concrete
    state costs only the comparisons with each candidate."""
    vstore, log = cs.mem.vstore, cs.log.items()
    return (vstore, cs.syst_pc != "RecIdle", _live_writer(cs),
            write_count(cs) + 1, _apply(vstore, log) if log else vstore,
            cs.pc)


def _global_clause(side: tuple, as_: Dtms2State) -> str | None:
    """First violated global clause between the concrete ``side`` and an
    automaton state, or None."""
    vstore, recovering, w, snapshots, restored, pcs = side
    last = as_.mems[-1]
    if not recovering:
        if vstore != (last if w is None
                      else _apply(last, as_.wr_set[w - 1])):
            return "globalRel.1"
        if len(as_.mems) != snapshots:
            return "globalRel.2"
    if restored != last:
        return "globalRel.3"
    for pc, abstract in zip(pcs, as_.pc):
        if pc == "NotStarted" and abstract != "notStarted":
            return "globalRel.4"
    return None


def global_rel_for(cs: DtmlState) -> Callable[[Dtms2State], str | None]:
    """The global state relation with its concrete side fixed: a function
    from an automaton state to its first violated clause, or None."""
    return partial(_global_clause, _concrete_side(cs))


def txn_rel_clause(cs: DtmlState, as_: Dtms2State, t: int) -> str | None:
    """First violated per-transaction clause of R for transaction t, or
    None."""
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
    in_flight = pc not in NOT_LIVE_PCS
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


def sim_filter(images: frozenset, cs2: DtmlState,
               ) -> tuple[frozenset, tuple[str, ...]]:
    """Prune candidate automaton states by R at ``cs2``.

    Returns the candidates that satisfy it (``images`` itself when it
    prunes none, so that the frame keeps its cached hash) and, when none
    does, each image's first violated clause, global clauses first.  The
    result is immutable, so that a memo may hand it out again.
    """
    side = _concrete_side(cs2)
    txns = range(1, len(cs2.pc) + 1)
    kept = []
    for a2 in images:
        if _global_clause(side, a2) is not None:
            continue
        for t in txns:
            if txn_rel_clause(cs2, a2, t) is not None:
                break
        else:
            kept.append(a2)
    if kept:
        return (images if len(kept) == len(images) else frozenset(kept)), ()
    if not images:
        return frozenset(), ("no matching automaton action",)
    # every image breaks some clause: name the first of each
    return frozenset(), tuple(sorted({
        _global_clause(side, a2)
        or next(filter(None, (txn_rel_clause(cs2, a2, t) for t in txns)))
        for a2 in images}))


def sim_step(acceptor: Acceptor, aset: frozenset, ca: Action,
             cs2: DtmlState, ev: Event | None, prune=sim_filter,
             ) -> tuple[frozenset, tuple[str, ...]]:
    """Advance the candidate set over one concrete step.

    Visible events must be matched by an automaton action; a silent step
    lets each candidate stand still or take one internal action of the
    same transaction.  The images are then pruned by ``prune``, by
    default ``sim_filter`` (a caller may pass a memo of it), whose result
    this returns.
    """
    if ev is None:
        images = acceptor.silent(aset, ca.tx)
    else:
        images = acceptor.match(aset, ev)
    return prune(images, cs2)


@dataclass
class SimulationReport:
    """What ``check_simulation`` found.  ``edges`` counts the steps from a
    related pair to a related pair, ``dead`` the steps from a related pair
    that relate to no automaton state, by action kind.  For the first dead
    edge: a shortest schedule to it, its action last, the snapshot of the
    state that action reaches, and the clauses that ``sim_step`` names."""

    pairs: int
    states: int
    edges: int
    dead: Counter
    schedule: tuple[Action, ...] = ()
    state: dict | None = None
    clauses: tuple[str, ...] = ()


def check_simulation(domain: Domain,
                     mutation: str | None = None) -> SimulationReport:
    """Check that R is a forward simulation on every reachable related
    pair (implementation state, automaton state), stepping each pair by
    every enabled action, with no bound on steps, crashes, flushes or
    retries.  A step's successors are the images of the pair's automaton
    state that ``sim_step`` keeps; a step with none is a dead edge."""
    m = DtmlMachine(domain, mutation=mutation)
    acceptor = Acceptor(Dtms2Machine(domain))
    c0 = m.initial()
    frame, hard = sim_filter(acceptor.initial(), c0)
    if hard:
        raise AssertionError("state relation must hold at the initial pair")
    dead: Counter = Counter()
    first = []

    def successors(pair):
        c, a = pair
        for ca in m.enabled(c):
            c2, ev = m.step(c, ca)
            images, hard = sim_step(acceptor, frozenset({a}), ca, c2, ev)
            if not images:
                dead[ca.kind] += 1
                if not first:
                    first.append((pair, ca, c2, hard))
            for a2 in images:
                yield ca, (c2, a2)

    parents, edges = reach([(c0, a) for a in frame], successors)
    report = SimulationReport(len(parents), len({c for c, _ in parents}),
                              edges, dead)
    if first:
        pair, ca, c2, hard = first[0]
        report.schedule = (*path(parents, pair), ca)
        report.state = m.snapshot(c2)
        report.clauses = hard
    return report


# -- weak simulation: crash erasure ------------------------------------------

@dataclass
class WeakSimReport:
    ok: bool
    reason: str = ""
    failed_at: int | None = None
    durable_history: History = ()
    target_history: History = ()


def check_weak_sim(dm: Dtms2Machine, tm: Dtms2Machine,
                   schedule) -> WeakSimReport:
    """Mirror a schedule of the durable automaton ``dm`` on the crash-free
    automaton ``tm`` of the same domain.

    Crash steps are erased; snapshot indices in mirrored actions are
    shifted by the number of snapshots the crashes discarded.  The run
    fails if a mirrored action is not enabled, if the surviving snapshots
    stop agreeing, or if the produced histories differ after erasing
    crash markers.
    """
    if not dm.durable or tm.durable or dm.domain != tm.domain:
        raise ValueError("check_weak_sim needs the durable and the "
                         "crash-free automaton of one domain")
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
            mirrored = a if a.idx is None else a._replace(idx=a.idx + offset)
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

