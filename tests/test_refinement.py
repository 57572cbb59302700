"""Refinement checkers.

Three layers tie the implementation machine to the reference automaton:

1. forward simulation, per (implementation state, automaton state) pair
   over the whole reachable product, and along concrete executions,
   carrying every abstract automaton state that matches the run so far,
   pruned by the state relation; an emptied candidate set is a
   counterexample;
2. weak simulation: every durable-automaton run, with crash steps erased,
   is mirrored as a run of the crash-free automaton;
3. trace membership: emitted histories are accepted by the automaton.
"""
from __future__ import annotations

import random
from collections import Counter, deque

import pytest

from durastm import histories as H
from durastm import refinement
from durastm.dtml import DtmlMachine, act
from durastm.dtms2 import (
    Acceptor,
    Dtms2Machine,
    compact_history,
    dtms2_accepts,
    dtms2_random_walk,
    mact,
)
from durastm.explorer import ExplorationConfig, explore_exhaustive
from durastm.nvm import MemoryPair, UndoLog
from durastm.refinement import (
    check_forward_sim,
    check_weak_sim,
    global_rel_for,
    logical_glb,
    txn_rel_clause,
    write_count,
)

CFG = H.Domain(2, 2, 2)
DURABLE = Dtms2Machine(CFG)
CRASH_FREE = Dtms2Machine(CFG, durable=False)


def _concrete(glb=0, writer=None, writer_pc=None, vstore=(0, 0), pstore=(0, 0),
              log=(), syst="RecIdle", loc=None):
    s = DtmlMachine(CFG).initial()
    pc = list(s.pc)
    if writer is not None and writer_pc is not None:
        pc[writer - 1] = writer_pc
    locs = list(s.loc) if loc is None else list(loc)
    return s._replace(glb=glb, writer=writer, pc=tuple(pc), loc=tuple(locs),
                      mem=MemoryPair(tuple(vstore), tuple(pstore)),
                      log=UndoLog(tuple(sorted(log))), syst_pc=syst)


def _abstract(mems=((0, 0),), pc=None, wr1=(), rd1=(), begin1=0):
    s = Dtms2Machine(CFG).initial()
    pcs = list(s.pc)
    if pc is not None:
        pcs = list(pc)
    return s._replace(mems=tuple(map(tuple, mems)), pc=tuple(pcs),
                      wr_set=(tuple(sorted(wr1)), ()),
                      rd_set=(tuple(sorted(rd1)), ()),
                      begin_idx=(begin1, 0))


# relation pieces ---------------------------------------------------------------

def test_global_rel_counts_writes_in_flight_until_log_clear() -> None:
    # clause 1 applies the writer's abstract write set only while its writes
    # are in flight: not without a writer, nor once it has passed the
    # log-clear line (E3), where the counter is read one bump ahead instead
    a = _abstract(wr1=((0, 1),))
    assert global_rel_for(_concrete())(a) is None
    w7 = _concrete(glb=1, writer=1, writer_pc="W7")
    assert global_rel_for(w7)(a) == "globalRel.1"
    e3 = _concrete(glb=1, writer=1, writer_pc="E3")
    assert global_rel_for(e3)(
        _abstract(mems=((0, 0), (0, 0)), wr1=((0, 1),))) is None


def test_logical_glb_and_write_count() -> None:
    s = _concrete()
    assert logical_glb(s) == 0 and write_count(s) == 0
    s = _concrete(glb=1, writer=1, writer_pc="E3")
    assert logical_glb(s) == 2 and write_count(s) == 1
    # replay one full writer through the machine: counter lands on 2
    m = DtmlMachine(CFG)
    st = m.initial()
    for a in [act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1),
              act("invWrite", 1, addr=0, val=1)] + \
             [act(k, 1) for k in ("W1", "W2", "W3", "W4", "W5", "W6", "W7")] + \
             [act("resWrite", 1), act("invCommit", 1),
              act("E1", 1), act("E2", 1), act("E3", 1), act("resCommit", 1)]:
        st, _ = m.step(st, a)
    assert st.glb == 2 and write_count(st) == 1


def test_global_rel_initial_pair() -> None:
    assert global_rel_for(_concrete())(_abstract()) is None


def test_global_rel_undo_log_restores_snapshot() -> None:
    # writer mid-transaction: dirty volatile store plus logged old value
    cs = _concrete(glb=1, writer=1, writer_pc="W7", vstore=(1, 0),
                   log=((0, 0),), loc=(1, 0))
    a = _abstract(pc=("writeResp", "notStarted"), wr1=((0, 1),))
    assert global_rel_for(cs)(a) is None
    # with the log artificially emptied the snapshot cannot be recovered
    cs_bad = cs._replace(log=UndoLog(()))
    assert global_rel_for(cs_bad)(a) == "globalRel.3"


def test_global_rel_other_clause_tags() -> None:
    assert global_rel_for(_concrete(vstore=(1, 0)))(_abstract()) \
        == "globalRel.1"
    assert global_rel_for(_concrete(glb=2))(_abstract()) == "globalRel.2"
    a = _abstract(pc=("ready", "notStarted"))
    assert global_rel_for(_concrete())(a) == "globalRel.4"
    # a live writer at W7: volatile memory is the last snapshot with the
    # writer's abstract write set applied
    w7 = _concrete(glb=1, writer=1, writer_pc="W7", vstore=(1, 0),
                   log=((0, 0),), loc=(1, 0))
    pending = ("writeResp", "notStarted")
    assert global_rel_for(w7)(_abstract(pc=pending, wr1=((0, 1),))) is None
    assert global_rel_for(w7)(_abstract(pc=pending)) == "globalRel.1"
    assert global_rel_for(w7)(_abstract(pc=pending, wr1=((1, 1),))) \
        == "globalRel.1"
    # a writer at E3 has committed: its writes are in the last snapshot and
    # the counter is read one bump ahead, so two snapshots are expected
    e3 = _concrete(glb=1, writer=1, writer_pc="E3", vstore=(1, 0), loc=(1, 0))
    done = ("commitResp", "notStarted")
    assert global_rel_for(e3)(
        _abstract(mems=((0, 0), (1, 0)), pc=done, wr1=((0, 1),))) is None
    assert global_rel_for(e3)(
        _abstract(mems=((1, 0),), pc=done, wr1=((0, 1),))) == "globalRel.2"


def test_txn_rel_pc_table_and_parity() -> None:
    cs = _concrete(glb=1, writer=1, writer_pc="W7", vstore=(1, 0),
                   log=((0, 0),), loc=(1, 0))
    good = _abstract(pc=("writeResp", "notStarted"), wr1=((0, 1),))
    assert txn_rel_clause(cs, good, 1) is None
    wrong_pc = _abstract(pc=("writePending", "notStarted"), wr1=((0, 1),))
    assert txn_rel_clause(cs, wrong_pc, 1) == "txnRel.pc(t=1)"
    # an even location snapshot is incompatible with a populated write set
    cs_even = _concrete(glb=0, writer=None, writer_pc=None)
    cs_even = cs_even._replace(pc=("Idle", "NotStarted"))
    claims = _abstract(pc=("ready", "notStarted"), wr1=((0, 1),))
    assert txn_rel_clause(cs_even, claims, 1) == "txnRel.writeSetParity(t=1)"


def test_txn_rel_valid_idx_for_reader() -> None:
    cs = _concrete()._replace(pc=("R2", "NotStarted"),
                              in_addr=(0, None), in_val=(0, None))
    ok = _abstract(pc=("readPending", "notStarted"), rd1=((0, 0),))
    ok = ok._replace(cur_addr=(0, None))
    assert txn_rel_clause(cs, ok, 1) is None
    stale = _abstract(mems=((0, 0), (1, 0)), pc=("readPending", "notStarted"),
                      rd1=((0, 0),), begin1=1)
    stale = stale._replace(cur_addr=(0, None))
    # reader on the current version whose read set contradicts the
    # current snapshot
    cs2 = cs._replace(glb=2, loc=(2, 0))
    assert txn_rel_clause(cs2, stale, 1) == "txnRel.validIdx(t=1)"


def test_txn_rel_recovery_requires_single_snapshot() -> None:
    cs = _concrete(glb=1, syst="C1", vstore=(1, 0), pstore=(1, 0))
    two = _abstract(mems=((0, 0), (1, 0)))
    assert txn_rel_clause(cs, two, 1) == "txnRel.recoverySnapshots"
    one = _abstract(mems=((1, 0),))
    assert txn_rel_clause(cs, one, 1) is None


# forward simulation along executions ---------------------------------------------

FULL_WRITER = [act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1),
               act("invWrite", 1, addr=0, val=1)] + \
    [act(k, 1) for k in ("W1", "W2", "W3", "W4", "W5", "W6", "W7")] + \
    [act("resWrite", 1), act("invCommit", 1),
     act("E1", 1), act("E2", 1), act("E3", 1), act("resCommit", 1)]


def test_forward_sim_empty_execution() -> None:
    rep = check_forward_sim(CFG, [])
    assert rep.ok and rep.steps_checked == 0
    assert rep.final_witness.abstract_candidates


def test_forward_sim_full_writer_rebases_snapshots() -> None:
    rep = check_forward_sim(CFG, FULL_WRITER)
    assert rep.ok
    assert rep.steps_checked == len(FULL_WRITER)
    assert all(len(a.mems) == 2
               for a in rep.final_witness.abstract_candidates)
    # a one-shot iterator is counted as it is consumed
    assert check_forward_sim(CFG, iter(FULL_WRITER)).steps_checked \
        == len(FULL_WRITER)


def test_forward_sim_through_crash_and_recovery() -> None:
    schedule = FULL_WRITER + [act("crash"), act("C1"), act("C6")] + [
        act("invBegin", 2), act("B1", 2), act("B2", 2), act("resBegin", 2),
        act("invRead", 2, addr=0), act("R1", 2), act("R2", 2), act("resRead", 2),
    ]
    rep = check_forward_sim(CFG, schedule)
    assert rep.ok


def test_forward_sim_mid_write_crash_recovery() -> None:
    schedule = [act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1),
                act("invWrite", 1, addr=0, val=1)] + \
        [act(k, 1) for k in ("W1", "W2", "W3", "W4", "W5", "W6", "W7")] + \
        [act("crash"), act("C1"), act("C2", addr=0, val=0), act("C3"),
         act("C4"), act("C5"), act("C1"), act("C6")]
    rep = check_forward_sim(CFG, schedule)
    assert rep.ok


def test_forward_sim_random_walks_hold() -> None:
    m = DtmlMachine(CFG)
    rng = random.Random(313)
    for _ in range(150):
        s = m.initial()
        schedule = []
        for _ in range(40):
            options = m.enabled(s)
            a = rng.choice(options)
            s, _ = m.step(s, a)
            schedule.append(a)
        rep = check_forward_sim(CFG, schedule)
        assert rep.ok, rep.hard_failure


def test_forward_sim_rejects_disabled_schedule() -> None:
    with pytest.raises(ValueError, match="0"):
        check_forward_sim(CFG, [act("E3", 1)])


def test_forward_sim_catches_unlogged_write() -> None:
    cfg = H.Domain(1, 2, 2)
    schedule = [act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1),
                act("invWrite", 1, addr=0, val=1),
                act("W1", 1), act("W2", 1), act("W3", 1), act("W4", 1),
                act("W6", 1), act("W7", 1), act("resWrite", 1),
                act("crash"), act("C1"), act("C6")]
    rep = check_forward_sim(cfg, schedule, mutation="skip_undo_log")
    assert not rep.ok
    assert "globalRel.3" in rep.hard_failure["clauses"]


def test_forward_sim_catches_missing_flush() -> None:
    cfg = H.Domain(1, 2, 2)
    schedule = [act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1),
                act("invWrite", 1, addr=0, val=1)] + \
        [act(k, 1) for k in ("W1", "W2", "W3", "W4", "W5", "W6", "W7")] + \
        [act("resWrite", 1), act("invCommit", 1),
         act("E1", 1), act("E2", 1), act("E3", 1), act("resCommit", 1),
         act("crash")]
    rep = check_forward_sim(cfg, schedule, mutation="skip_flush_W7")
    assert not rep.ok
    assert rep.hard_failure["action"] == "crash"
    assert "globalRel.3" in rep.hard_failure["clauses"]


def test_forward_sim_catches_retained_log() -> None:
    cfg = H.Domain(1, 2, 2)
    schedule = [act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1),
                act("invWrite", 1, addr=0, val=1)] + \
        [act(k, 1) for k in ("W1", "W2", "W3", "W4", "W5", "W6", "W7")] + \
        [act("resWrite", 1), act("invCommit", 1), act("E1", 1), act("E2", 1)]
    rep = check_forward_sim(cfg, schedule, mutation="skip_log_clear_E2")
    assert not rep.ok
    assert "globalRel.3" in rep.hard_failure["clauses"]



# the per-transaction clauses are part of the relation ----------------------

PC_TABLE_RUN = ExplorationConfig(domain=CFG, max_crashes=0, flush_budget=0,
                                 max_steps=12, checks=("simrel",))


def test_broken_pc_table_fails_the_simulation(monkeypatch) -> None:
    healthy = explore_exhaustive(PC_TABLE_RUN)
    assert (healthy.histories_explored, healthy.states_visited) == (847, 705)
    assert healthy.ok
    # a completed write (W7) taken as still pending: the global clauses
    # hold, but no candidate satisfies the per-transaction ones
    monkeypatch.setitem(refinement._PC_TABLE, "W7", "writePending")
    broken = explore_exhaustive(PC_TABLE_RUN)
    assert (broken.histories_explored, broken.states_visited) == (839, 681)
    assert len(broken.violations) == 16
    assert {v.check for v in broken.violations} == {"simrel"}
    assert {v.detail["action"] for v in broken.violations} \
        == {"W6(t1)", "W6(t2)"}
    # each image's first broken clause: the image that took the write
    # fails the table, the one that did not fails the global clause 1
    rep = check_forward_sim(CFG, FULL_WRITER)
    assert not rep.ok
    assert (rep.hard_failure["action"], rep.hard_failure["clauses"]) == (
        "W6(t1)", ["globalRel.1", "txnRel.pc(t=1)"])


def _per_pair_simulation(domain: H.Domain, mutation: str | None = None):
    """Breadth-first search of the (implementation state, automaton state)
    pairs related by R, stepping each pair by every enabled action with no
    budgets.  A step's successors are the images of the one automaton
    state that ``sim_step`` keeps; a step with none is a dead edge.
    Returns the numbers of related pairs, implementation states and edges,
    and the dead edges by action kind."""
    m = DtmlMachine(domain, mutation=mutation)
    acceptor = Acceptor(Dtms2Machine(domain))
    c0 = m.initial()
    frame, hard = refinement.sim_filter(acceptor.initial(), c0)
    assert frame and not hard
    seen = {(c0, a) for a in frame}
    queue = deque(seen)
    edges, dead = 0, Counter()
    while queue:
        c, a = queue.popleft()
        for ca in m.enabled(c):
            c2, ev = m.step(c, ca)
            edges += 1
            images, _ = refinement.sim_step(acceptor, frozenset({a}), ca,
                                            c2, ev)
            if not images:
                dead[ca.kind] += 1
            for a2 in images:
                if (c2, a2) not in seen:
                    seen.add((c2, a2))
                    queue.append((c2, a2))
    return len(seen), len({c for c, _ in seen}), edges, dead


def test_relation_is_a_forward_simulation_per_pair() -> None:
    # every related pair has a related successor for every action, with
    # any number of crashes, flushes and begin retries
    assert _per_pair_simulation(H.Domain(2, 1, 2)) \
        == (8825, 2688, 35712, Counter())


# each fault and the (number, action kind) of its dead edges
_DEAD_EDGES = {
    "skip_undo_log": (264, "W6"),
    "skip_flush_W7": (1680, "crash"),
    "skip_log_clear_E2": (140, "E2"),
    "pc_table_W7": (216, "W6"),
}


@pytest.mark.parametrize("fault", list(_DEAD_EDGES))
def test_per_pair_simulation_names_each_fault(monkeypatch, fault) -> None:
    mutation = fault
    if fault == "pc_table_W7":
        monkeypatch.setitem(refinement._PC_TABLE, "W7", "writePending")
        mutation = None
    *_, dead = _per_pair_simulation(H.Domain(2, 1, 2), mutation)
    count, kind = _DEAD_EDGES[fault]
    assert dead == Counter({kind: count})


# weak simulation ---------------------------------------------------------------

def test_weak_sim_erases_crash_from_committed_write_run() -> None:
    schedule = [
        mact("invBegin", 1), mact("resBegin", 1),
        mact("invWrite", 1, addr=0, val=1), mact("doWrite", 1), mact("resWrite", 1),
        mact("invCommit", 1), mact("doCommitW", 1), mact("resCommit", 1),
        mact("crash"),
        mact("invBegin", 2), mact("resBegin", 2),
        mact("invRead", 2, addr=0), mact("doRead", 2, idx=0), mact("resRead", 2),
    ]
    rep = check_weak_sim(DURABLE, CRASH_FREE, schedule)
    assert rep.ok
    assert H.CRASH in rep.durable_history
    assert rep.target_history == H.ops(rep.durable_history)
    # the post-crash read was served from the shifted snapshot index
    assert rep.target_history[-1] == H.res_read(2, 1)


def test_weak_sim_mirrors_interrupted_transaction() -> None:
    schedule = [
        mact("invBegin", 1), mact("resBegin", 1),
        mact("invWrite", 1, addr=0, val=1), mact("doWrite", 1),
        mact("crash"),  # transaction 1 dies with its write pending
        mact("invBegin", 2), mact("resBegin", 2),
        mact("invRead", 2, addr=0), mact("doRead", 2, idx=0), mact("resRead", 2),
    ]
    rep = check_weak_sim(DURABLE, CRASH_FREE, schedule)
    assert rep.ok
    assert rep.target_history[-1] == H.res_read(2, 0)


def test_weak_sim_on_random_walks() -> None:
    rng = random.Random(4242)
    for _ in range(30):
        _, schedule = dtms2_random_walk(DURABLE, rng, max_steps=30,
                                        max_crashes=2)
        rep = check_weak_sim(DURABLE, CRASH_FREE, schedule)
        assert rep.ok, rep.reason


def test_weak_sim_refuses_machines_of_the_wrong_kind() -> None:
    other = Dtms2Machine(H.Domain(2, 1, 2), durable=False)
    for dm, tm in ((CRASH_FREE, DURABLE), (DURABLE, DURABLE),
                   (DURABLE, other)):
        with pytest.raises(ValueError, match="crash-free automaton"):
            check_weak_sim(dm, tm, [])


# trace membership ----------------------------------------------------------------

def test_trace_refinement_accepts_machine_history() -> None:
    h = (H.inv_begin(1), H.res_begin(1), H.inv_write(1, 0, 1), H.res_write(1),
         H.inv_commit(1), H.res_commit(1))
    assert dtms2_accepts(*compact_history(h)).ok


def test_trace_refinement_rejects_dirty_read() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 1),
        H.inv_commit(1), H.res_commit(1),
    )
    r = dtms2_accepts(*compact_history(h))
    assert not r.ok and r.failed_at == 7
    # renaming transactions, addresses and non-zero values keeps the verdict
    # and the failing index
    renamed = tuple(H.Event(e.ev, {1: 5, 2: 9}.get(e.tx), {0: 7}.get(e.addr),
                            {1: 3}.get(e.val), e.abort) for e in h)
    r = dtms2_accepts(*compact_history(renamed))
    assert not r.ok and r.failed_at == 7
