"""Refinement checkers.

Three layers tie the implementation machine to the reference automaton:

1. forward simulation along concrete executions, carrying every abstract
   automaton state that matches the run so far, pruned by a state
   relation; an emptied candidate set is a hard counterexample;
2. weak simulation: every durable-automaton run, with crash steps erased,
   is mirrored as a run of the crash-free automaton;
3. trace membership: emitted histories are accepted by the automaton.
"""
from __future__ import annotations

import random

import pytest

from durastm import histories as H
from durastm import refinement
from durastm.dtml import DtmlMachine, act
from durastm.dtms2 import Dtms2Machine, dtms2_random_walk, mact
from durastm.explorer import ExplorationConfig, explore_exhaustive
from durastm.nvm import MemoryPair, UndoLog
from durastm.refinement import (
    check_forward_sim,
    check_trace_refinement,
    check_weak_sim,
    global_rel_clause,
    logical_glb,
    txn_rel_clause,
    write_count,
    writes,
)

CFG = H.Domain(2, 2, 2)


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

def test_writes_follows_writer_until_commit_point() -> None:
    a = _abstract(wr1=((0, 1),))
    assert writes(_concrete(), a) == ()
    assert writes(_concrete(glb=1, writer=1, writer_pc="W7"), a) == ((0, 1),)
    assert writes(_concrete(glb=1, writer=1, writer_pc="E3"), a) == ()


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
    assert global_rel_clause(_concrete(), _abstract()) is None


def test_global_rel_undo_log_restores_snapshot() -> None:
    # writer mid-transaction: dirty volatile store plus logged old value
    cs = _concrete(glb=1, writer=1, writer_pc="W7", vstore=(1, 0),
                   log=((0, 0),), loc=(1, 0))
    a = _abstract(pc=("writeResp", "notStarted"), wr1=((0, 1),))
    assert global_rel_clause(cs, a) is None
    # with the log artificially emptied the snapshot cannot be recovered
    cs_bad = cs._replace(log=UndoLog(()))
    assert global_rel_clause(cs_bad, a) == "globalRel.3"


def test_global_rel_other_clause_tags() -> None:
    assert global_rel_clause(_concrete(vstore=(1, 0)), _abstract()) == "globalRel.1"
    assert global_rel_clause(_concrete(glb=2), _abstract()) == "globalRel.2"
    a = _abstract(pc=("ready", "notStarted"))
    assert global_rel_clause(_concrete(), a) == "globalRel.4"
    # a live writer at W7: volatile memory is the last snapshot with the
    # writer's abstract write set applied
    w7 = _concrete(glb=1, writer=1, writer_pc="W7", vstore=(1, 0),
                   log=((0, 0),), loc=(1, 0))
    pending = ("writeResp", "notStarted")
    assert global_rel_clause(w7, _abstract(pc=pending, wr1=((0, 1),))) is None
    assert global_rel_clause(w7, _abstract(pc=pending)) == "globalRel.1"
    assert global_rel_clause(w7, _abstract(pc=pending, wr1=((1, 1),))) \
        == "globalRel.1"
    # a writer at E3 has committed: its writes are in the last snapshot and
    # the counter is read one bump ahead, so two snapshots are expected
    e3 = _concrete(glb=1, writer=1, writer_pc="E3", vstore=(1, 0), loc=(1, 0))
    done = ("commitResp", "notStarted")
    assert global_rel_clause(
        e3, _abstract(mems=((0, 0), (1, 0)), pc=done, wr1=((0, 1),))) is None
    assert global_rel_clause(
        e3, _abstract(mems=((1, 0),), pc=done, wr1=((0, 1),))) == "globalRel.2"


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
    assert rep.ok and rep.soft_flag_count == 0
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
    assert rep.ok and rep.soft_flag_count == 0


def test_forward_sim_mid_write_crash_recovery() -> None:
    schedule = [act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1),
                act("invWrite", 1, addr=0, val=1)] + \
        [act(k, 1) for k in ("W1", "W2", "W3", "W4", "W5", "W6", "W7")] + \
        [act("crash"), act("C1"), act("C2", addr=0, val=0), act("C3"),
         act("C4"), act("C5"), act("C1"), act("C6")]
    rep = check_forward_sim(CFG, schedule)
    assert rep.ok and rep.soft_flag_count == 0


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
        assert rep.soft_flag_count == 0, rep.soft_flags


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



# the soft layer: a fault in the per-transaction table alone ------------------

SOFT_RUN = ExplorationConfig(domain=CFG, max_crashes=0, flush_budget=0,
                             max_steps=12, checks=("simrel",),
                             dedup="state")


def test_broken_pc_table_raises_soft_flags_only(monkeypatch) -> None:
    healthy = explore_exhaustive(SOFT_RUN)
    assert (healthy.histories_explored, healthy.states_visited) == (847, 705)
    assert healthy.ok and healthy.txn_rel_flag_count == 0
    # a completed write (W7) taken as still pending: the global relation
    # holds, so nothing is a violation, but the table's clause fails
    monkeypatch.setitem(refinement._PC_TABLE, "W7", "writePending")
    broken = explore_exhaustive(SOFT_RUN)
    assert (broken.histories_explored, broken.states_visited) == (847, 705)
    assert broken.ok and broken.violations == []
    # soft-flagged steps, the unit of check_forward_sim's soft_flag_count,
    # and the distinct "action: clause" texts of the whole run
    assert broken.txn_rel_flag_count == 24
    assert broken.txn_rel_flags == tuple(
        f"{a}: txnRel.{clause}(t={t})"
        for a, t in (("W6(t1)", 1), ("invBegin(t2)", 1),
                     ("W6(t2)", 2), ("invBegin(t1)", 2))
        for clause in ("pc", "writeSetParity"))
    rep = check_forward_sim(CFG, FULL_WRITER)
    assert rep.ok and rep.soft_flag_count == 1
    (flag,) = rep.soft_flags
    assert (flag["tag"], flag["action"], flag["clauses"]) == (
        "table_suspect", "W6(t1)", ["txnRel.pc(t=1)"])


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
    rep = check_weak_sim(CFG, schedule)
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
    rep = check_weak_sim(CFG, schedule)
    assert rep.ok
    assert rep.target_history[-1] == H.res_read(2, 0)


def test_weak_sim_on_random_walks() -> None:
    rng = random.Random(4242)
    for _ in range(30):
        _, schedule = dtms2_random_walk(CFG, rng, max_steps=30, max_crashes=2)
        rep = check_weak_sim(CFG, schedule)
        assert rep.ok, rep.reason


# trace membership ----------------------------------------------------------------

def test_trace_refinement_accepts_machine_history() -> None:
    h = (H.inv_begin(1), H.res_begin(1), H.inv_write(1, 0, 1), H.res_write(1),
         H.inv_commit(1), H.res_commit(1))
    assert check_trace_refinement(h).ok


def test_trace_refinement_rejects_dirty_read() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 1),
        H.inv_commit(1), H.res_commit(1),
    )
    r = check_trace_refinement(h)
    assert not r.ok and r.failed_at == 7
    # renaming transactions, addresses and non-zero values keeps the verdict
    # and the failing index
    renamed = tuple(H.Event(e.ev, {1: 5, 2: 9}.get(e.tx), {0: 7}.get(e.addr),
                            {1: 3}.get(e.val), e.abort) for e in h)
    r = check_trace_refinement(renamed)
    assert not r.ok and r.failed_at == 7
