"""Executable durable-TML machine: line-by-line transitions, crash and
recovery, mutations.

Intermediate state values asserted here were replayed by hand from the
algorithm: begin snapshots the global counter and waits for it to be even;
a writer claims the counter with an odd value; writes save the old value to
the persistent undo log, update volatile memory, then flush; commit clears
the log and bumps the counter even; recovery undoes logged values and
zeroes the counter.
"""
from __future__ import annotations

import random

import pytest

from durastm import histories as H
from durastm.dtml import MUTATIONS, DtmlMachine
from durastm.histories import act


CFG = H.Domain(num_txns=2, num_addrs=2, num_vals=2)


def machine(mutation: str | None = None) -> DtmlMachine:
    return DtmlMachine(CFG, mutation=mutation)


def run_steps(m: DtmlMachine, actions):
    s = m.initial()
    events = []
    for a in actions:
        s, e = m.step(s, a)
        if e is not None:
            events.append(e)
    return s, tuple(events)


BEGIN_1 = [act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1)]
BEGIN_2 = [act("invBegin", 2), act("B1", 2), act("B2", 2), act("resBegin", 2)]
WRITE_1 = [act("invWrite", 1, addr=0, val=1)] + [
    act(k, 1) for k in ("W1", "W2", "W3", "W4", "W5", "W6", "W7")
] + [act("resWrite", 1)]
COMMIT_1 = [act("invCommit", 1)] + [act(k, 1) for k in ("E1", "E2", "E3")] + [
    act("resCommit", 1)
]


def test_initial_state() -> None:
    s = machine().initial()
    assert s.glb == 0
    assert s.log.is_empty()
    assert set(s.pc) == {"NotStarted"}
    assert s.syst_pc == "RecIdle"
    assert s.writer is None
    assert s.mem.vstore == s.mem.pstore == (0, 0)


def test_writer_happy_path_history_and_state() -> None:
    m = machine()
    s, h = run_steps(m, BEGIN_1 + WRITE_1 + COMMIT_1)
    assert h == (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_commit(1), H.res_commit(1),
    )
    assert s.pc[0] == "Committed"
    assert s.glb == 2
    assert s.log.is_empty()
    assert s.writer is None
    assert s.mem.vstore == (1, 0) and s.mem.pstore == (1, 0)


def test_writer_intermediate_states() -> None:
    m = machine()
    s = m.initial()
    for a in BEGIN_1 + [act("invWrite", 1, addr=0, val=1), act("W1", 1)]:
        s, _ = m.step(s, a)
    s, _ = m.step(s, act("W2", 1))  # successful compare-and-swap
    assert s.glb == 1 and s.writer == 1 and s.loc[0] == 0
    s, _ = m.step(s, act("W3", 1))
    assert s.loc[0] == 1
    s, _ = m.step(s, act("W4", 1))
    s, _ = m.step(s, act("W5", 1))  # logs the pre-write value
    assert s.log.items() == ((0, 0),)
    s, _ = m.step(s, act("W6", 1))
    assert s.mem.vstore == (1, 0) and s.mem.pstore == (0, 0)
    s, _ = m.step(s, act("W7", 1))
    assert s.mem.pstore == (1, 0)
    for a in [act("resWrite", 1), act("invCommit", 1), act("E1", 1)]:
        s, _ = m.step(s, a)
    s, _ = m.step(s, act("E2", 1))
    assert s.log.is_empty() and s.glb == 1  # cleared before the counter bump
    s, _ = m.step(s, act("E3", 1))
    assert s.glb == 2 and s.writer is None


def test_second_write_same_address_skips_logging() -> None:
    m = machine()
    s, _ = run_steps(m, BEGIN_1 + WRITE_1)
    for a in [act("invWrite", 1, addr=0, val=0), act("W1", 1)]:
        s, _ = m.step(s, a)
    assert s.pc[0] == "W4"  # odd counter: no second claim attempt
    s, _ = m.step(s, act("W4", 1))
    assert s.pc[0] == "W6"  # address already logged
    assert s.log.items() == ((0, 0),)


def test_reader_sees_committed_value() -> None:
    m = machine()
    s, _ = run_steps(m, BEGIN_1 + WRITE_1 + COMMIT_1)
    for a in BEGIN_2 + [act("invRead", 2, addr=0), act("R1", 2), act("R2", 2)]:
        s, _ = m.step(s, a)
    s, e = m.step(s, act("resRead", 2))
    assert e == H.res_read(2, 1)
    assert s.pc[1] == "Idle"


def test_concurrent_reader_aborts_at_validation() -> None:
    m = machine()
    s, _ = run_steps(m, BEGIN_1 + BEGIN_2 + [
        act("invWrite", 2, addr=0, val=1), act("W1", 2), act("W2", 2),
        act("invRead", 1, addr=0), act("R1", 1),
    ])
    # t1 snapshotted 0, the counter is now odd: only the abort response fires
    assert act("R2", 1) not in m.enabled(s)
    s, e = m.step(s, act("resRead", 1))
    assert e == H.res_read_abort(1)
    assert s.pc[0] == "Aborted"


def test_concurrent_writer_aborts_at_claim() -> None:
    m = machine()
    s, _ = run_steps(m, BEGIN_1 + BEGIN_2 + [
        act("invWrite", 2, addr=0, val=1), act("W1", 2), act("W2", 2),
        act("invWrite", 1, addr=1, val=1), act("W1", 1),
    ])
    assert act("W2", 1) not in m.enabled(s)
    s, e = m.step(s, act("resWrite", 1))
    assert e == H.res_write_abort(1)
    assert s.pc[0] == "Aborted"


def test_begin_spins_while_writer_active() -> None:
    m = machine()
    s, _ = run_steps(m, BEGIN_2 + [
        act("invWrite", 2, addr=0, val=1), act("W1", 2), act("W2", 2),
        act("invBegin", 1), act("B1", 1),
    ])
    assert s.loc[0] == 1
    s, _ = m.step(s, act("B2", 1))
    assert s.pc[0] == "B1"  # odd snapshot: retry
    for a in [act(k, 2) for k in ("W3", "W4", "W5", "W6", "W7")] + [
        act("resWrite", 2), act("invCommit", 2),
        act("E1", 2), act("E2", 2), act("E3", 2),
    ]:
        s, _ = m.step(s, a)
    s, _ = m.step(s, act("B1", 1))
    s, _ = m.step(s, act("B2", 1))
    assert s.pc[0] == "BeginResp" and s.loc[0] == 2


def test_read_only_commit_leaves_counter_even() -> None:
    m = machine()
    s, h = run_steps(m, BEGIN_1 + [
        act("invRead", 1, addr=0), act("R1", 1), act("R2", 1), act("resRead", 1),
        act("invCommit", 1), act("E1", 1), act("resCommit", 1),
    ])
    assert h[-1] == H.res_commit(1)
    assert s.glb == 0 and s.log.is_empty()


def test_crash_resets_volatile_keeps_log() -> None:
    m = machine()
    s, _ = run_steps(m, BEGIN_1 + [act("invWrite", 1, addr=0, val=1)] + [
        act(k, 1) for k in ("W1", "W2", "W3", "W4", "W5", "W6")
    ])
    s, e = m.step(s, act("crash"))
    assert e == H.CRASH
    assert s.mem.vstore == s.mem.pstore == (0, 0)
    assert s.log.items() == ((0, 0),)  # the log is persistent
    assert s.pc[0] == "Aborted"
    assert s.writer is None
    assert s.syst_pc == "C1"
    assert s.glb == 1  # only recovery resets the counter


def test_recovery_undoes_flushed_uncommitted_write() -> None:
    m = machine()
    s, _ = run_steps(m, BEGIN_1 + WRITE_1 + [act("crash")])
    # flushed but uncommitted: both stores hold the dirty value
    assert s.mem.vstore == (1, 0) and s.mem.pstore == (1, 0)
    assert not any(a.kind == "invBegin" for a in m.enabled(s))
    s, _ = m.step(s, act("C1"))
    assert s.syst_pc == "C2"
    s, _ = m.step(s, act("C2", addr=0, val=0))
    assert s.syst_pc == "C3" and s.rec_addr == 0 and s.rec_val == 0
    s, _ = m.step(s, act("C3"))
    assert s.mem.vstore == (0, 0) and s.mem.pstore == (1, 0)
    s, _ = m.step(s, act("C4"))
    assert s.mem.pstore == (0, 0)
    s, _ = m.step(s, act("C5"))
    assert s.log.is_empty() and s.syst_pc == "C1"
    s, _ = m.step(s, act("C1"))
    assert s.syst_pc == "C6"
    s, _ = m.step(s, act("C6"))
    assert s.glb == 0 and s.syst_pc == "RecIdle"
    assert any(a.kind == "invBegin" for a in m.enabled(s))


def test_crash_during_recovery_restarts_it() -> None:
    m = machine()
    s, _ = run_steps(m, BEGIN_1 + WRITE_1 + [act("crash"), act("C1"),
                                             act("C2", addr=0, val=0), act("crash")])
    assert s.syst_pc == "C1" and s.rec_addr is None
    assert s.log.items() == ((0, 0),)


def test_crash_with_empty_log_still_requires_recovery() -> None:
    m = machine()
    s, _ = run_steps(m, [act("crash")])
    assert s.syst_pc == "C1"
    assert not any(a.kind == "invBegin" for a in m.enabled(s))
    s, _ = m.step(s, act("C1"))
    s, _ = m.step(s, act("C6"))
    assert s.syst_pc == "RecIdle" and s.glb == 0


def test_system_flush_always_enabled() -> None:
    m = machine()
    s = m.initial()
    assert act("flush", addr=0) in m.enabled(s)
    s, _ = m.step(s, act("crash"))
    assert act("flush", addr=0) in m.enabled(s)


def test_step_rejects_disabled_action() -> None:
    m = machine()
    with pytest.raises(ValueError):
        m.step(m.initial(), act("B1", 1))
    with pytest.raises(ValueError):
        m.step(m.initial(), act("invBegin", 9))


def test_run_reports_position_of_disabled_action() -> None:
    m = machine()
    with pytest.raises(ValueError, match="1"):
        m.run([act("invBegin", 1), act("B2", 1)])


def test_enabled_is_deterministic() -> None:
    m = machine()
    s = m.initial()
    assert m.enabled(s) == m.enabled(s)


def test_snapshot_field_names() -> None:
    m = machine()
    snap = m.snapshot(m.initial())
    assert set(snap) == {"glb", "loc", "pc", "vstore", "pstore", "log", "writer", "systPc"}
    assert snap["glb"] == 0 and snap["writer"] is None and snap["systPc"] == "RecIdle"


# mutations -------------------------------------------------------------------

def test_mutation_names() -> None:
    assert MUTATIONS == ("skip_flush_W7", "skip_undo_log", "skip_log_clear_E2")
    with pytest.raises(ValueError):
        DtmlMachine(CFG, mutation="skip_everything")


def test_skip_flush_w7_leaves_persistent_store_stale() -> None:
    m = machine("skip_flush_W7")
    s, _ = run_steps(m, BEGIN_1 + WRITE_1)
    assert s.mem.vstore == (1, 0) and s.mem.pstore == (0, 0)


def test_skip_undo_log_never_logs() -> None:
    m = machine("skip_undo_log")
    s, _ = run_steps(m, BEGIN_1 + [act("invWrite", 1, addr=0, val=1)] + [
        act(k, 1) for k in ("W1", "W2", "W3", "W4")
    ])
    assert s.pc[0] == "W6"  # straight past the logging step
    assert s.log.is_empty()


def test_skip_log_clear_e2_retains_entries_after_commit() -> None:
    m = machine("skip_log_clear_E2")
    s, _ = run_steps(m, BEGIN_1 + WRITE_1 + COMMIT_1)
    assert s.log.items() == ((0, 0),)
    assert s.pc[0] == "Committed"


# machine-level properties ------------------------------------------------------

def test_random_walks_produce_durably_well_formed_histories() -> None:
    m = machine()
    rng = random.Random(20260814)
    for _ in range(200):
        s = m.initial()
        events = []
        for _ in range(40):
            acts = m.enabled(s)
            if not acts:
                break
            s, e = m.step(s, rng.choice(acts))
            if e is not None:
                events.append(e)
        assert H.durably_well_formed(tuple(events))
