"""Reference automaton for durable transactional memory.

The automaton keeps every committed memory snapshot in a growing sequence.
Reads may be served from any snapshot that is consistent with everything
the transaction has read so far and not older than its begin point.
Read-only transactions commit against any such snapshot; writers must be
consistent with the latest snapshot and append a new one.  A crash aborts
all live transactions and truncates the sequence to its last snapshot.

Acceptance of a history is decided by subset construction: internal
transitions are explored silently between the visible events.
"""
from __future__ import annotations

import random

import pytest

from durastm import dtms2
from durastm import histories as H
from durastm.dtms2 import (
    Acceptor,
    Dtms2Machine,
    compact_history,
    config_for_history,
    dtms2_accepts,
    dtms2_random_walk,
    mact,
)
from durastm.opacity import durably_opaque


CFG = H.Domain(num_txns=2, num_addrs=2, num_vals=2)


def run_steps(m, actions, s=None):
    s = m.initial() if s is None else s
    events = []
    for a in actions:
        s, e = m.step(s, a)
        if e is not None:
            events.append(e)
    return s, tuple(events)


COMMITTED_WRITE_1 = [
    mact("invBegin", 1), mact("resBegin", 1),
    mact("invWrite", 1, addr=0, val=1), mact("doWrite", 1), mact("resWrite", 1),
    mact("invCommit", 1), mact("doCommitW", 1), mact("resCommit", 1),
]


def test_initial_state() -> None:
    s = Dtms2Machine(CFG).initial()
    assert s.mems == ((0, 0),)
    assert set(s.pc) == {"notStarted"}


def test_writer_appends_snapshot() -> None:
    m = Dtms2Machine(CFG)
    s, h = run_steps(m, COMMITTED_WRITE_1)
    assert s.mems == ((0, 0), (1, 0))
    assert s.pc[0] == "committed"
    assert h == (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_commit(1), H.res_commit(1),
    )


def test_late_reader_sees_only_latest_snapshot() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, COMMITTED_WRITE_1 + [
        mact("invBegin", 2), mact("resBegin", 2), mact("invRead", 2, addr=0),
    ])
    reads = [a for a in m.enabled(s) if a.kind == "doRead"]
    assert [a.idx for a in reads] == [1]
    s, _ = m.step(s, reads[0])
    s, e = m.step(s, mact("resRead", 2))
    assert e == H.res_read(2, 1)


def test_early_reader_may_use_either_snapshot() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, [mact("invBegin", 2), mact("resBegin", 2)]
                     + COMMITTED_WRITE_1 + [mact("invRead", 2, addr=0)])
    reads = [a for a in m.enabled(s) if a.kind == "doRead"]
    assert sorted(a.idx for a in reads) == [0, 1]
    # reading from the old snapshot pins the transaction to it
    s, _ = m.step(s, next(a for a in reads if a.idx == 0))
    s, e = m.step(s, mact("resRead", 2))
    assert e == H.res_read(2, 0)
    assert s.rd_set[1] == ((0, 0),)


def test_read_only_commit_against_old_snapshot() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, [mact("invBegin", 2), mact("resBegin", 2)]
                     + COMMITTED_WRITE_1 + [
        mact("invRead", 2, addr=0), mact("doRead", 2, idx=0),
        mact("resRead", 2), mact("invCommit", 2),
    ])
    ro = [a for a in m.enabled(s) if a.kind == "doCommitRO"]
    assert [a.idx for a in ro] == [0]
    s, _ = m.step(s, ro[0])
    s, e = m.step(s, mact("resCommit", 2))
    assert e == H.res_commit(2)
    assert s.mems == ((0, 0), (1, 0))  # read-only commit adds nothing


def test_writer_with_stale_read_cannot_commit() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, [
        mact("invBegin", 2), mact("resBegin", 2),
        mact("invRead", 2, addr=0), mact("doRead", 2, idx=0), mact("resRead", 2),
        mact("invWrite", 2, addr=1, val=1), mact("doWrite", 2), mact("resWrite", 2),
    ] + COMMITTED_WRITE_1 + [mact("invCommit", 2)])
    kinds = {a.kind for a in m.enabled(s) if a.tx == 2}
    assert "doCommitW" not in kinds and "doCommitRO" not in kinds
    assert "abortResp" in kinds
    s, e = m.step(s, mact("abortResp", 2))
    assert e == H.res_commit_abort(2)
    assert s.pc[1] == "aborted"


def test_own_write_read_back_without_read_set_update() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, [
        mact("invBegin", 1), mact("resBegin", 1),
        mact("invWrite", 1, addr=0, val=1), mact("doWrite", 1), mact("resWrite", 1),
        mact("invRead", 1, addr=0),
    ])
    reads = [a for a in m.enabled(s) if a.kind == "doRead"]
    assert len(reads) == 1 and reads[0].idx is None
    s, _ = m.step(s, reads[0])
    s, e = m.step(s, mact("resRead", 1))
    assert e == H.res_read(1, 1)
    assert s.rd_set[0] == ()


def test_abort_response_only_for_pending_operations() -> None:
    m = Dtms2Machine(CFG)
    s = m.initial()
    assert not any(a.kind == "abortResp" for a in m.enabled(s))
    s, _ = m.step(s, mact("invBegin", 1))
    assert not any(a.kind == "abortResp" for a in m.enabled(s))  # begin never aborts
    s, _ = m.step(s, mact("resBegin", 1))
    assert not any(a.kind == "abortResp" for a in m.enabled(s))
    s, _ = m.step(s, mact("invRead", 1, addr=0))
    assert any(a.kind == "abortResp" for a in m.enabled(s))
    s2, e = m.step(s, mact("abortResp", 1))
    assert e == H.res_read_abort(1)
    assert s2.pc[0] == "aborted"
    s, _ = m.step(s, mact("doRead", 1, idx=0))
    s2, e = m.step(s, mact("abortResp", 1))  # a computed response may still abort
    assert e == H.res_read_abort(1)


def test_crash_truncates_snapshots_and_aborts_live_txns() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, COMMITTED_WRITE_1 + [
        mact("invBegin", 2), mact("resBegin", 2),
        mact("invWrite", 2, addr=1, val=1), mact("doWrite", 2),
    ])
    s, e = m.step(s, mact("crash"))
    assert e == H.CRASH
    assert s.mems == ((1, 0),)
    assert s.pc == ("committed", "aborted")
    assert s.wr_set[1] == ()


def test_non_durable_variant_has_no_crash() -> None:
    m = Dtms2Machine(CFG, durable=False)
    assert not any(a.kind == "crash" for a in m.enabled(m.initial()))
    with pytest.raises(ValueError):
        m.step(m.initial(), mact("crash"))


def test_step_rejects_disabled_action() -> None:
    m = Dtms2Machine(CFG)
    with pytest.raises(ValueError):
        m.step(m.initial(), mact("resBegin", 1))


# acceptance by subset construction -------------------------------------------

def test_accepts_committed_write_then_read() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_commit(1), H.res_commit(1),
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 1),
    )
    assert dtms2_accepts(h, CFG).ok


def test_rejects_dirty_read() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 1),  # value not committed yet
        H.inv_commit(1), H.res_commit(1),
    )
    r = dtms2_accepts(h, CFG)
    assert not r.ok
    assert r.failed_at == 7


def test_accepts_interleaved_disjoint_writes() -> None:
    # both writers commit; the second to commit must be consistent with the
    # first, which holds because their read sets are empty
    h = (
        H.inv_begin(1), H.res_begin(1), H.inv_begin(2), H.res_begin(2),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_write(2, 1, 1), H.res_write(2),
        H.inv_commit(1), H.res_commit(1),
        H.inv_commit(2), H.res_commit(2),
        H.inv_begin(3), H.res_begin(3),
        H.inv_read(3, 0), H.res_read(3, 1),
        H.inv_read(3, 1), H.res_read(3, 1),
    )
    assert dtms2_accepts(h, H.Domain(3, 2, 2)).ok


def test_committed_write_survives_crash() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_commit(1), H.res_commit(1),
        H.CRASH,
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 1),
    )
    assert dtms2_accepts(h, CFG).ok


def test_uncommitted_write_must_not_survive_crash() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.CRASH,
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 1),
    )
    r = dtms2_accepts(h, CFG)
    assert not r.ok and r.failed_at == 8


def test_commit_pending_at_crash_may_take_effect() -> None:
    # the commit may have taken effect internally before the crash, so a
    # later read of the written value is allowed...
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_commit(1),
        H.CRASH,
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 1),
    )
    assert dtms2_accepts(h, CFG).ok
    # ...and so is a read of the old value (commit did not take effect)
    h_old = h[:-1] + (H.res_read(2, 0),)
    assert dtms2_accepts(h_old, CFG).ok


def test_config_for_history_infers_bounds() -> None:
    h = (H.inv_begin(3), H.res_begin(3), H.inv_write(3, 4, 7), H.res_write(3))
    c = config_for_history(h)
    assert (c.num_txns, c.num_addrs, c.num_vals) == (3, 5, 8)
    assert dtms2_accepts(h, c).ok
    # dense renaming keeps value 0 and shrinks the bounds to the id counts
    dense, c = compact_history(h + (H.inv_read(3, 9), H.res_read(3, 0)))
    assert dense == (H.inv_begin(1), H.res_begin(1), H.inv_write(1, 0, 1),
                     H.res_write(1), H.inv_read(1, 1), H.res_read(1, 0))
    assert (c.num_txns, c.num_addrs, c.num_vals) == (1, 2, 2)


# one acceptor for many histories ------------------------------------------------

@pytest.mark.parametrize("memo_size", [dtms2.MEMO_SIZE, 1])
def test_one_acceptor_judges_every_history_as_a_fresh_one(
        monkeypatch, memo_size) -> None:
    # the memo a run shares must not carry one history's frames into the
    # verdict on another, whether it holds every frame or almost none
    monkeypatch.setattr(dtms2, "MEMO_SIZE", memo_size)
    shared = Acceptor(Dtms2Machine(CFG))
    assert shared.advance.cache_info().maxsize == memo_size
    verdicts = set()
    count = 0
    for h in H.enumerate_histories(2, 2, 2, max_events=6, max_crashes=1):
        got = shared.accepts(h)
        assert got == dtms2_accepts(h, CFG), h
        verdicts.add(got.ok)
        count += 1
    assert count == 4114
    assert verdicts == {True, False}


# random walks ------------------------------------------------------------------

def test_random_walks_are_durably_opaque() -> None:
    rng = random.Random(99)
    for _ in range(40):
        h, schedule = dtms2_random_walk(CFG, rng, max_steps=30, max_crashes=2)
        assert H.durably_well_formed(h)
        assert dtms2_accepts(h, CFG).ok
        assert durably_opaque(h, value_domain=range(CFG.num_vals)).ok
        assert len(schedule) <= 30


def test_random_walk_is_reproducible() -> None:
    h1, s1 = dtms2_random_walk(CFG, random.Random(7), max_steps=25, max_crashes=1)
    h2, s2 = dtms2_random_walk(CFG, random.Random(7), max_steps=25, max_crashes=1)
    assert h1 == h2 and s1 == s2
