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
from collections import Counter
from functools import lru_cache

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
)
from durastm.histories import act
from durastm.opacity import durably_opaque, may_break_opacity


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
    act("invBegin", 1), act("resBegin", 1),
    act("invWrite", 1, addr=0, val=1), act("doWrite", 1), act("resWrite", 1),
    act("invCommit", 1), act("doCommitW", 1), act("resCommit", 1),
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
        act("invBegin", 2), act("resBegin", 2), act("invRead", 2, addr=0),
    ])
    reads = [a for a in m.enabled(s) if a.kind == "doRead"]
    assert [a.idx for a in reads] == [1]
    s, _ = m.step(s, reads[0])
    s, e = m.step(s, act("resRead", 2))
    assert e == H.res_read(2, 1)


def test_early_reader_may_use_either_snapshot() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, [act("invBegin", 2), act("resBegin", 2)]
                     + COMMITTED_WRITE_1 + [act("invRead", 2, addr=0)])
    reads = [a for a in m.enabled(s) if a.kind == "doRead"]
    assert sorted(a.idx for a in reads) == [0, 1]
    # reading from the old snapshot pins the transaction to it
    s, _ = m.step(s, next(a for a in reads if a.idx == 0))
    s, e = m.step(s, act("resRead", 2))
    assert e == H.res_read(2, 0)
    assert s.rd_set[1] == ((0, 0),)


def test_read_only_commit_against_old_snapshot() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, [act("invBegin", 2), act("resBegin", 2)]
                     + COMMITTED_WRITE_1 + [
        act("invRead", 2, addr=0), act("doRead", 2, idx=0),
        act("resRead", 2), act("invCommit", 2),
    ])
    ro = [a for a in m.enabled(s) if a.kind == "doCommitRO"]
    assert [a.idx for a in ro] == [0]
    s, _ = m.step(s, ro[0])
    s, e = m.step(s, act("resCommit", 2))
    assert e == H.res_commit(2)
    assert s.mems == ((0, 0), (1, 0))  # read-only commit adds nothing


def test_writer_with_stale_read_cannot_commit() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, [
        act("invBegin", 2), act("resBegin", 2),
        act("invRead", 2, addr=0), act("doRead", 2, idx=0), act("resRead", 2),
        act("invWrite", 2, addr=1, val=1), act("doWrite", 2), act("resWrite", 2),
    ] + COMMITTED_WRITE_1 + [act("invCommit", 2)])
    kinds = {a.kind for a in m.enabled(s) if a.tx == 2}
    assert "doCommitW" not in kinds and "doCommitRO" not in kinds
    assert "abortResp" in kinds
    s, e = m.step(s, act("abortResp", 2))
    assert e == H.res_commit_abort(2)
    assert s.pc[1] == "aborted"


def test_own_write_read_back_without_read_set_update() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, [
        act("invBegin", 1), act("resBegin", 1),
        act("invWrite", 1, addr=0, val=1), act("doWrite", 1), act("resWrite", 1),
        act("invRead", 1, addr=0),
    ])
    reads = [a for a in m.enabled(s) if a.kind == "doRead"]
    assert len(reads) == 1 and reads[0].idx is None
    s, _ = m.step(s, reads[0])
    s, e = m.step(s, act("resRead", 1))
    assert e == H.res_read(1, 1)
    assert s.rd_set[0] == ()


def test_abort_response_only_for_pending_operations() -> None:
    m = Dtms2Machine(CFG)
    s = m.initial()
    assert not any(a.kind == "abortResp" for a in m.enabled(s))
    s, _ = m.step(s, act("invBegin", 1))
    assert not any(a.kind == "abortResp" for a in m.enabled(s))  # begin never aborts
    s, _ = m.step(s, act("resBegin", 1))
    assert not any(a.kind == "abortResp" for a in m.enabled(s))
    s, _ = m.step(s, act("invRead", 1, addr=0))
    assert any(a.kind == "abortResp" for a in m.enabled(s))
    s2, e = m.step(s, act("abortResp", 1))
    assert e == H.res_read_abort(1)
    assert s2.pc[0] == "aborted"
    s, _ = m.step(s, act("doRead", 1, idx=0))
    s2, e = m.step(s, act("abortResp", 1))  # a computed response may still abort
    assert e == H.res_read_abort(1)


def test_crash_truncates_snapshots_and_aborts_live_txns() -> None:
    m = Dtms2Machine(CFG)
    s, _ = run_steps(m, COMMITTED_WRITE_1 + [
        act("invBegin", 2), act("resBegin", 2),
        act("invWrite", 2, addr=1, val=1), act("doWrite", 2),
    ])
    s, e = m.step(s, act("crash"))
    assert e == H.CRASH
    assert s.mems == ((1, 0),)
    assert s.pc == ("committed", "aborted")
    assert s.wr_set[1] == ()


def test_non_durable_variant_has_no_crash() -> None:
    m = Dtms2Machine(CFG, durable=False)
    assert not any(a.kind == "crash" for a in m.enabled(m.initial()))
    with pytest.raises(ValueError):
        m.step(m.initial(), act("crash"))


def test_building_a_machine_is_linear_in_transactions() -> None:
    # the reads and read-only commits by snapshot index, num_txns + 1 per
    # transaction, wait for a transaction's first read or commit; what is
    # left is at most the 12 enabled and internal actions of each
    # transaction's tables on one address and one value, and the crash
    before = act.cache_info().currsize
    Dtms2Machine(H.Domain(2000, 1, 1))
    assert act.cache_info().currsize - before <= 12 * 2000 + 1


def test_building_a_machine_does_no_emission_work(monkeypatch) -> None:
    # an event asks _event for its action when it arrives, so building a
    # machine emits nothing, whatever the number of transactions or values
    calls = []
    event = dtms2._event

    def counted(*args):
        calls.append(args)
        return event(*args)

    monkeypatch.setattr(dtms2, "_event", counted)
    Dtms2Machine(H.Domain(2000, 1, 1))
    m = Dtms2Machine(H.Domain(2, 2, 300))
    assert calls == []
    acc = Acceptor(m)
    assert acc.accepts((
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 1, 299), H.res_write(1),
        H.inv_commit(1), H.res_commit(1),
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 1), H.res_read(2, 299),
    )).ok
    got = acc.accepts((H.inv_begin(1), H.res_begin(1),
                       H.inv_read(1, 0), H.res_read(1, 299)))
    assert not got.ok and got.failed_at == 3


def test_step_rejects_disabled_action() -> None:
    m = Dtms2Machine(CFG)
    with pytest.raises(ValueError):
        m.step(m.initial(), act("resBegin", 1))


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


# the events the automaton can reject ------------------------------------------
#
# An accepted history h, extended by an event e so that h·e is still durably
# well-formed, is rejected only if may_break_opacity(e): every other event
# is enabled in some state that produced h.  The explorer decides refinement
# by that rule, replaying the history only at such events.

RULE_DOMAIN = H.Domain(num_txns=2, num_addrs=1, num_vals=2)

# t1 reads the 1 that t2 writes while t2's commit is pending, and then that
# commit aborts: no snapshot ever held the 1, so the abort is rejected
ABORTED_COMMIT_AFTER_READ = (
    H.inv_begin(2), H.res_begin(2), H.inv_write(2, 0, 1), H.res_write(2),
    H.inv_commit(2), H.inv_begin(1), H.res_begin(1), H.inv_read(1, 0),
    H.res_read(1, 1), H.res_commit_abort(2),
)


@lru_cache(maxsize=None)
def _first_rejections() -> tuple[int, Counter]:
    """The number of durably well-formed histories over RULE_DOMAIN with at
    most 10 events and 1 crash, and how often each event is the one at
    which the automaton rejects a history whose prefix it accepts."""
    acceptor = Acceptor(Dtms2Machine(RULE_DOMAIN))
    # frames[k] is the frame of the current history's prefix of length k:
    # enumeration yields every parent before its extensions, depth first
    frames = [acceptor.initial()]
    count, rejected = 0, Counter()
    for h in H.enumerate_histories(2, 1, 2, max_events=10, max_crashes=1):
        count += 1
        if not h:
            continue
        parent = frames[len(h) - 1]
        frame = acceptor.advance(parent, h[-1]) if parent else parent
        if parent and not frame:
            rejected[h[-1]] += 1
        del frames[len(h):]
        frames.append(frame)
    return count, rejected


def _assert_rule(may_break) -> None:
    count, rejected = _first_rejections()
    assert count == 552_570
    missed = sorted(map(str, (e for e in rejected if not may_break(e))))
    assert not missed, missed


def test_only_the_events_that_may_break_opacity_are_rejected() -> None:
    _assert_rule(may_break_opacity)
    kinds = Counter()
    for e, n in _first_rejections()[1].items():
        kinds[e.ev, e.abort] += n
    assert kinds == {("resRead", False): 18_032, ("resCommit", True): 112}


def test_the_rule_test_catches_a_predicate_without_aborted_commits() -> None:
    def without_aborted_commits(e: H.Event) -> bool:
        return e.ev in ("resRead", "resCommit") and not e.abort

    with pytest.raises(AssertionError, match="resCommit"):
        _assert_rule(without_aborted_commits)


def test_an_aborted_commit_can_be_rejected() -> None:
    h = ABORTED_COMMIT_AFTER_READ
    assert H.durably_well_formed(h) and len(h) == 10
    assert dtms2_accepts(h[:-1], RULE_DOMAIN).ok
    assert dtms2_accepts(h, RULE_DOMAIN).failed_at == 9
    assert may_break_opacity(h[-1])
    assert not durably_opaque(h, range(RULE_DOMAIN.num_vals)).ok


# random walks ------------------------------------------------------------------

def test_random_walks_are_durably_opaque() -> None:
    rng = random.Random(99)
    for _ in range(40):
        h, schedule = dtms2_random_walk(Dtms2Machine(CFG), rng,
                                        max_steps=30, max_crashes=2)
        assert H.durably_well_formed(h)
        assert dtms2_accepts(h, CFG).ok
        assert durably_opaque(h, value_domain=range(CFG.num_vals)).ok
        assert len(schedule) <= 30


def test_random_walk_is_reproducible() -> None:
    m = Dtms2Machine(CFG)
    h1, s1 = dtms2_random_walk(m, random.Random(7), max_steps=25, max_crashes=1)
    h2, s2 = dtms2_random_walk(m, random.Random(7), max_steps=25, max_crashes=1)
    assert h1 == h2 and s1 == s2
