"""Brute-force opacity / durable-opacity oracle.

Every verdict asserted here was derived by hand before the oracle was
written: replaying the memory-snapshot semantics for validity, applying the
committed-plus-current projection rule for legality, and enumerating
completions and block orders for the end-to-end checks.
"""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from durastm import explorer
from durastm import histories as H
from durastm import opacity
from durastm.opacity import (
    TooLargeError,
    durably_opaque,
    end_to_end_opaque,
    end_to_end_opaque_alt,
    legal,
    legal_at,
    opaque,
    sequential,
    valid,
)

V01 = (0, 1)


def block(t: int, *pairs, commit: bool | None = True) -> tuple[H.Event, ...]:
    """One transaction's events: begin, the given op pairs, then commit,
    abort, or (commit=None) nothing."""
    out = [H.inv_begin(t), H.res_begin(t)]
    for kind, addr, val in pairs:
        if kind == "r":
            out += [H.inv_read(t, addr), H.res_read(t, val)]
        else:
            out += [H.inv_write(t, addr, val), H.res_write(t)]
    if commit is True:
        out += [H.inv_commit(t), H.res_commit(t)]
    elif commit is False:
        out += [H.inv_commit(t), H.res_commit_abort(t)]
    return tuple(out)


# validity -------------------------------------------------------------------

def test_valid_initial_reads_are_zero() -> None:
    h = block(1, ("r", 0, 0))
    states = valid(h)
    assert states is not None
    assert states[0] == {}  # all-zero start
    assert all(s.get(0, 0) == 0 for s in states)


def test_valid_read_of_unwritten_value_is_invalid() -> None:
    assert valid(block(1, ("r", 0, 1))) is None


def test_valid_write_then_read_back() -> None:
    h = block(1, ("w", 0, 1), ("r", 0, 1))
    states = valid(h)
    assert states is not None
    # the write pair is the second operation pair: state index 2 onward holds 1
    assert states[2][0] == 1


def test_valid_aborted_write_stutters() -> None:
    t1 = (H.inv_begin(1), H.res_begin(1),
          H.inv_write(1, 0, 1), H.res_write_abort(1))
    t2 = block(2, ("r", 0, 0))
    assert valid(t1 + t2) is not None
    assert valid(t1 + block(2, ("r", 0, 1))) is None


def test_valid_rejects_malformed_pairing() -> None:
    with pytest.raises(ValueError):
        valid((H.inv_begin(1),))  # dangling invocation
    with pytest.raises(ValueError):
        valid((H.inv_begin(1), H.res_read(1, 0)))  # mismatched response
    with pytest.raises(ValueError):
        valid((H.CRASH,))


# legality -------------------------------------------------------------------

def test_aborted_writer_cannot_justify_later_read() -> None:
    hs = block(1, ("w", 0, 1), commit=False) + block(2, ("r", 0, 1))
    # the read response position is illegal: t1's write is projected away
    assert not legal(hs)
    bad_i = len(hs) - 3  # index of t2's read response
    assert hs[bad_i] == H.res_read(2, 1)
    assert not legal_at(hs, bad_i)


def test_committed_writer_justifies_later_read() -> None:
    hs = block(1, ("w", 0, 1)) + block(2, ("r", 0, 1))
    assert legal(hs)
    assert sequential(hs)


def test_live_writer_invisible_to_others_but_sees_itself() -> None:
    t1 = (H.inv_begin(1), H.res_begin(1),
          H.inv_write(1, 0, 1), H.res_write(1),
          H.inv_read(1, 0), H.res_read(1, 1))  # own write visible
    assert legal(t1 + block(2, ("r", 0, 0)))
    assert not legal(t1 + block(2, ("r", 0, 1)))


def test_legal_at_invocation_index_strips_trailing_invocation() -> None:
    hs = block(1) + (H.inv_begin(2), H.res_begin(2), H.inv_read(2, 0))
    assert legal(hs)


def test_legal_rejects_interleaved_input() -> None:
    h = (H.inv_begin(1), H.inv_begin(2), H.res_begin(1), H.res_begin(2))
    with pytest.raises(ValueError, match="non-interleaved"):
        legal(h)
    with pytest.raises(ValueError, match="non-interleaved"):
        legal_at(h, 0)
    assert not sequential(h)


def test_legal_rejects_ill_formed_and_crash_input() -> None:
    ill = (H.inv_begin(1), H.res_begin(1), H.res_begin(1))
    with pytest.raises(ValueError, match="well-formed"):
        legal(ill)
    assert not sequential(ill)
    crashed = block(1) + (H.CRASH,)
    with pytest.raises(ValueError, match="crash-free"):
        legal(crashed)
    with pytest.raises(ValueError, match="crash-free"):
        sequential(crashed)
    with pytest.raises(ValueError, match="crash-free"):
        legal_at(crashed, 0)


def test_legal_agrees_with_legal_at_every_index(monkeypatch) -> None:
    # every block concatenation the alternative strategy tests, each judged
    # by legal and sequential and by the definitional per-index loop
    tested: set[H.History] = set()
    real = opacity.sequential

    def record(hs):
        tested.add(hs)
        return real(hs)

    monkeypatch.setattr(opacity, "sequential", record)
    for h in H.enumerate_histories(2, 2, 2, max_events=6, max_crashes=1):
        end_to_end_opaque_alt(H.ops(h), V01)
    monkeypatch.undo()
    verdicts = set()
    for hs in tested:
        ref = all(legal_at(hs, i) for i in range(len(hs)))
        assert legal(hs) == ref, hs
        assert sequential(hs) == ref, hs
        verdicts.add(ref)
    assert verdicts == {True, False}


def test_sequential_memo_changes_no_verdict_and_stays_bounded() -> None:
    memo = opacity._sequential
    space = [H.ops(h) for h in
             H.enumerate_histories(2, 2, 2, max_events=6, max_crashes=1)]
    cold = []
    for o in space:
        memo.cache_clear()
        cold.append(end_to_end_opaque_alt(o, V01))
    memo.cache_clear()
    warm = [end_to_end_opaque_alt(o, V01) for o in space]
    assert warm == cold and set(cold) == {True, False}
    info = memo.cache_info()
    assert info.hits > 0
    assert info.maxsize == opacity.SEQUENTIAL_MEMO_SIZE
    assert 0 < info.currsize <= opacity.SEQUENTIAL_MEMO_SIZE
    # lists do not hash; sequential takes any sequence all the same
    hs = block(1, ("w", 0, 1)) + block(2, ("r", 0, 1))
    assert sequential(list(hs)) and sequential(hs)


def test_event_text_is_unchanged() -> None:
    # violation details embed str(ev)
    assert str(H.inv_read(1, 0)) == (
        "Event(ev='invRead', tx=1, addr=0, val=None, abort=False)")
    assert repr(H.CRASH) == (
        "Event(ev='crash', tx=None, addr=None, val=None, abort=False)")


# end-to-end opacity ----------------------------------------------------------

def test_committed_stale_read_not_opaque() -> None:
    h = block(1, ("w", 0, 1)) + (
        H.inv_begin(2), H.res_begin(2), H.inv_read(2, 0), H.res_read(2, 0),
    )
    v = end_to_end_opaque(h, V01)
    assert not v.ok
    assert v.failing_prefix == len(h)


def test_live_writer_with_pending_commit_can_be_aborted_away() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_commit(1),
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 0),
    )
    v = end_to_end_opaque(h, V01)
    assert v.ok
    assert sequential(v.sequential_witness)


def test_pending_commit_can_also_be_taken_as_committed() -> None:
    # the dual world: a reader sees the value while the writer's commit
    # hangs; completing the commit justifies it
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_commit(1),
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 1),
    )
    v = end_to_end_opaque(h, V01)
    assert v.ok
    hs = v.sequential_witness
    assert H.is_committed(hs, 1)


def test_dirty_read_before_commit_invocation_not_opaque() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_begin(2), H.res_begin(2),
        H.inv_read(2, 0), H.res_read(2, 1),
    )
    assert not end_to_end_opaque(h, V01).ok


def test_witness_projections_match_completion() -> None:
    h = block(1, ("w", 0, 1)) + (H.inv_begin(2), H.res_begin(2), H.inv_read(2, 0))
    v = end_to_end_opaque(h, V01)
    assert v.ok
    for t in H.txn_ids(v.completion_witness):
        assert H.project(v.sequential_witness, t) == H.project(v.completion_witness, t)


def test_real_time_order_respected() -> None:
    # t1 strictly precedes t2 in real time, so t2's stale read is fatal even
    # though reordering t2 first would be legal
    h = block(1, ("w", 0, 1)) + block(2, ("r", 0, 0))
    assert not end_to_end_opaque(h, V01).ok
    # without the real-time edge (overlap) the same blocks are fine
    g = (
        H.inv_begin(2), H.res_begin(2),
    ) + block(1, ("w", 0, 1)) + (
        H.inv_read(2, 0), H.res_read(2, 0),
        H.inv_commit(2), H.res_commit(2),
    )
    assert end_to_end_opaque(g, V01).ok


# prefix scanning -------------------------------------------------------------

def test_opaque_reports_shortest_failing_prefix() -> None:
    h = block(1, ("w", 0, 1)) + (
        H.inv_begin(2), H.res_begin(2), H.inv_read(2, 0), H.res_read(2, 0),
    )
    v = opaque(h, V01)
    assert not v.ok
    assert v.failing_prefix == len(h)  # every proper prefix completes away
    assert opaque(h[:-1], V01).ok


def test_opaque_success_carries_full_witness() -> None:
    h = block(1, ("w", 0, 1)) + block(2, ("r", 0, 1))
    v = opaque(h, V01)
    assert v.ok
    assert len(v.sequential_witness) == len(h)


# the prefix lemma: only prefixes that end at a read or commit response fail ---

def every_prefix(h, value_domain) -> opacity.Verdict:
    """Opacity by definition: end_to_end_opaque on every prefix of h,
    shortest first, up to the first that fails."""
    for k in range(len(h) + 1):
        last = end_to_end_opaque(h[:k], value_domain)
        if not last.ok:
            break
    return last


def test_may_break_opacity_names_read_and_commit_responses() -> None:
    breaking = [H.res_read(1, 0), H.res_read(1, 1), H.res_commit(1),
                H.res_commit_abort(1)]
    harmless = [H.inv_begin(1), H.res_begin(1), H.inv_read(1, 0),
                H.res_read_abort(1), H.inv_write(1, 0, 1), H.res_write(1),
                H.res_write_abort(1), H.inv_commit(1), H.CRASH]
    assert all(opacity.may_break_opacity(e) for e in breaking)
    assert not any(opacity.may_break_opacity(e) for e in harmless)
    # the explorer tests its prefixes by the same predicate
    assert not hasattr(explorer, "_needs_consistency_check")
    assert explorer.may_break_opacity is opacity.may_break_opacity


def test_opaque_matches_every_prefix_loop_exhaustively() -> None:
    # 15,657 crash-free histories; equal verdicts carry equal failing
    # prefixes, reasons and both witnesses
    verdicts = set()
    count = 0
    for domain in ((2, 2, 2), (3, 2, 2)):
        for h in H.enumerate_histories(*domain, max_events=6, max_crashes=0):
            ref = every_prefix(h, V01)
            assert opaque(h, V01) == ref, h
            verdicts.add(ref.ok)
            count += 1
    assert count == 15_657
    assert verdicts == {True, False}


@st.composite
def txn_histories(draw, num_txns: int = 3, num_addrs: int = 2,
                  num_vals: int = 3, max_events: int = 12):
    """Crash-free well-formed histories, one move of H._txn_moves at a
    time, as enumerate_histories takes them."""
    status = H.wf_start(num_txns)
    h: list[H.Event] = []
    for _ in range(draw(st.integers(0, max_events))):
        moves = [(t, ev, ns) for t in range(1, num_txns + 1)
                 for ev, ns in H._txn_moves(t, status[t - 1], num_addrs,
                                            num_vals)]
        if not moves:
            break
        t, ev, ns = draw(st.sampled_from(moves))
        h.append(ev)
        status = status[: t - 1] + (ns,) + status[t:]
    return tuple(h)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(txn_histories())
# an aborted commit response breaks opacity too: t2 read what t1 would
# have committed, and the shortest failing prefix ends at that response
@example(block(1, ("w", 0, 1), commit=None) + (H.inv_commit(1),)
         + block(2, ("r", 0, 1), commit=None)
         + (H.res_commit_abort(1), H.inv_commit(2)))
def test_opaque_matches_every_prefix_loop_on_random_histories(h) -> None:
    values = range(3)
    assert opaque(h, values) == every_prefix(h, values)


def test_opaque_raises_where_the_every_prefix_loop_does() -> None:
    # an ill-formed prefix followed by a crash: the loop fails at the first
    # so opaque must test it, although it ends at no read or commit response
    cases = [
        (H.res_begin(1), H.CRASH),
        block(1, ("w", 0, 1)) + (H.res_write(1), H.CRASH, H.res_commit(2)),
        (H.inv_begin(1), H.CRASH),
    ]
    for h in cases:
        with pytest.raises(ValueError) as expected:
            every_prefix(h, V01)
        with pytest.raises(ValueError, match=str(expected.value)):
            opaque(h, V01)


# durable opacity -------------------------------------------------------------

def test_committed_era0_write_visible_after_crash() -> None:
    h = block(1, ("w", 0, 1)) + (H.CRASH,) + block(2, ("r", 0, 1))
    assert durably_opaque(h, V01).ok


def test_uncommitted_era0_write_must_not_survive() -> None:
    # t1 never invoked commit, so no completion can commit it; the era-1
    # read of its value is unjustifiable
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.CRASH,
    ) + block(2, ("r", 0, 1))
    v = durably_opaque(h, V01)
    assert not v.ok


def test_commit_pending_at_crash_may_have_taken_effect() -> None:
    # with the commit invocation pending at the crash, both outcomes are
    # possible worlds; seeing the value is acceptable
    h = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_commit(1),
        H.CRASH,
    ) + block(2, ("r", 0, 1))
    assert durably_opaque(h, V01).ok
    # and so is not seeing it
    g = (
        H.inv_begin(1), H.res_begin(1),
        H.inv_write(1, 0, 1), H.res_write(1),
        H.inv_commit(1),
        H.CRASH,
    ) + block(2, ("r", 0, 0))
    assert durably_opaque(g, V01).ok


def test_transaction_spanning_eras_rejected() -> None:
    h = (H.inv_begin(1), H.res_begin(1), H.CRASH, H.inv_commit(1), H.res_commit(1))
    v = durably_opaque(h, V01)
    assert not v.ok
    assert "well-formed" in v.reason


def test_empty_history_durably_opaque() -> None:
    assert durably_opaque((), V01).ok
    assert durably_opaque((H.CRASH,), V01).ok


# oracle bounds ----------------------------------------------------------------

def test_oracle_refuses_too_many_transactions() -> None:
    h = tuple(H.inv_begin(t) for t in range(1, 6))
    with pytest.raises(TooLargeError):
        opaque(h, V01)


def test_oracle_refuses_too_many_values() -> None:
    with pytest.raises(TooLargeError):
        opaque((), (0, 1, 2, 3))
    # sized without being built: a tuple of 10**9 values would not fit
    with pytest.raises(TooLargeError, match="more than 3 values"):
        end_to_end_opaque((), range(10**9))

    def unsized():  # counted no further than one value past the bound
        yield from range(4)
        raise AssertionError("counted past the bound")

    with pytest.raises(TooLargeError, match="more than 3 values"):
        end_to_end_opaque((), unsized())


def test_covering_bounds_raise_the_defaults_to_the_domain() -> None:
    assert opacity.OracleBounds.covering(H.Domain()) == opacity.OracleBounds()
    assert opacity.OracleBounds.covering(H.Domain(5, 1, 4)) == \
        opacity.OracleBounds(max_txns=5, max_addrs=3, max_vals=4)
    # five transactions and four values pass the raised bounds only
    h = tuple(H.inv_begin(t) for t in range(1, 6))
    with pytest.raises(TooLargeError, match="more than 4 transactions"):
        end_to_end_opaque(h, range(4))
    assert end_to_end_opaque(
        h, range(4), opacity.OracleBounds.covering(H.Domain(5, 1, 4))).ok


def test_values_no_event_names_never_change_the_verdict() -> None:
    # such a value could only answer a pending read, which would then read
    # a value nobody wrote; check-history relies on this to check against
    # 0 and the values a trace names only
    verdicts = set()
    for h in H.enumerate_histories(2, 2, 2, max_events=6, max_crashes=1):
        named = durably_opaque(h, range(2))
        wider = durably_opaque(h, range(3))
        assert (named.ok, named.failing_prefix) == (
            wider.ok, wider.failing_prefix), h
        verdicts.add(named.ok)
    assert verdicts == {True, False}


# strategy agreement -----------------------------------------------------------

def test_strategies_agree_on_handpicked_cases() -> None:
    cases = [
        block(1, ("w", 0, 1)) + block(2, ("r", 0, 0)),
        block(1, ("w", 0, 1)) + block(2, ("r", 0, 1)),
        block(1, ("w", 0, 1), commit=None) + (H.inv_commit(1),) + block(2, ("r", 0, 1)),
        block(1, ("w", 0, 1), commit=None) + (H.inv_commit(1),) + block(2, ("r", 0, 0)),
        (H.inv_begin(1), H.inv_begin(2)),
        (),
    ]
    for h in cases:
        a = end_to_end_opaque(h, V01).ok
        b = end_to_end_opaque_alt(h, V01)
        assert a == b, h


def test_strategies_agree_exhaustively_small() -> None:
    for h in H.enumerate_histories(2, 1, 2, 5, max_crashes=0):
        a = end_to_end_opaque(h, V01).ok
        b = end_to_end_opaque_alt(h, V01)
        assert a == b, h
