"""History vocabulary: events, projections, eras, completions, wire format.

Frozen expectations:
  - completion counts were enumerated by hand from the matching-response
    table (a pending read over two values can be dropped, answered with
    either value, or aborted: 4 results).
  - era/crash expectations follow from erasing crash markers.
"""
from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from durastm import histories as H


def two_txn_prefix() -> tuple[H.Event, ...]:
    return (
        H.inv_begin(1),
        H.inv_begin(2),
        H.res_begin(1),
        H.res_begin(2),
        H.inv_read(1, 0),
        H.res_read(1, 0),
    )


def test_projection_keeps_only_one_transaction() -> None:
    h = two_txn_prefix()
    assert H.project(h, 1) == (
        H.inv_begin(1),
        H.res_begin(1),
        H.inv_read(1, 0),
        H.res_read(1, 0),
    )
    assert H.project(h, 2) == (H.inv_begin(2), H.res_begin(2))


def test_projection_excludes_crash_markers() -> None:
    h = (H.inv_begin(1), H.CRASH, H.res_begin(1))
    assert H.project(h, 1) == (H.inv_begin(1), H.res_begin(1))


def test_ops_strips_crash_events_only() -> None:
    h = (H.inv_begin(1), H.CRASH, H.inv_begin(2))
    assert H.ops(h) == (H.inv_begin(1), H.inv_begin(2))


def test_eras_split_on_crash() -> None:
    h = (H.inv_begin(1), H.CRASH, H.inv_begin(2))
    assert H.eras(h) == ((H.inv_begin(1),), (H.inv_begin(2),))
    assert H.eras(()) == ((),)
    # trailing crash still opens a (possibly empty) final era
    assert H.eras((H.CRASH,)) == ((), ())


def test_well_formed_accepts_alternating_matching_pairs() -> None:
    assert H.well_formed(two_txn_prefix())
    assert H.well_formed(())


def test_well_formed_rejects_bad_shapes() -> None:
    b1, rb1 = H.inv_begin(1), H.res_begin(1)
    # response before any invocation
    assert not H.well_formed((rb1,))
    # two invocations in a row for the same transaction
    assert not H.well_formed((b1, rb1, H.inv_read(1, 0), H.inv_read(1, 0)))
    # second begin
    assert not H.well_formed((b1, rb1, H.inv_begin(1)))
    # event after the commit response
    assert not H.well_formed(
        (b1, rb1, H.inv_commit(1), H.res_commit(1), H.inv_read(1, 0))
    )
    # mismatched response kind
    assert not H.well_formed((b1, rb1, H.inv_read(1, 0), H.res_write(1)))


def test_well_formed_refuses_crashy_input() -> None:
    with pytest.raises(ValueError):
        H.well_formed((H.CRASH,))


def test_durably_well_formed_rejects_transaction_spanning_eras() -> None:
    h = (H.inv_begin(1), H.res_begin(1), H.CRASH, H.inv_commit(1))
    assert not H.durably_well_formed(h)


def test_durably_well_formed_accepts_implicit_crash_abort() -> None:
    # in-flight at the crash, never heard from again
    h = (H.inv_begin(1), H.res_begin(1), H.inv_read(1, 0), H.CRASH,
         H.inv_begin(2), H.res_begin(2))
    assert H.durably_well_formed(h)


def test_completions_of_complete_history_is_itself() -> None:
    h = two_txn_prefix()
    assert list(H.completions(h, (0, 1))) == [h]


def test_completions_pending_read_yields_four() -> None:
    h = (H.inv_begin(1), H.res_begin(1), H.inv_read(1, 0))
    out = list(H.completions(h, (0, 1)))
    assert len(out) == 4
    assert out[0] == h[:2]  # dropped
    assert (h + (H.res_read(1, 0),)) in out
    assert (h + (H.res_read(1, 1),)) in out
    assert (h + (H.res_read_abort(1),)) in out


def test_completions_pending_commit_yields_three() -> None:
    h = (H.inv_begin(1), H.res_begin(1), H.inv_commit(1))
    out = list(H.completions(h, (0, 1)))
    assert len(out) == 3


def test_completions_pending_begin_yields_two() -> None:
    h = (H.inv_begin(1),)
    assert list(H.completions(h, (0, 1))) == [(), h + (H.res_begin(1),)]


def test_completions_never_leave_pending_invocations() -> None:
    h = (H.inv_begin(1), H.res_begin(1), H.inv_write(1, 0, 1), H.inv_begin(2))
    for hc in H.completions(h, (0, 1)):
        assert H.well_formed(hc)
        for t in H.txn_ids(hc):
            assert H.pending_invocation(H.project(hc, t)) is None


def test_real_time_order() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1), H.inv_commit(1), H.res_commit(1),
        H.inv_begin(2), H.res_begin(2),
    )
    assert H.real_time_precedes(h, 1, 2)
    assert not H.real_time_precedes(h, 2, 1)
    # overlap: t1 completes after t2 begins
    g = (
        H.inv_begin(1), H.res_begin(1), H.inv_begin(2),
        H.inv_commit(1), H.res_commit(1),
    )
    assert not H.real_time_precedes(g, 1, 2)
    # a live transaction precedes nothing
    live = (H.inv_begin(1), H.res_begin(1), H.inv_begin(2))
    assert not H.real_time_precedes(live, 1, 2)


def test_status_helpers() -> None:
    h = (
        H.inv_begin(1), H.res_begin(1), H.inv_commit(1), H.res_commit(1),
        H.inv_begin(2), H.res_begin(2), H.inv_read(2, 0), H.res_read_abort(2),
    )
    assert H.is_committed(h, 1) and not H.is_aborted(h, 1)
    assert H.is_aborted(h, 2) and not H.is_committed(h, 2)
    assert H.is_completed(h, 1) and H.is_completed(h, 2)
    assert not H.is_completed(h, 3)


# wire format ---------------------------------------------------------------

def test_event_json_exact_forms() -> None:
    assert H.event_to_json(H.inv_begin(1)) == {"ev": "invBegin", "tx": 1}
    assert H.event_to_json(H.res_read(1, 0)) == {"ev": "resRead", "tx": 1, "val": 0}
    assert H.event_to_json(H.res_read_abort(1)) == {
        "ev": "resRead", "tx": 1, "abort": True,
    }
    assert H.event_to_json(H.CRASH) == {"ev": "crash"}


def test_event_json_round_trip_all_kinds() -> None:
    events = [
        H.inv_begin(1), H.res_begin(1),
        H.inv_read(1, 0), H.res_read(1, 1), H.res_read_abort(1),
        H.inv_write(2, 1, 0), H.res_write(2), H.res_write_abort(2),
        H.inv_commit(2), H.res_commit(2), H.res_commit_abort(2),
        H.CRASH,
    ]
    for e in events:
        assert H.event_from_json(H.event_to_json(e)) == e
        # and through an actual JSON string
        assert H.event_from_json(json.loads(json.dumps(H.event_to_json(e)))) == e


def test_event_json_rejects_unknown_tag() -> None:
    with pytest.raises(ValueError):
        H.event_from_json({"ev": "invSnapshot", "tx": 1})


def test_event_json_rejects_missing_or_extra_fields() -> None:
    with pytest.raises(ValueError):
        H.event_from_json({"ev": "invRead", "tx": 1})  # no addr
    with pytest.raises(ValueError):
        H.event_from_json({"ev": "crash", "tx": 1})
    with pytest.raises(ValueError):
        H.event_from_json({"ev": "resRead", "tx": 1, "val": 0, "abort": True})


# direct enumeration --------------------------------------------------------

def test_enumerate_histories_small_count_matches_dp() -> None:
    for n in range(0, 5):
        walked = list(H.enumerate_histories(2, 2, 2, n, max_crashes=1))
        assert len(walked) == H.count_histories(2, 2, 2, n, max_crashes=1)
        assert len(set(walked)) == len(walked)


def test_enumerate_histories_all_durably_well_formed() -> None:
    for h in H.enumerate_histories(2, 2, 2, 5, max_crashes=1):
        assert H.durably_well_formed(h)


def test_enumerate_histories_depth_one() -> None:
    out = list(H.enumerate_histories(2, 2, 2, 1, max_crashes=1))
    # empty history, a begin for each transaction, or a lone crash
    assert set(out) == {(), (H.inv_begin(1),), (H.inv_begin(2),), (H.CRASH,)}


# incremental durable well-formedness ----------------------------------------

def _every_event(num_txns: int, num_addrs: int, num_vals: int):
    """Every event over the bounds, ill-formed uses included."""
    out = [H.CRASH]
    for t in range(1, num_txns + 1):
        out += [H.inv_begin(t), H.res_begin(t),
                H.Event("resBegin", t, abort=True), H.inv_commit(t),
                H.res_commit(t), H.res_commit_abort(t), H.res_write(t),
                H.res_write_abort(t), H.res_read_abort(t)]
        out += [H.inv_read(t, a) for a in range(num_addrs)]
        out += [H.res_read(t, v) for v in range(num_vals)]
        out += [H.inv_write(t, a, v) for a in range(num_addrs)
                for v in range(num_vals)]
    return out


def _wf_verdicts(h: H.History, num_txns: int) -> list[bool]:
    """The status-vector verdict on every prefix of h, shortest first."""
    status = H.wf_start(num_txns)
    out = [True]
    for e in h:
        status = None if status is None else H.wf_step(status, e)
        out.append(status is not None)
    return out


def test_wf_step_agrees_with_durably_well_formed_on_enumerated_histories():
    # parents come before extensions, so each status extends its parent's;
    # every prefix of an enumerated history is itself enumerated
    alphabet = _every_event(2, 2, 2)
    status = {(): H.wf_start(2)}
    for h in H.enumerate_histories(2, 2, 2, max_events=7, max_crashes=1):
        if h:
            status[h] = H.wf_step(status[h[:-1]], h[-1])
        assert status[h] is not None and H.durably_well_formed(h)
        if len(h) <= 4:
            for e in alphabet:
                assert (H.wf_step(status[h], e) is not None) == (
                    H.durably_well_formed(h + (e,))), h + (e,)


_EVENTS = st.builds(
    H.Event,
    ev=st.sampled_from(H.EV_TAGS),
    tx=st.integers(1, 3),
    addr=st.one_of(st.none(), st.integers(0, 2)),
    val=st.one_of(st.none(), st.integers(0, 2)),
    abort=st.booleans(),
).map(lambda e: H.CRASH if e.ev == "crash" else e)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(_EVENTS, max_size=12))
@example([H.inv_begin(1), H.CRASH, H.res_begin(1)])
@example([H.inv_begin(1), H.res_begin(1), H.inv_commit(1), H.res_commit(1),
          H.inv_read(1, 0)])
@example([H.inv_begin(2), H.res_begin(2), H.inv_write(2, 0, 1),
          H.res_write_abort(2), H.inv_commit(2)])
@example([H.inv_begin(1), H.Event("resBegin", 1, abort=True),
          H.inv_read(1, 0), H.res_read(1, 0)])
def test_wf_step_agrees_with_durably_well_formed_on_arbitrary_sequences(
        events) -> None:
    h = tuple(events)
    assert _wf_verdicts(h, 3) == [H.durably_well_formed(h[:k])
                                  for k in range(len(h) + 1)]
