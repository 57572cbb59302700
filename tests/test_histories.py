"""History vocabulary: events, projections, eras, completions, wire format.

Frozen expectations:
  - completion counts were enumerated by hand from the matching-response
    table (a pending read over two values can be dropped, answered with
    either value, or aborted: 4 results).
  - era/crash expectations follow from erasing crash markers.
"""
from __future__ import annotations

import hashlib
import json
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from durastm import histories as H
from durastm.opacity import OracleBounds, durably_opaque


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


# the keys besides "ev" that each tag's events carry, written out per tag
_JSON_SHAPES = {
    "invBegin": [{"tx"}], "resBegin": [{"tx"}], "invCommit": [{"tx"}],
    "invRead": [{"tx", "addr"}], "invWrite": [{"tx", "addr", "val"}],
    "resRead": [{"tx", "val"}, {"tx", "abort"}],
    "resWrite": [{"tx"}, {"tx", "abort"}],
    "resCommit": [{"tx"}, {"tx", "abort"}],
    "crash": [set()],
}
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
# every event form over two transactions, addresses and values
_EVENT_FORMS = sorted(
    {json.dumps(H.event_to_json(e), sort_keys=True) for t in (1, 2)
     for s in ("NS", "PB", "RD", "PR", "PW", "PC")
     for e, _ in H._txn_moves(t, s, range(2), range(2))}
    | {json.dumps(H.event_to_json(H.CRASH))})


@st.composite
def _near_events(draw) -> dict:
    """An event form with up to two keys dropped or set to other values:
    tags, small numbers, booleans and the like."""
    d = json.loads(draw(st.sampled_from(_EVENT_FORMS)))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["ev", "tx", "addr", "val", "abort", "x"]))
        if draw(st.booleans()):
            d.pop(key, None)
        else:
            d[key] = draw(st.sampled_from([*H.EV_TAGS, "bogus"])
                          | st.integers(-1, 2) | st.booleans() | st.none()
                          | st.just(1.0) | st.just([0]))
    return d


@settings(derandomize=True, deadline=None, max_examples=600)
@given(st.one_of(_json_values, _near_events()))
def test_event_from_json_returns_an_event_or_raises_value_error(d) -> None:
    try:
        e = H.event_from_json(d)
    except ValueError:
        return
    assert isinstance(e, H.Event)
    # accepted only in the canonical form, with a field set of its tag
    assert H.event_to_json(e) == d
    assert set(d) - {"ev"} in _JSON_SHAPES[e.ev]


# direct enumeration --------------------------------------------------------

def test_enumerate_histories_small_count_matches_dp() -> None:
    for n in range(0, 5):
        walked = list(H.enumerate_histories(2, 2, 2, n, max_crashes=1))
        assert len(walked) == H.count_histories(2, 2, 2, n, max_crashes=1)
        assert len(set(walked)) == len(walked)


# enumerate_histories and count_histories both read the grammar table, so
# their agreement cannot show a wrong table; these pins can: the count and
# the sha256 of the repr lines of every history of <= 6 events and 1 crash
@pytest.mark.parametrize("domain, count, digest", [
    ((3, 1, 2), 8_735,
     "4dbbab01ae774aec7ce2ae0192e5628704ec5a35bb37cf1fdfdd841ed776d98c"),
    ((2, 2, 3), 6_578,
     "c85085b4ed603ecc55c1841e13834c1f51fd16e3bc0c80024f7a25e5dc489a96"),
    ((1, 3, 3), 1_421,
     "b9373c439acede6d84de77652eaad9108cba300f3ade59bb9b160d6901131b50"),
])
def test_enumerate_histories_beyond_two_txns_is_unchanged(
        domain, count, digest) -> None:
    walked = list(H.enumerate_histories(*domain, 6, max_crashes=1))
    assert len(walked) == count == H.count_histories(*domain, 6,
                                                     max_crashes=1)
    lines = "\n".join(map(repr, walked)).encode()
    assert hashlib.sha256(lines).hexdigest() == digest


@pytest.mark.parametrize("domain, max_events, max_crashes, count", [
    ((2, 2, 2), 12, 1, 136_623_852),
    ((3, 2, 2), 10, 2, 58_841_901),
])
def test_count_histories_deep_is_unchanged(domain, max_events, max_crashes,
                                           count) -> None:
    assert H.count_histories(*domain, max_events,
                             max_crashes=max_crashes) == count


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


# one-pass scans against the per-transaction definitions -----------------------
#
# well_formed, durably_well_formed, first_ill_formed, real_time_precedes and
# the pending-invocation scan of completions_unchecked each walk their
# history once.  The reference forms below are the definitions as they
# stood before: they project the history once per transaction, and the
# failing prefix tests every prefix.  The opacity strategies rest on these
# helpers, and A9's cross-check of the two strategies would miss an error in
# a helper that both use.


def ref_txn_ids(h) -> tuple:
    return tuple(sorted({e.tx for e in h if not H.is_crash(e)}))


def ref_project(h, t) -> H.History:
    return tuple(e for e in h if e.tx == t and not H.is_crash(e))


def ref_well_formed(h) -> bool:
    h = tuple(h)
    if any(H.is_crash(e) for e in h):
        raise ValueError("well_formed is defined on crash-free histories")
    for t in ref_txn_ids(h):
        proj = ref_project(h, t)
        if proj[0].ev != "invBegin":
            return False
        done = False
        for i, e in enumerate(proj):
            if done:
                return False
            if i % 2 == 0:
                if not H.is_invocation(e) or (i > 0 and e.ev == "invBegin"):
                    return False
            else:
                if not H.matches(proj[i - 1], e):
                    return False
                if H.rval(e) in ("commit", "abort"):
                    done = True
    return True


def ref_durably_well_formed(h) -> bool:
    h = tuple(h)
    if not ref_well_formed(H.ops(h)):
        return False
    segs = H.eras(h)
    for t in ref_txn_ids(h):
        hit = [i for i, seg in enumerate(segs) if any(e.tx == t for e in seg)]
        if len(hit) > 1:
            return False
    return True


def ref_first_ill_formed(h) -> int | None:
    return next((k for k in range(len(h) + 1)
                 if not ref_durably_well_formed(h[:k])), None)


def ref_real_time_precedes(h, t1, t2) -> bool:
    h = tuple(h)
    if not H.is_completed(h, t1):
        return False
    starts = [i for i, e in enumerate(h) if e.tx == t2]
    if not starts:
        return False
    last1 = max(i for i, e in enumerate(h) if e.tx == t1)
    return last1 < min(starts)


def ref_pending(h) -> list[tuple[int, H.Event]]:
    pend = []
    for t in ref_txn_ids(h):
        inv = H.pending_invocation(ref_project(h, t))
        if inv is not None:
            pos = max(i for i, e in enumerate(h) if e.tx == t)
            pend.append((pos, inv))
    pend.sort()
    return pend


def _responses(inv: H.Event, vals) -> list[H.Event]:
    t = inv.tx
    if inv.ev == "invBegin":
        return [H.res_begin(t)]
    if inv.ev == "invRead":
        return [H.res_read(t, v) for v in vals] + [H.res_read_abort(t)]
    if inv.ev == "invWrite":
        return [H.res_write(t), H.res_write_abort(t)]
    return [H.res_commit(t), H.res_commit_abort(t)]


def ref_completions(h, vals) -> list[H.History]:
    pend = ref_pending(h)
    out = []
    for combo in product(*[[None] + _responses(inv, vals)
                           for _, inv in pend]):
        dropped = {pos for (pos, _), c in zip(pend, combo) if c is None}
        base = tuple(e for i, e in enumerate(h) if i not in dropped)
        out.append(base + tuple(c for c in combo if c is not None))
    return out


def _raises(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_scans_agree(h: H.History, tids, vals=(0, 1)) -> None:
    """Every one-pass scan gives its reference's answer on h."""
    o = H.ops(h)
    assert H.durably_well_formed(h) == ref_durably_well_formed(h), h
    assert H.first_ill_formed(h) == ref_first_ill_formed(h), h
    assert H.well_formed(o) == ref_well_formed(o), h
    assert _raises(H.well_formed, h) == _raises(ref_well_formed, h), h
    assert H.txn_ids(h) == ref_txn_ids(h), h
    for t1 in tids:
        assert H.project(h, t1) == ref_project(h, t1), h
        for t2 in tids:
            assert H.real_time_precedes(h, t1, t2) == ref_real_time_precedes(
                h, t1, t2), (h, t1, t2)
    assert list(H.completions_unchecked(o, vals)) == ref_completions(
        o, vals), h


def test_scans_agree_with_references_on_enumerated_histories() -> None:
    alphabet = _every_event(2, 2, 2)
    tids = (1, 2, 3)
    n = 0
    for h in H.enumerate_histories(2, 2, 2, max_events=7, max_crashes=1):
        assert_scans_agree(h, tids)
        if len(h) <= 4:
            for e in alphabet:
                assert_scans_agree(h + (e,), tids)
        n += 1
    assert n == 22156


@st.composite
def event_sequences(draw, num_txns: int = 8, max_events: int = 14):
    """Event sequences over transaction ids 0..num_txns-1 with crashes
    anywhere.  Each step takes either a move that keeps the sequence
    durably well-formed, so that long well-formed prefixes occur, or any
    event at all, a begin response with an abort flag among them."""
    status: dict = {}
    h: list[H.Event] = []
    anything = st.builds(
        H.Event,
        ev=st.sampled_from(H.EV_TAGS),
        tx=st.integers(0, num_txns - 1),
        addr=st.one_of(st.none(), st.integers(0, 2)),
        val=st.one_of(st.none(), st.integers(0, 2)),
        abort=st.booleans(),
    ).map(lambda e: H.CRASH if e.ev == "crash" else e)
    for _ in range(draw(st.integers(0, max_events))):
        kind = draw(st.sampled_from(("move", "move", "move", "crash", "any")))
        if kind == "crash":
            h.append(H.CRASH)
            status = {t: "HALT" for t in status}
            continue
        if kind == "any":
            h.append(draw(anything))
            continue
        moves = [(t, ev, ns) for t in range(num_txns)
                 for ev, ns in H._txn_moves(t, status.get(t, "NS"),
                                            range(2), range(2))]
        if not moves:
            continue
        t, ev, ns = draw(st.sampled_from(moves))
        if ev.ev == "resBegin" and draw(st.booleans()):
            ev = ev._replace(abort=True)
        h.append(ev)
        status[t] = ns
    return tuple(h)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(event_sequences())
@example((H.inv_begin(0), H.Event("resBegin", 0, abort=True),
          H.inv_read(0, 1), H.res_read(0, 0), H.inv_commit(0)))
@example((H.inv_begin(3), H.res_begin(3), H.CRASH, H.inv_begin(5),
          H.inv_read(3, 0)))
@example((H.inv_begin(1), H.res_begin(1), H.inv_commit(1), H.res_commit(1),
          H.inv_begin(2), H.res_read(2, 0), H.CRASH))
def test_scans_agree_with_references_on_arbitrary_sequences(h) -> None:
    assert_scans_agree(h, range(8), vals=(0,))
    if not H.durably_well_formed(h):
        v = durably_opaque(h, range(3), OracleBounds(8, 3, 3))
        assert not v.ok and v.failing_prefix == ref_first_ill_formed(h)
