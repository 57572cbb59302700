"""One definition of enabledness for both machines, and their transition
relations pinned edge for edge.

Each test walks the whole reachable graph of a machine from ``initial()``.
At every state it offers ``step`` every action of the domain's alphabet,
plus one that names a transaction outside the domain, and requires that the
step succeeds exactly for the actions that ``enabled`` lists, and that every
refusal is a ``ValueError`` with the machine's refusal text.

The walk also digests the graph: the number of states, the number of edges,
and a sha256 over the sorted ``repr((tuple(s), a, tuple(s2), ev))`` of every
edge.  The pinned values were computed on the machines as they were before
they built their action tables, when ``enabled`` and ``step`` still rebuilt
the action lists on every call, so they show that the tables changed no
state, edge, action or event.
"""
from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from durastm import histories as H
from durastm.dtml import MUTATIONS, DtmlMachine, act
from durastm.dtms2 import (Dtms2Machine, Dtms2State, _matching_actions,
                           _silent, mact)

_DTML_LINES = ("B1", "B2", "R1", "R2", "W1", "W2", "W3", "W4", "W5", "W6",
               "W7", "E1", "E2", "E3")
_DTML_BOUNDARIES = ("invBegin", "resBegin", "resRead", "resWrite",
                    "invCommit", "resCommit")
_DTMS2_PLAIN = ("invBegin", "resBegin", "doRead", "resRead", "doWrite",
                "resWrite", "invCommit", "doCommitW", "resCommit",
                "abortResp")


def dtml_alphabet(d: H.Domain) -> list:
    addrs, vals = range(d.num_addrs), range(d.num_vals)
    out = []
    for t in range(1, d.num_txns + 1):
        out += [act(k, t) for k in _DTML_BOUNDARIES + _DTML_LINES]
        out += [act("invRead", t, addr=a) for a in addrs]
        out += [act("invWrite", t, addr=a, val=v) for a in addrs for v in vals]
    out += [act(k) for k in ("C1", "C3", "C4", "C5", "C6")]
    out += [act("C2", addr=a, val=v) for a in addrs for v in vals]
    out += [act("flush", addr=a) for a in addrs]
    out += [act("crash"), act("invBegin", d.num_txns + 1)]
    return out


def dtms2_alphabet(d: H.Domain) -> list:
    addrs, vals = range(d.num_addrs), range(d.num_vals)
    # a run appends at most one snapshot per transaction
    idxs = range(d.num_txns + 1)
    out = []
    for t in range(1, d.num_txns + 1):
        out += [mact(k, t) for k in _DTMS2_PLAIN]
        out += [mact("invRead", t, addr=a) for a in addrs]
        out += [mact("invWrite", t, addr=a, val=v) for a in addrs for v in vals]
        out += [mact(k, t, idx=n) for k in ("doRead", "doCommitRO")
                for n in idxs]
    out += [mact("crash"), mact("invBegin", d.num_txns + 1)]
    return out


def dtml_refusal(m: DtmlMachine, a) -> str:
    return f"action {a} is not enabled"


def dtms2_refusal(m: Dtms2Machine, a) -> str:
    if a.kind == "crash":
        return "crash is not part of the non-durable automaton"
    if not 1 <= a.tx <= m.domain.num_txns:
        return f"action {a} names no valid transaction"
    return f"action {a} is not enabled"


def walk_graph(m, alphabet, refusal) -> tuple[int, int, str]:
    """(states, edges, digest) of m's reachable graph, checking at every
    state that ``step`` takes exactly the actions ``enabled`` lists."""
    init = m.initial()
    seen = {init}
    frontier = [init]
    edges = []
    while frontier:
        s = frontier.pop()
        enabled = m.enabled(s)
        assert isinstance(enabled, list)
        assert len(set(enabled)) == len(enabled), s
        stepped = set()
        for a in alphabet:
            try:
                s2, ev = m.step(s, a)
            except ValueError as exc:
                assert a not in enabled, (s, a, str(exc))
                assert str(exc) == refusal(m, a), (s, a)
                continue
            assert a in enabled, (s, a)
            stepped.add(a)
            edges.append(repr((tuple(s), a, tuple(s2), ev)))
            if s2 not in seen:
                seen.add(s2)
                frontier.append(s2)
        assert stepped == set(enabled), s
    edges.sort()
    digest = hashlib.sha256("\n".join(edges).encode()).hexdigest()
    return len(seen), len(edges), digest


# (domain, mutation) -> (states, edges, sha256); skip_flush_W7 has 58,159
# states on (2,2,2), so it is walked on one address
DTML_GRAPHS = {
    ((2, 2, 2), None): (
        20679, 103153,
        "f7ff164fcd933651244a394b7f7b93c4787095310dbd62fe71508b10afe92e94"),
    ((2, 1, 2), "skip_flush_W7"): (
        4380, 17264,
        "52fb3cac336844e731ee1c4fcdf45548fe49e36ccbcf9731bfb8e10c891bc6d0"),
    ((2, 2, 2), "skip_undo_log"): (
        8587, 44481,
        "e0f0140736318bcca039773988c195e4cfc31b13aa68113de24a4fe149f0a4f0"),
    ((2, 2, 2), "skip_log_clear_E2"): (
        15835, 82061,
        "4e720a9aab209089c1a766f6e229cf0f1a038301d3962c78ae4386954ed21be0"),
}

# (domain, durable) -> (states, edges, sha256)
DTMS2_GRAPHS = {
    ((2, 1, 2), True): (
        3932, 17790,
        "bbc07709548e03dced03011ad34ba4fca4577927242a3b265e9bb15b27e7c388"),
    ((2, 1, 2), False): (
        3726, 13450,
        "01286bd4359f49d2769958a75d2c8ab891a1b931dc7a79e4a9362021ca5db579"),
}


def test_every_mutation_has_a_pinned_graph() -> None:
    assert {mut for _, mut in DTML_GRAPHS} == {None, *MUTATIONS}


def _ids(graphs: dict) -> list[str]:
    return ["x".join(map(str, dims)) + f"-{variant}" for dims, variant in graphs]


@pytest.mark.parametrize("dims, mutation", list(DTML_GRAPHS),
                         ids=_ids(DTML_GRAPHS))
def test_dtml_steps_exactly_what_it_enables(dims, mutation) -> None:
    d = H.Domain(*dims)
    m = DtmlMachine(d, mutation=mutation)
    got = walk_graph(m, dtml_alphabet(d), dtml_refusal)
    assert got == DTML_GRAPHS[dims, mutation]


@pytest.mark.parametrize("dims, durable", list(DTMS2_GRAPHS),
                         ids=["2x1x2-durable", "2x1x2-crash_free"])
def test_dtms2_steps_exactly_what_it_enables(dims, durable) -> None:
    d = H.Domain(*dims)
    m = Dtms2Machine(d, durable=durable)
    got = walk_graph(m, dtms2_alphabet(d), dtms2_refusal)
    assert got == DTMS2_GRAPHS[dims, durable]


_DTMS2_INTERNAL = frozenset({"doRead", "doWrite", "doCommitRO", "doCommitW"})


@pytest.mark.parametrize("dims, durable", list(DTMS2_GRAPHS),
                         ids=["2x1x2-durable", "2x1x2-crash_free"])
def test_dtms2_internal_lists_the_internal_actions_it_enables(
        dims, durable) -> None:
    m = Dtms2Machine(H.Domain(*dims), durable=durable)
    seen = {m.initial()}
    frontier = [m.initial()]
    while frontier:
        s = frontier.pop()
        enabled = m.enabled(s)
        for i in range(len(s.pc)):
            assert list(m.internal(s, i)) == [
                a for a in enabled
                if a.kind in _DTMS2_INTERNAL and a.tx == i + 1], s
        for a in enabled:
            s2, _ = m.step(s, a)
            if s2 not in seen:
                seen.add(s2)
                frontier.append(s2)
    assert len(seen) == DTMS2_GRAPHS[dims, durable][0]


@pytest.mark.parametrize("dims, durable", list(DTMS2_GRAPHS),
                         ids=["2x1x2-durable", "2x1x2-crash_free"])
def test_dtms2_closure_steps_are_those_of_step(dims, durable) -> None:
    # _closure and _silent apply the actions internal lists without asking
    # step to check them again; each must reach what step reaches
    m = Dtms2Machine(H.Domain(*dims), durable=durable)
    seen = {m.initial()}
    frontier = [m.initial()]
    while frontier:
        s = frontier.pop()
        for i in range(len(s.pc)):
            images = {s}
            for a in m.internal(s, i):
                s2, ev = m.step(s, a)
                assert ev is None and m._apply_txn(s, a, i) == (s2, ev), s
                images.add(s2)
            assert _silent(m, frozenset({s}), i + 1) == images, s
        for a in m.enabled(s):
            s2, _ = m.step(s, a)
            if s2 not in seen:
                seen.add(s2)
                frontier.append(s2)
    assert len(seen) == DTMS2_GRAPHS[dims, durable][0]


def dtms2_events(d: H.Domain) -> list:
    """Every event of the history vocabulary over transactions 0..n+1,
    addresses 0..num_addrs and values 0..num_vals, so one past each bound
    of the domain and below its transaction ids, and the crash; and each
    of them with the abort flag set, which only the abort responses
    carry."""
    addrs, vals = range(d.num_addrs + 1), range(d.num_vals + 1)
    out = [H.CRASH]
    for t in range(d.num_txns + 2):
        out += [H.inv_begin(t), H.res_begin(t), H.res_read_abort(t),
                H.res_write(t), H.res_write_abort(t), H.inv_commit(t),
                H.res_commit(t), H.res_commit_abort(t)]
        out += [H.inv_read(t, a) for a in addrs]
        out += [H.res_read(t, v) for v in vals]
        out += [H.inv_write(t, a, v) for a in addrs for v in vals]
    return out + [e._replace(abort=True) for e in out if not e.abort]


@pytest.mark.parametrize("dims, durable", list(DTMS2_GRAPHS),
                         ids=["2x1x2-durable", "2x1x2-crash_free"])
def test_dtms2_matching_actions_are_the_enabled_ones_that_emit_the_event(
        dims, durable) -> None:
    # the acceptor's steps take the actions _matching_actions lists without
    # asking step; at every reachable state they must be, in enabled order,
    # exactly the enabled actions whose step emits the event
    d = H.Domain(*dims)
    m = Dtms2Machine(d, durable=durable)
    events = dtms2_events(d)
    seen = {m.initial()}
    frontier = [m.initial()]
    while frontier:
        s = frontier.pop()
        emitters: dict = {}
        for a in m.enabled(s):
            s2, ev = m.step(s, a)
            emitters.setdefault(ev, []).append(a)
            if s2 not in seen:
                seen.add(s2)
                frontier.append(s2)
        for e in events:
            assert _matching_actions(m, s, e) == emitters.get(e, []), (s, e)
    assert len(seen) == DTMS2_GRAPHS[dims, durable][0]


def _atoms(part):
    """The leaves of a nested tuple."""
    if isinstance(part, tuple):
        for x in part:
            yield from _atoms(x)
    else:
        yield part


def parts_shared(m, fields: tuple[str, ...]) -> dict:
    """Walk m's reachable graph and require that each field of every
    state it builds is the first object seen with that value, so that each
    field has as many distinct ids as distinct values; and that no state
    holds a bool, so that keys the part memos find equal are equal values.
    Returns the number of distinct values per field."""
    first: dict = {}  # (field, value) -> the first object seen
    seen = {m.initial()}
    frontier = [m.initial()]
    while frontier:
        s = frontier.pop()
        for s2 in [s] + [m.step(s, a)[0] for a in m.enabled(s)]:
            assert not any(isinstance(x, bool) for x in _atoms(s2)), s2
            for f in fields:
                part = getattr(s2, f)
                assert first.setdefault((f, part), part) is part, (f, part)
            if s2 not in seen:
                seen.add(s2)
                frontier.append(s2)
    return Counter(f for f, _ in first)


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_dtml_state_parts_are_shared(mutation) -> None:
    # one object per distinct per-transaction tuple, memory and undo log
    m = DtmlMachine(H.Domain(2, 1, 2), mutation=mutation)
    counts = parts_shared(m, ("pc", "loc", "in_addr", "in_val", "mem", "log"))
    assert counts["pc"] > 100 and counts["mem"] > 1


@pytest.mark.parametrize("dims, durable", list(DTMS2_GRAPHS),
                         ids=["2x1x2-durable", "2x1x2-crash_free"])
def test_dtms2_state_parts_are_shared(dims, durable) -> None:
    # one object per distinct per-transaction tuple, read and write set and
    # snapshot sequence
    m = Dtms2Machine(H.Domain(*dims), durable=durable)
    counts = parts_shared(m, Dtms2State._fields)
    assert counts["mems"] > 1 and counts["rd_set"] > 1 and counts["wr_set"] > 1
