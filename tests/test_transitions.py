"""One definition of enabledness for both machines, and their transition
relations pinned edge for edge.

Each test walks the whole reachable graph of a machine from ``initial()``
on the search kernel ``durastm.reach``, with its per-state checks in the
successor function.  At every state ``walk_graph`` offers ``step`` every
action of the domain's alphabet, plus one that names a transaction outside
the domain, and requires that the step succeeds exactly for the actions
that ``enabled`` lists, and that every refusal is a ``ValueError`` with the
machine's refusal text.

The walk also digests the graph: the number of states, the number of edges,
and a sha256 over the sorted ``repr((tuple(s), a, tuple(s2), ev))`` of every
edge.  The pinned counts were computed on the machines as they were before
they built their action tables, when ``enabled`` and ``step`` still rebuilt
the action lists on every call, so they show that the tables changed no
state, edge, action or event.  The digests hash the repr of the one action
type, ``histories.Action``; each equals the digest of the earlier sorted
edge list, written with one action type per machine, once each action's
repr is rewritten to ``Action(...)`` with ``idx=None`` where it had none.
"""
from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from durastm import histories as H
from durastm.dtml import MUTATIONS, DtmlMachine
from durastm.dtms2 import (Dtms2Machine, Dtms2State, _matching_actions,
                           _silent)
from durastm.histories import act
from durastm.reach import reach

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
        out += [act(k, t) for k in _DTMS2_PLAIN]
        out += [act("invRead", t, addr=a) for a in addrs]
        out += [act("invWrite", t, addr=a, val=v) for a in addrs for v in vals]
        out += [act(k, t, idx=n) for k in ("doRead", "doCommitRO")
                for n in idxs]
    out += [act("crash"), act("invBegin", d.num_txns + 1)]
    return out


@pytest.mark.parametrize("dims", [(1, 2, 2), (2, 2, 2), (3, 1, 3)])
def test_both_machines_hold_the_one_ready_row(dims) -> None:
    # the logging machine and the automaton share their invocations as
    # objects: each ready row is histories.ready_invocations
    d = H.Domain(*dims)
    dtml, dtms2 = DtmlMachine(d), Dtms2Machine(d)
    addrs, vals = range(d.num_addrs), range(d.num_vals)
    for t in range(1, d.num_txns + 1):
        row = H.ready_invocations(t, addrs, vals)
        ours = dtml._txn_acts[t - 1]["Idle"]
        theirs = dtms2._txn_acts[t - 1]["ready"]
        assert ours == theirs == row
        assert all(a is b is c for a, b, c in zip(ours, theirs, row))
    assert dtml._tail[-1] is dtms2._tail[0] is act("crash")


def test_ready_invocations_follow_the_grammar_order() -> None:
    # reads per address, writes per address and value, then the commit
    assert [str(a) for a in H.ready_invocations(2, range(2), range(2))] == [
        "invRead(t2, a0)", "invRead(t2, a1)", "invWrite(t2, a0, v0)",
        "invWrite(t2, a0, v1)", "invWrite(t2, a1, v0)",
        "invWrite(t2, a1, v1)", "invCommit(t2)"]


def test_actions_print_as_before() -> None:
    assert [str(a) for a in (act("invWrite", 1, addr=0, val=1), act("E2", 2),
                             act("doRead", 2, idx=1), act("crash"),
                             act("C2", addr=1, val=0), act("flush", addr=0),
                             act("C6"), act("abortResp", 1))] == [
        "invWrite(t1, a0, v1)", "E2(t2)", "doRead(t2, n1)", "crash",
        "C2(a1, v0)", "flush(a0)", "C6", "abortResp(t1)"]


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
    edges = []

    def successors(s):
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
            yield a, s2
        assert stepped == set(enabled), s

    states, count = reach([m.initial()], successors)
    assert count == len(edges)
    edges.sort()
    digest = hashlib.sha256("\n".join(edges).encode()).hexdigest()
    return len(states), len(edges), digest


def steps(m, s):
    """Every (action, successor) of s, for ``reach``."""
    for a in m.enabled(s):
        yield a, m.step(s, a)[0]


# (domain, mutation) -> (states, edges, sha256); skip_flush_W7 has 58,159
# states on (2,2,2), so it is walked on one address
DTML_GRAPHS = {
    ((2, 2, 2), None): (
        20679, 103153,
        "ca1bf55cec70361f95d893453ffdd45d7d32e598fb47941e307b19b757547abf"),
    ((2, 1, 2), "skip_flush_W7"): (
        4380, 17264,
        "f38f9c87a2a430492f026206afba2421df4813712240dbbc9109c9731795a639"),
    ((2, 2, 2), "skip_undo_log"): (
        8587, 44481,
        "bbfd8e6175aee1c0a25630533a5199639bb6781993e306f6525af5b7d39ed3a6"),
    ((2, 2, 2), "skip_log_clear_E2"): (
        15835, 82061,
        "3c7fefd7600667ad9c3171b17902712cbc29994fa81a9c31e11cb73d41829280"),
}

# (domain, durable) -> (states, edges, sha256)
DTMS2_GRAPHS = {
    ((2, 1, 2), True): (
        3932, 17790,
        "70fae8e58d1c8912413c5fe86c40afb2df8c3c8cbf36fa7cdfcfbf1e4f688aa2"),
    ((2, 1, 2), False): (
        3726, 13450,
        "e0a760106182f8971f8a9223c1ca7abad6d5ad1df3f4bde93aff7719b240e771"),
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

    def successors(s):
        enabled = m.enabled(s)
        for i in range(len(s.pc)):
            assert list(m.internal(s, i)) == [
                a for a in enabled
                if a.kind in _DTMS2_INTERNAL and a.tx == i + 1], s
        return steps(m, s)

    states, _ = reach([m.initial()], successors)
    assert len(states) == DTMS2_GRAPHS[dims, durable][0]


@pytest.mark.parametrize("dims, durable", list(DTMS2_GRAPHS),
                         ids=["2x1x2-durable", "2x1x2-crash_free"])
def test_dtms2_closure_steps_are_those_of_step(dims, durable) -> None:
    # _closure and _silent apply the actions internal lists without asking
    # step to check them again; each must reach what step reaches
    m = Dtms2Machine(H.Domain(*dims), durable=durable)

    def successors(s):
        for i in range(len(s.pc)):
            images = {s}
            for a in m.internal(s, i):
                s2, ev = m.step(s, a)
                assert ev is None and m._apply_txn(s, a, i) == (s2, ev), s
                images.add(s2)
            assert _silent(m, frozenset({s}), i + 1) == images, s
        return steps(m, s)

    states, _ = reach([m.initial()], successors)
    assert len(states) == DTMS2_GRAPHS[dims, durable][0]


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


# reachable states of the automaton on two more domains: (1,2,2) offers a
# ready transaction reads and writes of each address, and (2,1,3) reads
# that return a third value
DTMS2_STATES = {
    **{key: graph[0] for key, graph in DTMS2_GRAPHS.items()},
    ((1, 2, 2), True): 450, ((1, 2, 2), False): 444,
    ((2, 1, 3), True): 8733, ((2, 1, 3), False): 8123,
}


@pytest.mark.parametrize(
    "dims, durable", list(DTMS2_STATES),
    ids=["x".join(map(str, dims)) + ("-durable" if durable else "-crash_free")
         for dims, durable in DTMS2_STATES])
def test_dtms2_matching_actions_are_the_enabled_ones_that_emit_the_event(
        dims, durable) -> None:
    # the acceptor's steps take the actions _matching_actions lists without
    # asking step; at every reachable state they must be, in enabled order,
    # exactly the enabled actions whose step emits the event
    d = H.Domain(*dims)
    m = Dtms2Machine(d, durable=durable)
    events = dtms2_events(d)

    def successors(s):
        emitters: dict = {}
        for a in m.enabled(s):
            s2, ev = m.step(s, a)
            emitters.setdefault(ev, []).append(a)
            yield a, s2
        for e in events:
            assert _matching_actions(m, s, e) == emitters.get(e, []), (s, e)

    states, _ = reach([m.initial()], successors)
    assert len(states) == DTMS2_STATES[dims, durable]


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

    def successors(s):
        out = list(steps(m, s))
        for s2 in [s] + [s2 for _, s2 in out]:
            assert not any(isinstance(x, bool) for x in _atoms(s2)), s2
            for f in fields:
                part = getattr(s2, f)
                assert first.setdefault((f, part), part) is part, (f, part)
        return out

    reach([m.initial()], successors)
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
