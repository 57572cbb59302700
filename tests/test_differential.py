"""The opacity oracle and the reference automaton as a standing
differential.

Both decide durable opacity from independent definitions: the oracle
searches for witnesses by the definitions, the automaton decides by subset
construction whether it can produce the history.  On every enumerated
history of a domain, with at most one crash, they must give the same
verdict.  The counts of histories and of durably opaque ones are pinned,
so the test shows it judged the whole enumeration.
"""
from __future__ import annotations

import pytest

from durastm import histories as H
from durastm.dtms2 import Acceptor, Dtms2Machine
from durastm.opacity import durably_opaque

# (txns, addrs, vals, max events) -> (histories, durably opaque)
DIFFERENTIALS = {
    (2, 2, 2, 8): (127308, 96300),
    (3, 1, 2, 7): (48425, 44000),
    (2, 2, 3, 7): (40152, 30088),
}


@pytest.mark.parametrize(
    "dims", list(DIFFERENTIALS),
    ids=[f"{t}x{a}x{v}-{n}" for t, a, v, n in DIFFERENTIALS])
def test_oracle_and_automaton_agree_on_every_history(dims) -> None:
    txns, addrs, vals, max_events = dims
    acceptor = Acceptor(Dtms2Machine(H.Domain(txns, addrs, vals)))
    values = range(vals)
    histories = opaque = 0
    for h in H.enumerate_histories(txns, addrs, vals, max_events,
                                   max_crashes=1):
        verdict = durably_opaque(h, values).ok
        assert verdict == acceptor.accepts(h).ok, h
        histories += 1
        opaque += verdict
    assert (histories, opaque) == DIFFERENTIALS[dims]
