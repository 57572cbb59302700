"""Refinement is decided where it can fail, and the simulation frame skips
the rest.

The reference automaton rejects a one-event extension of a history it
accepts only at an event that may break opacity (``test_dtms2``'s rule
test), so the explorer's paths carry no trace frame: the pipeline replays
the history through the acceptor at those events, and skips even that
replay while the path's simulation frame ``sim`` stays non-empty.  That
frame only takes images of the trace frame's own steps and prunes them, so
after every edge it lies inside the internal closure of the trace frame,
and after every event edge inside the trace frame itself.

These runs compute the trace frame beside the pipeline on every edge and
check the two inclusions, that the pipeline reports refinement exactly
where the trace frame empties, and that each run's violations are those of
the pipeline that carried the trace frame (pinned digests), with and
without the simulation frame.  Besides the three injected bugs of the
logging machine, a fault that answers every read with the other value
breaks the trace at the read response itself, so the replay both rejects
and accepts, after a failed opacity check and, in the runs without
opacity, after an empty simulation frame.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from durastm import dtms2
from durastm import explorer
from durastm import histories as H
from durastm.dtml import DtmlMachine
from durastm.explorer import ExplorationConfig, explore_exhaustive, explore_random

CHECKS = ("opacity", "refinement", "simrel", "invariants")
SWEEP = ExplorationConfig(domain=H.Domain(2, 1, 2), max_crashes=1,
                          flush_budget=1, max_steps=30, checks=CHECKS)
WALKS = ExplorationConfig(domain=H.Domain(2, 1, 2), max_crashes=1,
                          flush_budget=1, max_steps=60, checks=CHECKS,
                          seed=5, num_walks=3000, min_crashes=1,
                          continue_prob=0.85, crash_prob=0.02)
NO_OPACITY = CHECKS[1:]
TRACE_CHECKS = ("opacity", "refinement")
REFINEMENT = ("refinement",)
FAULTS = (None, "skip_undo_log", "skip_flush_W7", "skip_log_clear_E2",
          "wrong_read")
# (fault, checks): with opacity on, an event the automaton rejects fails
# opacity too (the oracle and the automaton agree on every history), so
# only a run without it has the simulation frame empty at a rejected event;
# the runs without simrel carry no frame at all and replay at every event
# that may break opacity
RUNS = [pytest.param(fault, CHECKS, id=str(fault)) for fault in FAULTS]
RUNS.append(pytest.param("wrong_read", NO_OPACITY, id="wrong_read-no_opacity"))
RUNS += [pytest.param(fault, checks, id=f"{fault}-{'+'.join(checks)}")
         for checks in (TRACE_CHECKS, REFINEMENT) for fault in FAULTS]

# (histories, states, violations, sha256 prefix of the sorted violations)
# of each run, by mode, fault and checks, as the pipeline that carried the
# trace frame gave them; the wrong_read rows are re-pinned for the
# relation whose per-transaction clauses prune the frame: its read-value
# clause drops the images that read the other value from an older snapshot,
# so more lying read responses end in simrel (and a walk that ends sooner
# shifts the seeded walks after it); every faulty row is re-pinned for paths
# that go on past a simrel violation under the other checks, whose
# violations are then those of the same run without simrel
# (test_explorer.test_simrel_only_adds_violations); the skip_flush_W7 rows
# with every check are re-pinned for the store-diff invariant read off the
# control points, which ends each of that fault's writes at W7
_PINNED = {
    ("sweep", None, CHECKS): (19256, 2281, 0, "e3b0c44298fc1c14"),
    ("sweep", "skip_undo_log", CHECKS): (18798, 2060, 182, "b2110c02a47f84e6"),
    ("sweep", "skip_flush_W7", CHECKS): (16230, 2217, 243, "5aff363d9489cb76"),
    ("sweep", "skip_log_clear_E2", CHECKS): (16910, 1761, 313, "bb7d8687ac010929"),
    ("sweep", "wrong_read", CHECKS): (12273, 2281, 621, "d19c66bdf2bf865e"),
    ("sweep", "wrong_read", NO_OPACITY): (12273, 2281, 324, "534ac8e43573ce0d"),
    ("walks", None, CHECKS): (3000, 1686, 0, "e3b0c44298fc1c14"),
    ("walks", "skip_undo_log", CHECKS): (3000, 1437, 1805, "377a7d8a7b591405"),
    ("walks", "skip_flush_W7", CHECKS): (3000, 1223, 1654, "c55ff56994f40550"),
    ("walks", "skip_log_clear_E2", CHECKS): (3000, 1165, 2311, "a8bb33d1d2eac9ca"),
    ("walks", "wrong_read", CHECKS): (3000, 1570, 3358, "16957ced6a981020"),
    ("walks", "wrong_read", NO_OPACITY): (3000, 1570, 1685, "0135417b16f8ddda"),
    ("sweep", None, TRACE_CHECKS): (19256, 2281, 0, "e3b0c44298fc1c14"),
    ("sweep", "skip_undo_log", TRACE_CHECKS): (18798, 2060, 32, "9d97b8b699283029"),
    ("sweep", "skip_flush_W7", TRACE_CHECKS): (25048, 3599, 0, "e3b0c44298fc1c14"),
    ("sweep", "skip_log_clear_E2", TRACE_CHECKS): (19243, 2217, 0, "e3b0c44298fc1c14"),
    ("sweep", "wrong_read", TRACE_CHECKS): (12273, 2281, 594, "3470b85f129146e8"),
    ("sweep", None, REFINEMENT): (19256, 2281, 0, "e3b0c44298fc1c14"),
    ("sweep", "skip_undo_log", REFINEMENT): (18798, 2060, 16, "db7a86bc4f5ef94a"),
    ("sweep", "skip_flush_W7", REFINEMENT): (25048, 3599, 0, "e3b0c44298fc1c14"),
    ("sweep", "skip_log_clear_E2", REFINEMENT): (19243, 2217, 0, "e3b0c44298fc1c14"),
    ("sweep", "wrong_read", REFINEMENT): (12273, 2281, 297, "9dccf630e04f6085"),
    ("walks", None, TRACE_CHECKS): (3000, 1686, 0, "e3b0c44298fc1c14"),
    ("walks", "skip_undo_log", TRACE_CHECKS): (3000, 1437, 30, "2153262c80826b58"),
    ("walks", "skip_flush_W7", TRACE_CHECKS): (3000, 2040, 56, "df094743b81368cf"),
    ("walks", "skip_log_clear_E2", TRACE_CHECKS): (3000, 1475, 64, "d08efa30bab1f16a"),
    ("walks", "wrong_read", TRACE_CHECKS): (3000, 1570, 3346, "5193b1c5d177e140"),
    ("walks", None, REFINEMENT): (3000, 1686, 0, "e3b0c44298fc1c14"),
    ("walks", "skip_undo_log", REFINEMENT): (3000, 1437, 15, "a290478e3bf2bdab"),
    ("walks", "skip_flush_W7", REFINEMENT): (3000, 2040, 28, "92c1759ed8b15ab8"),
    ("walks", "skip_log_clear_E2", REFINEMENT): (3000, 1475, 32, "ab7bd5c019b844d6"),
    ("walks", "wrong_read", REFINEMENT): (3000, 1570, 1673, "19555eeaec4131fd"),
}


def _digest(report) -> str:
    rows = sorted(json.dumps([v.check, [H.event_to_json(e) for e in v.history],
                              v.detail], sort_keys=True)
                  for v in report.violations)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def _answer_every_read_wrongly(monkeypatch) -> None:
    step = DtmlMachine.step

    def lying(self, s, a):
        s2, ev = step(self, s, a)
        if ev is not None and ev.ev == "resRead" and not ev.abort:
            ev = ev._replace(val=1 - ev.val)
        return s2, ev

    monkeypatch.setattr(DtmlMachine, "step", lying)


def _guarded_run(monkeypatch, explore, cfg: ExplorationConfig, fault,
                 checks):
    """Run ``explore`` under ``fault`` with the trace frame computed beside
    the pipeline; returns the report and the numbers of passed edges and
    of passed event edges."""
    cfg = replace(cfg, checks=checks)
    if fault == "wrong_read":
        _answer_every_read_wrongly(monkeypatch)
    else:
        cfg = replace(cfg, mutation=fault)
    acceptor = dtms2.Acceptor(dtms2.Dtms2Machine(cfg.domain))
    closures: dict = {}
    # id of a path record -> (the record, kept alive, and its trace frame)
    frames: dict = {}
    edges = [0, 0]
    start, check_edge = explorer._Pipeline.start, explorer._Pipeline.check_edge

    def closure(frame):
        if frame not in closures:
            closures[frame] = frozenset(dtms2._closure(acceptor.machine, frame))
        return closures[frame]

    def guarded_start(pipe, s0):
        path = start(pipe, s0)
        frames.clear()  # a random walk's records die with it
        frames[id(path)] = (path, acceptor.initial())
        return path

    def guarded_edge(pipe, a, s, s2, ev, events, path, *new):
        seen = len(pipe.report.violations)
        out = check_edge(pipe, a, s, s2, ev, events, path, *new)
        trace = frames[id(path)][1]
        if ev is not None:
            trace = acceptor.advance(trace, ev)
            new = {v.check for v in pipe.report.violations[seen:]}
            if new & {"opacity", "refinement", "simrel"}:
                assert ("refinement" in new) == (not trace)
        if out is not None:
            edges[0] += 1
            if out.sim is not None:
                assert out.sim <= closure(trace)
                if ev is not None:
                    assert out.sim <= trace
            edges[1] += ev is not None
            frames[id(out)] = (out, trace)
        return out

    monkeypatch.setattr(explorer._Pipeline, "start", guarded_start)
    monkeypatch.setattr(explorer._Pipeline, "check_edge", guarded_edge)
    report = explore(cfg)
    return report, edges


@pytest.mark.parametrize("fault, checks", RUNS)
@pytest.mark.parametrize("mode", ["sweep", "walks"])
def test_sim_frame_lies_inside_the_trace_frame(monkeypatch, mode, fault,
                                               checks):
    explore, cfg = ((explore_exhaustive, SWEEP) if mode == "sweep"
                    else (explore_random, WALKS))
    report, (edges, event_edges) = _guarded_run(monkeypatch, explore, cfg,
                                                fault, checks)
    assert edges > 10_000 and event_edges > 1_000
    assert (report.histories_explored, report.states_visited,
            len(report.violations),
            _digest(report)) == _PINNED[mode, fault, checks]
    if fault == "wrong_read" and "simrel" in checks:
        # the replay both rejected a read response and accepted one that
        # the simulation frame could not match
        kinds = {v.check for v in report.violations}
        assert {"refinement", "simrel"} <= kinds


def test_paths_carry_no_trace_frame() -> None:
    # refinement replays the history where it can fail; only the
    # simulation frame is carried
    assert explorer._Path._fields == ("budgets", "sim", "wf")


@pytest.mark.parametrize("checks, replays", [
    (CHECKS, 0), (TRACE_CHECKS, 1369), (REFINEMENT, 1369)])
def test_refinement_is_replayed_only_where_no_frame_proves_it(
        monkeypatch, checks, replays) -> None:
    # with simrel the non-empty frame proves every history of the clean
    # sweep accepted, so nothing is replayed; without it the history is
    # replayed at each event that may break opacity and at no other
    accepts = dtms2.Acceptor.accepts
    calls = [0]

    def counting(acceptor, h):
        calls[0] += 1
        return accepts(acceptor, h)

    monkeypatch.setattr(dtms2.Acceptor, "accepts", counting)
    report = explore_exhaustive(replace(SWEEP, checks=checks))
    assert report.ok and calls[0] == replays
