"""The simulation frame decides trace refinement.

A forward simulation implies trace inclusion, and the explorer's two
automaton frames show it edge by edge: ``sim`` only takes images of the
trace frame's own steps and prunes them, so after every edge it lies inside
the internal closure of ``trace``, and after every event edge inside
``trace``.  When both checks run, a path carries ``sim`` alone and the
pipeline replays the history through the acceptor only where ``sim``
empties or opacity fails at an event.

These runs compute the trace frame beside the pipeline on every edge and
check the two inclusions, that the pipeline reports refinement exactly
where the trace frame empties, and that each run's violations are those of
the pipeline that carried both frames (pinned digests).  Besides the three
injected bugs of the logging machine, a fault that answers every read with
the other value breaks the trace at the read response itself, so the
replay both rejects and accepts, after a failed opacity check and, in the
runs without opacity, after an empty simulation frame.
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
                          flush_budget=1, max_steps=30, checks=CHECKS,
                          dedup="state")
WALKS = ExplorationConfig(domain=H.Domain(2, 1, 2), max_crashes=1,
                          flush_budget=1, max_steps=60, checks=CHECKS,
                          seed=5, num_walks=3000, min_crashes=1,
                          continue_prob=0.85, crash_prob=0.02)
# (fault, checks): with opacity on, an event the automaton rejects fails
# opacity too (the oracle and the automaton agree on every history), so
# only a run without it has the simulation frame empty at a rejected event
RUNS = [pytest.param(fault, CHECKS, id=str(fault))
        for fault in (None, "skip_undo_log", "skip_flush_W7",
                      "skip_log_clear_E2", "wrong_read")]
RUNS.append(pytest.param("wrong_read", CHECKS[1:], id="wrong_read-no_opacity"))

# (histories, states, violations, sha256 prefix of the sorted violations)
# of each run, by mode, fault and whether opacity ran, as the pipeline that
# carried both frames gave them; the wrong_read rows are re-pinned for the
# relation whose per-transaction clauses prune the frame: its read-value
# clause drops the images that read the other value from an older snapshot,
# so more lying read responses end in simrel (and a walk that ends sooner
# shifts the seeded walks after it)
_PINNED = {
    ("sweep", None, True): (19256, 2281, 0, "e3b0c44298fc1c14"),
    ("sweep", "skip_undo_log", True): (10173, 1093, 150, "37c3d6d03b3b4360"),
    ("sweep", "skip_flush_W7", True): (25038, 3599, 584, "7269882781185053"),
    ("sweep", "skip_log_clear_E2", True): (16598, 1723, 207, "05e8f7be0406ec3f"),
    ("sweep", "wrong_read", True): (12210, 2281, 621, "d19c66bdf2bf865e"),
    ("sweep", "wrong_read", False): (12210, 2281, 324, "534ac8e43573ce0d"),
    ("walks", None, True): (3000, 1686, 0, "e3b0c44298fc1c14"),
    ("walks", "skip_undo_log", True): (3000, 849, 1769, "3edd6bff5f592e7d"),
    ("walks", "skip_flush_W7", True): (3000, 2069, 394, "8dfc729fbeef8981"),
    ("walks", "skip_log_clear_E2", True): (3000, 1190, 1489, "e57f5a121d4f6250"),
    ("walks", "wrong_read", True): (3000, 1535, 3349, "1788661dad197537"),
    ("walks", "wrong_read", False): (3000, 1535, 1680, "e69430c801f785f7"),
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

    def guarded_edge(pipe, a, s, s2, ev, events, path):
        seen = len(pipe.report.violations)
        out = check_edge(pipe, a, s, s2, ev, events, path)
        trace = frames[id(path)][1]
        if ev is not None:
            trace = acceptor.advance(trace, ev)
        if out is not None:
            edges[0] += 1
            assert out.sim <= closure(trace)
            if ev is not None:
                edges[1] += 1
                assert out.sim <= trace
            frames[id(out)] = (out, trace)
        elif ev is not None:
            new = {v.check for v in pipe.report.violations[seen:]}
            if new & {"opacity", "refinement", "simrel"}:
                assert ("refinement" in new) == (not trace)
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
    key = mode, fault, "opacity" in checks
    assert (report.histories_explored, report.states_visited,
            len(report.violations), _digest(report)) == _PINNED[key]
    if fault == "wrong_read":
        # the replay both rejected a read response and accepted one that
        # the simulation frame could not match
        kinds = {v.check for v in report.violations}
        assert {"refinement", "simrel"} <= kinds


def test_both_checks_carry_the_simulation_frame_alone() -> None:
    cfg = ExplorationConfig(domain=H.Domain(1, 1, 2), checks=CHECKS)
    assert explorer._Pipeline(cfg, "state").start(
        DtmlMachine(cfg.domain).initial()).trace is None
    # context dedup keys on the path record, so there both frames stay
    assert explorer._Pipeline(cfg, "context").start(
        DtmlMachine(cfg.domain).initial()).trace is not None
