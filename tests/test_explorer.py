"""Schedule exploration over the implementation machine.

Exhaustive mode is a depth-first search over enabled actions with per-path
crash/flush budgets, a begin-retry cut, and state-keyed dedup;
checks run prefix-incrementally as events are emitted.  Random mode is
seeded uniform walks with optional crash/continuation steering.  A separate
driver walks the reference automaton for its own checks.
"""
from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import pytest

from durastm import dtms2
from durastm import explorer
from durastm import histories as H
from durastm import refinement
from durastm.dtml import MUTATIONS, DtmlMachine
from durastm.dtms2 import config_for_history, dtms2_accepts
from durastm.explorer import (
    CheckReport,
    ExplorationConfig,
    canonical_hash,
    explore_exhaustive,
    explore_random,
    walk_reference,
)
from durastm.opacity import durably_opaque
from durastm.reach import path as shortest_path, reach


def test_config_bounds_guard() -> None:
    with pytest.raises(ValueError):
        explore_exhaustive(ExplorationConfig(domain=H.Domain(num_txns=4)))
    # explicit override allows larger domains
    cfg = ExplorationConfig(domain=H.Domain(num_txns=4), max_steps=2,
                            force=True)
    assert explore_exhaustive(cfg).histories_explored >= 1


def test_config_rejects_unknown_check_and_mutation() -> None:
    with pytest.raises(ValueError):
        explore_exhaustive(ExplorationConfig(checks=("opacity", "bogus")))
    with pytest.raises(ValueError):
        explore_exhaustive(ExplorationConfig(mutation="bogus"))
    with pytest.raises(ValueError):
        # crash-erasure checking belongs to the reference-automaton driver
        explore_exhaustive(ExplorationConfig(checks=("weaksim",)))


def test_zero_steps_explores_exactly_the_empty_history() -> None:
    cfg = ExplorationConfig(domain=H.Domain(num_txns=1), max_steps=0)
    seen = []
    rep = explore_exhaustive(cfg, on_history=seen.append)
    assert rep.histories_explored == 1
    assert rep.violations == []
    assert seen == [()]


def test_exhaustive_is_deterministic() -> None:
    cfg = ExplorationConfig(domain=H.Domain(num_txns=1, num_addrs=1),
                            max_steps=14)
    r1 = explore_exhaustive(cfg)
    r2 = explore_exhaustive(cfg)
    assert r1.histories_explored == r2.histories_explored
    assert r1.states_visited == r2.states_visited
    assert r1.violations == r2.violations


def test_small_clean_exploration_has_no_violations() -> None:
    cfg = ExplorationConfig(domain=H.Domain(1, 1, 2),
                            max_crashes=1, flush_budget=1, max_steps=18,
                            checks=("opacity", "refinement", "simrel",
                                    "invariants"))
    histories = []
    rep = explore_exhaustive(cfg, on_history=histories.append)
    assert rep.violations == []
    assert rep.histories_explored == len(histories) > 10
    assert rep.states_visited > 10
    # spot-check the pipeline against the standalone oracles
    for h in histories[::max(1, len(histories) // 40)]:
        assert durably_opaque(h, value_domain=range(2)).ok
        assert dtms2_accepts(h, config_for_history(h)).ok


def test_crash_free_mode_yields_crash_free_opaque_histories() -> None:
    cfg = ExplorationConfig(domain=H.Domain(2, 1, 2),
                            max_crashes=0, flush_budget=0, max_steps=16,
                            checks=("opacity",))
    histories = []
    rep = explore_exhaustive(cfg, on_history=histories.append)
    assert rep.violations == []
    assert all(H.CRASH not in h for h in histories)


def test_canonical_hash_distinguishes_and_is_stable() -> None:
    m = DtmlMachine(H.Domain(2, 2, 2))
    s = m.initial()
    assert canonical_hash(s) == canonical_hash(m.initial())
    from durastm.nvm import MemoryPair
    s2 = s._replace(mem=MemoryPair(s.mem.vstore, (1, 0)))
    assert canonical_hash(s) != canonical_hash(s2)
    # stability across processes: no address- or salt-dependent input
    code = ("from durastm.dtml import DtmlMachine\n"
            "from durastm.explorer import canonical_hash\n"
            "from durastm.histories import Domain\n"
            "print(canonical_hash(DtmlMachine(Domain(2, 2, 2)).initial()))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == canonical_hash(s)
    # pinned literal: a change of state representation must not move it
    assert canonical_hash(s) == (
        "a7e909e0191c4a3177a6836ca5098c3beebd2c94f1274952855e62573eb83263")


def test_acceptor_memo_size_changes_no_verdict_and_bounds_its_caches(
        monkeypatch) -> None:
    acceptors: list[dtms2.Acceptor] = []

    class Recording(dtms2.Acceptor):
        def __init__(self, machine) -> None:
            super().__init__(machine)
            acceptors.append(self)

    monkeypatch.setattr(explorer, "Acceptor", Recording)
    cfg = ExplorationConfig(max_crashes=1, flush_budget=1, max_steps=16,
                            checks=("opacity", "refinement", "simrel",
                                    "invariants"))

    def run():
        seen: list[H.History] = []
        rep = explore_exhaustive(cfg, on_history=seen.append)
        return rep.histories_explored, rep.states_visited, rep.violations, seen

    def cache_infos(acceptor):
        return [step.cache_info() for step in
                (acceptor.advance, acceptor.match, acceptor.silent)]

    full = run()
    assert full[:3] == (9445, 2031, [])
    (acceptor,) = acceptors
    infos = cache_infos(acceptor)
    # the run asked for more distinct steps than a cache may hold
    assert max(i.misses for i in infos) > dtms2.MEMO_SIZE
    assert max(i.currsize for i in infos) <= dtms2.MEMO_SIZE
    monkeypatch.setattr(dtms2, "MEMO_SIZE", 1)
    assert run() == full
    assert max(i.currsize for i in cache_infos(acceptors[-1])) <= 1
    cfg = replace(cfg, mutation="skip_undo_log")
    hist, states, viols, _ = run()
    # paths go on past simrel's violations
    assert (hist, states, len(viols)) == (9719, 2065, 110)


# a run whose paths take many flush edges that change the state: a flush
# that changes nothing ends at the dedup cut without reaching check_edge
FLUSH_RUN = ExplorationConfig(
    domain=H.Domain(2, 2, 2), max_crashes=1, flush_budget=1, max_steps=28,
    checks=("refinement", "simrel", "invariants"))


def test_flush_edges_carry_what_the_full_checks_give(monkeypatch) -> None:
    # every flush edge goes through sim_step and the invariants like any
    # other edge; since neither reads the persistent store, which is all a
    # flush changes, it must keep the frame and status it carried, and pass
    flushes = []
    check_edge = explorer._Pipeline.check_edge

    def recording(pipe, a, s, s2, ev, events, path, *new):
        out = check_edge(pipe, a, s, s2, ev, events, path, *new)
        if a.kind == "flush":
            flushes.append((pipe.acceptor, a, s2, path, out))
        return out

    monkeypatch.setattr(explorer._Pipeline, "check_edge", recording)
    assert explore_exhaustive(FLUSH_RUN).violations == []
    assert len(flushes) > 1000
    for acceptor, a, s2, path, out in flushes:
        sim, hard = refinement.sim_step(acceptor, path.sim, a, s2, None)
        assert (hard, sim) == ((), out.sim)
        assert explorer._invariant_violation(s2) is None
        assert out.wf == path.wf


def _reference_sweep(cfg: ExplorationConfig, on_history) -> CheckReport:
    """The exhaustive search with the same dominance rule, stepping and
    checking every allowed action, flushes that change nothing included,
    testing the cut where a state is entered and every invariant at every
    target."""
    pipe = explorer._Pipeline(cfg)
    visited: dict = {}
    events: list[H.Event] = []

    def finish() -> None:
        pipe.report.histories_explored += 1
        on_history(tuple(events))

    def dfs(s, depth, path) -> None:
        remaining = cfg.max_steps - depth
        if visited.get(s, -1) >= remaining:
            return finish()
        visited[s] = remaining
        acts = pipe.allowed(s, path) if remaining > 0 else []
        for a in acts:
            s2, ev = pipe.machine.step(s, a)
            if ev is not None:
                events.append(ev)
            path2 = pipe.check_edge(a, s, s2, ev, events, path)
            if path2 is None:
                finish()
            else:
                dfs(s2, depth + 1, path2)
            if ev is not None:
                events.pop()
        if not acts:
            finish()

    s0 = pipe.machine.initial()
    dfs(s0, 0, pipe.start(s0))
    pipe.report.states_visited = len(visited)
    return pipe.report


@pytest.mark.parametrize("checks", [(), ("opacity", "refinement", "simrel",
                                         "invariants")], ids=["none", "all"])
@pytest.mark.parametrize("mutation", [None, "skip_flush_W7",
                                      "skip_log_clear_E2"])
@pytest.mark.parametrize("domain, steps", [((2, 1, 2), 20), ((2, 2, 2), 16)])
def test_sweep_gives_what_stepping_every_action_gives(domain, steps,
                                                      mutation, checks):
    # a flush that changes nothing ends at the cut unstepped, the cut is
    # tested before recursing, and a reached state's invariants are not
    # checked again: none of it may change a history, its order, a state
    # count or a violation (with all checks on (2,1,2), both mutants break
    # some, skip_log_clear_E2 an invariant among them)
    cfg = ExplorationConfig(domain=H.Domain(*domain), max_crashes=1,
                            flush_budget=1, max_steps=steps,
                            mutation=mutation, checks=checks)
    got: list[H.History] = []
    want: list[H.History] = []
    rep = explore_exhaustive(cfg, on_history=got.append)
    ref = _reference_sweep(cfg, want.append)
    assert got == want and len(got) > 1000
    assert (rep.histories_explored, rep.states_visited, rep.violations) \
        == (ref.histories_explored, ref.states_visited, ref.violations)


def test_sweep_steps_and_checks_each_edge_once(monkeypatch) -> None:
    # the 28-step 2x2x2 sweep: flushes that change nothing are not
    # stepped, and every edge that is stepped passes check_edge
    calls = {"step": 0, "check_edge": 0}
    step, check_edge = DtmlMachine.step, explorer._Pipeline.check_edge

    def counting_step(self, s, a):
        calls["step"] += 1
        return step(self, s, a)

    def counting_edge(pipe, *edge):
        calls["check_edge"] += 1
        return check_edge(pipe, *edge)

    monkeypatch.setattr(DtmlMachine, "step", counting_step)
    monkeypatch.setattr(explorer._Pipeline, "check_edge", counting_edge)
    cfg = ExplorationConfig(domain=H.Domain(2, 2, 2), max_crashes=1,
                            flush_budget=1, max_steps=28, checks=())
    rep = explore_exhaustive(cfg)
    assert (rep.histories_explored, rep.states_visited) == (106475, 12647)
    assert calls == {"step": 82449, "check_edge": 82449}


# minimal action depth at which each injected bug reaches an observable
# post-crash read: write-back/commit work pre-crash plus recovery length
_BITE_DEPTH = {"skip_undo_log": 23, "skip_flush_W7": 29,
               "skip_log_clear_E2": 34}
# (histories, states, failing action kind) of the state sweep with simrel
# up to its first violation: the kind is where the per-pair simulation of
# test_refinement finds each fault's dead edges, and a change to the search
# that should change nothing must leave the counts alone
_BITES = {"skip_undo_log": (333, 150, "W6"),
          "skip_flush_W7": (3070, 966, "crash"),
          "skip_log_clear_E2": (962, 364, "E2")}


def _bite_config(mutation: str, checks: tuple[str, ...]) -> ExplorationConfig:
    return ExplorationConfig(domain=H.Domain(2, 1, 2),
                             max_crashes=1, flush_budget=1,
                             max_steps=_BITE_DEPTH[mutation],
                             mutation=mutation, checks=checks)


@pytest.mark.parametrize("mutation", ["skip_undo_log", "skip_flush_W7",
                                      "skip_log_clear_E2"])
def test_exhaustive_catches_mutations(mutation: str) -> None:
    rep = explore_exhaustive(_bite_config(mutation, ("simrel",)),
                             stop_on={"simrel"})
    (v,) = rep.violations
    assert v.check == "simrel"
    assert (rep.histories_explored, rep.states_visited,
            v.detail["action"].partition("(")[0]) == _BITES[mutation]


def test_exhaustive_catches_skip_undo_log_by_its_history() -> None:
    # the state quotient can merge a faulty path into a healthy one before
    # the stale read shows; this fault still shows within the sweep
    checks = ("opacity", "refinement")
    rep = explore_exhaustive(_bite_config("skip_undo_log", checks),
                             stop_on=set(checks))
    assert {v.check for v in rep.violations} == set(checks)
    assert (rep.histories_explored, rep.states_visited) == (6163, 1255)
    # re-verify the counterexamples with the standalone oracles
    bad_opacity = next(v for v in rep.violations if v.check == "opacity")
    verdict = durably_opaque(bad_opacity.history, value_domain=range(2))
    assert not verdict.ok
    bad_trace = next(v for v in rep.violations if v.check == "refinement")
    assert not dtms2_accepts(bad_trace.history,
                             config_for_history(bad_trace.history)).ok


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("explore", [explore_exhaustive, explore_random])
def test_simrel_only_adds_violations(explore, mutation: str) -> None:
    # a path goes on past a simrel violation, so simrel can hide none of
    # the other checks' violations, as it did when it ended the path at a
    # state where the fault had not shown in the history yet; with no
    # other check, the run covers the paths and states of one with none;
    # without its flush, a write breaks the store-diff invariant at W7,
    # before the crash where simrel fails, so that fault runs without it
    steps = 30 if explore is explore_exhaustive else 60
    others = ("opacity", "refinement")
    if mutation != "skip_flush_W7":
        others += ("invariants",)
    for checks in (others, ()):
        cfg = ExplorationConfig(domain=H.Domain(2, 1, 2), max_steps=steps,
                                mutation=mutation, checks=checks,
                                seed=5, num_walks=300, min_crashes=1,
                                continue_prob=0.85, crash_prob=0.02)
        without = explore(cfg)
        both = explore(replace(cfg, checks=checks + ("simrel",)))
        assert any(v.check == "simrel" for v in both.violations)
        assert [v for v in both.violations if v.check != "simrel"] \
            == without.violations
        assert ((both.histories_explored, both.states_visited)
                == (without.histories_explored, without.states_visited))


def test_mutant_log_clear_breaks_quiet_log_invariant() -> None:
    cfg = ExplorationConfig(domain=H.Domain(1, 1, 2),
                            max_crashes=0, flush_budget=0, max_steps=18,
                            mutation="skip_log_clear_E2",
                            checks=("invariants",))
    rep = explore_exhaustive(cfg, stop_on={"invariant.logQuiet"})
    assert any(v.check == "invariant.logQuiet" for v in rep.violations)


def _failing_states(domain: H.Domain, mutation: str | None):
    """Over every state of the machine reachable with no bound on steps,
    crashes or flushes: how many break an invariant, which invariants they
    break, and the length and last action kind of a shortest schedule to
    one of them (0 and None when none does)."""
    m = DtmlMachine(domain, mutation=mutation)
    parents, _ = reach([m.initial()], lambda s: (
        (a, m.step(s, a)[0]) for a in m.enabled(s)))
    failing = {s: inv for s in parents
               if (inv := explorer._invariant_violation(s)) is not None}
    if not failing:
        return 0, set(), 0, None
    # the parent map is in breadth-first order, so the first failing state
    # is one a shortest schedule reaches
    schedule = shortest_path(parents, next(iter(failing)))
    return (len(failing), set(failing.values()), len(schedule),
            schedule[-1].kind)


# (states failing, invariants broken, shortest schedule's steps and last
# action) over the reachable states of (2,1,2), per fault: without its
# flush a write leaves the stores apart past W7, and a commit that leaves
# the log behind breaks the quiet log once it releases the claim at E3;
# a missing undo log breaks no state invariant
_INVARIANT_BITES = {
    None: (0, set(), 0, None),
    "skip_flush_W7": (1692, {"invariant.flushDiff"}, 12, "W7"),
    "skip_log_clear_E2": (260, {"invariant.logQuiet"}, 17, "E3"),
    "skip_undo_log": (0, set(), 0, None),
}


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_invariants_on_every_reachable_state(mutation) -> None:
    assert (_failing_states(H.Domain(2, 1, 2), mutation)
            == _INVARIANT_BITES[mutation])


def _without_c4(s):
    return tuple(a for pc, a in zip(s.pc, s.in_addr) if pc == "W7")


def _without_w7(s):
    return (s.rec_addr,) if s.syst_pc == "C4" else ()


@pytest.mark.parametrize("unflushed, bite", [
    (_without_c4, (14, {"invariant.flushDiff"}, 16, "C3")),
    (_without_w7, (100, {"invariant.flushDiff"}, 11, "W6")),
], ids=["without_C4", "without_W7"])
def test_the_store_diff_invariant_needs_both_flush_lines(
        monkeypatch, unflushed, bite) -> None:
    # an _unflushed that forgets the address one flush line owes fails on
    # the clean machine, where a line has written back and not yet flushed
    monkeypatch.setattr(explorer, "_unflushed", unflushed)
    assert _failing_states(H.Domain(2, 1, 2), None) == bite


def test_random_mode_reproducible_and_clean() -> None:
    cfg = ExplorationConfig(seed=11, num_walks=100,
                            max_steps=40, max_crashes=1, flush_budget=1,
                            checks=("opacity", "refinement", "simrel",
                                    "invariants"))
    r1 = explore_random(cfg)
    r2 = explore_random(cfg)
    assert r1.violations == r2.violations == []
    assert r1.histories_explored == 100


@pytest.mark.parametrize("mutation", ["skip_undo_log", "skip_flush_W7",
                                      "skip_log_clear_E2"])
def test_random_mode_with_steering_bites_mutants(mutation: str) -> None:
    cfg = ExplorationConfig(seed=7, num_walks=1000,
                            max_steps=60, max_crashes=1, flush_budget=1,
                            min_crashes=1, continue_prob=0.85,
                            crash_prob=0.02, mutation=mutation,
                            checks=("opacity", "refinement"))
    rep = explore_random(cfg, stop_on={"opacity", "refinement"})
    kinds = {v.check for v in rep.violations}
    assert "opacity" in kinds and "refinement" in kinds


def test_pipeline_verdicts_agree_with_standalone_oracles() -> None:
    # every walk history that passed the incremental pipeline must pass
    # the standalone oracles, and every flagged one must fail them
    cfg = ExplorationConfig(seed=13, num_walks=120,
                            max_steps=50, max_crashes=1, flush_budget=1,
                            min_crashes=1, continue_prob=0.85,
                            crash_prob=0.02, mutation="skip_undo_log",
                            checks=("opacity", "refinement"))
    walked: list[H.History] = []
    rep = explore_random(cfg, on_history=walked.append)
    # pinned: a change in the order of random draws moves these
    assert (rep.histories_explored, rep.states_visited,
            len(rep.violations)) == (120, 1376, 4)
    flagged_opacity = {v.history for v in rep.violations
                       if v.check == "opacity"}
    assert flagged_opacity, "expected at least one stale walk in the sample"
    for h in walked:
        assert durably_opaque(h, range(2)).ok == (h not in flagged_opacity)


def test_walk_reference_runs_opacity_and_crash_erasure_checks() -> None:
    cfg = ExplorationConfig(seed=3, num_walks=50,
                            max_steps=30, max_crashes=2,
                            checks=("opacity", "weaksim"))
    rep = walk_reference(cfg)
    assert rep.violations == []
    assert rep.histories_explored == 50


def test_walk_reference_one_acceptor_accepts_every_walk() -> None:
    # the run shares one acceptor; each walk is judged again by a fresh one
    cfg = ExplorationConfig(seed=17, num_walks=200, max_steps=40,
                            max_crashes=2, checks=("refinement",))
    walks: list[H.History] = []
    rep = walk_reference(cfg, on_history=walks.append)
    assert rep.violations == [] and rep.histories_explored == 200
    assert len(walks) == 200 and any(H.CRASH in h for h in walks)
    assert all(dtms2_accepts(h, cfg.domain).ok for h in walks)


def test_report_carries_the_run_config() -> None:
    cfg = ExplorationConfig(domain=H.Domain(1, 1, 2), max_steps=6,
                            max_crashes=1, flush_budget=0,
                            checks=("opacity", "simrel"),
                            mutation="skip_undo_log", num_walks=3)
    config = {"domain": {"num_txns": 1, "num_addrs": 1, "num_vals": 2},
              "dedup": "state", "max_steps": 6, "max_crashes": 1,
              "flush_budget": 0, "checks": ["opacity", "simrel"],
              "mutation": "skip_undo_log"}
    # the exhaustive search cuts by the state quotient; walks cut no path
    assert explore_exhaustive(cfg).as_dict()["config"] == config
    assert explore_random(cfg).as_dict()["config"] == {**config,
                                                       "dedup": None}
    # the reference walks take no background flush and inject no fault
    ref = replace(cfg, checks=("opacity",), mutation=None)
    assert walk_reference(ref).as_dict()["config"] == {
        **config, "dedup": None, "checks": ["opacity"], "flush_budget": None,
        "mutation": None}


def test_walk_reference_refuses_a_mutation() -> None:
    # a fault is the logging machine's; the automaton walks would run
    # unchanged and report it as covered
    cfg = ExplorationConfig(num_walks=3, checks=("weaksim",),
                            mutation="skip_undo_log", flush_budget=5)
    with pytest.raises(ValueError, match="does not apply to the reference"):
        walk_reference(cfg)
    rep = walk_reference(replace(cfg, mutation=None))
    assert rep.ok and rep.histories_explored == 3
    assert (rep.config["flush_budget"], rep.config["mutation"]) == (None, None)
