"""Exploration and fault injection: the checkers earn their keep.

First an exhaustive sweep of a small domain — every schedule within the
bounds, every history checked for durable opacity and reference-automaton
acceptance.  Then the same machinery pointed at a machine with the
commit-time flush removed: seeded crash-happy walks find a history that
both checkers reject, and prefix truncation has already minimized it.

Run:  python3 demos/05_explore_and_mutate.py  (a few seconds)
"""
import json

from durastm import histories as H
from durastm.explorer import (ExplorationConfig, explore_exhaustive,
                              explore_random)

sweep = ExplorationConfig(domain=H.Domain(2, 1, 2),
                          max_crashes=1, flush_budget=1, max_steps=24,
                          checks=("opacity", "refinement", "simrel",
                                  "invariants"))
report = explore_exhaustive(sweep)
print(f"clean machine, exhaustive to {sweep.max_steps} steps: "
      f"{report.histories_explored} histories over "
      f"{report.states_visited} states, "
      f"{len(report.violations)} violations")

hunt = ExplorationConfig(domain=H.Domain(2, 2, 2),
                         max_crashes=1, flush_budget=1, max_steps=60,
                         seed=7, num_walks=1000,
                         min_crashes=1, continue_prob=0.85,
                         crash_prob=0.02,
                         checks=("opacity", "refinement"),
                         mutation="skip_flush_W7")
report = explore_random(hunt, stop_on={"opacity", "refinement"})
print(f"\nskip_flush_W7 mutant, seeded walks with a forced crash: "
      f"{len(report.violations)} violations "
      f"after {report.histories_explored} walks")
v = report.violations[0]
print(f"first counterexample ({v.check}, {len(v.history)} events):")
for e in v.history:
    print(" ", json.dumps(H.event_to_json(e)))
print("\nA commit acknowledged before its flush is a commit the crash can "
      "silently revert — exactly what the trailing read exposes.")
