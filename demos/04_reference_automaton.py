"""The reference automaton: acceptance, random walks, crash erasure.

The automaton keeps every committed memory snapshot; a crash truncates
the list to the last snapshot and aborts in-flight transactions.  Any
history it can produce is durably opaque by construction, so acceptance
is a one-call correctness check for a history, and each of its walks can
be mirrored by a crash-free run over the surviving operations.

Run:  python3 demos/04_reference_automaton.py
"""
import random

from durastm import histories as H
from durastm.dtms2 import dtms2_accepts, dtms2_random_walk
from durastm.refinement import check_weak_sim

domain = H.Domain(num_txns=2, num_addrs=2, num_vals=2)

good = (
    H.inv_begin(1), H.res_begin(1),
    H.inv_write(1, 0, 1), H.res_write(1),
    H.inv_commit(1), H.res_commit(1),
    H.CRASH,
    H.inv_begin(2), H.res_begin(2),
    H.inv_read(2, 0), H.res_read(2, 1),   # committed writes survive crashes
)
bad = good[:-1] + (H.res_read(2, 0),)     # ... so reading 0 is impossible

for name, h in (("post-crash read of committed value", good),
                ("post-crash read of the OLD value", bad)):
    r = dtms2_accepts(h, domain)
    print(f"{name}: {'accepted' if r.ok else 'rejected'}"
          + ("" if r.ok else f" (first impossible event: index {r.failed_at})"))

print("\n30 seeded walks with up to 2 crashes, each mirrored crash-free:")
rng = random.Random(7)
crashes = mirrored = 0
for _ in range(30):
    history, schedule = dtms2_random_walk(domain, rng, max_steps=30,
                                          max_crashes=2)
    crashes += sum(1 for e in history if H.is_crash(e))
    report = check_weak_sim(domain, schedule)
    assert report.ok, report.reason
    assert report.target_history == H.ops(history)
    mirrored += 1
print(f"  {mirrored} walks mirrored exactly onto the surviving operations "
      f"({crashes} crashes erased in total)")
