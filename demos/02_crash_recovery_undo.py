"""Crash in the middle of a write: the undo log earns its keep.

A background flush can push an uncommitted value into persistent memory.
If the machine then crashes, recovery replays the persistent undo log to
roll that value back.  With the skip_undo_log fault injected, nothing is
logged, recovery finds nothing to undo, and the uncommitted value
survives the crash.

Run:  python3 demos/02_crash_recovery_undo.py
"""
from durastm.dtml import DtmlMachine
from durastm.histories import Domain, act

PRELUDE = [
    act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1),
    act("invWrite", 1, addr=0, val=1),
]


def run(mutation):
    machine = DtmlMachine(Domain(1, 1, 2), mutation=mutation)
    s = machine.initial()
    for a in PRELUDE:
        s, _ = machine.step(s, a)
    # write lines up to (not including) the flush line W7; the fault
    # injection changes which lines exist, so follow the enabled ones
    while s.pc[0] != "W7":
        a = next(a for a in machine.enabled(s) if a.tx == 1)
        s, _ = machine.step(s, a)
    s, _ = machine.step(s, act("flush", addr=0))  # leak to pstore
    s, _ = machine.step(s, act("crash"))          # power loss, no commit
    before = machine.snapshot(s)
    # drive recovery to quiescence, taking the first enabled recovery step
    while s.syst_pc != "RecIdle":
        a = next(a for a in machine.enabled(s)
                 if a.kind.startswith("C"))
        s, _ = machine.step(s, a)
    after = machine.snapshot(s)
    return before, after


for mutation in (None, "skip_undo_log"):
    label = mutation or "correct machine"
    before, after = run(mutation)
    print(f"{label}:")
    print(f"  after crash:    pstore={before['pstore']} log={before['log']}")
    print(f"  after recovery: pstore={after['pstore']} log={after['log']}")
    leaked = after["pstore"][0] != 0
    print("  uncommitted value", "SURVIVED (unsound!)" if leaked
          else "rolled back", "\n")
