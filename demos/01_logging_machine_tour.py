"""Tour of the logging machine: one committed write, line by line.

Every numbered line of the algorithm is an explicit machine action, so a
schedule is just a list of actions.  External boundaries (invocations and
responses) emit history events; internal lines emit nothing.

Run:  python3 demos/01_logging_machine_tour.py
"""
import json

from durastm.dtml import DtmlMachine, act
from durastm.histories import Domain, event_to_json

machine = DtmlMachine(Domain(num_txns=1, num_addrs=2, num_vals=2))
state = machine.initial()

schedule = [
    act("invBegin", 1),             # transaction 1 asks to begin
    act("B1", 1), act("B2", 1),     # sample the version counter (even = ok)
    act("resBegin", 1),
    act("invWrite", 1, addr=0, val=1),
    act("W1", 1),                   # re-check the counter
    act("W2", 1),                   # claim it (make it odd)
    act("W3", 1),                   # remember the claimed value
    act("W4", 1),                   # address not yet logged -> log it
    act("W5", 1),                   # persist the undo entry (old value)
    act("W6", 1),                   # volatile store takes the new value
    act("W7", 1),                   # flush it to persistent memory
    act("resWrite", 1),
    act("invCommit", 1),
    act("E1", 1),                   # writer path: clear the log
    act("E2", 1),
    act("E3", 1),                   # release the counter (even again)
    act("resCommit", 1),
]

print(f"{'action':>20}  {'event':<40} state")
for a in schedule:
    state, event = machine.step(state, a)
    snap = machine.snapshot(state)
    shown = json.dumps(event_to_json(event)) if event else ""
    print(f"{str(a):>20}  {shown:<40} "
          f"glb={snap['glb']} vstore={snap['vstore']} "
          f"pstore={snap['pstore']} log={snap['log']}")

print("\nThe committed value 1 sits in both stores and the undo log is "
      "empty: a crash now would change nothing.")
