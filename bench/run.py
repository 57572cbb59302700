"""durastm benchmark: time to a correct verdict, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (defined in ``workloads.py``):

    sweep   the A1 exhaustive sweep through ``durastm explore``
    walks   A5/A6 reference-automaton walks through ``durastm walk-dtms2``
    oracle  A9: both opacity strategies on every enumerated history
    hunt    A3/A4 mutant hunts through ``durastm fuzz``, all three mutations

The run repeats one fixed unit of the workload, each unit in a fresh
single-threaded process (``worker.py``) started after the previous one has
ended, until the next unit would overrun S seconds; at least one unit runs.
Every unit checks its outputs against pinned ones.

With ``--trace 0`` it reports the end-to-end metrics over the units:
``setup_s``, the median time from process start to the first check call
(with extra set-up-only processes so that at least nine are measured);
``verdict_s``, the upper quartile of the units' verdict times;
``histories_per_s``, the lower quartile of their rates; and the median
``peak_rss_mb``.  Verdict times take the slower quartile rather than the
median because on a shared virtual machine the noise is one-sided: for
seconds at a time the guest runs up to half again as fast as its usual
speed, and the upper quartile of many short units leaves those spells out.

With ``--trace 1`` it alternates untraced and traced units and reports the
per-layer metrics of the traced ones, with ``trace_overhead`` = traced /
untraced median ``verdict_s``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the pinned outputs, ``metrics`` maps
each metric name to its value and unit.  ``--scale tiny`` runs every
workload at tiny bounds, for the benchmark's own smoke test.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "walks", "oracle", "hunt")
SETUP_SAMPLES = 9
# the whole run must end within 180 s
DEADLINE_S = 170

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s",
                    "histories_per_s": "1/s", "peak_rss_mb": "MB"}


class UnitFailed(Exception):
    """A worker process crashed or printed no result."""


def _unit(workload: str, seed: int, mode: str, scale: str,
          timeout: float) -> dict:
    """Run one worker process to its end and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode,
         repr(launch), scale],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise UnitFailed(f"{workload} {mode} unit exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _pinned(units: list[dict]) -> tuple[int, list[str]]:
    """Pinned outputs attempted and failed over all units.  Units of one
    run do the same work, so each also has to repeat the first unit's
    history count and counterexample length."""
    attempted = sum(u["attempted"] for u in units)
    failures = [f for u in units for f in u["failures"]]
    first = (units[0]["histories"], units[0]["cex_events"])
    for u in units[1:]:
        attempted += 1
        if (u["histories"], u["cex_events"]) != first:
            failures.append(f"(histories, cex_events): first unit {first}, "
                            f"a later one {(u['histories'], u['cex_events'])}")
    return attempted, failures


def _quartiles(values: list[float]) -> tuple[float, float]:
    """Lower and upper quartile, within the range of the values."""
    if len(values) == 1:
        return values[0], values[0]
    q = quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(units: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": median(setups),
        "verdict_s": _quartiles([u["verdict_s"] for u in units])[1],
        "histories_per_s": _quartiles([u["histories"] / u["verdict_s"]
                                       for u in units])[0],
        "peak_rss_mb": median(u["peak_rss_mb"] for u in units),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced units, and the traced units whose
    counts differ from the first one's.  Times are medians; every other
    metric is a count that must repeat exactly."""
    units = dict(PER_LAYER)
    first = traced[0]["layers"]
    out = {n: median(t["layers"][n] for t in traced) if units[n] == "s"
           else v for n, v in first.items()}
    mismatches = []
    for t in traced[1:]:
        differ = sorted(n for n, v in t["layers"].items()
                        if units[n] != "s" and v != first[n])
        if differ:
            mismatches.append(f"traced units disagree on {differ}")
    out["cex_events"] = traced[0]["cex_events"]
    out["trace_overhead"] = (median(t["verdict_s"] for t in traced)
                             / median(u["verdict_s"] for u in plain))
    return out, mismatches


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str) -> dict:
    """Run the benchmark once and return its result object."""
    start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    # a group is one unit, or with tracing one untraced and one traced unit
    modes = ("run", "trace") if trace else ("run",)
    groups: list[list[dict]] = []
    while True:
        groups.append([_unit(workload, seed, m, scale, max(1.0, left()))
                       for m in modes])
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(groups) > seconds:
            break
        print(f"{workload}: {len(groups)} unit(s) done after {elapsed:.1f} s",
              file=sys.stderr)
    plain = [g[0] for g in groups]
    traced = [g[1] for g in groups] if trace else []
    attempted, failures = _pinned(plain + traced)
    if trace:
        values, mismatches = per_layer(plain, traced)
        attempted += len(traced) - 1
        failures += mismatches
        values["wrong_verdict_share"] = len(failures) / attempted
        units = dict(PER_LAYER)
    else:
        setups = [u["setup_s"] for u in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_unit(workload, seed, "setup", scale,
                                max(1.0, left()))["setup_s"])
        units = END_TO_END_UNITS
        values = end_to_end(plain, setups)
    for f in failures:
        print(f"wrong: {f}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale)
    except (UnitFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
