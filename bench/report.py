"""Print every benchmark metric by name and unit, one row per workload.

    python3 bench/report.py [--seed N] [--seconds S]

Runs the benchmark on every workload, untraced and then traced, one run
after another, and prints two tables: the end-to-end metrics with one row
per workload, and the per-layer metrics with one column per workload, the
tracing overhead in the last row.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
from spans import PER_LAYER

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _cell(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    lines = [header] + rows
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths))
                     for line in lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=json.loads(BENCHMARK.read_text())["run_seconds"])
    args = p.parse_args(argv)

    plain, traced = {}, {}
    try:
        for w in run.WORKLOADS:
            plain[w] = run.run(w, args.seed, args.seconds, False, "full")
            traced[w] = run.run(w, args.seed, args.seconds, True, "full")
    except run.UnitFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = list(run.END_TO_END_UNITS)
    header = ["workload"] + [f"{n} [{run.END_TO_END_UNITS[n]}]"
                             for n in names] + ["wrong verdicts"]
    rows = [[w] + [_cell(plain[w]["metrics"][n]["value"]) for n in names]
            + [f"{plain[w]['failed']}/{plain[w]['attempted']}"]
            for w in run.WORKLOADS]
    print("end to end, untraced (setup_s and peak_rss_mb: medians over the "
          "run's units; verdict_s and histories_per_s: their slower "
          "quartile)")
    print(_table(header, rows))
    print()
    header = ["per layer, traced"] + list(run.WORKLOADS)
    rows = [[f"{n} [{u}]"] + [_cell(traced[w]["metrics"][n]["value"])
                              for w in run.WORKLOADS]
            for n, u in PER_LAYER]
    print(_table(header, rows))
    return 0 if all(r["correct"] for r in (*plain.values(),
                                            *traced.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
