"""Run one unit of one workload in this fresh process and print one JSON line.

    python3 bench/worker.py WORKLOAD SEED MODE LAUNCH [SCALE]

MODE is ``run`` (no tracing), ``trace`` (spans on every layer) or ``setup``
(stop at the first check call, to measure set-up alone).  LAUNCH is the
``time.monotonic()`` reading the parent took just before starting this
process.  SCALE is ``full`` (the default) or ``tiny``.
"""
from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from statistics import mean

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import durastm  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, mode, launch = argv[0], int(argv[1]), argv[2], float(argv[3])
    scale = argv[4] if len(argv) > 4 else "full"
    package = Path(durastm.__file__).resolve().parent
    if package != ROOT / "src" / "durastm":
        print(f"error: imported durastm from {package}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    clock = workloads.Clock(launch, probe=mode == "setup", tracer=tracer)
    try:
        out = workloads.run(name, seed, clock, scale)
    except workloads.SetupDone:
        print(json.dumps({"setup_s": clock.setup_s}))
        return 0
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "setup_s": clock.setup_s,
        "verdict_s": clock.verdict_s,
        "histories": out.histories,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": out.attempted,
        "failures": out.failures,
        "cex_events": mean(out.cex_lengths) if out.cex_lengths else 0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
